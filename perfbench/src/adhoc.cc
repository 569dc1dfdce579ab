// adhoc: never-repeating TQL texts on a default Engine (reference executor,
// simulated backend, plan cache on). Every operation misses the plan cache,
// so tql, rules/opt and algebra derivation do most of the work while exec
// runs on small inputs; vexec, backend and service stay idle.
#include <algorithm>
#include <cstdio>
#include <set>

#include "core/hash.h"
#include "workload.h"
#include "workload/generator.h"
#include "workload/paper_example.h"

namespace perfbench {
namespace {

using tqp::Catalog;
using tqp::Relation;
using tqp::Status;

// Operations per second of this workload at the seed commit (4-thread
// x86 host, Release); fixes the operation count of a run.
constexpr double kNominalOpsPerSecond = 40.0;

// One block holds each template once, in a seeded order: 1 in 7 operations
// is a two-relation VALIDTIME join, 1 in 7 the coalesced family.
constexpr int kTemplates = 7;
constexpr int kMaxDraws = 100000;
const char* const kTemplateNames[kTemplates] = {
    "selection", "distinct_order_by", "validtime_coalesced_distinct",
    "union",     "group_by",          "paper_query_filtered",
    "validtime_join"};

Catalog BuildCatalog(uint64_t seed) {
  Catalog catalog;
  catalog.RegisterWithInferredFlags(
      "EMPLOYEE", tqp::ScaledEmployee(8, tqp::HashMix64(seed ^ 0xe1)));
  catalog.RegisterWithInferredFlags(
      "PROJECT", tqp::ScaledProject(8, tqp::HashMix64(seed ^ 0xe2)));
  // Messy temporal relations: exact duplicates, adjacent (coalescible) and
  // overlapping value-equivalent periods.
  tqp::RelationGenParams p;
  p.num_names = 60;
  p.num_categories = 8;
  p.time_horizon = 1000;
  p.max_period_length = 60;
  p.duplicate_fraction = 0.1;
  p.adjacency_fraction = 0.15;
  p.overlap_fraction = 0.2;
  p.cardinality = 1400;
  p.seed = tqp::HashMix64(seed ^ 0xa1);
  catalog.RegisterWithInferredFlags("R", tqp::GenerateRelation(p));
  p.cardinality = 1050;
  p.seed = tqp::HashMix64(seed ^ 0xa2);
  catalog.RegisterWithInferredFlags("S", tqp::GenerateRelation(p));
  return catalog;
}

std::string Text(int tmpl, tqp::Rng& rng) {
  char buf[512];
  const char* rel = rng.Below(2) == 0 ? "R" : "S";
  const int a = static_cast<int>(rng.Below(950));
  const int b = a + 1 + static_cast<int>(rng.Below(200));
  const int k = static_cast<int>(rng.Below(8));
  const int d = static_cast<int>(rng.Below(3));
  const int j = static_cast<int>(rng.Below(3));
  const int t = static_cast<int>(rng.Below(60));
  switch (tmpl) {
    case 0:
      std::snprintf(buf, sizeof(buf),
                    "SELECT Name, Val FROM %s WHERE Val > %d AND Val < %d", rel,
                    a, b);
      break;
    case 1:
      std::snprintf(buf, sizeof(buf),
                    "SELECT DISTINCT Name, Cat FROM %s WHERE Val < %d AND "
                    "Cat <> %d ORDER BY Name ASC",
                    rel, a, k);
      break;
    case 2:
      std::snprintf(buf, sizeof(buf),
                    "VALIDTIME COALESCED SELECT DISTINCT Name FROM %s WHERE "
                    "Cat = %d AND Val > %d",
                    rel, k, a);
      break;
    case 3:
      std::snprintf(buf, sizeof(buf),
                    "SELECT Name FROM R WHERE Val > %d UNION SELECT Name FROM "
                    "S WHERE Val < %d",
                    a, b);
      break;
    case 4:
      std::snprintf(buf, sizeof(buf),
                    "SELECT Cat, COUNT(*) AS n, SUM(Val) AS s FROM %s WHERE "
                    "Val > %d GROUP BY Cat ORDER BY Cat",
                    rel, a);
      break;
    case 5:
      std::snprintf(buf, sizeof(buf),
                    "VALIDTIME COALESCED SELECT DISTINCT EmpName FROM EMPLOYEE "
                    "WHERE Dept <> 'dept%d' AND T1 >= %d EXCEPT SELECT EmpName "
                    "FROM PROJECT WHERE Prj <> 'prj%d' ORDER BY EmpName ASC",
                    d, t, j);
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    "VALIDTIME SELECT 1.EmpName AS EmpName, Dept, Prj FROM "
                    "EMPLOYEE, PROJECT WHERE 1.EmpName = 2.EmpName AND "
                    "Dept <> 'dept%d' AND Prj <> 'prj%d' AND 1.T1 >= %d",
                    d, j, t);
      break;
  }
  return buf;
}

class Adhoc : public Workload {
 public:
  size_t OpCount(double seconds) const override {
    return std::max<size_t>(
        1, static_cast<size_t>(seconds * kNominalOpsPerSecond + 0.5));
  }

  std::vector<Op> MakeOps(uint64_t seed, size_t n) const override {
    tqp::Rng rng(tqp::HashMix64(seed ^ 0xad0c));
    std::vector<Op> ops;
    std::set<std::string> seen;
    int order[kTemplates];
    while (ops.size() < n) {
      for (int i = 0; i < kTemplates; ++i) order[i] = i;
      for (int i = kTemplates - 1; i > 0; --i) {
        std::swap(order[i], order[rng.Below(static_cast<uint64_t>(i) + 1)]);
      }
      for (int i = 0; i < kTemplates && ops.size() < n; ++i) {
        Op op;
        op.tmpl = order[i];
        // Fresh constants per operation; a repeat is redrawn, so the plan
        // cache can never serve a text twice. A template has a few hundred
        // distinct texts: far longer runs than --seconds 60 exhaust it.
        int draws = 0;
        do {
          if (++draws > kMaxDraws) return {};
          op.text = Text(op.tmpl, rng);
        } while (!seen.insert(op.text).second);
        ops.push_back(std::move(op));
      }
    }
    return ops;
  }

  Status Setup(uint64_t seed, uint64_t* generate_ns) override {
    Teardown();
    const uint64_t t0 = NowNs();
    Catalog catalog = BuildCatalog(seed);
    *generate_ns = NowNs() - t0;
    engine_ = std::make_unique<tqp::Engine>(std::move(catalog));
    pipeline_ = std::make_unique<HandPipeline>(&engine_->catalog(),
                                               engine_->options());
    return Status::OK();
  }

  void Teardown() override {
    pipeline_.reset();
    engine_.reset();
    last_.reset();
  }

  void Run(const Op& op, OpRecord* rec) override {
    rec->start_ns = NowNs();
    tqp::Result<tqp::QueryResult> result = engine_->Query(op.text);
    rec->latency_ns = NowNs() - rec->start_ns;
    rec->returned = result.ok();
    if (result.ok()) {
      last_ = std::make_unique<tqp::QueryResult>(std::move(result).value());
      hits_ += last_->plan_cache_hit ? 1 : 0;
    } else {
      std::fprintf(stderr, "adhoc: query failed: %s\n  %s\n",
                   result.status().message().c_str(), op.text.c_str());
    }
    ++queries_;
  }

  void Verify(const Op& op, OpRecord* rec) override {
    if (!rec->returned) return;
    rec->fingerprint = last_->plan_fingerprint;
    rec->digest = DigestRelation(last_->relation);
    rec->derivation = last_->derivation;
    // The text is in the plan cache now: Prepare hands back the chosen and
    // initial plans without running the pipeline again.
    tqp::Result<tqp::PreparedQuery> prepared = engine_->Prepare(op.text);
    if (!prepared.ok() || prepared->fingerprint() != rec->fingerprint) return;
    const Oracle::Entry& want =
        oracle_.Get(op.text, prepared->best_plan(), prepared->initial_plan(),
                    prepared->contract(), engine_->catalog());
    rec->gate_ok = want.ok && want.digest == rec->digest;
    rec->contract_ok = rec->gate_ok && want.contract_ok;
    last_.reset();
  }

  bool Trace(const Op& op, uint64_t op_id, const OpRecord& facade,
             tqp::Tracer* tracer, LayerSums* sums) override {
    tqp::Result<Relation> result = tqp::Status::Error("not run");
    uint64_t fingerprint = 0;
    {
      tqp::TraceSpan root(tracer, "op", "query");
      TagOp(&root, op_id);
      tqp::Result<HandPipeline::Prepared> prepared =
          pipeline_->Prepare(op.text, tracer, op_id, sums);
      if (!prepared.ok()) return false;
      fingerprint = prepared->best->fingerprint();
      result = pipeline_->Execute(prepared->best, prepared->contract, tracer,
                                  op_id, sums);
    }
    return result.ok() && fingerprint == facade.fingerprint &&
           DigestRelation(*result) == facade.digest;
  }

  void FinishTrace(LayerSums* sums) override {
    const tqp::PlanInterner& in = pipeline_->interner();
    (*sums)["algebra.interner_nodes"] = static_cast<double>(in.unique_nodes());
    (*sums)["algebra.interner_hits"] = static_cast<double>(in.hits());
    (*sums)["algebra.derivation_nodes"] =
        static_cast<double>(pipeline_->derivations().size());
  }

  double PlanCacheHitRatio() const override {
    return queries_ == 0 ? 0.0 : static_cast<double>(hits_) / queries_;
  }

  std::string TemplateName(int tmpl) const override {
    return kTemplateNames[tmpl];
  }

 private:
  std::unique_ptr<tqp::Engine> engine_;
  std::unique_ptr<HandPipeline> pipeline_;
  std::unique_ptr<tqp::QueryResult> last_;
  Oracle oracle_;
  uint64_t hits_ = 0;
  uint64_t queries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAdhoc() { return std::make_unique<Adhoc>(); }

}  // namespace perfbench
