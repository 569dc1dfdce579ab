// analytic: a fixed dashboard of queries prepared during setup and run
// round-robin by the vectorized executor at four threads, result cache off.
// No operation enumerates, so vexec kernels, morsel scheduling and
// materialisation do the work and tql/opt do none.
#include <algorithm>
#include <cstdio>

#include "core/hash.h"
#include "workload.h"
#include "workload/generator.h"
#include "workload/paper_example.h"

namespace perfbench {
namespace {

using tqp::Catalog;
using tqp::Relation;
using tqp::Status;

// Operations per second of this workload at the seed commit (4-thread x86
// host, Release); fixes the operation count of a run.
constexpr double kNominalOpsPerSecond = 13.0;
constexpr size_t kThreads = 4;

// Together the dashboard covers π σ ∪ ⊎ \T rdup rdupT coalT ℵ ℵT sort.
// Their costs are spread apart so that the median of a run falls in the
// middle of one query's samples (union_all) and p90 inside another's
// (validtime_group_by), never between two modes.
struct DashboardQuery {
  const char* name;
  const char* text;
};
const DashboardQuery kDashboard[] = {
    {"select_sort", "SELECT Name, Val FROM R WHERE Val > 900 ORDER BY Val DESC"},
    {"group_by_skewed",
     "SELECT Cat, COUNT(*) AS n, SUM(Val) AS s FROM Z GROUP BY Cat ORDER BY "
     "Cat"},
    {"union", "SELECT Name, Cat FROM R WHERE Val < 50 UNION SELECT Name, Cat "
              "FROM R WHERE Val > 950"},
    {"union_all", "SELECT Name, Val FROM R WHERE Val < 400 UNION ALL SELECT "
                  "Name, Val FROM R WHERE Val > 600"},
    {"validtime_group_by",
     "VALIDTIME SELECT Name, COUNT(*) AS n FROM Z WHERE Cat < 2 GROUP BY Name"},
    {"paper_query",
     "VALIDTIME COALESCED SELECT DISTINCT EmpName FROM EMPLOYEE EXCEPT SELECT "
     "EmpName FROM PROJECT ORDER BY EmpName ASC"},
    {"validtime_distinct",
     "VALIDTIME SELECT DISTINCT Name, Cat FROM R WHERE Val < 500"},
};
constexpr int kQueries = sizeof(kDashboard) / sizeof(kDashboard[0]);

Catalog BuildCatalog(uint64_t seed) {
  Catalog catalog;
  // Messy: duplicates, adjacent and overlapping value-equivalent periods.
  tqp::RelationGenParams p;
  p.cardinality = 140000;
  p.num_names = 5000;
  p.num_categories = 16;
  p.time_horizon = 100000;
  p.max_period_length = 400;
  p.duplicate_fraction = 0.1;
  p.adjacency_fraction = 0.15;
  p.overlap_fraction = 0.2;
  p.seed = tqp::HashMix64(seed ^ 0xb1);
  catalog.RegisterWithInferredFlags("R", tqp::GenerateRelation(p));
  // The same shape with Zipf-skewed Name and Val draws.
  p.value_zipf = 1.1;
  p.seed = tqp::HashMix64(seed ^ 0xb2);
  catalog.RegisterWithInferredFlags("Z", tqp::GenerateRelation(p));
  catalog.RegisterWithInferredFlags(
      "EMPLOYEE", tqp::ScaledEmployee(16000, tqp::HashMix64(seed ^ 0xb3)));
  catalog.RegisterWithInferredFlags(
      "PROJECT", tqp::ScaledProject(16000, tqp::HashMix64(seed ^ 0xb4)));
  return catalog;
}

class Analytic : public Workload {
 public:
  size_t OpCount(double seconds) const override {
    // Whole rounds, so every query has the same number of samples and the
    // median and tail ranks fall at the same place in the latency modes.
    const size_t rounds = static_cast<size_t>(
        seconds * kNominalOpsPerSecond / kQueries + 0.5);
    return std::max<size_t>(1, rounds) * kQueries;
  }

  std::vector<Op> MakeOps(uint64_t seed, size_t n) const override {
    // Round-robin from a seeded starting query.
    const int first = static_cast<int>(tqp::HashMix64(seed) % kQueries);
    std::vector<Op> ops(n);
    for (size_t i = 0; i < n; ++i) {
      ops[i].tmpl = static_cast<int>((first + i) % kQueries);
      ops[i].text = kDashboard[ops[i].tmpl].text;
    }
    return ops;
  }

  Status Setup(uint64_t seed, uint64_t* generate_ns) override {
    Teardown();
    const uint64_t t0 = NowNs();
    Catalog catalog = BuildCatalog(seed);
    *generate_ns = NowNs() - t0;
    tqp::EngineOptions options;
    options.executor = tqp::ExecutorKind::kVectorized;
    options.vexec_threads = kThreads;
    engine_ = std::make_unique<tqp::Engine>(std::move(catalog), options);
    for (const DashboardQuery& q : kDashboard) {
      tqp::Result<tqp::PreparedQuery> prepared = engine_->Prepare(q.text);
      if (!prepared.ok()) return prepared.status();
      prepared_.push_back(std::move(prepared).value());
    }
    for (tqp::PreparedQuery& q : prepared_) {
      tqp::Result<tqp::QueryResult> warm = q.Execute();
      if (!warm.ok()) return warm.status();
    }
    pipeline_ = std::make_unique<HandPipeline>(&engine_->catalog(),
                                               engine_->options());
    return Status::OK();
  }

  void Teardown() override {
    last_.reset();
    pipeline_.reset();
    prepared_.clear();
    engine_.reset();
  }

  void Run(const Op& op, OpRecord* rec) override {
    rec->start_ns = NowNs();
    tqp::Result<tqp::QueryResult> result = prepared_[op.tmpl].Execute();
    rec->latency_ns = NowNs() - rec->start_ns;
    rec->returned = result.ok();
    if (result.ok()) {
      last_ = std::make_unique<tqp::QueryResult>(std::move(result).value());
      hits_ += last_->plan_cache_hit ? 1 : 0;
    } else {
      std::fprintf(stderr, "analytic: query failed: %s\n",
                   result.status().message().c_str());
    }
    ++queries_;
  }

  void Verify(const Op& op, OpRecord* rec) override {
    if (!rec->returned) return;
    const tqp::PreparedQuery& q = prepared_[op.tmpl];
    rec->fingerprint = last_->plan_fingerprint;
    rec->digest = DigestRelation(last_->relation);
    rec->derivation = last_->derivation;
    last_.reset();
    const Oracle::Entry& want =
        oracle_.Get(op.text, q.best_plan(), q.initial_plan(), q.contract(),
                    engine_->catalog());
    rec->gate_ok = want.ok && want.digest == rec->digest &&
                   q.fingerprint() == rec->fingerprint;
    rec->contract_ok = rec->gate_ok && want.contract_ok;
  }

  bool Trace(const Op& op, uint64_t op_id, const OpRecord& facade,
             tqp::Tracer* tracer, LayerSums* sums) override {
    const tqp::PreparedQuery& q = prepared_[op.tmpl];
    tqp::Result<Relation> result = tqp::Status::Error("not run");
    {
      tqp::TraceSpan root(tracer, "op", "query");
      TagOp(&root, op_id);
      result = pipeline_->Execute(q.best_plan(), q.contract(), tracer, op_id,
                                  sums);
    }
    return result.ok() && q.fingerprint() == facade.fingerprint &&
           DigestRelation(*result) == facade.digest;
  }

  void FinishTrace(LayerSums* sums) override {
    tqp::EngineStats stats = engine_->stats();
    (*sums)["algebra.interner_nodes"] = static_cast<double>(stats.interner_nodes);
    (*sums)["algebra.interner_hits"] = static_cast<double>(stats.interner_hits);
    (*sums)["algebra.derivation_nodes"] =
        static_cast<double>(pipeline_->derivations().size());
  }

  double PlanCacheHitRatio() const override {
    return queries_ == 0 ? 0.0 : static_cast<double>(hits_) / queries_;
  }

  std::string TemplateName(int tmpl) const override {
    return kDashboard[tmpl].name;
  }

 private:
  std::unique_ptr<tqp::Engine> engine_;
  std::vector<tqp::PreparedQuery> prepared_;
  std::unique_ptr<HandPipeline> pipeline_;
  std::unique_ptr<tqp::QueryResult> last_;
  Oracle oracle_;
  uint64_t hits_ = 0;
  uint64_t queries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytic() { return std::make_unique<Analytic>(); }

}  // namespace perfbench
