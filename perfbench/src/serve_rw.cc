// serve_rw: writes beside reads. An Engine on the SQLite backend (in-memory)
// with incremental execution on, served by the query service to one client
// over loopback. Reads repeat a handful of texts over R (never written), S
// and A; about every 20th operation replaces A or appends a small batch to
// S in-process, and the next operation reads a query that depends on it. The
// api, exec result-cache and algebra layers are used the opposite way from
// adhoc (invalidate, re-prepare, recompute), and this is the only workload
// through service and a real backend.
#include <algorithm>
#include <cstdio>
#include <map>

#include "backend/sqlite_backend.h"
#include "core/hash.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "workload.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using tqp::Catalog;
using tqp::CatalogEntry;
using tqp::Relation;
using tqp::Status;

// Operations per second of this workload at the seed commit (4-thread x86
// host, Release); fixes the operation count of a run.
constexpr double kNominalOpsPerSecond = 80.0;
constexpr size_t kWriteEvery = 20;
constexpr size_t kBatchRows = 256;  // ServerOptions default

struct ReadQuery {
  const char* name;
  const char* text;
  bool reads_s;
  bool reads_a;
};
const ReadQuery kReads[] = {
    {"r_filter", "SELECT Name, Val FROM R WHERE Val > 940", false, false},
    {"r_group_by",
     "SELECT Name, Val, COUNT(*) AS n FROM R WHERE Val < 60 GROUP BY Name, "
     "Val ORDER BY Name, Val",
     false, false},
    {"s_filter", "SELECT Name, Cat, Val FROM S WHERE Val < 250", true, false},
    {"s_group_by",
     "SELECT Name, Val, COUNT(*) AS n FROM S WHERE Val > 800 GROUP BY Name, "
     "Val ORDER BY Name, Val",
     true, false},
    {"a_union_all_s",
     "SELECT Name, Val FROM A UNION ALL SELECT Name, Val FROM S WHERE Val < 200",
     true, true},
    {"s_union_a",
     "SELECT Name, Cat, Val FROM S WHERE Val > 800 UNION SELECT Name, Cat, Val "
     "FROM A",
     true, true},
};
constexpr int kReadCount = sizeof(kReads) / sizeof(kReads[0]);
constexpr int kWriteA = 100;
constexpr int kWriteS = 101;

tqp::RelationGenParams MessyParams(size_t cardinality, uint64_t seed) {
  tqp::RelationGenParams p;
  p.cardinality = cardinality;
  p.num_names = 60;
  p.num_categories = 8;
  p.time_horizon = 10000;
  p.max_period_length = 200;
  p.duplicate_fraction = 0.1;
  p.adjacency_fraction = 0.15;
  p.overlap_fraction = 0.2;
  p.seed = seed;
  return p;
}

Relation MakeA(uint64_t seed) {
  tqp::RelationGenParams p = MessyParams(64, seed);
  p.duplicate_fraction = p.adjacency_fraction = p.overlap_fraction = 0.0;
  return tqp::GenerateRelation(p);
}

CatalogEntry EntryFor(Relation data) {
  CatalogEntry e;
  e.duplicate_free = !data.HasDuplicates();
  e.snapshot_duplicate_free = !data.HasSnapshotDuplicates();
  e.coalesced = data.IsCoalesced();
  e.data = std::move(data);
  return e;
}

class ServeRw : public Workload {
 public:
  size_t OpCount(double seconds) const override {
    return std::max<size_t>(
        1, static_cast<size_t>(seconds * kNominalOpsPerSecond + 0.5));
  }

  std::vector<Op> MakeOps(uint64_t seed, size_t n) const override {
    tqp::Rng rng(tqp::HashMix64(seed ^ 0x5e7e));
    std::vector<int> block;
    std::vector<Op> ops;
    while (ops.size() < n) {
      Op op;
      // Writes sit mid-block, so the last operation of a run is never one
      // and every write has its freshness sample.
      if (ops.size() % kWriteEvery == kWriteEvery / 2) {
        const bool to_a = rng.Below(2) == 0;
        op.write = true;
        op.tmpl = to_a ? kWriteA : kWriteS;
        op.target = to_a ? "A" : "S";
        op.payload_seed = rng.Next();
        ops.push_back(op);
        if (ops.size() == n) break;
        // The next read depends on the relation just written.
        Op read;
        do {
          read.tmpl = static_cast<int>(rng.Below(kReadCount));
        } while (!(to_a ? kReads[read.tmpl].reads_a
                        : kReads[read.tmpl].reads_s));
        read.text = kReads[read.tmpl].text;
        ops.push_back(read);
        continue;
      }
      // Otherwise the reads cycle through every text in seeded order.
      if (block.empty()) {
        for (int i = 0; i < kReadCount; ++i) block.push_back(i);
        for (int i = kReadCount - 1; i > 0; --i) {
          std::swap(block[i], block[rng.Below(static_cast<uint64_t>(i) + 1)]);
        }
      }
      op.tmpl = block.back();
      block.pop_back();
      op.text = kReads[op.tmpl].text;
      ops.push_back(op);
    }
    return ops;
  }

  Status Setup(uint64_t seed, uint64_t* generate_ns) override {
    Teardown();
    const uint64_t t0 = NowNs();
    Catalog catalog;
    catalog.RegisterWithInferredFlags(
        "R", tqp::GenerateRelation(MessyParams(70000, tqp::HashMix64(seed ^ 0xc1))));
    catalog.RegisterWithInferredFlags(
        "S", tqp::GenerateRelation(MessyParams(14000, tqp::HashMix64(seed ^ 0xc2))));
    catalog.RegisterWithInferredFlags("A", MakeA(tqp::HashMix64(seed ^ 0xc3)));
    *generate_ns = NowNs() - t0;

    tqp::EngineOptions options;
    options.backend = tqp::BackendKind::kSqlite;
    options.incremental_execution = true;
    engine_ = std::make_unique<tqp::Engine>(std::move(catalog), options);
    sqlite_ = dynamic_cast<tqp::SqliteBackend*>(engine_->backend());
    if (sqlite_ == nullptr) return Status::Error("SQLite backend unavailable");
    server_ = std::make_unique<tqp::Server>(engine_.get(), tqp::ServerOptions{});
    TQP_RETURN_IF_ERROR(server_->Start());
    client_ = std::make_unique<tqp::ServiceClient>();
    TQP_RETURN_IF_ERROR(client_->Connect(server_->host(), server_->port()));
    // Warm-up: every read text once, so plans, results and the backend
    // mirror are in place before the first timed operation.
    for (const ReadQuery& q : kReads) {
      tqp::Result<tqp::QueryOutcome> out = client_->RunQuery(q.text);
      if (!out.ok()) return out.status();
      if (!out->ok) return Status::Error(out->error);
    }
    pipeline_ = std::make_unique<HandPipeline>(&engine_->catalog(),
                                               engine_->options());
    for (int i = 0; i < kReadCount; ++i) prepared_versions_[i] = DepVersions(i);
    return Status::OK();
  }

  void Teardown() override {
    pipeline_.reset();
    client_.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    sqlite_ = nullptr;
    engine_.reset();
    prepared_versions_.clear();
  }

  // The new contents of the written relation, built outside the timed
  // region from the current catalog.
  CatalogEntry Payload(const Op& op) const {
    if (op.target == "A") return EntryFor(MakeA(op.payload_seed));
    Relation s = engine_->catalog().Find("S")->data;
    Relation batch =
        tqp::GenerateRelation(MessyParams(24, op.payload_seed));
    for (const tqp::Tuple& t : batch.tuples()) s.Append(t);
    return EntryFor(std::move(s));
  }

  Status Write(const Op& op, CatalogEntry entry) {
    return engine_->MutateCatalog([&](Catalog& c) {
      return c.Update(op.target, std::move(entry));
    });
  }

  void Run(const Op& op, OpRecord* rec) override {
    if (op.write) {
      CatalogEntry entry = Payload(op);
      rec->start_ns = NowNs();
      Status st = Write(op, std::move(entry));
      rec->latency_ns = NowNs() - rec->start_ns;
      rec->returned = st.ok();
      return;
    }
    rec->start_ns = NowNs();
    tqp::Result<tqp::QueryOutcome> out = client_->RunQuery(op.text, true);
    rec->latency_ns = NowNs() - rec->start_ns;
    rec->returned = out.ok() && out->ok;
    if (rec->returned) {
      raw_ = std::move(out->raw);
    } else {
      std::fprintf(stderr, "serve_rw: query failed: %s\n",
                   out.ok() ? out->error.c_str()
                            : out.status().message().c_str());
    }
  }

  void Verify(const Op& op, OpRecord* rec) override {
    if (op.write) {
      rec->gate_ok = rec->contract_ok = rec->returned;
      return;
    }
    if (!rec->returned) return;
    rec->digest = tqp::HashString(raw_);
    raw_.clear();
    // Quiescent engine: Prepare serves the plan the server just ran.
    tqp::Result<tqp::PreparedQuery> prepared = engine_->Prepare(op.text);
    if (!prepared.ok()) return;
    rec->fingerprint = prepared->fingerprint();
    rec->derivation = prepared->derivation();
    const Oracle::Entry& want =
        oracle_.Get(op.text, prepared->best_plan(), prepared->initial_plan(),
                    prepared->contract(), engine_->catalog(), kBatchRows);
    rec->gate_ok = want.ok && want.digest == rec->digest;
    rec->contract_ok = rec->gate_ok && want.contract_ok;
  }

  // Versions of the relations `text` reads, to tell a plan-cache hit from a
  // re-prepare before the traced replay runs it.
  std::string DepVersions(int tmpl) const {
    const Catalog& c = engine_->catalog();
    std::string v = std::to_string(c.relation_version("R"));
    if (kReads[tmpl].reads_s) v += "/" + std::to_string(c.relation_version("S"));
    if (kReads[tmpl].reads_a) v += "/" + std::to_string(c.relation_version("A"));
    return v;
  }

  bool Trace(const Op& op, uint64_t op_id, const OpRecord& facade,
             tqp::Tracer* tracer, LayerSums* sums) override {
    if (op.write) {
      CatalogEntry entry = Payload(op);
      const int64_t loads0 = sqlite_->mirror_loads();
      Status st;
      {
        tqp::TraceSpan root(tracer, "op", "write");
        TagOp(&root, op_id);
        {
          tqp::TraceSpan span(tracer, "core", "mutate");
          TagOp(&span, op_id);
          st = Write(op, std::move(entry));
        }
        // Mirroring, timed apart from the queries that would trigger it.
        tqp::TraceSpan span(tracer, "backend", "sync_after_write");
        TagOp(&span, op_id);
        if (st.ok()) st = sqlite_->SyncCatalog(engine_->catalog());
      }
      pipeline_->ResetDerivations();
      // And once more on the unchanged catalog.
      const uint64_t t0 = NowNs();
      Status again = sqlite_->SyncCatalog(engine_->catalog());
      (*sums)["backend.sync_unchanged_ms"] += NsToMs(NowNs() - t0);
      (*sums)["backend.sync_unchanged_calls"] += 1;
      (*sums)["backend.mirror_loads"] +=
          static_cast<double>(sqlite_->mirror_loads() - loads0);
      return st.ok() && again.ok();
    }

    const bool hit = DepVersions(op.tmpl) == prepared_versions_[op.tmpl];
    tqp::Result<Relation> result = tqp::Status::Error("not run");
    uint64_t fingerprint = 0;
    {
      tqp::TraceSpan root(tracer, "op", "read");
      TagOp(&root, op_id);
      tqp::PlanPtr best;
      tqp::QueryContract contract;
      if (hit) {
        // Served from the plan cache: the api layer is all there is.
        const uint64_t t0 = NowNs();
        tqp::Result<tqp::PreparedQuery> prepared = [&] {
          tqp::TraceSpan span(tracer, "api", "prepare");
          TagOp(&span, op_id);
          return engine_->Prepare(op.text);
        }();
        if (!prepared.ok() || !prepared->from_cache()) return false;
        (*sums)["api.prepare_hit_ms"] += NsToMs(NowNs() - t0);
        (*sums)["api.prepare_hits"] += 1;
        ++trace_hits_;
        best = prepared->best_plan();
        contract = prepared->contract();
      } else {
        // A re-prepare: the facade would compile and optimize again, so the
        // replay calls those layers itself.
        tqp::Result<HandPipeline::Prepared> prepared =
            pipeline_->Prepare(op.text, tracer, op_id, sums);
        if (!prepared.ok()) return false;
        best = prepared->best;
        contract = prepared->contract;
      }
      fingerprint = best->fingerprint();
      result = pipeline_->Execute(best, contract, tracer, op_id, sums);
    }
    if (!hit) {
      // Install the plan in the engine's cache, timing the facade's miss.
      const uint64_t t0 = NowNs();
      tqp::Result<tqp::PreparedQuery> prepared = engine_->Prepare(op.text);
      if (!prepared.ok() || prepared->fingerprint() != fingerprint) return false;
      (*sums)["api.prepare_miss_ms"] += NsToMs(NowNs() - t0);
      (*sums)["api.prepare_misses"] += 1;
      ++trace_misses_;
      prepared_versions_[op.tmpl] = DepVersions(op.tmpl);
    }
    // The service layer, outside the operation's span: a round trip on the
    // now warm engine against an in-process Query of the same text on the
    // same quiescent engine.
    const uint64_t r0 = NowNs();
    tqp::Result<tqp::QueryOutcome> wire = client_->RunQuery(op.text, true);
    const uint64_t roundtrip_ns = NowNs() - r0;
    const uint64_t q0 = NowNs();
    tqp::Result<tqp::QueryResult> local = engine_->Query(op.text);
    const uint64_t local_ns = NowNs() - q0;
    if (!wire.ok() || !wire->ok || !local.ok() || !result.ok()) return false;
    (*sums)["service.roundtrips"] += 1;
    (*sums)["service.roundtrip_ms"] += NsToMs(roundtrip_ns);
    (*sums)["service.self_ms"] +=
        NsToMs(roundtrip_ns) - NsToMs(local_ns);
    (*sums)["service.bytes"] += static_cast<double>(wire->raw.size());
    (*sums)["service.rows"] += static_cast<double>(wire->rows);
    const uint64_t replay =
        tqp::HashString(RenderWireFrames(*result, kBatchRows));
    return fingerprint == facade.fingerprint && replay == facade.digest &&
           tqp::HashString(wire->raw) == facade.digest;
  }

  void FinishTrace(LayerSums* sums) override {
    tqp::EngineStats stats = engine_->stats();
    (*sums)["api.stale_evictions"] =
        static_cast<double>(stats.plan_cache_stale_evictions);
    (*sums)["exec.result_cache_evictions"] =
        static_cast<double>(stats.result_cache_evictions);
    (*sums)["exec.result_cache_mb"] =
        static_cast<double>(stats.result_cache_bytes) / (1024.0 * 1024.0);
    const tqp::PlanInterner& in = pipeline_->interner();
    (*sums)["algebra.interner_nodes"] = static_cast<double>(in.unique_nodes());
    (*sums)["algebra.interner_hits"] = static_cast<double>(in.hits());
    (*sums)["algebra.derivation_nodes"] =
        static_cast<double>(pipeline_->derivations().size());
  }

  double PlanCacheHitRatio() const override {
    // Counted over the traced replay's reads: the measured run's own
    // Prepare calls in Verify would count as hits.
    const uint64_t reads = trace_hits_ + trace_misses_;
    return reads == 0 ? 0.0 : static_cast<double>(trace_hits_) / reads;
  }

  std::string TemplateName(int tmpl) const override {
    if (tmpl == kWriteA) return "write_replace_a";
    if (tmpl == kWriteS) return "write_append_s";
    return kReads[tmpl].name;
  }

 private:
  std::unique_ptr<tqp::Engine> engine_;
  tqp::SqliteBackend* sqlite_ = nullptr;
  std::unique_ptr<tqp::Server> server_;
  std::unique_ptr<tqp::ServiceClient> client_;
  std::unique_ptr<HandPipeline> pipeline_;
  std::map<int, std::string> prepared_versions_;
  std::string raw_;
  Oracle oracle_;
  uint64_t trace_hits_ = 0;
  uint64_t trace_misses_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeRw() { return std::make_unique<ServeRw>(); }

}  // namespace perfbench
