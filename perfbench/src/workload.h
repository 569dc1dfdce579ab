// The benchmark's workloads and the pieces they share: the seeded operation
// sequence, the per-operation record of the measured run, the two-tier
// oracle, and the hand-wired query pipeline of the traced run.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/intern.h"
#include "api/engine.h"
#include "core/trace.h"
#include "harness.h"

namespace perfbench {

/// One operation of a workload's seeded sequence.
struct Op {
  bool write = false;
  /// Template (adhoc) or fixed-query index (analytic, serve_rw).
  int tmpl = 0;
  /// TQL text of a read.
  std::string text;
  /// Written relation and the seed of its new contents (writes).
  std::string target;
  uint64_t payload_seed = 0;
};

/// What the measured run records per operation.
struct OpRecord {
  uint64_t start_ns = 0;
  uint64_t latency_ns = 0;
  /// The operation returned a result (a write: the mutation succeeded).
  bool returned = false;
  /// Tier 1: byte-identical to the reference evaluator on the chosen plan.
  bool gate_ok = false;
  /// Tier 2: the ≡SQL contract against the initial plan holds.
  bool contract_ok = false;
  /// Chosen plan and result digest as the facade produced them; the traced
  /// replay must reproduce both.
  uint64_t fingerprint = 0;
  uint64_t digest = 0;
  std::vector<std::string> derivation;
};

/// Per-layer totals of a traced replay, keyed by metric name.
using LayerSums = std::map<std::string, double>;

/// The two-tier oracle, computed once per (query, chosen plan, versions of
/// the relations it reads).
class Oracle {
 public:
  struct Entry {
    bool ok = false;
    /// Digest of the reference result, or of its wire frames.
    uint64_t digest = 0;
    /// The reference result satisfies the ≡SQL contract against the
    /// initial plan's result.
    bool contract_ok = false;
  };

  /// Evaluates `best` and `initial` with the reference evaluator under a
  /// default EngineConfig, annotated without session caches.
  /// `wire_batch_rows` > 0 digests the service's frame rendering instead of
  /// the relation.
  const Entry& Get(const std::string& text, const tqp::PlanPtr& best,
                   const tqp::PlanPtr& initial,
                   const tqp::QueryContract& contract,
                   const tqp::Catalog& catalog, size_t wire_batch_rows = 0);

 private:
  std::unordered_map<std::string, Entry> entries_;
};

/// The Engine's prepare + execute path wired by hand, one public entry point
/// per layer, each under a span: CompileQuery → PlanInterner::Intern →
/// EnumeratePlans → EstimatePlanCost per plan → AnnotatedPlan::Make →
/// Evaluate / ExecuteVectorized. Keeps one session interner and derivation
/// cache, as the Engine does.
class HandPipeline {
 public:
  /// `options` must be the live Engine's options (backend, result cache and
  /// calibration pointers included).
  HandPipeline(const tqp::Catalog* catalog, const tqp::EngineOptions& options);

  struct Prepared {
    tqp::PlanPtr best;
    tqp::QueryContract contract;
  };

  /// Compile + intern + enumerate + cost, under tql/algebra/opt spans.
  tqp::Result<Prepared> Prepare(const std::string& text, tqp::Tracer* tracer,
                                uint64_t op_id, LayerSums* sums);

  /// Annotate + execute under algebra/exec (or vexec) spans. Per-operator
  /// self time lands in sums as "<layer>.op.<kind>.self_ms".
  tqp::Result<tqp::Relation> Execute(const tqp::PlanPtr& best,
                                     const tqp::QueryContract& contract,
                                     tqp::Tracer* tracer, uint64_t op_id,
                                     LayerSums* sums);

  /// Drops the derivation cache, as the Engine does after a catalog write.
  void ResetDerivations();

  const tqp::PlanInterner& interner() const { return interner_; }
  const tqp::DerivationCache& derivations() const { return *derivation_; }

 private:
  const tqp::Catalog* catalog_;
  const tqp::EngineOptions& options_;
  tqp::PlanInterner interner_;
  std::unique_ptr<tqp::DerivationCache> derivation_;
};

/// Tags a span with its operation id.
void TagOp(tqp::TraceSpan* span, uint64_t op_id);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Operations in a run of `seconds`: the workload's nominal rate at the
  /// seed commit times the seconds. Fixed per (workload, seconds), so every
  /// run of a configuration does identical work whatever its speed.
  virtual size_t OpCount(double seconds) const = 0;
  /// The seeded operation sequence; empty if the workload cannot make `n`
  /// operations.
  virtual std::vector<Op> MakeOps(uint64_t seed, size_t n) const = 0;
  /// Generates the catalog (generation time into *generate_ns) and builds
  /// engine, backend and server; prepares and warms up. Replaces any
  /// previous instance, which is torn down first.
  virtual tqp::Status Setup(uint64_t seed, uint64_t* generate_ns) = 0;
  virtual void Teardown() = 0;
  /// Runs one operation as the workload's client does; times only it.
  virtual void Run(const Op& op, OpRecord* rec) = 0;
  /// Checks the operation's output, outside every timed region.
  virtual void Verify(const Op& op, OpRecord* rec) = 0;
  /// Replays one operation through the layers' entry points under an "op"
  /// root span. False if its plan or result bytes differ from `facade`.
  virtual bool Trace(const Op& op, uint64_t op_id, const OpRecord& facade,
                     tqp::Tracer* tracer, LayerSums* sums) = 0;
  /// Layer counters read once after the replay (engine stats and such).
  virtual void FinishTrace(LayerSums* /*sums*/) {}
  /// Plan-cache hit ratio of the workload's reads.
  virtual double PlanCacheHitRatio() const = 0;
  /// Template name for violation reports.
  virtual std::string TemplateName(int tmpl) const = 0;
};

std::unique_ptr<Workload> MakeAdhoc();
std::unique_ptr<Workload> MakeAnalytic();
std::unique_ptr<Workload> MakeServeRw();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
