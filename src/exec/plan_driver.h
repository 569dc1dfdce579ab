// The per-node plan driver shared by both executors.
//
// The layered architecture (Section 2.1) cuts every plan at transferS /
// transferD into DBMS and stratum parts, and Section 4.5 lets the DBMS return
// any order below a cut. What an executor does at those cuts lives here,
// once: the trace/profile shell, the result-cache splice at transfer/root
// cut points, transferS pushdown (runtime fallback, up-front refusal), the
// simulated site accounting, and the gating of the DBMS order scramble.
//
// The executors derive from PlanDriver through CRTP (no virtual call per
// node) and supply their table-specific parts: Rows, FromRows (cache hit,
// pushdown), ToRows (cache insert), Apply (the operator kernels), Scramble,
// and StampOrder (the order annotation), plus the optional AccountBatches
// (executor counters), Intercept (runs before a node's children) and
// RootToRows (the root's cache insert).
#ifndef TQP_EXEC_PLAN_DRIVER_H_
#define TQP_EXEC_PLAN_DRIVER_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "algebra/derivation.h"
#include "backend/backend.h"
#include "core/profile.h"
#include "core/trace.h"
#include "exec/cost_model.h"
#include "exec/evaluator.h"
#include "exec/result_cache.h"

namespace tqp {

template <typename Derived, typename Table>
class PlanDriver {
 public:
  /// `executor_tag` is folded into the result-cache contract fingerprint so
  /// the executors never splice each other's cut-point materializations
  /// (only their root results are contractually identical); `category` is
  /// the trace-span category of every span the driver emits.
  PlanDriver(const AnnotatedPlan& ann, const EngineConfig& config,
             ExecStats* stats, uint64_t executor_tag, const char* category)
      : ann(ann),
        config(config),
        stats(stats),
        category_(category),
        contract_fp_(ContractFingerprint(ann.contract(), executor_tag)) {}

  /// Per-node observability shell: times the node and stamps the profile /
  /// emits a span when either is requested, then delegates. The common
  /// (untraced, unprofiled) path is the two null tests.
  Result<Table> Eval(const PlanPtr& node, ProfileNode* prof) {
    if (config.tracer == nullptr && prof == nullptr) {
      return EvalCached(node, nullptr);
    }
    std::chrono::steady_clock::time_point t0;
    if (prof != nullptr) t0 = std::chrono::steady_clock::now();
    TraceSpan span(config.tracer, category_, OpKindName(node->kind()));
    Result<Table> result = EvalCached(node, prof);
    if (prof != nullptr) {
      Stamp(prof, *node);
      prof->wall_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      if (result.ok()) {
        prof->rows_out = static_cast<int64_t>(Derived::Rows(result.value()));
      }
    }
    if (span.active() && result.ok()) {
      span.Arg("rows", static_cast<uint64_t>(Derived::Rows(result.value())));
    }
    return result;
  }

  // Executor hooks with nothing to do by default.
  void AccountBatches(const PlanNode*, double, double, size_t, ProfileNode*) {}
  /// The root's row form for the result-cache insert; an executor that
  /// returns rows converted from another table type overrides it to keep
  /// the conversion for its own return.
  Relation RootToRows(const Table& t, const NodeInfo& info) {
    return derived().ToRows(t, info);
  }
  std::optional<Result<Table>> Intercept(const PlanPtr&, ProfileNode*) {
    return std::nullopt;
  }

 protected:
  /// Appends a child to `prof`'s tree; null when not profiling.
  static ProfileNode* AddChild(ProfileNode* prof) {
    if (prof == nullptr) return nullptr;
    prof->children.emplace_back();
    return &prof->children.back();
  }
  static void Stamp(ProfileNode* prof, const PlanNode& node) {
    prof->op = node.Describe();
    prof->kind = OpKindName(node.kind());
  }

  /// The simulated cost accounting of one executed operator: operator
  /// count, produced tuples, and its work units charged to its site (a
  /// transfer charges the transfer cost per input tuple instead), plus the
  /// executor's own counters. `prof` (when non-null) records the input rows.
  void Account(const PlanNode* node, const NodeInfo& info, double in1,
               double in2, size_t out_rows, ProfileNode* prof) {
    if (prof != nullptr) prof->rows_in = static_cast<int64_t>(in1 + in2);
    derived().AccountBatches(node, in1, in2, out_rows, prof);
    if (stats == nullptr) return;
    ++stats->op_counts[OpKindName(node->kind())];
    stats->tuples_produced += static_cast<int64_t>(out_rows);
    if (node->kind() == OpKind::kScan) in1 = static_cast<double>(out_rows);
    if (node->kind() == OpKind::kTransferS ||
        node->kind() == OpKind::kTransferD) {
      stats->tuples_transferred += static_cast<int64_t>(in1);
      stats->stratum_work += in1 * config.transfer_cost_per_tuple;
      return;
    }
    double units = OpWorkUnits(node->kind(), in1, in2,
                               static_cast<double>(out_rows));
    if (info.site == Site::kDbms) {
      double penalty =
          IsTemporalOp(node->kind()) ? config.dbms_temporal_penalty : 1.0;
      stats->dbms_work += units * penalty;
    } else {
      stats->stratum_work += units * config.stratum_cpu_factor;
    }
  }

  /// Whether the simulated DBMS reorders this node's output: the DBMS owes
  /// no order except for sorts, and scans and transferD results keep theirs.
  bool ScramblesAt(const PlanNode* node, const NodeInfo& info) const {
    return config.dbms_scrambles_order && info.site == Site::kDbms &&
           node->kind() != OpKind::kSort && node->kind() != OpKind::kScan &&
           node->kind() != OpKind::kTransferD;
  }

  /// Models the DBMS's freedom over result order (Section 4.5) with the
  /// deterministic scramble, whose output is a function of the tuple
  /// multiset only — any dependence of downstream results on the input
  /// *order* is thereby surfaced in tests.
  void MaybeScramble(const PlanNode* node, const NodeInfo& info, Table* t) {
    if (!ScramblesAt(node, info)) return;
    TraceSpan span(config.tracer, category_, "scramble");
    if (span.active()) {
      span.Arg("rows", static_cast<uint64_t>(Derived::Rows(*t)));
    }
    derived().Scramble(t, config.scramble_seed);
  }

  const AnnotatedPlan& ann;
  const EngineConfig& config;
  ExecStats* stats;

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }

  Result<Table> EvalCached(const PlanPtr& node, ProfileNode* prof) {
    // Cut points where cached results are probed/installed: the transfer
    // boundaries (where the layered architecture materializes anyway) and
    // the root. Finer-grained caching would tax cold runs with a copy per
    // operator for results that can only be spliced at materialization
    // boundaries anyway.
    if (config.result_cache == nullptr ||
        (node->kind() != OpKind::kTransferS &&
         node->kind() != OpKind::kTransferD && node != ann.plan())) {
      return EvalInner(node, prof);
    }
    const NodeInfo& info = ann.info(node.get());
    SubplanCacheKey key = MakeSubplanCacheKey(
        node, info, ann.catalog(), config.result_cache_env, contract_fp_);
    auto cached = [&] {
      TraceSpan probe(config.tracer, category_, "result_cache_probe");
      auto c = config.result_cache->Lookup(key);
      if (probe.active()) probe.Arg("hit", uint64_t{c ? 1u : 0u});
      return c;
    }();
    if (cached) {
      // Splice: the cached relation carries the bytes, list order, and
      // order annotation the subtree would reproduce; nothing below the
      // cut is accounted (it did not run).
      if (stats != nullptr) ++stats->result_cache_hits;
      if (prof != nullptr) prof->result_cache_hit = true;
      return derived().FromRows(*cached);
    }
    if (stats != nullptr) ++stats->result_cache_misses;
    TQP_ASSIGN_OR_RETURN(result, EvalInner(node, prof));
    config.result_cache->Insert(key, node == ann.plan()
                                         ? derived().RootToRows(result, info)
                                         : derived().ToRows(result, info));
    return std::move(result);
  }

  Result<Table> EvalInner(const PlanPtr& node, ProfileNode* prof) {
    const NodeInfo& info = ann.info(node.get());
    // A transferS cut whose subtree the backend can run natively is fetched
    // as one SQL statement instead of being evaluated here; only the
    // transfer itself is accounted (no profile input rows: nothing below
    // ran here). A runtime failure falls back to the in-engine path below —
    // pushdown is an optimization, never a correctness dependency.
    if (node->kind() == OpKind::kTransferS && config.backend != nullptr &&
        config.backend->SupportsPushdown()) {
      if (CanPushCut(*config.backend, node->child(0), ann)) {
        auto pushed =
            ExecuteCutPoint(*config.backend, node->child(0), ann, config);
        if (pushed.ok()) {
          Table result = derived().FromRows(std::move(pushed).value());
          size_t rows = Derived::Rows(result);
          if (stats != nullptr) {
            ++stats->backend_pushdowns;
            stats->backend_rows += static_cast<int64_t>(rows);
          }
          if (prof != nullptr) prof->backend_pushed = true;
          Account(node.get(), info, static_cast<double>(rows), 0.0, rows,
                  /*prof=*/nullptr);
          derived().StampOrder(&result, info);
          return result;
        }
        if (stats != nullptr) ++stats->backend_fallbacks;
      } else if (stats != nullptr) {
        // The serializer cannot express the subtree (distinct from a
        // runtime SQL failure, which counts as a fallback above).
        ++stats->backend_refusals;
      }
    }
    if (std::optional<Result<Table>> done = derived().Intercept(node, prof)) {
      return std::move(*done);
    }
    std::vector<Table> inputs;
    for (const PlanPtr& c : node->children()) {
      TQP_ASSIGN_OR_RETURN(r, Eval(c, AddChild(prof)));
      inputs.push_back(std::move(r));
    }
    // Capture input sizes before Apply: transfers move their input out.
    double in1 =
        inputs.empty() ? 0.0 : static_cast<double>(Derived::Rows(inputs[0]));
    double in2 = inputs.size() < 2
                     ? 0.0
                     : static_cast<double>(Derived::Rows(inputs[1]));
    TQP_ASSIGN_OR_RETURN(result, derived().Apply(node, info, inputs));
    Account(node.get(), info, in1, in2, Derived::Rows(result), prof);
    MaybeScramble(node.get(), info, &result);
    derived().StampOrder(&result, info);
    return std::move(result);
  }

  const char* category_;
  /// Contract+executor digest, fixed for the whole evaluation.
  uint64_t contract_fp_;
};

}  // namespace tqp

#endif  // TQP_EXEC_PLAN_DRIVER_H_
