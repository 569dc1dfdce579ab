#include "opt/enumerate.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <unordered_set>

#include "core/trace.h"
#include "opt/enumerate_internal.h"

namespace tqp {

std::vector<std::string> EnumerationResult::DerivationOf(size_t index) const {
  std::vector<std::string> chain;
  int i = static_cast<int>(index);
  while (i >= 0 && !plans[static_cast<size_t>(i)].rule_id.empty()) {
    chain.push_back(plans[static_cast<size_t>(i)].rule_id);
    i = plans[static_cast<size_t>(i)].parent;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

bool RuleAdmitted(EquivalenceType equiv,
                  const std::vector<const PlanNode*>& location,
                  const PlanContext& ctx) {
  bool need_no_order = false, need_no_dups = false, need_no_periods = false;
  switch (equiv) {
    case EquivalenceType::kList:
      return true;
    case EquivalenceType::kMultiset:
      need_no_order = true;
      break;
    case EquivalenceType::kSet:
      need_no_order = true;
      need_no_dups = true;
      break;
    case EquivalenceType::kSnapshotList:
      need_no_periods = true;
      break;
    case EquivalenceType::kSnapshotMultiset:
      need_no_order = true;
      need_no_periods = true;
      break;
    case EquivalenceType::kSnapshotSet:
      need_no_order = true;
      need_no_dups = true;
      need_no_periods = true;
      break;
  }
  for (const PlanNode* op : location) {
    NodeProps props = ctx.props(op);
    if (need_no_order && props.order_required) return false;
    if (need_no_dups && props.duplicates_relevant) return false;
    if (need_no_periods && props.period_preserving) return false;
  }
  return true;
}

bool IsOrderSafeAcrossSites(const std::string& rule_id) {
  return rule_id == "T-USORT" || rule_id == "T-USORT'" || rule_id == "S1" ||
         rule_id == "S3";
}

namespace {

using enumerate_internal::CandidateEvent;
using enumerate_internal::EnumerateMemoParallel;
using enumerate_internal::kMaxUnfoldedPlanSize;
using enumerate_internal::PlanExpander;
using enumerate_internal::SearchState;

// The seed implementation: canonical-string dedup, a full rule × location
// scan per plan, and two annotation passes per distinct plan. Retained
// verbatim as the "before" side of bench_fig5_enumeration's A/B comparison;
// it must keep producing the identical plan sequence as the memo path.
Result<EnumerationResult> EnumerateLegacy(const PlanPtr& initial,
                                          const Catalog& catalog,
                                          const QueryContract& contract,
                                          const std::vector<Rule>& rules,
                                          const EnumerationOptions& options) {
  if (initial->subtree_size() > kMaxUnfoldedPlanSize) {
    return Status::InvalidArgument("initial plan too large when unfolded");
  }
  if (options.strategy != SearchStrategy::kBreadthFirst) {
    return Status::InvalidArgument(
        "legacy enumeration supports breadth-first only; use the memo "
        "enumerator for cost-directed search");
  }
  // The seed algorithm rewrites with ReplaceNode (which replaces every
  // occurrence of a node object), so it is only sound on proper trees;
  // reject shared-subtree inputs exactly as the seed's annotation pass did.
  // The memo path handles them (path-based rewrites, per-occurrence props).
  {
    std::vector<PlanPtr> nodes;
    CollectNodes(initial, &nodes);
    std::unordered_set<const PlanNode*> unique;
    for (const PlanPtr& n : nodes) unique.insert(n.get());
    if (unique.size() != nodes.size()) {
      return Status::InvalidArgument(
          "legacy enumeration requires a proper tree plan (no shared "
          "subtrees); use the memo enumerator");
    }
  }
  {
    Result<AnnotatedPlan> check =
        AnnotatedPlan::Make(initial, &catalog, contract, options.cardinality);
    if (!check.ok()) return check.status();
  }

  EnumerationResult result;
  std::unordered_set<std::string> seen;
  size_t size_cap = PlanSize(initial) + options.max_plan_growth;

  result.plans.push_back(EnumeratedPlan{initial, CanonicalString(initial),
                                        initial->fingerprint(), -1, ""});
  seen.insert(result.plans[0].canonical);

  for (size_t p = 0; p < result.plans.size(); ++p) {
    if (result.plans.size() >= options.max_plans) {
      result.truncated = true;
      break;
    }
    PlanPtr plan = result.plans[p].plan;
    Result<AnnotatedPlan> ann_res =
        AnnotatedPlan::Make(plan, &catalog, contract, options.cardinality);
    if (!ann_res.ok()) continue;  // defensive: skip invalid derived plans
    ++result.expanded;
    const AnnotatedPlan& ann = ann_res.value();

    std::vector<PlanPtr> locations;
    CollectNodes(plan, &locations);

    for (const Rule& rule : rules) {
      for (const PlanPtr& loc : locations) {
        std::optional<RuleMatch> match = rule.TryApply(loc, ann);
        if (!match.has_value()) continue;
        ++result.matches;

        EquivalenceType effective =
            enumerate_internal::EffectiveEquivalence(rule, *match, ann);
        if (options.admitted.count(effective) == 0) continue;
        if (!RuleAdmitted(effective, match->location, ann)) {
          ++result.gated_out;
          continue;
        }
        ++result.admitted;

        PlanPtr rewritten = ReplaceNode(plan, loc.get(), match->replacement);
        if (PlanSize(rewritten) > size_cap) continue;
        std::string canon = CanonicalString(rewritten);
        if (!seen.insert(canon).second) continue;
        // Re-validate: a rewrite may produce a site-inconsistent or
        // schema-invalid plan in rare compositions; those are dropped.
        if (!AnnotatedPlan::Make(rewritten, &catalog, contract,
                                 options.cardinality)
                 .ok()) {
          seen.erase(canon);
          continue;
        }
        result.plans.push_back(EnumeratedPlan{rewritten, std::move(canon),
                                              rewritten->fingerprint(),
                                              static_cast<int>(p), rule.id()});
        if (result.plans.size() >= options.max_plans) break;
      }
      if (result.plans.size() >= options.max_plans) break;
    }
  }
  if (result.plans.size() >= options.max_plans) result.truncated = true;
  return result;
}

// The serial memo path: hash-consed plans, pointer-keyed dedup, path-copy
// rewrites, one annotation per distinct plan against a shared bottom-up
// cache, and optional cost-bounded pruning. Structured as expand-then-replay
// over the shared SearchState so that the parallel driver — which runs the
// same replay against events computed on worker threads — is byte-identical
// by construction.
Result<EnumerationResult> EnumerateMemo(const PlanPtr& initial,
                                        const Catalog& catalog,
                                        const QueryContract& contract,
                                        const std::vector<Rule>& rules,
                                        const EnumerationOptions& options,
                                        PlanInterner* ext_interner,
                                        DerivationCache* ext_derivation) {
  if (initial->subtree_size() > kMaxUnfoldedPlanSize) {
    return Status::InvalidArgument("initial plan too large when unfolded");
  }

  // Session-scoped state when the caller provides it (cross-query reuse in
  // tqp::Engine), call-local otherwise. Warmth never changes which plans are
  // admitted or their order: interning only affects pointer identity, and a
  // cached node is guaranteed to head a valid subtree under the same catalog.
  PlanInterner local_interner;
  DerivationCache local_derivation;
  PlanInterner& interner = ext_interner ? *ext_interner : local_interner;
  DerivationCache& cache = ext_derivation ? *ext_derivation : local_derivation;

  SearchState state(catalog, contract, options, interner, cache);
  TQP_RETURN_IF_ERROR(state.Start(initial));
  PlanExpander expander(cache, contract, rules, options, state.size_cap());

  std::vector<CandidateEvent> events;
  while (true) {
    std::optional<size_t> popped = state.NextToExpand();
    if (!popped.has_value()) break;
    size_t p = *popped;
    TraceSpan span(options.tracer, "opt", "expand");
    events.clear();
    TQP_RETURN_IF_ERROR(expander.Expand(state.plan(p), &events));
    for (CandidateEvent& ev : events) {
      if (!state.ReplayEvent(ev, p)) break;  // plan cap reached
    }
    if (span.active()) {
      span.Arg("plan", static_cast<uint64_t>(p));
      span.Arg("candidates", static_cast<uint64_t>(events.size()));
    }
  }
  return state.Finish();
}

}  // namespace

Result<EnumerationResult> EnumeratePlans(const PlanPtr& initial,
                                         const Catalog& catalog,
                                         const QueryContract& contract,
                                         const std::vector<Rule>& rules,
                                         const EnumerationOptions& options,
                                         PlanInterner* interner,
                                         DerivationCache* derivation) {
  size_t threads = options.num_threads != 0
                       ? options.num_threads
                       : std::max<size_t>(1, std::thread::hardware_concurrency());
  TraceSpan span(options.tracer, "opt", "enumerate");
  if (span.active()) {
    span.Arg("driver", options.use_legacy_string_dedup
                           ? "legacy"
                           : (threads > 1 ? "parallel" : "memo"));
    span.Arg("strategy", options.strategy == SearchStrategy::kBestFirst
                             ? "best_first"
                             : "breadth_first");
  }
  Result<EnumerationResult> res = [&]() -> Result<EnumerationResult> {
    if (options.use_legacy_string_dedup) {
      if (threads > 1) {
        return Status::InvalidArgument(
            "legacy enumeration is single-threaded; the parallel driver "
            "requires the memo enumerator");
      }
      return EnumerateLegacy(initial, catalog, contract, rules, options);
    }
    if (threads > 1) {
      return EnumerateMemoParallel(initial, catalog, contract, rules, options,
                                   interner, derivation);
    }
    return EnumerateMemo(initial, catalog, contract, rules, options, interner,
                         derivation);
  }();
  if (span.active() && res.ok()) {
    const EnumerationResult& r = res.value();
    span.Arg("plans", static_cast<uint64_t>(r.plans.size()));
    span.Arg("expanded", static_cast<uint64_t>(r.expanded));
    span.Arg("memo_hits", static_cast<uint64_t>(r.memo_hits));
    span.Arg("cost_pruned", static_cast<uint64_t>(r.cost_pruned));
    span.Arg("gated_out", static_cast<uint64_t>(r.gated_out));
  }
  return res;
}

}  // namespace tqp
