#include "opt/optimizer.h"

#include "core/trace.h"

namespace tqp {

Result<OptimizeResult> Optimize(const PlanPtr& initial, const Catalog& catalog,
                                const QueryContract& contract,
                                const std::vector<Rule>& rules,
                                const OptimizerOptions& options,
                                PlanInterner* interner,
                                DerivationCache* derivation) {
  // The enumeration shares the optimizer's cost and cardinality models, so
  // best-first's frontier order and payoff rule use the same costs the
  // final plan choice does.
  EnumerationOptions enum_options = options.enumeration;
  enum_options.cardinality = options.cardinality;
  enum_options.cost_engine = options.engine;
  TQP_ASSIGN_OR_RETURN(enumeration,
                       EnumeratePlans(initial, catalog, contract, rules,
                                      enum_options, interner, derivation));

  OptimizeResult out;
  out.plans_considered = enumeration.plans.size();
  out.truncated = enumeration.truncated;

  size_t best_index = 0;
  double best_cost = 0.0;
  TraceSpan span(enum_options.tracer, "opt", "cost");
  if (enumeration.costs.size() == enumeration.plans.size()) {
    // A best-first enumeration already costed every admitted plan against
    // the same derivation cache and models this loop would use; reuse those
    // costs instead of re-deriving the set.
    for (size_t i = 0; i < enumeration.costs.size(); ++i) {
      if (i == 0) out.initial_cost = enumeration.costs[i];
      if (i == 0 || enumeration.costs[i] < best_cost) {
        best_cost = enumeration.costs[i];
        best_index = i;
      }
    }
  } else {
    // Cost every plan against one shared bottom-up derivation cache — the
    // enumerated plans are structurally overlapping, so most nodes are
    // derived once across the whole set. With the caller's cache this is
    // the same cache the enumeration validated against, so it is already
    // fully primed.
    DerivationCache local_cache;
    DerivationCache& cache = derivation ? *derivation : local_cache;
    PlanContext ctx(&cache, nullptr, &contract);
    for (size_t i = 0; i < enumeration.plans.size(); ++i) {
      const PlanPtr& plan = enumeration.plans[i].plan;
      if (!cache.Derive(plan, catalog, options.cardinality).ok()) continue;
      double cost = EstimatePlanCost(plan, ctx, options.engine);
      if (i == 0) out.initial_cost = cost;
      if (i == 0 || cost < best_cost) {
        best_cost = cost;
        best_index = i;
      }
    }
  }
  if (span.active()) {
    span.Arg("plans", static_cast<uint64_t>(enumeration.plans.size()));
    span.Arg("reused_enum_costs",
             uint64_t{enumeration.costs.size() == enumeration.plans.size()});
  }
  out.best_plan = enumeration.plans[best_index].plan;
  out.best_cost = best_cost;
  out.derivation = enumeration.DerivationOf(best_index);
  return out;
}

}  // namespace tqp
