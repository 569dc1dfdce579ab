// Cost-based plan selection over the enumerated plan space.
//
// The paper's Section 6 deliberately stops at correct-plan generation and
// leaves heuristics/cost integration as future work; this module supplies
// the natural completion: enumerate with Figure 5, estimate each plan's cost
// under the layered-architecture cost model, and pick the cheapest. The
// benchmarks ablate the pieces (gating sets, cost coefficients).
#ifndef TQP_OPT_OPTIMIZER_H_
#define TQP_OPT_OPTIMIZER_H_

#include <string>
#include <vector>

#include "exec/cost_model.h"
#include "opt/enumerate.h"

namespace tqp {

class PlanInterner;

/// Options for the full optimization pipeline.
struct OptimizerOptions {
  EnumerationOptions enumeration;
  EngineConfig engine;
  CardinalityParams cardinality;
};

/// Outcome of optimization.
struct OptimizeResult {
  PlanPtr best_plan;
  double best_cost = 0.0;
  double initial_cost = 0.0;
  size_t plans_considered = 0;
  bool truncated = false;
  /// Rules applied along the derivation of the best plan (oldest first).
  std::vector<std::string> derivation;
};

/// Enumerates equivalent plans and returns the cheapest under the cost model.
///
/// `interner`/`derivation` are the search state (see EnumeratePlans): the
/// enumeration interns through `interner`, and both its validation and the
/// costing loop share `derivation`, so the costing loop derives nothing the
/// search already derived. Either may be nullptr (the default; then the
/// costing loop derives every plan again in a cache of its own). The chosen
/// plan, costs, and derivation chain do not depend on what the tables
/// already hold — only how much work is re-done.
Result<OptimizeResult> Optimize(const PlanPtr& initial, const Catalog& catalog,
                                const QueryContract& contract,
                                const std::vector<Rule>& rules,
                                const OptimizerOptions& options = {},
                                PlanInterner* interner = nullptr,
                                DerivationCache* derivation = nullptr);

}  // namespace tqp

#endif  // TQP_OPT_OPTIMIZER_H_
