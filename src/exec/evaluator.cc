// Plan-tree evaluation, site simulation, and cost accounting.
#include "exec/evaluator.h"

#include "backend/simulated_backend.h"
#include "core/json.h"
#include "exec/plan_driver.h"

namespace tqp {

namespace {

/// The reference executor: the shared plan driver (exec/plan_driver.h) over
/// row-stored Relations, plus the Table 1 operator dispatch.
struct TreeEvaluator : PlanDriver<TreeEvaluator, Relation> {
  TreeEvaluator(const AnnotatedPlan& ann, const EngineConfig& config,
                ExecStats* stats)
      : PlanDriver(ann, config, stats, /*executor_tag=*/1, "exec") {}

  static size_t Rows(const Relation& r) { return r.size(); }
  static Relation FromRows(Relation r) { return r; }
  static Relation ToRows(const Relation& r, const NodeInfo&) { return r; }
  static void Scramble(Relation* r, uint64_t seed) {
    SimulatedBackend::ScrambleRelation(r, seed);
  }
  static void StampOrder(Relation* r, const NodeInfo& info) {
    r->set_order(info.order);
  }

  Result<Relation> Apply(const PlanPtr& node, const NodeInfo& info,
                         std::vector<Relation>& in) {
    switch (node->kind()) {
      case OpKind::kScan: {
        const CatalogEntry* e = ann.catalog().Find(node->rel_name());
        if (e == nullptr) return Status::NotFound(node->rel_name());
        return e->data;
      }
      case OpKind::kSelect:
        return EvalSelect(in[0], node->predicate());
      case OpKind::kProject:
        return EvalProject(in[0], node->projections(), info.schema);
      case OpKind::kUnionAll:
        return EvalUnionAll(in[0], in[1], info.schema);
      case OpKind::kUnion:
        return EvalUnion(in[0], in[1], info.schema);
      case OpKind::kProduct:
        return EvalProduct(in[0], in[1], info.schema);
      case OpKind::kDifference:
        return EvalDifference(in[0], in[1]);
      case OpKind::kAggregate:
        return EvalAggregate(in[0], node->group_by(), node->aggregates(),
                             info.schema);
      case OpKind::kRdup:
        return EvalRdup(in[0], info.schema);
      case OpKind::kProductT:
        return EvalProductT(in[0], in[1], info.schema);
      case OpKind::kDifferenceT:
        return EvalDifferenceT(in[0], in[1]);
      case OpKind::kAggregateT:
        return EvalAggregateT(in[0], node->group_by(), node->aggregates(),
                              info.schema);
      case OpKind::kRdupT:
        return EvalRdupT(in[0]);
      case OpKind::kUnionT:
        return EvalUnionT(in[0], in[1]);
      case OpKind::kSort:
        return EvalSort(in[0], node->sort_spec());
      case OpKind::kCoalesce:
        return EvalCoalesce(in[0]);
      case OpKind::kTransferS:
      case OpKind::kTransferD:
        return std::move(in[0]);
    }
    return Status::Error("unreachable operator kind");
  }
};

}  // namespace

std::string ExecStats::ToJson() const { return StatsToJson(*this); }

Result<Relation> Evaluate(const AnnotatedPlan& plan, const EngineConfig& config,
                          ExecStats* stats, ProfileNode* profile) {
  TreeEvaluator ev{plan, config, stats};
  return ev.Eval(plan.plan(), profile);
}

Result<Relation> EvaluatePlan(const PlanPtr& plan, const Catalog& catalog,
                              const EngineConfig& config, ExecStats* stats) {
  TQP_ASSIGN_OR_RETURN(
      ann, AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset()));
  return Evaluate(ann, config, stats);
}

}  // namespace tqp
