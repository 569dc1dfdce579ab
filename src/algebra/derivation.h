// Static plan analysis: schemas, order, guarantees, sites, cardinalities
// (bottom-up) and the Table 2 applicability properties (top-down).
//
// The bottom-up pass realizes the static columns of Table 1: the order of
// each operation's result (the Order(r) function), its cardinality estimate,
// and whether it eliminates/retains/generates duplicates and
// enforces/retains/destroys coalescing — expressed here as sufficient
// *guarantees* (duplicate_free, snapshot_duplicate_free, coalesced) that rule
// preconditions consult.
//
// The top-down pass assigns the three Boolean properties of Table 2
// (OrderRequired, DuplicatesRelevant, PeriodPreserving) from the query's
// ≡SQL contract (Definition 5.1), which the enumeration algorithm (Figure 5)
// uses to gate transformation rules of each equivalence type.
#ifndef TQP_ALGEBRA_DERIVATION_H_
#define TQP_ALGEBRA_DERIVATION_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "core/catalog.h"

namespace tqp {

/// The type of result a user-level query specifies (Definition 5.1):
/// ORDER BY present => list; DISTINCT without ORDER BY => set; neither =>
/// multiset.
enum class ResultType { kList, kMultiset, kSet };

const char* ResultTypeName(ResultType t);

/// The ≡SQL contract of a query: result type plus the ORDER BY spec (only
/// meaningful for kList).
struct QueryContract {
  ResultType result_type = ResultType::kMultiset;
  SortSpec order_by;

  static QueryContract List(SortSpec order) {
    return QueryContract{ResultType::kList, std::move(order)};
  }
  static QueryContract Multiset() { return QueryContract{}; }
  static QueryContract Set() {
    return QueryContract{ResultType::kSet, {}};
  }
};

/// Tunable estimation parameters for the cardinality model.
struct CardinalityParams {
  double default_selectivity = 0.33;
  double equality_selectivity = 0.1;
  double product_t_overlap = 0.3;    // fraction of pairs with overlapping periods
  double rdup_shrink = 0.5;          // |rdup(r)| / |r|
  double coalesce_shrink = 0.6;      // |coalT(r)| / |r|
  double group_shrink = 0.2;         // groups per input tuple
};

/// Everything the optimizer statically knows about one operator's output.
struct NodeInfo {
  Schema schema;
  /// Statically known sort order of the output list (Table 1, Order column).
  SortSpec order;
  Site site = Site::kDbms;
  /// Sufficient guarantees (may be false even when the data happens to
  /// satisfy the property).
  bool duplicate_free = false;
  bool snapshot_duplicate_free = false;
  bool coalesced = false;
  double cardinality = 0.0;
  /// The relation-dependency set of this subtree: the sorted, deduplicated
  /// names of every base relation a kScan below (or at) this node reads.
  /// Shared between nodes (a unary operator aliases its child's vector), so
  /// carrying it costs one pointer per node. Never null after Derive; use
  /// relation_deps() for a null-safe view. The subplan result cache and the
  /// Engine's dependency-keyed plan-cache invalidation compare per-relation
  /// catalog versions over exactly this set.
  std::shared_ptr<const std::vector<std::string>> relations;

  static const std::vector<std::string>& NoRelations();
  const std::vector<std::string>& relation_deps() const {
    return relations == nullptr ? NoRelations() : *relations;
  }

  // Table 2 applicability properties (top-down).
  bool order_required = true;
  bool duplicates_relevant = true;
  bool period_preserving = true;

  bool is_temporal() const { return schema.IsTemporal(); }

  /// "[T - T]"-style rendering used by Figure 6 output.
  std::string PropertiesBrackets() const;
};

/// A cross-plan cache of bottom-up node information.
///
/// The bottom-up half of NodeInfo (schema, order, site, guarantees,
/// cardinality) is a pure function of the subtree's structure, the catalog,
/// and the cardinality parameters — so once hash-consed plans share subtree
/// objects, the derivation of a shared subtree can be reused by every plan
/// containing it. The memo enumerator passes one cache across the whole
/// search; only nodes never seen before (the rebuilt spine of each rewrite)
/// pay for schema derivation.
///
/// Entries pin their node (PlanPtr) so a cached pointer can never be
/// recycled by the allocator and misattributed. A cache must only be reused
/// across calls with the same catalog and cardinality parameters.
///
/// Not thread-safe: tqp::Engine gives every query's plan search its own
/// cache and annotates each execution without one.
class DerivationCache {
 public:
  /// Derives (memoized) the bottom-up information of every node in `plan`,
  /// validating it along the way: unknown relations, schema mismatches, site
  /// inconsistencies and temporal misuse all fail here. A node present in
  /// the cache is guaranteed to head a fully valid subtree, so subtrees
  /// shared with already-derived plans cost nothing.
  Status Derive(const PlanPtr& plan, const Catalog& catalog,
                const CardinalityParams& params);

  /// The cached bottom-up information of `node`, or nullptr. The top-down
  /// (Table 2) fields of the returned NodeInfo are meaningless. The pointer
  /// stays valid for the cache's lifetime (entries are never erased and the
  /// map is node-based).
  const NodeInfo* Find(const PlanNode* node) const {
    auto it = entries_.find(node);
    return it == entries_.end() ? nullptr : &it->second.info;
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    PlanPtr node;  // pin
    NodeInfo info;  // top-down fields are meaningless here
  };

  std::unordered_map<const PlanNode*, Entry> entries_;
};

/// The Table 2 applicability properties of one node occurrence, as computed
/// top-down from the query contract (Definition 5.1).
struct NodeProps {
  bool order_required = true;
  bool duplicates_relevant = true;
  bool period_preserving = true;
};

/// The per-edge Table 2 derivation step: the properties child `child_index`
/// of `node` receives from a parent occurrence with properties `parent`.
/// The three boolean arguments are the bottom-up guarantees the step
/// consults: `left_*` describe child(0) (difference rules), and
/// `child_snapshot_dup_free` describes the child itself (coalT). Shared by
/// AnnotatedPlan::Make and the enumerator's lightweight property pass so the
/// Figure 5 gating has exactly one definition.
NodeProps DeriveChildProps(const PlanNode& node, size_t child_index,
                           const NodeProps& parent, bool left_duplicate_free,
                           bool left_snapshot_dup_free,
                           bool child_snapshot_dup_free);

/// An annotated plan: the operator graph plus per-node derived information.
/// Annotations are keyed by node identity. Plans may share subtrees
/// (hash-consed DAGs): bottom-up information is derived once per distinct
/// node, and the top-down Table 2 properties of a shared node are the
/// disjunction over its occurrences — conservative for rule gating, since a
/// true property only ever restricts the admissible equivalence types.
class AnnotatedPlan {
 public:
  /// Runs both analysis passes; fails on malformed plans (unknown relations,
  /// schema mismatches, site inconsistencies, temporal ops on snapshot
  /// inputs, ...). `cache`, when given, is consulted and filled for the
  /// bottom-up pass.
  static Result<AnnotatedPlan> Make(PlanPtr plan, const Catalog* catalog,
                                    QueryContract contract,
                                    CardinalityParams params = {},
                                    DerivationCache* cache = nullptr);

  const PlanPtr& plan() const { return plan_; }
  const QueryContract& contract() const { return contract_; }
  const Catalog& catalog() const { return *catalog_; }

  const NodeInfo& info(const PlanNode* node) const;
  const NodeInfo& root_info() const { return info(plan_.get()); }

 private:
  AnnotatedPlan() = default;

  PlanPtr plan_;
  const Catalog* catalog_ = nullptr;
  QueryContract contract_;
  std::unordered_map<const PlanNode*, NodeInfo> info_;
};

/// The read-only annotation view handed to transformation rules and the
/// Figure 5 gating. Two backings:
///
///  * a fully materialized AnnotatedPlan (implicit conversion), as used by
///    tests, the optimizer's cost loop and ad-hoc rule application;
///  * the enumerator's shared DerivationCache plus a small per-plan table of
///    Table 2 properties — no per-plan NodeInfo copies at all, which is what
///    makes memo expansion cheap.
///
/// info() exposes bottom-up facts only; its top-down fields are meaningless
/// under the cache backing. Property gating must go through props().
class PlanContext {
 public:
  /// Table 2 properties per node *occurrence*, in the plan's pre-order.
  /// Hash-consing can make one node object occur at several locations of a
  /// plan with different properties at each; keying by occurrence keeps the
  /// gating exact (identical to the legacy per-object behavior).
  using PropsTable = std::vector<std::pair<const PlanNode*, NodeProps>>;

  // NOLINTNEXTLINE(runtime/explicit) — intentional implicit view conversion.
  PlanContext(const AnnotatedPlan& ann) : ann_(&ann) {}
  PlanContext(const DerivationCache* cache, const PropsTable* props,
              const QueryContract* contract)
      : cache_(cache), props_(props), contract_(contract) {}

  /// Bottom-up information of `node` (schema, order, site, guarantees,
  /// cardinality). Do not read the Table 2 fields through this — use
  /// props().
  const NodeInfo& info(const PlanNode* node) const {
    if (ann_ != nullptr) return ann_->info(node);
    const NodeInfo* info = cache_->Find(node);
    TQP_CHECK(info != nullptr);
    return *info;
  }

  /// Restricts props() to the occurrences in `[begin, end)` of the props
  /// table — the enumerator sets this to the pre-order span of the subtree
  /// a rule matched, so a shared node's properties are read at the matched
  /// occurrence(s) only. No-op for the AnnotatedPlan backing.
  void SetOccurrenceWindow(size_t begin, size_t end) {
    window_begin_ = begin;
    window_end_ = end;
  }

  /// The Table 2 properties of `node` in this plan. Under the table backing,
  /// the OR over `node`'s occurrences inside the active window — for a rule
  /// location list this matches checking each matched occurrence separately,
  /// since RuleAdmitted requires every listed operation to qualify.
  NodeProps props(const PlanNode* node) const {
    if (ann_ != nullptr) {
      const NodeInfo& info = ann_->info(node);
      return NodeProps{info.order_required, info.duplicates_relevant,
                       info.period_preserving};
    }
    NodeProps out{false, false, false};
    bool found = false;
    size_t end = window_end_ < props_->size() ? window_end_ : props_->size();
    for (size_t i = window_begin_; i < end; ++i) {
      const auto& [n, p] = (*props_)[i];
      if (n != node) continue;
      out.order_required |= p.order_required;
      out.duplicates_relevant |= p.duplicates_relevant;
      out.period_preserving |= p.period_preserving;
      found = true;
    }
    TQP_CHECK(found && "node has no properties in the active window");
    return out;
  }

  const QueryContract& contract() const {
    return ann_ != nullptr ? ann_->contract() : *contract_;
  }

 private:
  const AnnotatedPlan* ann_ = nullptr;
  const DerivationCache* cache_ = nullptr;
  const PropsTable* props_ = nullptr;
  const QueryContract* contract_ = nullptr;
  size_t window_begin_ = 0;
  size_t window_end_ = static_cast<size_t>(-1);
};

/// Derives the result type of a scalar expression against an input schema.
Result<ValueType> DeriveExprType(const ExprPtr& expr, const Schema& schema);

/// Derives the output schema of a single operator given child schemas.
/// Exposed for the executor, which must agree with the planner exactly.
Result<Schema> DeriveSchema(const PlanNode& node,
                            const std::vector<Schema>& child_schemas,
                            const Catalog& catalog);

}  // namespace tqp

#endif  // TQP_ALGEBRA_DERIVATION_H_
