// The query plan enumeration algorithm of Figure 5, memo-based.
//
// A deterministic worklist explores the space of plans reachable from the
// initial plan through the given transformation rules. A rule of equivalence
// type T is applicable at a location l iff the Table 2 properties of every
// operation at l admit T (the disjunction in Figure 5):
//
//   ≡L   always
//   ≡M   ∀op∈l ¬OrderRequired
//   ≡S   ∀op∈l ¬DuplicatesRelevant ∧ ¬OrderRequired
//   ≡SL  ∀op∈l ¬PeriodPreserving
//   ≡SM  ∀op∈l ¬OrderRequired ∧ ¬PeriodPreserving
//   ≡SS  ∀op∈l ¬DuplicatesRelevant ∧ ¬OrderRequired ∧ ¬PeriodPreserving
//
// Per Section 4.5, an ≡L rule whose location contains DBMS-site operations is
// weakened to ≡M (the DBMS does not guarantee result order), except for
// order-safe rules (the sort relocation rules and sort elimination).
//
// Search structure: every produced plan is hash-consed through a
// PlanInterner, so plan identity is a pointer comparison and the set of
// explored plans is a memo keyed by canonical root (an O(1) probe per
// candidate, instead of the seed implementation's canonical-string
// serialization). Rules rewrite at a location path — only the spine above
// the rewritten node is rebuilt — and each distinct plan is annotated exactly
// once, against a cross-plan DerivationCache of bottom-up node information.
// Each expansion admits its rule matches on the spot, in the Figure 5 order.
// The legacy string-dedup worklist is kept behind
// EnumerationOptions::use_legacy_string_dedup as the reference of
// tests/test_plan_identity.cc and for A/B measurement
// (bench_fig5_enumeration); both produce the identical plan sequence.
//
// Frontier ordering: unexpanded plans are held in a frontier that is either
// FIFO (breadth-first, the EnumerationOptions default — the exact Figure 5
// order) or a priority queue keyed by estimated plan cost with
// admission-index tie-break (best-first, the Engine's default). Best-first
// also stops once the search has done more work than the cheapest plan
// found so far is estimated to cost (the payoff rule, see SearchStrategy);
// `max_plans` caps both orders.
//
// Termination: the default rule set excludes expanding rules (Section 6) and
// a plan-size growth bound caps rule chains that grow plans (e.g. repeated
// commutativity wrappers).
#ifndef TQP_OPT_ENUMERATE_H_
#define TQP_OPT_ENUMERATE_H_

#include <set>
#include <string>
#include <vector>

#include "exec/cost_model.h"
#include "rules/rules.h"

namespace tqp {

class PlanInterner;

/// How the memo enumerator orders its frontier of unexpanded plans, and
/// when it stops short of the closure.
enum class SearchStrategy {
  /// Expand plans in admission order (the paper's Figure 5 loop). The
  /// EnumerationOptions default: exhaustive up to `max_plans`, and the
  /// reference order the A/B byte-identity checks compare against.
  kBreadthFirst,
  /// Expand the cheapest unexpanded plan first, under the cost model the
  /// optimizer's final choice uses (ties break on admission index), and stop
  /// once the search pays no more: every admitted plan adds its node count
  /// (subtree_size()) to a search-work tally, and the search ends at the
  /// first admission where tally × kSearchCostPerNode exceeds the cheapest
  /// estimated cost admitted so far. The stop is checked at every admission,
  /// like `max_plans`, so one large expansion cannot overshoot it; it sets
  /// `truncated` and SearchStop::kPayoff. The rule reads no clock, so the
  /// outcome is a pure function of plan, catalog and options. The Engine's
  /// default (EngineOptions()).
  kBestFirst,
};

/// Estimated-cost units one searched plan node is worth: the payoff rule's
/// exchange rate between search work and execution cost (see kBestFirst).
/// The value and how it was measured are in opt/enumerate.cc.
extern const double kSearchCostPerNode;

/// Why a search ended.
enum class SearchStop {
  /// The frontier ran empty: every reachable plan was admitted.
  kDrained,
  /// Best-first's payoff rule fired (see SearchStrategy::kBestFirst).
  kPayoff,
  /// `max_plans` plans were admitted.
  kMaxPlans,
};

/// "drained", "payoff" or "max_plans": the `stop` argument of the
/// opt/enumerate trace span.
const char* SearchStopName(SearchStop stop);

/// Options controlling the enumeration.
struct EnumerationOptions {
  /// Stop after this many distinct plans admitted to the memo (the initial
  /// plan counts). Raw rule matches and memo hits do not count.
  size_t max_plans = 4000;
  /// Skip replacement plans that exceed the initial size by this many nodes.
  size_t max_plan_growth = 8;
  /// Which equivalence types may be exploited; the Figure 5 gating applies on
  /// top of this. Restricting this set is the ablation knob of
  /// bench_fig5_enumeration.
  std::set<EquivalenceType> admitted = {
      EquivalenceType::kList,         EquivalenceType::kMultiset,
      EquivalenceType::kSet,          EquivalenceType::kSnapshotList,
      EquivalenceType::kSnapshotMultiset, EquivalenceType::kSnapshotSet,
  };
  /// Frontier order and stopping rule; see SearchStrategy. Only the memo
  /// path supports kBestFirst (the legacy path rejects it).
  SearchStrategy strategy = SearchStrategy::kBreadthFirst;
  /// Cost/cardinality models backing the best-first frontier order and its
  /// payoff rule.
  EngineConfig cost_engine;
  CardinalityParams cardinality;
  /// Run the seed implementation (canonical-string dedup, two annotation
  /// passes per plan, no interning). Kept as the reference the memo search
  /// must reproduce (tests/test_plan_identity.cc) and as the before-side of
  /// the before/after comparison in bench_fig5_enumeration.
  bool use_legacy_string_dedup = false;
  /// Fill EnumeratedPlan::canonical with the plan's canonical string. Plan
  /// identity is fingerprint/pointer-based, so the memo path only serializes
  /// for callers that assert on strings (tests, the A/B bench); the Engine
  /// facade turns this off. The legacy path always fills it — the string IS
  /// its dedup key.
  bool fill_canonical = true;
  /// Per-query span recorder (core/trace.h); non-owning, nullptr = untraced.
  /// EnumeratePlans emits one span per run with the search counters as
  /// attributes, plus one span per expansion on the memo path.
  Tracer* tracer = nullptr;
};

/// One enumerated plan with its derivation edge.
struct EnumeratedPlan {
  PlanPtr plan;
  std::string canonical;
  /// Structural fingerprint of the plan (equals plan->fingerprint()).
  uint64_t fingerprint = 0;
  /// Index of the plan this one was derived from; -1 for the initial plan.
  int parent = -1;
  /// Rule that produced it (empty for the initial plan).
  std::string rule_id;
};

/// The enumeration outcome.
struct EnumerationResult {
  std::vector<EnumeratedPlan> plans;
  bool truncated = false;
  /// Rule applications attempted (match found) / admitted by the gating.
  size_t matches = 0;
  size_t admitted = 0;
  /// Applications rejected by the Figure 5 property gating.
  size_t gated_out = 0;
  /// Candidates dropped because their canonical root was already in the memo
  /// (the memo path's analogue of a string-dedup rejection).
  size_t memo_hits = 0;
  /// Distinct plan nodes owned by the interning table at the end. These
  /// three counters describe the tables, not the search: a caller that
  /// passes the same tables to several searches sees them accumulate.
  size_t interner_nodes = 0;
  /// Intern() visits resolved to an already-canonical node.
  size_t interner_hits = 0;
  /// Bottom-up derivation-cache entries at the end.
  size_t cache_nodes = 0;
  /// Plans actually expanded (popped from the frontier). Equals
  /// plans.size() for an exhaustive run, on the memo and legacy paths alike.
  size_t expanded = 0;
  /// Why the search ended; `truncated` iff it is not kDrained.
  SearchStop stop = SearchStop::kDrained;
  /// The search-work tally: the node count (subtree_size()) summed over
  /// every admitted plan, the initial plan included.
  size_t search_work = 0;
  /// Estimated cost of each admitted plan, aligned with `plans`. Filled only
  /// by the best-first strategy (the only one that costs while it searches);
  /// empty otherwise. Computed against the same derivation cache and models
  /// the optimizer's final choice uses, so Optimize can reuse these instead
  /// of re-costing the whole set.
  std::vector<double> costs;

  /// Reconstructs the rule chain that derived plan `index` from the initial
  /// plan (oldest first). Robust to plans whose parents appear at any
  /// earlier index, regardless of expansion order.
  std::vector<std::string> DerivationOf(size_t index) const;
};

/// Runs the Figure 5 algorithm. Fails only if the initial plan is malformed.
///
/// `interner` hash-conses every admitted plan and `derivation` memoizes
/// bottom-up node information; either may be nullptr (the default; a
/// call-local one is used). Passing its own pair lets a caller keep the
/// search state past the call: Optimize costs the admitted plans against
/// the same `derivation`, and a test or benchmark can reuse one pair across
/// searches. A cache is only sound against one catalog version and one
/// CardinalityParams setting. tqp::Engine gives each query's search a fresh
/// pair, so no search state outlives the query. The legacy string-dedup
/// path does not intern and ignores both. The enumerated plan sequence is
/// independent of what the tables already hold (warm and cold runs are
/// byte-identical); only the interner/cache counters in EnumerationResult
/// reflect it.
Result<EnumerationResult> EnumeratePlans(const PlanPtr& initial,
                                         const Catalog& catalog,
                                         const QueryContract& contract,
                                         const std::vector<Rule>& rules,
                                         const EnumerationOptions& options = {},
                                         PlanInterner* interner = nullptr,
                                         DerivationCache* derivation = nullptr);

/// True iff a rule of type `equiv` is admitted at a location given the
/// properties of the location's operations (the Figure 5 disjunction).
/// Exposed for tests and the property benches; an AnnotatedPlan converts
/// implicitly into the PlanContext view.
bool RuleAdmitted(EquivalenceType equiv,
                  const std::vector<const PlanNode*>& location,
                  const PlanContext& ctx);

/// Rules that may keep their ≡L claim when their location includes DBMS-site
/// operations (Section 4.5's sort exception).
bool IsOrderSafeAcrossSites(const std::string& rule_id);

}  // namespace tqp

#endif  // TQP_OPT_ENUMERATE_H_
