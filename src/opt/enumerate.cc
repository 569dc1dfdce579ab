#include "opt/enumerate.h"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "algebra/intern.h"
#include "core/trace.h"

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

// The payoff rule's exchange rate (SearchStrategy::kBestFirst): one admitted
// plan node of best-first search costs about as much wall time as 20
// estimated cost units of execution. Measured once, on the adhoc workload of
// the repository benchmark (its catalog at seeds 3 and 7, three texts of each
// of its seven templates; Release, gcc 12.2, a 4-vCPU x86 host): an
// Engine-default search took 0.41–1.0 µs per admitted node (EnumeratePlans
// wall time / search_work, best of three), and the reference evaluator took
// 9–90 ns per estimated cost unit of the chosen plan (median of seven
// Evaluate runs / its EstimatePlanCost). The ratio of the totals is 22.5 at
// seed 7 (0.78 µs per node, 34.6 ns per unit); per text it spreads from 6
// to 100, because the cost model weighs operators by one constant each. It
// is rounded down to 20, which errs toward searching longer. Re-measure it
// when the search's per-node work or the cost model's units change.
const double kSearchCostPerNode = 20.0;

const char* SearchStopName(SearchStop stop) {
  switch (stop) {
    case SearchStop::kDrained:
      return "drained";
    case SearchStop::kPayoff:
      return "payoff";
    case SearchStop::kMaxPlans:
      return "max_plans";
  }
  return "drained";
}

namespace {

// Bound on a plan's unfolded (per-occurrence) node count: the per-plan walks
// are linear in it, and adversarial DAG chains could otherwise make it
// exponential in the node count.
constexpr size_t kMaxUnfoldedPlanSize = 1u << 20;

// Section 4.5: ≡L rules are weakened to ≡M when the location spans DBMS-site
// operations, except the order-safe sort rules.
EquivalenceType EffectiveEquivalence(const Rule& rule, const RuleMatch& match,
                                     const PlanContext& ctx) {
  EquivalenceType effective = rule.equivalence();
  if (effective == EquivalenceType::kList &&
      !IsOrderSafeAcrossSites(rule.id())) {
    for (const PlanNode* op : match.location) {
      if (ctx.info(op).site == Site::kDbms) {
        return EquivalenceType::kMultiset;
      }
    }
  }
  return effective;
}

// The seed implementation: canonical-string dedup, a full rule × location
// scan per plan, and two annotation passes per distinct plan. Retained
// verbatim as the reference tests/test_plan_identity.cc checks the memo
// search against and as the "before" side of bench_fig5_enumeration's A/B
// comparison; it must keep producing the identical plan sequence as the
// memo path.
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
  result.search_work = PlanSize(initial);
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
            EffectiveEquivalence(rule, *match, ann);
        if (options.admitted.count(effective) == 0) continue;
        if (!RuleAdmitted(effective, match->location, ann)) {
          ++result.gated_out;
          continue;
        }
        ++result.admitted;

        PlanPtr rewritten = ReplaceNode(plan, loc.get(), match->replacement);
        size_t rewritten_size = PlanSize(rewritten);
        if (rewritten_size > size_cap) continue;
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
        result.search_work += rewritten_size;
        if (result.plans.size() >= options.max_plans) break;
      }
      if (result.plans.size() >= options.max_plans) break;
    }
  }
  if (result.plans.size() >= options.max_plans) {
    result.truncated = true;
    result.stop = SearchStop::kMaxPlans;
  }
  return result;
}

// Canonical strings of interned plans, memoized per canonical node so the
// serialization of a shared subtree is built once across the whole plan
// space. Produces byte-identical output to CanonicalString().
class CanonicalCache {
 public:
  const std::string& Of(const PlanPtr& plan) {
    auto it = memo_.find(plan.get());
    if (it != memo_.end()) return it->second;
    std::string out = plan->Describe();
    if (!plan->children().empty()) {
      out += "(";
      for (size_t i = 0; i < plan->children().size(); ++i) {
        if (i > 0) out += ",";
        out += Of(plan->child(i));
      }
      out += ")";
    }
    return memo_.emplace(plan.get(), std::move(out)).first->second;
  }

 private:
  std::unordered_map<const PlanNode*, std::string> memo_;
};

// The frontier of unexpanded plan indices. Breadth-first consumes admitted
// plans in index order (the exact Figure 5 worklist); best-first pops the
// cheapest plan first, breaking cost ties on the admission index so repeated
// runs pop in the identical order.
class Frontier {
 public:
  explicit Frontier(bool best_first) : best_first_(best_first) {}

  /// Breadth-first reads plans straight out of result.plans, so only the
  /// best-first heap needs explicit pushes.
  void Push(size_t index, double cost) {
    if (best_first_) heap_.emplace(cost, index);
  }

  /// Next plan index to consider, or nullopt when the frontier is drained.
  /// `admitted` is the current result.plans.size().
  std::optional<size_t> Pop(size_t admitted) {
    if (best_first_) {
      if (heap_.empty()) return std::nullopt;
      size_t index = heap_.top().second;
      heap_.pop();
      return index;
    }
    if (next_ >= admitted) return std::nullopt;
    return next_++;
  }

 private:
  bool best_first_;
  size_t next_ = 0;  // breadth-first cursor
  // (cost, admission index), cheapest first; index tie-break via
  // std::greater on the pair.
  std::priority_queue<std::pair<double, size_t>,
                      std::vector<std::pair<double, size_t>>,
                      std::greater<std::pair<double, size_t>>>
      heap_;
};

// The memo search: hash-consed plans, pointer-keyed dedup, path-copy
// rewrites, and one annotation per distinct plan against a shared bottom-up
// cache. The search loop pops a plan (NextToExpand) and expands it (Expand);
// expansion admits each rule match on the spot, so the admitted sequence is
// the Figure 5 worklist's. Every admission checks the stopping rules
// (AdmitWork): the `max_plans` cap, and under best-first the payoff rule.
class MemoSearch {
 public:
  MemoSearch(const Catalog& catalog, const QueryContract& contract,
             const std::vector<Rule>& rules, const EnumerationOptions& options,
             PlanInterner& interner, DerivationCache& cache)
      : catalog_(catalog),
        contract_(contract),
        rules_(rules),
        options_(options),
        interner_(interner),
        cache_(cache),
        best_first_(options.strategy == SearchStrategy::kBestFirst),
        frontier_(best_first_),
        // Costing runs against a context backed solely by the shared
        // derivation cache: each plan is costed right after it is derived,
        // so every bottom-up fact it needs is present, and the context
        // cannot read the *expanding* plan's props table or occurrence
        // window (which describe the parent, not the rewritten plan).
        cost_ctx_(&cache, /*props=*/nullptr, &contract_),
        ctx_(&cache, &props_, &contract_),
        root_props_{contract.result_type == ResultType::kList,
                    contract.result_type != ResultType::kSet,
                    /*period_preserving=*/true} {
    memo_.reserve(std::min<size_t>(options.max_plans, 4096) + 1);
  }

  /// Interns, validates, and admits the initial plan; must be called once
  /// before the driver loop.
  Status Start(const PlanPtr& initial) {
    PlanPtr root = interner_.Intern(initial);
    TQP_RETURN_IF_ERROR(cache_.Derive(root, catalog_, options_.cardinality));
    size_cap_ = root->subtree_size() + options_.max_plan_growth;
    result_.plans.push_back(
        EnumeratedPlan{root, CanonOf(root), root->fingerprint(), -1, ""});
    memo_[root->fingerprint()].push_back(0);
    double cost = 0.0;
    if (best_first_) {
      // The root is costed only now, after cache.Derive(root) above made its
      // bottom-up facts (cardinalities, sites) available.
      cost = EstimatePlanCost(root, cost_ctx_, options_.cost_engine);
      best_cost_ = cost;
      result_.costs.push_back(cost);
    }
    frontier_.Push(0, cost);
    AdmitWork(root->subtree_size());
    return Status::OK();
  }

  /// The search loop's head: the next plan to expand, or nullopt when the
  /// search is over (frontier drained, or a stopping rule fired — that case
  /// also set `truncated`).
  std::optional<size_t> NextToExpand() {
    if (result_.truncated) return std::nullopt;
    std::optional<size_t> popped = frontier_.Pop(result_.plans.size());
    if (popped.has_value()) ++result_.expanded;
    return popped;
  }

  /// Expands plan `p`: the Table 2 props walk, then every rule at every
  /// location in the Figure 5 order, each match admitted on the spot. Stops
  /// as soon as a stopping rule fires. Fails only on an internal
  /// derivation-cache miss.
  Status Expand(size_t p) {
    // By value: admission appends to result_.plans, which may reallocate.
    const PlanPtr plan = result_.plans[p].plan;
    props_.clear();
    props_.reserve(plan->subtree_size());
    walk_ok_ = true;
    VisitProps(plan, root_props_);
    if (!walk_ok_) {
      return Status::Error(
          "internal: derivation cache miss while computing Table 2 "
          "properties");
    }

    locations_.clear();
    CollectLocations(plan, &locations_);
    for (auto& bucket : by_kind_) bucket.clear();
    for (uint32_t i = 0; i < locations_.size(); ++i) {
      by_kind_[static_cast<size_t>(locations_[i].node->kind())].push_back(i);
    }

    // Rule × location: per-kind buckets preserve pre-order within a kind,
    // so candidates arrive in the order a full pre-order scan per rule
    // would produce them.
    for (const Rule& rule : rules_) {
      const std::vector<OpKind>& kinds = rule.root_kinds();
      if (kinds.size() == 1) {
        for (uint32_t li : by_kind_[static_cast<size_t>(kinds[0])]) {
          if (!TryLocation(rule, li, plan, p)) return Status::OK();
        }
      } else {
        for (uint32_t li = 0; li < locations_.size(); ++li) {
          if (!rule.MatchesRootKind(locations_[li].node->kind())) continue;
          if (!TryLocation(rule, li, plan, p)) return Status::OK();
        }
      }
    }
    return Status::OK();
  }

  /// Finalizes counters and hands the result out.
  EnumerationResult Finish() {
    result_.interner_nodes = interner_.unique_nodes();
    result_.interner_hits = interner_.hits();
    result_.cache_nodes = cache_.size();
    return std::move(result_);
  }

  size_t matches() const { return result_.matches; }

 private:
  // Computes the Table 2 properties of every node occurrence of `plan`, one
  // entry per occurrence in pre-order — the same order CollectLocations
  // uses, so occurrence i of the props table is location i. The walk
  // touches exactly subtree_size() occurrences, which the enumeration's
  // size bound keeps small. Every node of an expanded plan was derived into
  // the cache when the plan was admitted, so a miss here means the cache
  // and the plan set went out of sync — an internal invariant violation,
  // never valid input. DCHECK loudly in debug builds; in release, flag the
  // walk as failed so the enumeration surfaces an error status instead of
  // dereferencing null.
  void VisitProps(const PlanPtr& node, const NodeProps& p) {
    props_.push_back({node.get(), p});
    for (size_t i = 0; i < node->arity(); ++i) {
      bool ldf = false, lsdf = false, csdf = false;
      switch (node->kind()) {
        case OpKind::kDifference:
        case OpKind::kDifferenceT: {
          const NodeInfo* left = cache_.Find(node->child(0).get());
          TQP_DCHECK(left != nullptr &&
                     "derivation cache miss under a difference node");
          if (left == nullptr) {
            walk_ok_ = false;
            return;
          }
          ldf = left->duplicate_free;
          lsdf = left->snapshot_duplicate_free;
          break;
        }
        case OpKind::kCoalesce: {
          const NodeInfo* child = cache_.Find(node->child(i).get());
          TQP_DCHECK(child != nullptr &&
                     "derivation cache miss under a coalesce node");
          if (child == nullptr) {
            walk_ok_ = false;
            return;
          }
          csdf = child->snapshot_duplicate_free;
          break;
        }
        default:
          break;
      }
      VisitProps(node->child(i), DeriveChildProps(*node, i, p, ldf, lsdf, csdf));
      if (!walk_ok_) return;
    }
  }

  // One rule application attempt at location index `li` of plan `p`: a
  // match is counted, gated, and — when admissible — admitted. Returns
  // false once a stopping rule fires (stop expanding).
  bool TryLocation(const Rule& rule, uint32_t li, const PlanPtr& plan,
                   size_t p) {
    const PlanLocation& loc = locations_[li];
    if (!rule.MatchesChild0(*loc.node)) return true;
    // Gate against the matched occurrence(s) only: restrict property
    // lookups to the pre-order span of the matched subtree.
    ctx_.SetOccurrenceWindow(li, li + loc.node->subtree_size());
    std::optional<RuleMatch> match = rule.TryApply(loc.node, ctx_);
    if (!match.has_value()) return true;
    ++result_.matches;

    EquivalenceType effective = EffectiveEquivalence(rule, *match, ctx_);
    if (options_.admitted.count(effective) == 0) return true;
    if (!RuleAdmitted(effective, match->location, ctx_)) {
      ++result_.gated_out;
      return true;
    }
    ++result_.admitted;
    // O(1) size bound check before any rewriting happens.
    size_t new_size = plan->subtree_size() - loc.node->subtree_size() +
                      match->replacement->subtree_size();
    if (new_size > size_cap_) return true;
    return Admit(rule, plan, p, loc.path, std::move(match->replacement));
  }

  // The memo step for "`plan` with the subtree at `path` replaced by
  // `replacement`". The probe needs only the would-be root fingerprint
  // (FingerprintAtPath walks the spine without constructing a node) and
  // confirms a hit structurally, so fingerprint collisions can never merge
  // distinct plans and a duplicate candidate allocates nothing. A confirmed
  // miss is interned, validated, costed, and pushed onto the frontier.
  // Returns false once a stopping rule fires.
  bool Admit(const Rule& rule, const PlanPtr& plan, size_t p,
             const PlanPath& path, PlanPtr replacement) {
    uint64_t fingerprint =
        FingerprintAtPath(plan, path, replacement->fingerprint());
    if (auto bucket = memo_.find(fingerprint); bucket != memo_.end()) {
      for (size_t idx : bucket->second) {
        if (EqualsWithReplacement(result_.plans[idx].plan, plan, path,
                                  replacement)) {
          ++result_.memo_hits;
          return true;
        }
      }
    }
    PlanPtr rewritten =
        interner_.RewriteInterned(plan, path, std::move(replacement));
    TQP_DCHECK(rewritten->fingerprint() == fingerprint);
    // Validate: only nodes the cache has never seen (the rebuilt spine) are
    // actually derived; a cached node heads a known-valid subtree. An
    // invalid composition is dropped and not memoized.
    if (!cache_.Derive(rewritten, catalog_, options_.cardinality).ok()) {
      return true;
    }
    double cost = 0.0;
    if (best_first_) {
      // Costed against cost_ctx_, never the expansion's window-scoped
      // context. cache_.Derive just ran, so every bottom-up fact the cost
      // model reads is present.
      cost = EstimatePlanCost(rewritten, cost_ctx_, options_.cost_engine);
    }
    size_t index = result_.plans.size();
    memo_[fingerprint].push_back(index);
    result_.plans.push_back(EnumeratedPlan{rewritten, CanonOf(rewritten),
                                           fingerprint, static_cast<int>(p),
                                           rule.id()});
    if (best_first_) {
      result_.costs.push_back(cost);
      if (cost < best_cost_) best_cost_ = cost;
    }
    frontier_.Push(index, cost);
    return AdmitWork(rewritten->subtree_size());
  }

  // Books one admitted plan of `nodes` nodes into the search-work tally and
  // applies the stopping rules to the admissions so far: the plan cap, then
  // (best-first) the payoff rule against the cheapest cost admitted so far.
  // Returns false, with `truncated` and the stop reason set, once one fires.
  bool AdmitWork(size_t nodes) {
    result_.search_work += nodes;
    if (result_.plans.size() >= options_.max_plans) {
      result_.stop = SearchStop::kMaxPlans;
    } else if (best_first_ &&
               static_cast<double>(result_.search_work) * kSearchCostPerNode >
                   best_cost_) {
      result_.stop = SearchStop::kPayoff;
    } else {
      return true;
    }
    result_.truncated = true;
    return false;
  }

  std::string CanonOf(const PlanPtr& p) {
    // Canonical strings are presentation-only here (identity is the
    // fingerprint-keyed memo); skip serialization entirely when the caller
    // doesn't assert on them.
    return options_.fill_canonical ? canon_.Of(p) : std::string();
  }

  const Catalog& catalog_;
  const QueryContract& contract_;
  const std::vector<Rule>& rules_;
  const EnumerationOptions& options_;
  PlanInterner& interner_;
  DerivationCache& cache_;
  const bool best_first_;

  EnumerationResult result_;
  // The memo over admitted plans: fingerprint -> indices in result_.plans (a
  // bucket longer than one only on a fingerprint collision).
  std::unordered_map<uint64_t, std::vector<size_t>> memo_;
  Frontier frontier_;
  CanonicalCache canon_;
  PlanContext cost_ctx_;
  double best_cost_ = 0.0;
  size_t size_cap_ = 0;

  // Per-expansion scratch.
  PlanContext::PropsTable props_;
  PlanContext ctx_;
  NodeProps root_props_;
  bool walk_ok_ = true;
  std::vector<PlanLocation> locations_;
  std::array<std::vector<uint32_t>, kOpKindCount> by_kind_;
};

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

  MemoSearch search(catalog, contract, rules, options, interner, cache);
  TQP_RETURN_IF_ERROR(search.Start(initial));
  while (std::optional<size_t> p = search.NextToExpand()) {
    TraceSpan span(options.tracer, "opt", "expand");
    size_t matches_before = search.matches();
    TQP_RETURN_IF_ERROR(search.Expand(*p));
    if (span.active()) {
      span.Arg("plan", static_cast<uint64_t>(*p));
      span.Arg("candidates",
               static_cast<uint64_t>(search.matches() - matches_before));
    }
  }
  return search.Finish();
}

}  // namespace

Result<EnumerationResult> EnumeratePlans(const PlanPtr& initial,
                                         const Catalog& catalog,
                                         const QueryContract& contract,
                                         const std::vector<Rule>& rules,
                                         const EnumerationOptions& options,
                                         PlanInterner* interner,
                                         DerivationCache* derivation) {
  TraceSpan span(options.tracer, "opt", "enumerate");
  if (span.active()) {
    span.Arg("driver", options.use_legacy_string_dedup ? "legacy" : "memo");
    span.Arg("strategy", options.strategy == SearchStrategy::kBestFirst
                             ? "best_first"
                             : "breadth_first");
  }
  Result<EnumerationResult> res =
      options.use_legacy_string_dedup
          ? EnumerateLegacy(initial, catalog, contract, rules, options)
          : EnumerateMemo(initial, catalog, contract, rules, options,
                          interner, derivation);
  if (span.active() && res.ok()) {
    const EnumerationResult& r = res.value();
    span.Arg("plans", static_cast<uint64_t>(r.plans.size()));
    span.Arg("expanded", static_cast<uint64_t>(r.expanded));
    span.Arg("memo_hits", static_cast<uint64_t>(r.memo_hits));
    span.Arg("gated_out", static_cast<uint64_t>(r.gated_out));
    span.Arg("stop", SearchStopName(r.stop));
    span.Arg("search_work", static_cast<uint64_t>(r.search_work));
  }
  return res;
}

}  // namespace tqp
