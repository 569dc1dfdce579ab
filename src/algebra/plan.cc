#include "algebra/plan.h"

#include <algorithm>

#include "core/hash.h"

namespace tqp {

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kScan:
      return "scan";
    case OpKind::kSelect:
      return "select";
    case OpKind::kProject:
      return "project";
    case OpKind::kUnionAll:
      return "union-all";
    case OpKind::kProduct:
      return "product";
    case OpKind::kDifference:
      return "difference";
    case OpKind::kAggregate:
      return "aggregate";
    case OpKind::kRdup:
      return "rdup";
    case OpKind::kProductT:
      return "productT";
    case OpKind::kDifferenceT:
      return "differenceT";
    case OpKind::kAggregateT:
      return "aggregateT";
    case OpKind::kRdupT:
      return "rdupT";
    case OpKind::kUnion:
      return "union";
    case OpKind::kUnionT:
      return "unionT";
    case OpKind::kSort:
      return "sort";
    case OpKind::kCoalesce:
      return "coalT";
    case OpKind::kTransferS:
      return "transferS";
    case OpKind::kTransferD:
      return "transferD";
  }
  return "?";
}

bool IsTemporalOp(OpKind k) {
  switch (k) {
    case OpKind::kProductT:
    case OpKind::kDifferenceT:
    case OpKind::kAggregateT:
    case OpKind::kRdupT:
    case OpKind::kUnionT:
    case OpKind::kCoalesce:
      return true;
    default:
      return false;
  }
}

bool IsOrderSensitiveOp(OpKind k) {
  switch (k) {
    case OpKind::kRdupT:
    case OpKind::kCoalesce:
    case OpKind::kDifferenceT:
    case OpKind::kUnionT:
      return true;
    default:
      return false;
  }
}

std::string PlanNode::Describe() const {
  std::string out = OpKindName(kind_);
  switch (kind_) {
    case OpKind::kScan:
      out += " " + rel_name_;
      break;
    case OpKind::kSelect:
      out += " " + predicate_->ToString();
      break;
    case OpKind::kProject: {
      out += " [";
      for (size_t i = 0; i < projections_.size(); ++i) {
        if (i > 0) out += ", ";
        std::string e = projections_[i].expr->ToString();
        out += e;
        if (projections_[i].name != e) out += " AS " + projections_[i].name;
      }
      out += "]";
      break;
    }
    case OpKind::kAggregate:
    case OpKind::kAggregateT: {
      out += " [";
      for (size_t i = 0; i < group_by_.size(); ++i) {
        if (i > 0) out += ", ";
        out += group_by_[i];
      }
      out += ";";
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::string(AggFuncName(aggregates_[i].func)) + "(" +
               aggregates_[i].attr + ") AS " + aggregates_[i].out_name;
      }
      out += "]";
      break;
    }
    case OpKind::kSort:
      out += " [" + SortSpecToString(sort_spec_) + "]";
      break;
    default:
      break;
  }
  return out;
}

uint64_t PlanNode::FingerprintPrefix(OpKind kind, uint64_t payload_hash) {
  return HashCombine(HashMix64(static_cast<uint64_t>(kind) + 0x51),
                     payload_hash);
}

uint64_t PlanNode::FingerprintOf(OpKind kind, uint64_t payload_hash,
                                 const std::vector<PlanPtr>& children) {
  uint64_t h = FingerprintPrefix(kind, payload_hash);
  for (const PlanPtr& c : children) h = HashCombine(h, c->fingerprint());
  return h;
}

void PlanNode::Finalize() {
  uint64_t h = 0;
  switch (kind_) {
    case OpKind::kScan:
      h = HashCombine(h, HashString(rel_name_));
      break;
    case OpKind::kSelect:
      h = HashCombine(h, predicate_->hash());
      break;
    case OpKind::kProject:
      for (const ProjItem& item : projections_) {
        h = HashCombine(h, item.expr->hash());
        h = HashCombine(h, HashString(item.name));
      }
      break;
    case OpKind::kAggregate:
    case OpKind::kAggregateT:
      for (const std::string& g : group_by_) h = HashCombine(h, HashString(g));
      for (const AggSpec& a : aggregates_) {
        h = HashCombine(h, static_cast<uint64_t>(a.func));
        h = HashCombine(h, HashString(a.attr));
        h = HashCombine(h, HashString(a.out_name));
      }
      break;
    case OpKind::kSort:
      for (const SortKey& k : sort_spec_) {
        h = HashCombine(h, HashString(k.attr));
        h = HashCombine(h, k.ascending ? 1 : 2);
      }
      break;
    default:
      break;
  }
  payload_hash_ = h;
  fingerprint_ = FingerprintOf(kind_, payload_hash_, children_);
  size_t size = 1;
  int below = 0;
  for (const PlanPtr& c : children_) {
    size += c->subtree_size();
    below = std::max(below, c->depth());
  }
  if (predicate_ != nullptr) below = std::max(below, predicate_->depth());
  for (const ProjItem& item : projections_) {
    below = std::max(below, item.expr->depth());
  }
  subtree_size_ = size;
  depth_ = below + 1;
}

PlanNode::~PlanNode() {
  // Subtrees up to this deep destroy recursively, as members normally do.
  constexpr int kRecursiveReleaseDepth = 64;
  if (depth_ <= kRecursiveReleaseDepth) return;
  // Deeper ones: detach every child this node alone owns onto a worklist and
  // release them one at a time, so no destructor recurses more than one
  // level. A sole owner may take a node's children: nothing else can reach
  // the node (plans are never held by weak_ptr).
  std::vector<PlanPtr> pending;
  auto detach = [&pending](std::vector<PlanPtr>& children) {
    for (PlanPtr& child : children) {
      if (child.use_count() == 1) pending.push_back(std::move(child));
    }
    children.clear();
  };
  detach(children_);
  while (!pending.empty()) {
    PlanPtr node = std::move(pending.back());
    pending.pop_back();
    detach(const_cast<PlanNode&>(*node).children_);
  }
}

Status CheckPlanDepth(const PlanPtr& plan) {
  if (plan->depth() <= kMaxPlanDepth) return Status::OK();
  return Status::InvalidArgument(
      "plan nested " + std::to_string(plan->depth()) +
      " levels deep; at most " + std::to_string(kMaxPlanDepth) +
      " are accepted");
}

bool PlanNode::SamePayload(const PlanNode& a, const PlanNode& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case OpKind::kScan:
      return a.rel_name_ == b.rel_name_;
    case OpKind::kSelect:
      return Expr::Equals(a.predicate_, b.predicate_);
    case OpKind::kProject:
      if (a.projections_.size() != b.projections_.size()) return false;
      for (size_t i = 0; i < a.projections_.size(); ++i) {
        if (a.projections_[i].name != b.projections_[i].name ||
            !Expr::Equals(a.projections_[i].expr, b.projections_[i].expr)) {
          return false;
        }
      }
      return true;
    case OpKind::kAggregate:
    case OpKind::kAggregateT: {
      if (a.group_by_ != b.group_by_ ||
          a.aggregates_.size() != b.aggregates_.size()) {
        return false;
      }
      for (size_t i = 0; i < a.aggregates_.size(); ++i) {
        const AggSpec& x = a.aggregates_[i];
        const AggSpec& y = b.aggregates_[i];
        if (x.func != y.func || x.attr != y.attr || x.out_name != y.out_name) {
          return false;
        }
      }
      return true;
    }
    case OpKind::kSort:
      return a.sort_spec_ == b.sort_spec_;
    default:
      return true;  // payload-free operators
  }
}

bool PlanNode::SameShallow(const PlanNode& a, const PlanNode& b) {
  if (a.children_.size() != b.children_.size()) return false;
  for (size_t i = 0; i < a.children_.size(); ++i) {
    if (a.children_[i].get() != b.children_[i].get()) return false;
  }
  return SamePayload(a, b);
}

bool PlanNode::Equal(const PlanPtr& a, const PlanPtr& b) {
  if (a.get() == b.get()) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->fingerprint_ != b->fingerprint_ ||
      a->subtree_size_ != b->subtree_size_ ||
      a->children_.size() != b->children_.size()) {
    return false;
  }
  for (size_t i = 0; i < a->children_.size(); ++i) {
    if (!Equal(a->children_[i], b->children_[i])) return false;
  }
  return SamePayload(*a, *b);
}

// Builders assign private fields directly; PlanNode declares them privately,
// so each builder constructs through a local subclass with setter access.
struct PlanNodeBuilder : PlanNode {
  static std::shared_ptr<PlanNodeBuilder> Make() {
    return std::shared_ptr<PlanNodeBuilder>(new PlanNodeBuilder());
  }
  void Seal() { Finalize(); }
  void set_kind(OpKind k) { kind_ = k; }
  void set_children(std::vector<PlanPtr> c) { children_ = std::move(c); }
  void set_rel_name(std::string n) { rel_name_ = std::move(n); }
  void set_predicate(ExprPtr p) { predicate_ = std::move(p); }
  void set_projections(std::vector<ProjItem> p) { projections_ = std::move(p); }
  void set_group_by(std::vector<std::string> g) { group_by_ = std::move(g); }
  void set_aggregates(std::vector<AggSpec> a) { aggregates_ = std::move(a); }
  void set_sort_spec(SortSpec s) { sort_spec_ = std::move(s); }

 private:
  PlanNodeBuilder() : PlanNode() {}
};

PlanPtr PlanNode::Scan(std::string rel_name) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kScan);
  n->set_rel_name(std::move(rel_name));
  n->Seal();
  return n;
}

PlanPtr PlanNode::Select(PlanPtr input, ExprPtr predicate) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kSelect);
  n->set_children({std::move(input)});
  n->set_predicate(std::move(predicate));
  n->Seal();
  return n;
}

PlanPtr PlanNode::Project(PlanPtr input, std::vector<ProjItem> items) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kProject);
  n->set_children({std::move(input)});
  n->set_projections(std::move(items));
  n->Seal();
  return n;
}

PlanPtr PlanNode::UnionAll(PlanPtr left, PlanPtr right) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kUnionAll);
  n->set_children({std::move(left), std::move(right)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::Product(PlanPtr left, PlanPtr right) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kProduct);
  n->set_children({std::move(left), std::move(right)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::Difference(PlanPtr left, PlanPtr right) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kDifference);
  n->set_children({std::move(left), std::move(right)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::Aggregate(PlanPtr input, std::vector<std::string> group_by,
                            std::vector<AggSpec> aggs) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kAggregate);
  n->set_children({std::move(input)});
  n->set_group_by(std::move(group_by));
  n->set_aggregates(std::move(aggs));
  n->Seal();
  return n;
}

PlanPtr PlanNode::Rdup(PlanPtr input) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kRdup);
  n->set_children({std::move(input)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::ProductT(PlanPtr left, PlanPtr right) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kProductT);
  n->set_children({std::move(left), std::move(right)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::DifferenceT(PlanPtr left, PlanPtr right) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kDifferenceT);
  n->set_children({std::move(left), std::move(right)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::AggregateT(PlanPtr input, std::vector<std::string> group_by,
                             std::vector<AggSpec> aggs) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kAggregateT);
  n->set_children({std::move(input)});
  n->set_group_by(std::move(group_by));
  n->set_aggregates(std::move(aggs));
  n->Seal();
  return n;
}

PlanPtr PlanNode::RdupT(PlanPtr input) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kRdupT);
  n->set_children({std::move(input)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::Union(PlanPtr left, PlanPtr right) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kUnion);
  n->set_children({std::move(left), std::move(right)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::UnionT(PlanPtr left, PlanPtr right) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kUnionT);
  n->set_children({std::move(left), std::move(right)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::Sort(PlanPtr input, SortSpec spec) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kSort);
  n->set_children({std::move(input)});
  n->set_sort_spec(std::move(spec));
  n->Seal();
  return n;
}

PlanPtr PlanNode::Coalesce(PlanPtr input) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kCoalesce);
  n->set_children({std::move(input)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::TransferS(PlanPtr input) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kTransferS);
  n->set_children({std::move(input)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::TransferD(PlanPtr input) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(OpKind::kTransferD);
  n->set_children({std::move(input)});
  n->Seal();
  return n;
}

PlanPtr PlanNode::WithChildren(const PlanPtr& node,
                               std::vector<PlanPtr> children) {
  auto n = PlanNodeBuilder::Make();
  n->set_kind(node->kind_);
  n->set_children(std::move(children));
  n->set_rel_name(node->rel_name_);
  if (node->predicate_) n->set_predicate(node->predicate_);
  n->set_projections(node->projections_);
  n->set_group_by(node->group_by_);
  n->set_aggregates(node->aggregates_);
  n->set_sort_spec(node->sort_spec_);
  n->Seal();
  return n;
}

std::string CanonicalString(const PlanPtr& plan) {
  std::string out = plan->Describe();
  if (!plan->children().empty()) {
    out += "(";
    for (size_t i = 0; i < plan->children().size(); ++i) {
      if (i > 0) out += ",";
      out += CanonicalString(plan->child(i));
    }
    out += ")";
  }
  return out;
}

size_t PlanSize(const PlanPtr& plan) { return plan->subtree_size(); }

void CollectNodes(const PlanPtr& plan, std::vector<PlanPtr>* out) {
  out->push_back(plan);
  for (const PlanPtr& c : plan->children()) CollectNodes(c, out);
}

namespace {

void CollectLocationsImpl(const PlanPtr& plan, PlanPath* path,
                          std::vector<PlanLocation>* out) {
  out->push_back(PlanLocation{plan, *path});
  for (uint32_t i = 0; i < plan->children().size(); ++i) {
    path->push_back(i);
    CollectLocationsImpl(plan->child(i), path, out);
    path->pop_back();
  }
}

}  // namespace

void CollectLocations(const PlanPtr& plan, std::vector<PlanLocation>* out) {
  out->reserve(out->size() + plan->subtree_size());
  PlanPath path;
  path.reserve(32);
  CollectLocationsImpl(plan, &path, out);
}

const PlanPtr& NodeAtPath(const PlanPtr& root, const PlanPath& path) {
  const PlanPtr* cur = &root;
  for (uint32_t step : path) {
    TQP_CHECK(step < (*cur)->arity());
    cur = &(*cur)->child(step);
  }
  return *cur;
}

namespace {

PlanPtr ReplaceAtPathImpl(const PlanPtr& root, const PlanPath& path,
                          size_t depth, PlanPtr replacement) {
  if (depth == path.size()) return replacement;
  uint32_t step = path[depth];
  TQP_CHECK(step < root->arity());
  std::vector<PlanPtr> children = root->children();
  children[step] =
      ReplaceAtPathImpl(root->child(step), path, depth + 1,
                        std::move(replacement));
  return PlanNode::WithChildren(root, std::move(children));
}

}  // namespace

PlanPtr ReplaceAtPath(const PlanPtr& root, const PlanPath& path,
                      PlanPtr replacement) {
  return ReplaceAtPathImpl(root, path, 0, std::move(replacement));
}

namespace {

// Must agree with PlanNode::FingerprintOf / Finalize: kind + payload hash,
// then the children's fingerprints in order, with the spine child at
// path[depth] substituted.
uint64_t FingerprintAtPathImpl(const PlanPtr& node, const PlanPath& path,
                               size_t depth, uint64_t rep_fp) {
  if (depth == path.size()) return rep_fp;
  uint32_t step = path[depth];
  TQP_DCHECK(step < node->arity());
  uint64_t child_fp =
      FingerprintAtPathImpl(node->child(step), path, depth + 1, rep_fp);
  uint64_t h = PlanNode::FingerprintPrefix(node->kind(), node->payload_hash());
  for (size_t i = 0; i < node->arity(); ++i) {
    h = HashCombine(h, i == step ? child_fp : node->child(i)->fingerprint());
  }
  return h;
}

bool EqualsWithReplacementImpl(const PlanPtr& target, const PlanPtr& base,
                               const PlanPath& path, size_t depth,
                               const PlanPtr& replacement) {
  if (depth == path.size()) return PlanNode::Equal(target, replacement);
  uint32_t step = path[depth];
  if (target->kind() != base->kind() || target->arity() != base->arity()) {
    return false;
  }
  if (!PlanNode::SamePayload(*target, *base)) return false;
  for (size_t i = 0; i < base->arity(); ++i) {
    if (i == static_cast<size_t>(step)) {
      if (!EqualsWithReplacementImpl(target->child(i), base->child(i), path,
                                     depth + 1, replacement)) {
        return false;
      }
      continue;
    }
    const PlanPtr& t = target->child(i);
    const PlanPtr& b = base->child(i);
    if (t.get() != b.get() && !PlanNode::Equal(t, b)) return false;
  }
  return true;
}

}  // namespace

uint64_t FingerprintAtPath(const PlanPtr& root, const PlanPath& path,
                           uint64_t replacement_fingerprint) {
  return FingerprintAtPathImpl(root, path, 0, replacement_fingerprint);
}

bool EqualsWithReplacement(const PlanPtr& target, const PlanPtr& base,
                           const PlanPath& path, const PlanPtr& replacement) {
  return EqualsWithReplacementImpl(target, base, path, 0, replacement);
}

PlanPtr ClonePlan(const PlanPtr& plan) {
  std::vector<PlanPtr> children;
  children.reserve(plan->children().size());
  for (const PlanPtr& c : plan->children()) children.push_back(ClonePlan(c));
  return PlanNode::WithChildren(plan, std::move(children));
}

PlanPtr ReplaceNode(const PlanPtr& root, const PlanNode* target,
                    PlanPtr replacement) {
  if (root.get() == target) return replacement;
  bool changed = false;
  std::vector<PlanPtr> new_children;
  new_children.reserve(root->children().size());
  for (const PlanPtr& c : root->children()) {
    PlanPtr nc = ReplaceNode(c, target, replacement);
    changed |= (nc != c);
    new_children.push_back(std::move(nc));
  }
  if (!changed) return root;
  return PlanNode::WithChildren(root, std::move(new_children));
}

}  // namespace tqp
