#include "algebra/intern.h"

#include "core/hash.h"

namespace tqp {

PlanPtr PlanInterner::Intern(const PlanPtr& plan) {
  // Fast path: the node is already canonical (common for rule replacements
  // that reuse operand subtrees of an interned plan).
  if (IsCanonical(plan.get())) return plan;

  // Intern children first so the bucket comparison below can compare
  // children by pointer.
  bool changed = false;
  std::vector<PlanPtr> children;
  children.reserve(plan->children().size());
  for (const PlanPtr& c : plan->children()) {
    PlanPtr ic = Intern(c);
    changed |= (ic.get() != c.get());
    children.push_back(std::move(ic));
  }
  PlanPtr candidate =
      changed ? PlanNode::WithChildren(plan, std::move(children)) : plan;

  std::vector<PlanPtr>& bucket = buckets_[plan->fingerprint()];
  for (const PlanPtr& existing : bucket) {
    if (PlanNode::SameShallow(*existing, *candidate)) {
      ++hits_;
      return existing;
    }
  }
  bucket.push_back(candidate);
  canonical_.insert(candidate.get());
  return candidate;
}

PlanPtr PlanInterner::InternWithChild(const PlanPtr& proto, size_t child_index,
                                      const PlanPtr& new_child) {
  if (proto->child(child_index).get() == new_child.get()) return proto;

  // Predict the fingerprint of the rebuilt node without constructing it.
  uint64_t h =
      PlanNode::FingerprintPrefix(proto->kind(), proto->payload_hash());
  for (size_t i = 0; i < proto->arity(); ++i) {
    const PlanPtr& c = i == child_index ? new_child : proto->child(i);
    h = HashCombine(h, c->fingerprint());
  }

  std::vector<PlanPtr>& bucket = buckets_[h];
  for (const PlanPtr& existing : bucket) {
    if (existing->arity() != proto->arity()) continue;
    bool same = PlanNode::SamePayload(*existing, *proto);
    for (size_t i = 0; same && i < proto->arity(); ++i) {
      const PlanPtr& c = i == child_index ? new_child : proto->child(i);
      same = existing->child(i).get() == c.get();
    }
    if (same) {
      ++hits_;
      return existing;
    }
  }

  std::vector<PlanPtr> children = proto->children();
  children[child_index] = new_child;
  PlanPtr built = PlanNode::WithChildren(proto, std::move(children));
  TQP_DCHECK(built->fingerprint() == h);
  bucket.push_back(built);
  canonical_.insert(built.get());
  return built;
}

PlanPtr PlanInterner::RewriteInternedImpl(const PlanPtr& root,
                                          const PlanPath& path, size_t depth,
                                          PlanPtr replacement) {
  if (depth == path.size()) return Intern(replacement);
  uint32_t step = path[depth];
  TQP_CHECK(step < root->arity());
  PlanPtr child = RewriteInternedImpl(root->child(step), path, depth + 1,
                                      std::move(replacement));
  return InternWithChild(root, step, child);
}

PlanPtr PlanInterner::RewriteInterned(const PlanPtr& root, const PlanPath& path,
                                      PlanPtr replacement) {
  TQP_DCHECK(IsCanonical(root.get()));
  return RewriteInternedImpl(root, path, 0, std::move(replacement));
}

}  // namespace tqp
