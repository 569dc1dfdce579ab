// Hash-consing of plan nodes.
//
// A PlanInterner maps every structurally distinct plan node to one canonical
// immutable object, so plan identity becomes a pointer comparison and
// equivalent subtrees are physically shared between all plans that contain
// them. The memo-based enumerator (opt/enumerate.h) interns every candidate
// plan it produces: deduplication is then an O(1) hash-map probe on the
// canonical root pointer instead of an O(n) canonical-string serialization,
// and per-subtree derived state (see DerivationCache) can be reused across
// the whole plan space.
//
// The table buckets nodes by their structural fingerprint and confirms every
// bucket hit with a payload/children comparison, so a 64-bit collision can
// never merge two distinct plans.
//
// A table is not thread-safe and lives as long as one search needs it:
// tqp::Engine gives every query's plan search its own, so the nodes of the
// plans a query did not keep are freed when its search ends.
#ifndef TQP_ALGEBRA_INTERN_H_
#define TQP_ALGEBRA_INTERN_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algebra/plan.h"

namespace tqp {

/// An interning table for plan nodes. Canonical nodes are kept alive by the
/// table for its lifetime. Not thread-safe.
class PlanInterner {
 public:
  /// Returns the canonical node for `plan`, interning the whole subtree
  /// bottom-up. The result is structurally equal to the input, and pointer
  /// identity on results coincides with structural equality:
  ///   Intern(a).get() == Intern(b).get()  iff  PlanNode::Equal(a, b).
  PlanPtr Intern(const PlanPtr& plan);

  /// Path-copy rewrite fused with interning: returns the canonical plan
  /// equal to "`root` with the subtree at `path` replaced by `replacement`".
  /// `root` must be canonical. Spine nodes are probed by their predicted
  /// fingerprint (payload hash + child fingerprints) and only constructed
  /// when no canonical equivalent exists yet — a rewrite that lands on an
  /// already-seen plan allocates nothing.
  PlanPtr RewriteInterned(const PlanPtr& root, const PlanPath& path,
                          PlanPtr replacement);

  /// True iff `node` is a canonical node owned by this table.
  bool IsCanonical(const PlanNode* node) const {
    return canonical_.count(node) > 0;
  }

  /// Number of distinct nodes owned by the table.
  size_t unique_nodes() const { return canonical_.size(); }

  /// Number of Intern() node visits resolved to an existing canonical node.
  size_t hits() const { return hits_; }

 private:
  /// Canonical node equal to "`proto` with its `child_index`-th child being
  /// `new_child`"; constructs it only on a table miss. `proto`'s other
  /// children and `new_child` must be canonical.
  PlanPtr InternWithChild(const PlanPtr& proto, size_t child_index,
                          const PlanPtr& new_child);

  PlanPtr RewriteInternedImpl(const PlanPtr& root, const PlanPath& path,
                              size_t depth, PlanPtr replacement);

  /// Canonical nodes bucketed by structural fingerprint.
  std::unordered_map<uint64_t, std::vector<PlanPtr>> buckets_;
  std::unordered_set<const PlanNode*> canonical_;
  size_t hits_ = 0;
};

}  // namespace tqp

#endif  // TQP_ALGEBRA_INTERN_H_
