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
// Concurrency: the table is sharded by fingerprint into striped-lock shards.
// By default no locks are taken (the single-threaded fast path is lock-free
// and byte-identical to the unsharded original); EnableConcurrentAccess()
// switches every probe/insert to its shard's stripe lock, which is what lets
// tqp::Engine share one interner between concurrent sessions.
#ifndef TQP_ALGEBRA_INTERN_H_
#define TQP_ALGEBRA_INTERN_H_

#include <atomic>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algebra/plan.h"
#include "core/sync.h"

namespace tqp {

/// An interning table for plan nodes. Canonical nodes are kept alive by the
/// table for its lifetime. Not thread-safe by default; see
/// EnableConcurrentAccess().
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
  bool IsCanonical(const PlanNode* node) const;

  /// Number of distinct nodes owned by the table.
  size_t unique_nodes() const {
    return node_count_.load(std::memory_order_relaxed);
  }

  /// Number of Intern() node visits resolved to an existing canonical node.
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// Switches the table to concurrent mode: every probe/insert takes the
  /// striped lock of the shard it touches. One-way (the flag is a monotonic
  /// relaxed atomic, so concurrent re-enables are benign), and must be
  /// called before the table is first shared between threads. Interning
  /// stays deterministic in what it *stores* (the set of canonical nodes is
  /// a pure function of the set of interned plans); only which racing
  /// thread's structurally-equal node becomes the canonical object depends
  /// on timing, and pointer values are never observable in results.
  void EnableConcurrentAccess() {
    concurrent_.store(true, std::memory_order_relaxed);
  }

 private:
  /// One fingerprint-routed shard: the bucket table plus the canonical-node
  /// membership set for nodes whose fingerprint falls in this shard.
  struct Shard {
    std::unordered_map<uint64_t, std::vector<PlanPtr>> buckets;
    std::unordered_set<const PlanNode*> canonical;
  };

  Shard& ShardFor(uint64_t fp) { return shards_[StripedMutex::IndexOf(fp)]; }
  const Shard& ShardFor(uint64_t fp) const {
    return shards_[StripedMutex::IndexOf(fp)];
  }
  std::mutex* LockFor(uint64_t fp) const {
    return concurrent_.load(std::memory_order_relaxed) ? &mu_.For(fp)
                                                       : nullptr;
  }

  /// Canonical node equal to "`proto` with its `child_index`-th child being
  /// `new_child`"; constructs it only on a table miss. `proto`'s other
  /// children and `new_child` must be canonical.
  PlanPtr InternWithChild(const PlanPtr& proto, size_t child_index,
                          const PlanPtr& new_child);

  PlanPtr RewriteInternedImpl(const PlanPtr& root, const PlanPath& path,
                              size_t depth, PlanPtr replacement);

  Shard shards_[StripedMutex::kStripes];
  mutable StripedMutex mu_;
  std::atomic<bool> concurrent_{false};
  std::atomic<size_t> node_count_{0};
  std::atomic<size_t> hits_{0};
};

}  // namespace tqp

#endif  // TQP_ALGEBRA_INTERN_H_
