// Logical query plans: immutable operator trees over the extended algebra.
//
// The node kinds cover every operation of Table 1 plus the transfer
// operations TS/TD of the layered architecture (Section 4.5). Nodes are
// immutable and shared between plans; a rewrite rebuilds only the spine from
// the rewritten location to the root. All derived information (schemas,
// orders, guarantees, properties, cardinalities) lives outside the nodes in
// PlanAnnotations (see derivation.h), so shared subtrees can carry different
// annotations in different plans.
#ifndef TQP_ALGEBRA_PLAN_H_
#define TQP_ALGEBRA_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "core/catalog.h"

namespace tqp {

/// The operations of the extended algebra (Table 1) plus transfers.
enum class OpKind {
  kScan,         // named base relation
  kSelect,       // σ_P
  kProject,      // π_{f1..fn}
  kUnionAll,     // ⊎ (concatenation)
  kProduct,      // ×
  kDifference,   // \  (multiset difference)
  kAggregate,    // ℵ_{G;F}
  kRdup,         // rdup
  kProductT,     // ×^T
  kDifferenceT,  // \^T
  kAggregateT,   // ℵ^T
  kRdupT,        // rdup^T
  kUnion,        // ∪ (max-multiplicity union)
  kUnionT,       // ∪^T
  kSort,         // sort_A
  kCoalesce,     // coal^T
  kTransferS,    // T_S : DBMS → stratum
  kTransferD,    // T_D : stratum → DBMS
};

/// Number of OpKind values, for kind-indexed dispatch tables.
inline constexpr size_t kOpKindCount =
    static_cast<size_t>(OpKind::kTransferD) + 1;

const char* OpKindName(OpKind k);

/// True for ×T, \T, ℵT, rdupT, ∪T, coalT (operations with built-in temporal
/// semantics, snapshot-reducible to their conventional counterparts).
bool IsTemporalOp(OpKind k);

/// True for rdupT, coalT, \T, ∪T — the order-sensitive operations of
/// Section 6 (multiset-equivalent inputs may yield non-multiset-equivalent
/// outputs).
bool IsOrderSensitiveOp(OpKind k);

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// A location inside a plan: the child indices followed from the root.
/// Rewrites happen "at a path": only the spine from the path's end back to
/// the root is rebuilt (path copying); everything else is shared.
using PlanPath = std::vector<uint32_t>;

/// One immutable operator node.
class PlanNode {
 public:
  OpKind kind() const { return kind_; }
  const std::vector<PlanPtr>& children() const { return children_; }
  const PlanPtr& child(size_t i) const { return children_[i]; }
  size_t arity() const { return children_.size(); }

  /// Structural 64-bit fingerprint, computed once at construction from the
  /// operator kind, its payload, and the children's fingerprints. Two nodes
  /// with different fingerprints are guaranteed distinct; equal fingerprints
  /// are confirmed structurally where identity matters (PlanInterner).
  uint64_t fingerprint() const { return fingerprint_; }

  /// Hash of the operator kind and payload only (no children). Lets the
  /// interner predict the fingerprint of "this node with different children"
  /// without constructing it.
  uint64_t payload_hash() const { return payload_hash_; }

  /// The fingerprint a node with this kind/payload hash and these children
  /// would have. Agrees with fingerprint() by construction.
  static uint64_t FingerprintOf(OpKind kind, uint64_t payload_hash,
                                const std::vector<PlanPtr>& children);

  /// The (kind, payload)-dependent prefix of a fingerprint; callers fold the
  /// children's fingerprints onto it in order with HashCombine. The single
  /// source of truth for the mixing recipe (FingerprintOf, FingerprintAtPath
  /// and the interner all build on it).
  static uint64_t FingerprintPrefix(OpKind kind, uint64_t payload_hash);

  /// Payload-only equality (kind, rel_name, predicate, projections, ...);
  /// ignores children.
  static bool SamePayload(const PlanNode& a, const PlanNode& b);

  /// Number of operator nodes in the subtree rooted here (cached, O(1)).
  /// Counts occurrences, so a hash-consed DAG reports its unfolded size.
  size_t subtree_size() const { return subtree_size_; }

  /// Nesting depth in levels, expressions included (cached, O(1)): this
  /// node is level 1, and each child operator, predicate or projection
  /// expression, and expression operand is one level below its parent.
  /// See kMaxPlanDepth.
  int depth() const { return depth_; }

  /// Shallow structural equality: same kind and payload, children compared
  /// by pointer. Sufficient for full structural equality when both nodes'
  /// children are already interned.
  static bool SameShallow(const PlanNode& a, const PlanNode& b);

  /// Deep structural equality (pointer short-circuit, fingerprint filter,
  /// then recursion).
  static bool Equal(const PlanPtr& a, const PlanPtr& b);

  const std::string& rel_name() const { return rel_name_; }
  const ExprPtr& predicate() const { return predicate_; }
  const std::vector<ProjItem>& projections() const { return projections_; }
  const std::vector<std::string>& group_by() const { return group_by_; }
  const std::vector<AggSpec>& aggregates() const { return aggregates_; }
  const SortSpec& sort_spec() const { return sort_spec_; }

  /// Single-line description of this operator (kind + payload).
  std::string Describe() const;

  // ---- Builders ----
  static PlanPtr Scan(std::string rel_name);
  static PlanPtr Select(PlanPtr input, ExprPtr predicate);
  static PlanPtr Project(PlanPtr input, std::vector<ProjItem> items);
  static PlanPtr UnionAll(PlanPtr left, PlanPtr right);
  static PlanPtr Product(PlanPtr left, PlanPtr right);
  static PlanPtr Difference(PlanPtr left, PlanPtr right);
  static PlanPtr Aggregate(PlanPtr input, std::vector<std::string> group_by,
                           std::vector<AggSpec> aggs);
  static PlanPtr Rdup(PlanPtr input);
  static PlanPtr ProductT(PlanPtr left, PlanPtr right);
  static PlanPtr DifferenceT(PlanPtr left, PlanPtr right);
  static PlanPtr AggregateT(PlanPtr input, std::vector<std::string> group_by,
                            std::vector<AggSpec> aggs);
  static PlanPtr RdupT(PlanPtr input);
  static PlanPtr Union(PlanPtr left, PlanPtr right);
  static PlanPtr UnionT(PlanPtr left, PlanPtr right);
  static PlanPtr Sort(PlanPtr input, SortSpec spec);
  static PlanPtr Coalesce(PlanPtr input);
  static PlanPtr TransferS(PlanPtr input);  // DBMS → stratum
  static PlanPtr TransferD(PlanPtr input);  // stratum → DBMS

  /// Rebuilds this node with new children (payload preserved).
  static PlanPtr WithChildren(const PlanPtr& node,
                              std::vector<PlanPtr> children);

  /// Releases a deep subtree iteratively: a plan built deeper than
  /// kMaxPlanDepth (and refused) would otherwise overflow the stack while
  /// it is destroyed, one chain of frames per level.
  ~PlanNode();

 protected:
  PlanNode() = default;

  /// Seals the node: derives payload_hash_, fingerprint_, subtree_size_ and
  /// depth_ from the payload and children. Must be the last step of every
  /// construction path.
  void Finalize();

  OpKind kind_ = OpKind::kScan;
  std::vector<PlanPtr> children_;
  std::string rel_name_;
  ExprPtr predicate_;
  std::vector<ProjItem> projections_;
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggregates_;
  SortSpec sort_spec_;
  uint64_t payload_hash_ = 0;
  uint64_t fingerprint_ = 0;
  size_t subtree_size_ = 1;
  int depth_ = 1;
};

/// The deepest plan (PlanNode::depth()) the system accepts. Interning,
/// derivation, the optimizer, both executors and the plan-snapshot readers
/// all recurse once per level, so plans are checked where they enter:
/// CompileQuery rejects a deeper translation, and tqp::Engine a deeper
/// hand-built plan or chosen plan, before anything recurses over them; the
/// snapshot readers refuse deeper input as corrupt. So every plan the Engine
/// caches can also be snapshotted and loaded. 512 is twice the parser's
/// kMaxExprDepth, and shallow enough for an 8 MiB stack in a sanitized Debug
/// build, where a level of the snapshot reader took 8-12 KiB.
inline constexpr int kMaxPlanDepth = 512;

/// InvalidArgument naming the depth if `plan` is deeper than kMaxPlanDepth;
/// OK otherwise. O(1): reads the cached depth.
Status CheckPlanDepth(const PlanPtr& plan);

/// Canonical, order-stable serialization of a plan tree; two plans are the
/// same tree iff their canonical strings are equal. Used for plan-set dedup
/// in the enumeration algorithm (Figure 5).
std::string CanonicalString(const PlanPtr& plan);

/// Total number of operator nodes.
size_t PlanSize(const PlanPtr& plan);

/// Pre-order list of all nodes.
void CollectNodes(const PlanPtr& plan, std::vector<PlanPtr>* out);

/// One rewrite location: a node occurrence and the path that reaches it.
/// Unlike raw node pointers, paths stay unambiguous when hash-consing makes
/// the same node object occur several times in one plan.
struct PlanLocation {
  PlanPtr node;
  PlanPath path;
};

/// Pre-order list of all node occurrences with their paths.
void CollectLocations(const PlanPtr& plan, std::vector<PlanLocation>* out);

/// The node occurrence at `path`; TQP_CHECKs that the path is valid.
const PlanPtr& NodeAtPath(const PlanPtr& root, const PlanPath& path);

/// Replaces the subtree at `path` with `replacement`, rebuilding only the
/// spine from the location to the root (path copying). The untouched
/// siblings are shared with the input plan.
PlanPtr ReplaceAtPath(const PlanPtr& root, const PlanPath& path,
                      PlanPtr replacement);

/// The fingerprint ReplaceAtPath(root, path, replacement) would produce,
/// computed along the spine without constructing any node. Lets the
/// enumerator probe its memo before deciding to materialize a rewrite.
uint64_t FingerprintAtPath(const PlanPtr& root, const PlanPath& path,
                           uint64_t replacement_fingerprint);

/// True iff `target` is structurally equal to the (unconstructed) plan
/// "ReplaceAtPath(base, path, replacement)". Off-spine subtrees short-circuit
/// by pointer when shared, so confirming a memo probe on hash-consed plans is
/// O(spine + replacement).
bool EqualsWithReplacement(const PlanPtr& target, const PlanPtr& base,
                           const PlanPath& path, const PlanPtr& replacement);

/// Replaces `target` (by node identity) with `replacement` inside `root`,
/// rebuilding the spine. Returns the (possibly new) root; returns `root`
/// unchanged if `target` does not occur. Replaces every occurrence, so it is
/// only safe on proper trees; rule application uses ReplaceAtPath instead.
PlanPtr ReplaceNode(const PlanPtr& root, const PlanNode* target,
                    PlanPtr replacement);

/// Deep-copies a plan: every node is fresh (payloads are shared). Needed
/// when one logical subexpression is used twice in a plan, since plans must
/// be proper trees for annotation.
PlanPtr ClonePlan(const PlanPtr& plan);

}  // namespace tqp

#endif  // TQP_ALGEBRA_PLAN_H_
