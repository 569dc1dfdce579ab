// List-based relations (Definition 2.2): finite sequences of tuples.
//
// A relation can contain duplicate tuples and the ordering of tuples is
// significant — this is the paper's central departure from multiset algebras,
// enabling sort pushdown and precise reasoning about duplicates, order, and
// coalescing. A relation also carries a (possibly empty) order annotation:
// the statically known sort order of its tuple sequence, realizing Order(r).
#ifndef TQP_CORE_RELATION_H_
#define TQP_CORE_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/schema.h"
#include "core/tuple.h"

namespace tqp {

/// A relation schema instance: a schema plus a finite list of tuples.
///
/// The tuple list is copy-on-write. Copying a Relation shares the list; the
/// first write through mutable_tuples() or Append() to a list that another
/// Relation still shares copies it first. So returning a catalog relation
/// from a scan, or splicing a cached result, copies no tuple, and no copy
/// can change what the catalog or the cache holds. Copies sharing one list
/// may be read and copied on several threads at once; only the holder of
/// a list's sole reference writes to it in place.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Tuple> tuples)
      : schema_(std::move(schema)),
        tuples_(std::make_shared<std::vector<Tuple>>(std::move(tuples))) {}

  const Schema& schema() const { return schema_; }
  const std::vector<Tuple>& tuples() const {
    return tuples_ != nullptr ? *tuples_ : NoTuples();
  }
  /// The tuple list for writing; copies it first if another Relation
  /// shares it.
  std::vector<Tuple>& mutable_tuples();

  size_t size() const { return tuples_ != nullptr ? tuples_->size() : 0; }
  bool empty() const { return size() == 0; }
  const Tuple& tuple(size_t i) const { return (*tuples_)[i]; }

  /// Appends a tuple; checks arity.
  void Append(Tuple t);

  /// The statically known order of the tuple list (empty = unordered).
  const SortSpec& order() const { return order_; }
  void set_order(SortSpec order) { order_ = std::move(order); }

  bool IsTemporal() const { return schema_.IsTemporal(); }

  /// The snapshot of a temporal relation at time t: the conventional relation
  /// containing those tuples (minus the time attributes) whose periods contain
  /// t, in list order (Section 2.1). Checked error on snapshot relations.
  Relation Snapshot(TimePoint t) const;

  /// All distinct period endpoints occurring in the relation, sorted. Between
  /// two consecutive endpoints every snapshot is identical, so checking
  /// snapshot equivalence at one representative per elementary interval is
  /// exhaustive.
  std::vector<TimePoint> TimeEndpoints() const;

  /// True iff the relation contains no duplicate tuples (as full tuples).
  bool HasDuplicates() const;

  /// True iff no snapshot of the relation contains duplicates, i.e., no two
  /// value-equivalent tuples have overlapping periods (temporal relations
  /// only; for snapshot relations this is HasDuplicates()).
  bool HasSnapshotDuplicates() const;

  /// True iff no two value-equivalent tuples have adjacent periods (nothing
  /// for coalT to merge). Coalescing is undefined for snapshot relations.
  bool IsCoalesced() const;

  /// True iff the tuple list is sorted according to `spec`.
  bool IsSortedBy(const SortSpec& spec) const;

  /// Pretty-prints the relation as an aligned ASCII table (examples/benches).
  std::string ToTable(const std::string& title = "") const;

 private:
  static const std::vector<Tuple>& NoTuples();

  Schema schema_;
  /// Null = no tuples (also the state a move leaves behind).
  std::shared_ptr<std::vector<Tuple>> tuples_;
  SortSpec order_;
};

/// Order-sensitive digest of `rel`'s contents: its schema (attribute names
/// and types) and its first `rows` tuples in list order (all of them when
/// `rows` exceeds the size). It hashes the values' representations with
/// fixed functions, so equal digests identify equal contents across
/// catalogs, processes and restarts. Because the tuples are folded in list
/// order, ContentDigest(r, k) is the digest of r's first k tuples: a list
/// whose k-tuple prefix digest equals an earlier digest over k rows extends
/// that earlier list.
uint64_t ContentDigest(const Relation& rel, size_t rows = SIZE_MAX);

/// Compares tuples according to a sort specification resolved against a
/// schema. Used by sort and by order-verification.
class TupleComparator {
 public:
  TupleComparator(const SortSpec& spec, const Schema& schema);

  /// Three-way comparison on the sort keys only.
  int Compare(const Tuple& a, const Tuple& b) const;
  bool operator()(const Tuple& a, const Tuple& b) const {
    return Compare(a, b) < 0;
  }

 private:
  struct Key {
    size_t index;
    bool ascending;
  };
  std::vector<Key> keys_;
};

}  // namespace tqp

#endif  // TQP_CORE_RELATION_H_
