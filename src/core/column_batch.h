// Columnar storage for the vectorized batch executor (src/vexec).
//
// A ColumnTable is the columnar twin of a Relation: one typed ColumnVec per
// schema attribute plus a row count. Its columns are copy-on-write, so
// tables can share them: the catalog keeps one ColumnTable per relation
// version (Catalog::Columns), whose columns every vectorized scan shares.
// The list semantics of the algebra are carried by the row index — row i
// of every column is tuple i — so every row-order-sensitive definition of
// Table 1 (which occurrence survives rdup, difference fragment order,
// rdupT's in-place discipline) transfers verbatim to the columnar form.
// Conversions to and from Relation are exact: the Value sequence of
// ToRelation(FromRelation(r)) is byte-identical to r.
//
// Storage is typed per column (int64 for kInt/kTime, double, string) with a
// lazily allocated null mask. A value whose runtime type disagrees with the
// column's declared type (possible because Value is dynamically typed)
// promotes the whole column to boxed Value storage, so exactness never
// depends on schema discipline. Row-level hash/compare/equality reproduce
// Tuple::Hash / Tuple::Compare bit-for-bit, which is what lets the
// vectorized operators reuse hash-based dedup without materializing tuples.
//
// Typed paths. The per-cell CellRef functions (At, CellRef::Compare/Hash/
// ClassHash, RowHash, RowHashNonTemporal) define every result; the bulk
// entry points reproduce them straight from the typed vectors and fall
// back to the per-cell path where the storage does not allow it:
//  * AppendRangeFrom copies payload and null-flag ranges in bulk when source
//    and destination share typed storage and declared type (an undecided
//    destination takes the source's);
//  * FoldHashes and the table-level RowHashes/ClassHashes fold hashes column
//    by column, one typed loop per column instead of one dispatch per cell;
//  * CompareCells compares two non-null typed cells without building
//    CellRefs: int64 cells of one declared type as int64, every other
//    numeric mix as doubles with Cmp's `<`-only form (so NaN ties every
//    number and -0.0 ties 0.0, as in Value::Compare), strings as strings.
//    Nulls, boxed cells and type-rank comparisons take CellRef::Compare.
//
// A ColumnTable may carry a row lineage (RowLineage, defined by the
// vectorized executor in vexec/vexec_internal.h): the rows and columns of a
// catalog twin its cells were copied from unchanged. Copies share it, and
// any write through mutable_col or ShareCol drops it, so a table that
// carries one holds exactly the cells it names.
//
// A ColumnBatch is a borrowed row range [begin, end) of a ColumnTable — the
// unit the vexec operators process at a time (see VexecOptions::batch_size).
#ifndef TQP_CORE_COLUMN_BATCH_H_
#define TQP_CORE_COLUMN_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/period.h"
#include "core/relation.h"

namespace tqp {

struct RowLineage;

/// Physical storage classes of a ColumnVec.
enum class ColumnStorage : uint8_t {
  kUndecided,  // empty/all-null column with no declared type yet
  kInt64,      // kInt or kTime payloads (declared type distinguishes)
  kDouble,
  kString,
  kBoxed,  // fallback: per-cell Value (mixed runtime types)
};

/// A lightweight view of one cell: the runtime type plus an unboxed payload.
/// Cheap to read in inner loops (no Value construction, no allocation).
struct CellRef {
  ValueType type = ValueType::kNull;
  int64_t i = 0;                  // kInt / kTime payload
  double d = 0.0;                 // kDouble payload
  const std::string* s = nullptr; // kString payload

  bool is_null() const { return type == ValueType::kNull; }
  bool IsNumeric() const {
    return type == ValueType::kInt || type == ValueType::kDouble ||
           type == ValueType::kTime;
  }
  /// Numeric coercion; mirrors Value::NumericValue (checked on non-numeric).
  double Numeric() const;
  /// Exact Value::Compare semantics (cross-type numeric comparison, then
  /// type rank, then payload).
  static int Compare(const CellRef& a, const CellRef& b);
  /// Exact Value::Hash.
  uint64_t Hash() const;
  /// Hash CONSISTENT WITH Compare()-equality: Compare treats numerically
  /// equal int/double/time cells as equal (Int(1) == Double(1.0) ==
  /// Time(1)), so numeric cells hash by numeric value (with -0.0 and NaN
  /// canonicalized), not by type. Required wherever a hash table replaces
  /// one of the reference evaluator's Compare-ordered maps (value
  /// equivalence classes, group keys) — Value::Hash is type-seeded and
  /// would split classes the reference merges. Its values are not part of
  /// any result: class indexes depend only on key equality.
  uint64_t ClassHash() const;
  /// Materializes the cell as a Value.
  Value ToValue() const;
  static CellRef Of(const Value& v);
};

/// One typed column. Appending decides the storage from the first non-null
/// value (or from an explicit declared type); a later type mismatch promotes
/// the column to boxed storage, preserving every cell exactly.
class ColumnVec {
 public:
  ColumnVec() = default;
  /// A column pre-typed from a schema attribute (kNull declares nothing).
  explicit ColumnVec(ValueType declared);

  size_t size() const { return size_; }
  ColumnStorage storage() const { return storage_; }
  ValueType declared_type() const { return declared_; }

  void Reserve(size_t n);

  // ---- Appends ----
  void AppendNull();
  void AppendValue(const Value& v);
  void AppendCell(const CellRef& c);
  /// Typed fast-path appends; the storage must match (checked in debug).
  void AppendInt64(int64_t v) {
    TQP_DCHECK(storage_ == ColumnStorage::kInt64);
    ints_.push_back(v);
    ++size_;
  }
  /// Appends `n` non-null int64 cells and returns their storage, for a
  /// kernel to fill in place (the storage must be int64; checked in debug).
  int64_t* AppendInt64s(size_t n);
  /// Copies cell `row` of `src` (any storage mix).
  void AppendFrom(const ColumnVec& src, size_t row);
  /// Copies rows [begin, end) of `src` (another column): the cells and
  /// storage of AppendFrom row by row, in bulk where the storage allows.
  void AppendRangeFrom(const ColumnVec& src, size_t begin, size_t end);
  /// Copies the given rows of `src` in index order.
  void AppendGather(const ColumnVec& src, const uint32_t* rows, size_t n);

  // ---- Cell access ----
  bool IsNull(size_t row) const {
    return !nulls_.empty() && nulls_[row] != 0;
  }
  /// Unchecked typed accessors (row must be non-null, storage must match).
  int64_t Int64At(size_t row) const { return ints_[row]; }
  double DoubleAt(size_t row) const { return doubles_[row]; }
  const std::string& StringAt(size_t row) const { return strings_[row]; }

  /// The cell as a CellRef (exact runtime type).
  CellRef At(size_t row) const;
  /// The cell as a Value (exact reconstruction).
  Value ValueAt(size_t row) const { return At(row).ToValue(); }

  /// Direct typed storage for kernel loops (valid only for the matching
  /// storage class; cells flagged null hold unspecified payloads).
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }

  /// False guarantees no cell of the column is null.
  bool MayHaveNulls() const { return !nulls_.empty(); }

  /// Folds the hash of each cell of rows [begin, end) into
  /// seeds[0, end - begin) with Tuple::Hash's combine step: CellRef::Hash
  /// per cell, or CellRef::ClassHash when `class_hash`. One typed loop over
  /// the column, bit-identical to folding At(row) cell by cell.
  void FoldHashes(size_t begin, size_t end, bool class_hash,
                  uint64_t* seeds) const;

  /// CellRef::Compare(a.At(ra), b.At(rb)), read from typed storage when
  /// both cells are non-null typed payloads (see the file comment).
  static int CompareCells(const ColumnVec& a, size_t ra, const ColumnVec& b,
                          size_t rb);

 private:
  void EnsureNulls();
  void DecideStorage(ValueType t);
  void PromoteToBoxed();

  ColumnStorage storage_ = ColumnStorage::kUndecided;
  ValueType declared_ = ValueType::kNull;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Value> boxed_;
  /// Empty = no nulls so far; else one flag per row.
  std::vector<uint8_t> nulls_;
};

/// A columnar relation: schema + one column per attribute + row count.
///
/// Columns are copy-on-write: copying a table shares its columns, and
/// ShareCol lets a table take another's column as one of its own. The
/// first write through mutable_col to a column that another table still
/// shares copies that column first. So a scan hands
/// out the catalog's columnar twin (core/catalog.h) in O(columns), a
/// projection passes an attribute through without copying it, and neither
/// can change the twin.
///
/// Either write drops the table's lineage. A table being filled column by
/// column on several threads has none (its lineage is set once it is full),
/// so those writes only read the empty slot.
class ColumnTable {
 public:
  ColumnTable() = default;
  /// An empty table with one pre-typed column per schema attribute.
  explicit ColumnTable(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t rows() const { return rows_; }
  size_t num_cols() const { return cols_.size(); }
  const ColumnVec& col(size_t i) const { return *cols_[i]; }
  /// Column i for writing; copies it first if another table shares it.
  ColumnVec& mutable_col(size_t i);
  /// Makes column i share column j of `src`: no cell is copied.
  void ShareCol(size_t i, const ColumnTable& src, size_t j) {
    DropLineage();
    cols_[i] = src.cols_[j];
  }

  /// The twin rows and columns this table's cells copy (null = none).
  const std::shared_ptr<const RowLineage>& lineage() const { return lineage_; }
  void set_lineage(std::shared_ptr<const RowLineage> lineage) {
    lineage_ = std::move(lineage);
  }

  /// Declares `n` more rows appended (kernels append column-wise and then
  /// commit the row count once; checked against every column in debug).
  void CommitRows(size_t n);

  /// Exact conversions. FromRelation preserves the Value sequence of every
  /// tuple; ToRelation reproduces it bit-for-bit.
  static ColumnTable FromRelation(const Relation& r);
  Relation ToRelation() const;

  /// Row-major hash, identical to Tuple::Hash of the row's tuple (the
  /// per-cell definition RowHashes reproduces).
  uint64_t RowHash(size_t row) const;
  /// RowHash of rows [begin, end) into out[0, end - begin), folded column
  /// by column (ColumnVec::FoldHashes).
  void RowHashes(size_t begin, size_t end, uint64_t* out) const;
  /// Lexicographic row comparison, identical to Tuple::Compare.
  static int RowCompare(const ColumnTable& a, size_t ra, const ColumnTable& b,
                        size_t rb);
  static bool RowEquals(const ColumnTable& a, size_t ra, const ColumnTable& b,
                        size_t rb) {
    return RowCompare(a, ra, b, rb) == 0;
  }

  /// Hash/compare over the non-time attributes only (value equivalence).
  /// The hash is any deterministic function consistent with equality; the
  /// comparison is identical to CompareNonTemporal.
  uint64_t RowHashNonTemporal(size_t row) const;
  static int RowCompareNonTemporal(const ColumnTable& a, size_t ra,
                                   const ColumnTable& b, size_t rb);

  /// The class-key hash of the cells of columns `cols` (in that order) for
  /// rows [begin, end), into out[0, end - begin): CellRef::ClassHash folded
  /// with Tuple::Hash's combine step, column by column. Consistent with
  /// CompareCells-equality of the key cells, also across tables whose key
  /// columns differ in storage — save for a NaN, which CellRef::Compare
  /// ties to every number but which hashes alone. With the non-time columns
  /// as `cols` it is RowHashNonTemporal.
  void ClassHashes(const std::vector<int>& cols, size_t begin, size_t end,
                   uint64_t* out) const;
  /// The non-time column indexes, ascending (the value-equivalence key).
  std::vector<int> NonTemporalCols() const;

  int t1_index() const { return t1_; }
  int t2_index() const { return t2_; }

 private:
  void DropLineage() {
    if (lineage_ != nullptr) lineage_.reset();
  }

  Schema schema_;
  std::vector<std::shared_ptr<ColumnVec>> cols_;
  size_t rows_ = 0;
  int t1_ = -1;
  int t2_ = -1;
  std::shared_ptr<const RowLineage> lineage_;
};

/// A borrowed row range of a ColumnTable — the unit of work of the
/// vectorized operators.
struct ColumnBatch {
  const ColumnTable* table = nullptr;
  size_t begin = 0;
  size_t end = 0;

  size_t rows() const { return end - begin; }
};

}  // namespace tqp

#endif  // TQP_CORE_COLUMN_BATCH_H_
