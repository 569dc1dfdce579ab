#include "core/column_batch.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "core/hash.h"

namespace tqp {

namespace {

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

// Tuple::Hash's (and Value::Hash's) combine step: folds one more hash into
// a running seed.
inline uint64_t FoldStep(uint64_t seed, uint64_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// Tuple::Hash's initial seed.
constexpr uint64_t kRowSeed = 0x51ab1e5;

// Value::Hash of a non-null cell of type `t` whose payload hashes to `h`:
// the type-rank seed with the payload hash folded in.
inline uint64_t TypedHash(ValueType t, uint64_t h) {
  return FoldStep(static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ULL, h);
}

// ClassHash of a numeric cell: every Compare-equal number hashes alike, so
// the hash reads the value as a double, -0.0 as 0.0 and every NaN as one.
inline uint64_t NumericClassHash(double v) {
  if (v != v) return 0x6e756d6572696331ULL;  // "numeric1"
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return HashMix64(bits);
}

inline uint64_t StringClassHash(const std::string& s) {
  return std::hash<std::string>()(s);
}

// seeds[k] = FoldStep(seeds[k], hash of row begin + k), where a null row
// contributes 0 (Value::Hash and ClassHash of a null) and `cell` hashes a
// non-null row.
template <typename CellHash>
void FoldRows(const std::vector<uint8_t>& nulls, size_t begin, size_t end,
              uint64_t* seeds, const CellHash& cell) {
  if (nulls.empty()) {
    for (size_t r = begin; r < end; ++r, ++seeds) {
      *seeds = FoldStep(*seeds, cell(r));
    }
    return;
  }
  for (size_t r = begin; r < end; ++r, ++seeds) {
    *seeds = FoldStep(*seeds, nulls[r] != 0 ? 0 : cell(r));
  }
}

ColumnStorage StorageFor(ValueType t) {
  switch (t) {
    case ValueType::kInt:
    case ValueType::kTime:
      return ColumnStorage::kInt64;
    case ValueType::kDouble:
      return ColumnStorage::kDouble;
    case ValueType::kString:
      return ColumnStorage::kString;
    case ValueType::kNull:
      return ColumnStorage::kUndecided;
  }
  return ColumnStorage::kUndecided;
}

}  // namespace

double CellRef::Numeric() const {
  switch (type) {
    case ValueType::kInt:
    case ValueType::kTime:
      return static_cast<double>(i);
    case ValueType::kDouble:
      return d;
    default:
      TQP_CHECK(false && "non-numeric value");
      return 0.0;
  }
}

int CellRef::Compare(const CellRef& a, const CellRef& b) {
  if (a.type != b.type) {
    if (a.IsNumeric() && b.IsNumeric()) return Cmp(a.Numeric(), b.Numeric());
    return Cmp(static_cast<int>(a.type), static_cast<int>(b.type));
  }
  switch (a.type) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kTime:
      return Cmp(a.i, b.i);
    case ValueType::kDouble:
      return Cmp(a.d, b.d);
    case ValueType::kString:
      return Cmp(*a.s, *b.s);
  }
  return 0;
}

uint64_t CellRef::Hash() const {
  // Bit-for-bit Value::Hash: the type-rank seed plus one payload mix (a
  // null is the bare seed, 0).
  switch (type) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kTime:
      return TypedHash(type, std::hash<int64_t>()(i));
    case ValueType::kDouble:
      return TypedHash(type, std::hash<double>()(d));
    case ValueType::kString:
      return TypedHash(type, std::hash<std::string>()(*s));
  }
  return 0;
}

uint64_t CellRef::ClassHash() const {
  if (type == ValueType::kNull) return 0;
  if (IsNumeric()) return NumericClassHash(Numeric());
  return StringClassHash(*s);  // strings never Compare-equal a non-string
}

Value CellRef::ToValue() const {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt:
      return Value::Int(i);
    case ValueType::kTime:
      return Value::Time(i);
    case ValueType::kDouble:
      return Value::Double(d);
    case ValueType::kString:
      return Value::String(*s);
  }
  return Value::Null();
}

CellRef CellRef::Of(const Value& v) {
  CellRef c;
  c.type = v.type();
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      c.i = v.AsInt();
      break;
    case ValueType::kTime:
      c.i = v.AsTime();
      break;
    case ValueType::kDouble:
      c.d = v.AsDouble();
      break;
    case ValueType::kString:
      c.s = &v.AsString();
      break;
  }
  return c;
}

ColumnVec::ColumnVec(ValueType declared) { DecideStorage(declared); }

void ColumnVec::DecideStorage(ValueType t) {
  if (storage_ != ColumnStorage::kUndecided || t == ValueType::kNull) return;
  storage_ = StorageFor(t);
  declared_ = t;
  // Backfill the typed vector with placeholders for any all-null prefix.
  switch (storage_) {
    case ColumnStorage::kInt64:
      ints_.resize(size_, 0);
      break;
    case ColumnStorage::kDouble:
      doubles_.resize(size_, 0.0);
      break;
    case ColumnStorage::kString:
      strings_.resize(size_);
      break;
    default:
      break;
  }
}

void ColumnVec::PromoteToBoxed() {
  if (storage_ == ColumnStorage::kBoxed) return;
  boxed_.clear();
  boxed_.reserve(size_);
  for (size_t r = 0; r < size_; ++r) boxed_.push_back(ValueAt(r));
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  storage_ = ColumnStorage::kBoxed;
}

void ColumnVec::Reserve(size_t n) {
  switch (storage_) {
    case ColumnStorage::kInt64:
      ints_.reserve(n);
      break;
    case ColumnStorage::kDouble:
      doubles_.reserve(n);
      break;
    case ColumnStorage::kString:
      strings_.reserve(n);
      break;
    case ColumnStorage::kBoxed:
      boxed_.reserve(n);
      break;
    case ColumnStorage::kUndecided:
      break;
  }
}

void ColumnVec::EnsureNulls() {
  if (nulls_.empty()) nulls_.assign(size_, 0);
}

void ColumnVec::AppendNull() {
  EnsureNulls();
  nulls_.push_back(1);
  switch (storage_) {
    case ColumnStorage::kInt64:
      ints_.push_back(0);
      break;
    case ColumnStorage::kDouble:
      doubles_.push_back(0.0);
      break;
    case ColumnStorage::kString:
      strings_.emplace_back();
      break;
    case ColumnStorage::kBoxed:
      boxed_.push_back(Value::Null());
      break;
    case ColumnStorage::kUndecided:
      break;  // payload vectors stay empty until a type is decided
  }
  ++size_;
}

void ColumnVec::AppendCell(const CellRef& c) {
  if (c.is_null()) {
    AppendNull();
    return;
  }
  DecideStorage(c.type);
  bool fits = false;
  switch (storage_) {
    case ColumnStorage::kInt64:
      fits = c.type == declared_ &&
             (c.type == ValueType::kInt || c.type == ValueType::kTime);
      break;
    case ColumnStorage::kDouble:
      fits = c.type == ValueType::kDouble;
      break;
    case ColumnStorage::kString:
      fits = c.type == ValueType::kString;
      break;
    case ColumnStorage::kBoxed:
    case ColumnStorage::kUndecided:
      fits = false;
      break;
  }
  if (!fits && storage_ != ColumnStorage::kBoxed) PromoteToBoxed();
  switch (storage_) {
    case ColumnStorage::kInt64:
      ints_.push_back(c.i);
      break;
    case ColumnStorage::kDouble:
      doubles_.push_back(c.d);
      break;
    case ColumnStorage::kString:
      strings_.push_back(*c.s);
      break;
    case ColumnStorage::kBoxed:
      boxed_.push_back(c.ToValue());
      break;
    case ColumnStorage::kUndecided:
      TQP_CHECK(false && "unreachable: non-null cell decides storage");
      break;
  }
  if (!nulls_.empty()) nulls_.push_back(0);
  ++size_;
}

void ColumnVec::AppendValue(const Value& v) { AppendCell(CellRef::Of(v)); }

int64_t* ColumnVec::AppendInt64s(size_t n) {
  TQP_DCHECK(storage_ == ColumnStorage::kInt64);
  const size_t at = ints_.size();
  ints_.resize(at + n);
  if (!nulls_.empty()) nulls_.resize(nulls_.size() + n, 0);
  size_ += n;
  return ints_.data() + at;
}

CellRef ColumnVec::At(size_t row) const {
  CellRef c;
  if (IsNull(row)) return c;
  switch (storage_) {
    case ColumnStorage::kInt64:
      c.type = declared_;
      c.i = ints_[row];
      break;
    case ColumnStorage::kDouble:
      c.type = ValueType::kDouble;
      c.d = doubles_[row];
      break;
    case ColumnStorage::kString:
      c.type = ValueType::kString;
      c.s = &strings_[row];
      break;
    case ColumnStorage::kBoxed:
      return CellRef::Of(boxed_[row]);
    case ColumnStorage::kUndecided:
      break;  // only nulls were ever appended
  }
  return c;
}

void ColumnVec::AppendFrom(const ColumnVec& src, size_t row) {
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  // Fast path: same typed storage, no conversion.
  if (storage_ == src.storage_ && declared_ == src.declared_) {
    switch (storage_) {
      case ColumnStorage::kInt64:
        ints_.push_back(src.ints_[row]);
        break;
      case ColumnStorage::kDouble:
        doubles_.push_back(src.doubles_[row]);
        break;
      case ColumnStorage::kString:
        strings_.push_back(src.strings_[row]);
        break;
      case ColumnStorage::kBoxed:
        boxed_.push_back(src.boxed_[row]);
        break;
      case ColumnStorage::kUndecided:
        AppendNull();
        return;
    }
    if (!nulls_.empty()) nulls_.push_back(0);
    ++size_;
    return;
  }
  AppendCell(src.At(row));
}

void ColumnVec::AppendRangeFrom(const ColumnVec& src, size_t begin,
                                size_t end) {
  TQP_DCHECK(&src != this);
  if (begin >= end) return;
  const bool typed = src.storage_ == ColumnStorage::kInt64 ||
                     src.storage_ == ColumnStorage::kDouble ||
                     src.storage_ == ColumnStorage::kString;
  const uint8_t* src_nulls = src.nulls_.empty() ? nullptr : &src.nulls_[0];
  // An undecided destination takes the source's type where AppendFrom
  // would: at the range's first non-null cell (DecideStorage backfills the
  // null prefix with the same placeholders AppendNull writes).
  if (storage_ == ColumnStorage::kUndecided && typed) {
    size_t first = begin;
    while (first < end && src_nulls != nullptr && src_nulls[first] != 0) {
      ++first;
    }
    if (first < end) DecideStorage(src.declared_);
  }
  if (storage_ != src.storage_ || declared_ != src.declared_ ||
      storage_ == ColumnStorage::kUndecided) {
    for (size_t r = begin; r < end; ++r) AppendFrom(src, r);
    return;
  }
  // Same storage and declared type: payloads (null cells hold the
  // placeholder AppendNull writes) and null flags copy as ranges.
  switch (storage_) {
    case ColumnStorage::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + end);
      break;
    case ColumnStorage::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + end);
      break;
    case ColumnStorage::kString:
      strings_.insert(strings_.end(), src.strings_.begin() + begin,
                      src.strings_.begin() + end);
      break;
    case ColumnStorage::kBoxed:
      boxed_.insert(boxed_.end(), src.boxed_.begin() + begin,
                    src.boxed_.begin() + end);
      break;
    case ColumnStorage::kUndecided:
      break;
  }
  const bool range_has_null =
      src_nulls != nullptr && std::any_of(src_nulls + begin, src_nulls + end,
                                          [](uint8_t f) { return f != 0; });
  if (range_has_null) {
    EnsureNulls();
    nulls_.insert(nulls_.end(), src_nulls + begin, src_nulls + end);
  } else if (!nulls_.empty()) {
    nulls_.resize(nulls_.size() + (end - begin), 0);
  }
  size_ += end - begin;
}

void ColumnVec::AppendGather(const ColumnVec& src, const uint32_t* rows,
                             size_t n) {
  // Gather with a bulk fast path when both columns share typed storage and
  // the source has no nulls in the gathered set.
  if (storage_ == src.storage_ && declared_ == src.declared_ &&
      src.nulls_.empty() && nulls_.empty()) {
    switch (storage_) {
      case ColumnStorage::kInt64:
        ints_.reserve(ints_.size() + n);
        for (size_t k = 0; k < n; ++k) ints_.push_back(src.ints_[rows[k]]);
        size_ += n;
        return;
      case ColumnStorage::kDouble:
        doubles_.reserve(doubles_.size() + n);
        for (size_t k = 0; k < n; ++k)
          doubles_.push_back(src.doubles_[rows[k]]);
        size_ += n;
        return;
      case ColumnStorage::kString:
        strings_.reserve(strings_.size() + n);
        for (size_t k = 0; k < n; ++k)
          strings_.push_back(src.strings_[rows[k]]);
        size_ += n;
        return;
      default:
        break;
    }
  }
  for (size_t k = 0; k < n; ++k) AppendFrom(src, rows[k]);
}

void ColumnVec::FoldHashes(size_t begin, size_t end, bool class_hash,
                           uint64_t* seeds) const {
  switch (storage_) {
    case ColumnStorage::kInt64: {
      const int64_t* v = ints_.data();
      if (class_hash) {
        FoldRows(nulls_, begin, end, seeds, [v](size_t r) {
          return NumericClassHash(static_cast<double>(v[r]));
        });
      } else {
        const ValueType t = declared_;
        FoldRows(nulls_, begin, end, seeds, [v, t](size_t r) {
          return TypedHash(t, std::hash<int64_t>()(v[r]));
        });
      }
      return;
    }
    case ColumnStorage::kDouble: {
      const double* v = doubles_.data();
      if (class_hash) {
        FoldRows(nulls_, begin, end, seeds,
                 [v](size_t r) { return NumericClassHash(v[r]); });
      } else {
        FoldRows(nulls_, begin, end, seeds, [v](size_t r) {
          return TypedHash(ValueType::kDouble, std::hash<double>()(v[r]));
        });
      }
      return;
    }
    case ColumnStorage::kString: {
      const std::string* v = strings_.data();
      if (class_hash) {
        FoldRows(nulls_, begin, end, seeds,
                 [v](size_t r) { return StringClassHash(v[r]); });
      } else {
        FoldRows(nulls_, begin, end, seeds, [v](size_t r) {
          return TypedHash(ValueType::kString,
                           std::hash<std::string>()(v[r]));
        });
      }
      return;
    }
    case ColumnStorage::kBoxed:
    case ColumnStorage::kUndecided:
      for (size_t r = begin; r < end; ++r, ++seeds) {
        const CellRef c = At(r);
        *seeds = FoldStep(*seeds, class_hash ? c.ClassHash() : c.Hash());
      }
      return;
  }
}

int ColumnVec::CompareCells(const ColumnVec& a, size_t ra, const ColumnVec& b,
                            size_t rb) {
  if (!a.IsNull(ra) && !b.IsNull(rb)) {
    const ColumnStorage sa = a.storage_, sb = b.storage_;
    if (sa == ColumnStorage::kInt64 && sb == ColumnStorage::kInt64 &&
        a.declared_ == b.declared_) {
      return Cmp(a.ints_[ra], b.ints_[rb]);
    }
    auto numeric = [](ColumnStorage s) {
      return s == ColumnStorage::kInt64 || s == ColumnStorage::kDouble;
    };
    if (numeric(sa) && numeric(sb)) {
      const double x = sa == ColumnStorage::kInt64
                           ? static_cast<double>(a.ints_[ra])
                           : a.doubles_[ra];
      const double y = sb == ColumnStorage::kInt64
                           ? static_cast<double>(b.ints_[rb])
                           : b.doubles_[rb];
      return Cmp(x, y);
    }
    if (sa == ColumnStorage::kString && sb == ColumnStorage::kString) {
      const int c = a.strings_[ra].compare(b.strings_[rb]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return CellRef::Compare(a.At(ra), b.At(rb));
}

ColumnTable::ColumnTable(Schema schema) : schema_(std::move(schema)) {
  cols_.reserve(schema_.size());
  for (size_t i = 0; i < schema_.size(); ++i) {
    cols_.push_back(std::make_shared<ColumnVec>(schema_.attr(i).type));
  }
  t1_ = schema_.T1Index();
  t2_ = schema_.T2Index();
}

ColumnVec& ColumnTable::mutable_col(size_t i) {
  DropLineage();
  std::shared_ptr<ColumnVec>& c = cols_[i];
  if (c.use_count() > 1) c = std::make_shared<ColumnVec>(*c);
  return *c;
}

void ColumnTable::CommitRows(size_t n) {
  rows_ += n;
  for (const auto& c : cols_) {
    TQP_DCHECK(c->size() == rows_);
    (void)c;
  }
}

ColumnTable ColumnTable::FromRelation(const Relation& r) {
  ColumnTable out(r.schema());
  for (const auto& c : out.cols_) c->Reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    for (size_t i = 0; i < out.cols_.size(); ++i) {
      out.cols_[i]->AppendValue(t.at(i));
    }
  }
  out.rows_ = r.size();
  return out;
}

Relation ColumnTable::ToRelation() const {
  std::vector<Tuple> tuples;
  tuples.reserve(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    std::vector<Value> vals;
    vals.reserve(cols_.size());
    for (const auto& c : cols_) vals.push_back(c->ValueAt(r));
    tuples.emplace_back(std::move(vals));
  }
  return Relation(schema_, std::move(tuples));
}

uint64_t ColumnTable::RowHash(size_t row) const {
  // Bit-for-bit Tuple::Hash over the row's cells.
  uint64_t seed = kRowSeed;
  for (const auto& c : cols_) seed = FoldStep(seed, c->At(row).Hash());
  return seed;
}

void ColumnTable::RowHashes(size_t begin, size_t end, uint64_t* out) const {
  std::fill(out, out + (end - begin), kRowSeed);
  for (const auto& c : cols_) c->FoldHashes(begin, end, false, out);
}

int ColumnTable::RowCompare(const ColumnTable& a, size_t ra,
                            const ColumnTable& b, size_t rb) {
  size_t n = std::min(a.cols_.size(), b.cols_.size());
  for (size_t i = 0; i < n; ++i) {
    int c = ColumnVec::CompareCells(*a.cols_[i], ra, *b.cols_[i], rb);
    if (c != 0) return c;
  }
  if (a.cols_.size() < b.cols_.size()) return -1;
  if (a.cols_.size() > b.cols_.size()) return 1;
  return 0;
}

uint64_t ColumnTable::RowHashNonTemporal(size_t row) const {
  // Class keys compare with RowCompareNonTemporal (cross-type numeric
  // equality), so cells must contribute their Compare-consistent ClassHash
  // — not Value::Hash, which is type-seeded.
  uint64_t seed = kRowSeed;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (static_cast<int>(i) == t1_ || static_cast<int>(i) == t2_) continue;
    seed = FoldStep(seed, cols_[i]->At(row).ClassHash());
  }
  return seed;
}

int ColumnTable::RowCompareNonTemporal(const ColumnTable& a, size_t ra,
                                       const ColumnTable& b, size_t rb) {
  TQP_DCHECK(a.cols_.size() == b.cols_.size());
  for (size_t i = 0; i < a.cols_.size(); ++i) {
    if (static_cast<int>(i) == a.t1_ || static_cast<int>(i) == a.t2_) continue;
    int c = ColumnVec::CompareCells(*a.cols_[i], ra, *b.cols_[i], rb);
    if (c != 0) return c;
  }
  return 0;
}

void ColumnTable::ClassHashes(const std::vector<int>& cols, size_t begin,
                              size_t end, uint64_t* out) const {
  std::fill(out, out + (end - begin), kRowSeed);
  for (int c : cols) {
    cols_[static_cast<size_t>(c)]->FoldHashes(begin, end, true, out);
  }
}

std::vector<int> ColumnTable::NonTemporalCols() const {
  std::vector<int> out;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (static_cast<int>(i) != t1_ && static_cast<int>(i) != t2_) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

}  // namespace tqp
