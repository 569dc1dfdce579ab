#include "core/column_batch.h"

#include <functional>

namespace tqp {

namespace {

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
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
  // Bit-for-bit Value::Hash: the type-rank seed plus one payload mix.
  uint64_t seed = static_cast<uint64_t>(type) * 0x9e3779b97f4a7c15ULL;
  auto mix = [&seed](uint64_t h) {
    seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  };
  switch (type) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
    case ValueType::kTime:
      mix(std::hash<int64_t>()(i));
      break;
    case ValueType::kDouble:
      mix(std::hash<double>()(d));
      break;
    case ValueType::kString:
      mix(std::hash<std::string>()(*s));
      break;
  }
  return seed;
}

uint64_t CellRef::ClassHash() const {
  if (type == ValueType::kNull) return 0;
  if (IsNumeric()) {
    // One shared seed for all numeric types; payload hashed as double so
    // every Compare-equal numeric cell hashes equally.
    double v = Numeric();
    uint64_t seed = 0x6e756d6572696331ULL;  // "numeric1"
    if (v != v) return seed ^ 0x6e616eULL;  // all NaNs Compare equal
    if (v == 0.0) v = 0.0;                  // collapse -0.0 into +0.0
    seed ^= std::hash<double>()(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
            (seed >> 2);
    return seed;
  }
  return Hash();  // strings never Compare-equal a non-string
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
  for (size_t r = begin; r < end; ++r) AppendFrom(src, r);
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

ColumnTable::ColumnTable(Schema schema) : schema_(std::move(schema)) {
  cols_.reserve(schema_.size());
  for (size_t i = 0; i < schema_.size(); ++i) {
    cols_.push_back(std::make_shared<ColumnVec>(schema_.attr(i).type));
  }
  t1_ = schema_.T1Index();
  t2_ = schema_.T2Index();
}

ColumnVec& ColumnTable::mutable_col(size_t i) {
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
  uint64_t seed = 0x51ab1e5;
  for (const auto& c : cols_) {
    seed ^= c->At(row).Hash() + 0x9e3779b97f4a7c15ULL + (seed << 6) +
            (seed >> 2);
  }
  return seed;
}

int ColumnTable::RowCompare(const ColumnTable& a, size_t ra,
                            const ColumnTable& b, size_t rb) {
  size_t n = std::min(a.cols_.size(), b.cols_.size());
  for (size_t i = 0; i < n; ++i) {
    int c = CellRef::Compare(a.cols_[i]->At(ra), b.cols_[i]->At(rb));
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
  uint64_t seed = 0x51ab1e5;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (static_cast<int>(i) == t1_ || static_cast<int>(i) == t2_) continue;
    seed ^= cols_[i]->At(row).ClassHash() + 0x9e3779b97f4a7c15ULL +
            (seed << 6) + (seed >> 2);
  }
  return seed;
}

int ColumnTable::RowCompareNonTemporal(const ColumnTable& a, size_t ra,
                                       const ColumnTable& b, size_t rb) {
  TQP_DCHECK(a.cols_.size() == b.cols_.size());
  for (size_t i = 0; i < a.cols_.size(); ++i) {
    if (static_cast<int>(i) == a.t1_ || static_cast<int>(i) == a.t2_) continue;
    int c = CellRef::Compare(a.cols_[i]->At(ra), b.cols_[i]->At(rb));
    if (c != 0) return c;
  }
  return 0;
}

Period ColumnTable::RowPeriod(size_t row) const {
  TQP_CHECK(t1_ >= 0 && t2_ >= 0);
  return Period(col(static_cast<size_t>(t1_)).At(row).i,
                col(static_cast<size_t>(t2_)).At(row).i);
}

}  // namespace tqp
