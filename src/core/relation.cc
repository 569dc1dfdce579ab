#include "core/relation.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "core/hash.h"

namespace tqp {

namespace {

// One value's contribution to ContentDigest: its type and its exact
// representation (the bit pattern for doubles, so -0.0 and 0.0 differ).
uint64_t ValueWord(const Value& v) {
  uint64_t word = 0;
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      word = static_cast<uint64_t>(v.AsInt());
      break;
    case ValueType::kTime:
      word = static_cast<uint64_t>(v.AsTime());
      break;
    case ValueType::kDouble: {
      const double d = v.AsDouble();
      std::memcpy(&word, &d, sizeof(word));
      break;
    }
    case ValueType::kString:
      word = HashString(v.AsString());
      break;
  }
  return HashCombine(static_cast<uint64_t>(v.type()), word);
}

}  // namespace

uint64_t ContentDigest(const Relation& rel, size_t rows) {
  uint64_t h = HashMix64(rel.schema().size());
  for (const Attribute& a : rel.schema().attrs()) {
    h = HashCombine(h, HashString(a.name));
    h = HashCombine(h, static_cast<uint64_t>(a.type));
  }
  const size_t n = std::min(rows, rel.size());
  for (size_t i = 0; i < n; ++i) {
    for (const Value& v : rel.tuple(i).values()) {
      h = HashCombine(h, ValueWord(v));
    }
  }
  return h;
}

const std::vector<Tuple>& Relation::NoTuples() {
  static const std::vector<Tuple> none;
  return none;
}

std::vector<Tuple>& Relation::mutable_tuples() {
  if (tuples_ == nullptr) {
    tuples_ = std::make_shared<std::vector<Tuple>>();
  } else if (tuples_.use_count() > 1) {
    tuples_ = std::make_shared<std::vector<Tuple>>(*tuples_);
  }
  return *tuples_;
}

void Relation::Append(Tuple t) {
  TQP_CHECK(t.size() == schema_.size());
  mutable_tuples().push_back(std::move(t));
}

Relation Relation::Snapshot(TimePoint t) const {
  TQP_CHECK(IsTemporal());
  int i1 = schema_.T1Index();
  int i2 = schema_.T2Index();
  Schema snap_schema;
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (static_cast<int>(i) == i1 || static_cast<int>(i) == i2) continue;
    snap_schema.Add(schema_.attr(i));
  }
  Relation out(snap_schema);
  for (const Tuple& tup : tuples()) {
    if (!TuplePeriod(tup, schema_).Contains(t)) continue;
    Tuple nt;
    for (size_t i = 0; i < schema_.size(); ++i) {
      if (static_cast<int>(i) == i1 || static_cast<int>(i) == i2) continue;
      nt.push_back(tup.at(i));
    }
    out.Append(std::move(nt));
  }
  return out;
}

std::vector<TimePoint> Relation::TimeEndpoints() const {
  TQP_CHECK(IsTemporal());
  std::set<TimePoint> points;
  for (const Tuple& t : tuples()) {
    Period p = TuplePeriod(t, schema_);
    points.insert(p.begin);
    points.insert(p.end);
  }
  return std::vector<TimePoint>(points.begin(), points.end());
}

bool Relation::HasDuplicates() const {
  std::vector<const Tuple*> ptrs;
  ptrs.reserve(size());
  for (const Tuple& t : tuples()) ptrs.push_back(&t);
  std::sort(ptrs.begin(), ptrs.end(),
            [](const Tuple* a, const Tuple* b) { return a->Compare(*b) < 0; });
  for (size_t i = 1; i < ptrs.size(); ++i) {
    if (*ptrs[i - 1] == *ptrs[i]) return true;
  }
  return false;
}

bool Relation::HasSnapshotDuplicates() const {
  if (!IsTemporal()) return HasDuplicates();
  // Two value-equivalent tuples with overlapping periods yield a duplicate in
  // any snapshot within the overlap. Sort by value-equivalence class, then
  // sweep periods within each class.
  std::vector<const Tuple*> ptrs;
  ptrs.reserve(size());
  for (const Tuple& t : tuples()) ptrs.push_back(&t);
  std::sort(ptrs.begin(), ptrs.end(), [this](const Tuple* a, const Tuple* b) {
    int c = CompareNonTemporal(*a, *b, schema_);
    if (c != 0) return c < 0;
    return TuplePeriod(*a, schema_).begin < TuplePeriod(*b, schema_).begin;
  });
  for (size_t i = 1; i < ptrs.size(); ++i) {
    if (CompareNonTemporal(*ptrs[i - 1], *ptrs[i], schema_) != 0) continue;
    if (TuplePeriod(*ptrs[i - 1], schema_).end >
        TuplePeriod(*ptrs[i], schema_).begin) {
      return true;
    }
  }
  return false;
}

bool Relation::IsCoalesced() const {
  TQP_CHECK(IsTemporal());
  std::vector<const Tuple*> ptrs;
  ptrs.reserve(size());
  for (const Tuple& t : tuples()) ptrs.push_back(&t);
  std::sort(ptrs.begin(), ptrs.end(), [this](const Tuple* a, const Tuple* b) {
    int c = CompareNonTemporal(*a, *b, schema_);
    if (c != 0) return c < 0;
    return TuplePeriod(*a, schema_).begin < TuplePeriod(*b, schema_).begin;
  });
  for (size_t i = 1; i < ptrs.size(); ++i) {
    if (CompareNonTemporal(*ptrs[i - 1], *ptrs[i], schema_) != 0) continue;
    if (TuplePeriod(*ptrs[i - 1], schema_).end ==
        TuplePeriod(*ptrs[i], schema_).begin) {
      return false;
    }
  }
  return true;
}

bool Relation::IsSortedBy(const SortSpec& spec) const {
  TupleComparator cmp(spec, schema_);
  for (size_t i = 1; i < size(); ++i) {
    if (cmp.Compare(tuple(i - 1), tuple(i)) > 0) return false;
  }
  return true;
}

std::string Relation::ToTable(const std::string& title) const {
  std::vector<size_t> widths(schema_.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < schema_.size(); ++i) {
    widths[i] = schema_.attr(i).name.size();
  }
  for (const Tuple& t : tuples()) {
    std::vector<std::string> row;
    for (size_t i = 0; i < schema_.size(); ++i) {
      row.push_back(t.at(i).ToString());
      widths[i] = std::max(widths[i], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  std::string out;
  if (!title.empty()) out += title + "\n";
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string sep = "+";
  for (size_t w : widths) sep += std::string(w + 2, '-') + "+";
  out += sep + "\n|";
  for (size_t i = 0; i < schema_.size(); ++i) {
    out += " " + pad(schema_.attr(i).name, widths[i]) + " |";
  }
  out += "\n" + sep + "\n";
  for (const auto& row : cells) {
    out += "|";
    for (size_t i = 0; i < row.size(); ++i) {
      out += " " + pad(row[i], widths[i]) + " |";
    }
    out += "\n";
  }
  out += sep + "\n";
  return out;
}

TupleComparator::TupleComparator(const SortSpec& spec, const Schema& schema) {
  for (const SortKey& k : spec) {
    int idx = schema.IndexOf(k.attr);
    TQP_CHECK(idx >= 0);
    keys_.push_back(Key{static_cast<size_t>(idx), k.ascending});
  }
}

int TupleComparator::Compare(const Tuple& a, const Tuple& b) const {
  for (const Key& k : keys_) {
    int c = a.at(k.index).Compare(b.at(k.index));
    if (c != 0) return k.ascending ? c : -c;
  }
  return 0;
}

}  // namespace tqp
