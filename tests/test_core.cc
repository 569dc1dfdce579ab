// Unit tests for core primitives: values, periods, schemas, tuples,
// relations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "core/column_batch.h"
#include "core/period.h"
#include "core/relation.h"
#include "test_util.h"

namespace tqp {
namespace {

using testing_util::ConventionalRel;
using testing_util::TemporalRel;

TEST(ValueTest, TotalOrderWithinTypes) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::String("Anna"), Value::String("John"));
  EXPECT_LT(Value::Time(5), Value::Time(6));
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Int(4));
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(1), Value::Double(1.5));
  EXPECT_EQ(Value::Time(7).Compare(Value::Int(7)), 0);
}

TEST(ValueTest, NullOrdersFirst) {
  EXPECT_LT(Value::Null(), Value::Int(0));
  EXPECT_LT(Value::Null(), Value::String(""));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  EXPECT_NE(Value::Int(42).Hash(), Value::Int(43).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Time(kMaxTime).ToString(), "+inf");
  EXPECT_EQ(Value::Time(kMinTime).ToString(), "-inf");
}

TEST(PeriodTest, ValidityAndContainment) {
  EXPECT_TRUE(Period(1, 8).Valid());
  EXPECT_FALSE(Period(3, 3).Valid());
  EXPECT_FALSE(Period(5, 2).Valid());
  EXPECT_TRUE(Period(1, 8).Contains(1));
  EXPECT_TRUE(Period(1, 8).Contains(7));
  EXPECT_FALSE(Period(1, 8).Contains(8));  // closed-open
}

TEST(PeriodTest, OverlapIsHalfOpen) {
  EXPECT_TRUE(Period(1, 8).Overlaps(Period(6, 11)));
  EXPECT_FALSE(Period(1, 8).Overlaps(Period(8, 11)));  // meets, not overlaps
  EXPECT_FALSE(Period(1, 3).Overlaps(Period(5, 7)));
}

TEST(PeriodTest, AdjacencyIsMeets) {
  EXPECT_TRUE(Period(2, 6).Adjacent(Period(6, 12)));
  EXPECT_TRUE(Period(6, 12).Adjacent(Period(2, 6)));
  EXPECT_FALSE(Period(2, 6).Adjacent(Period(7, 9)));
  EXPECT_FALSE(Period(2, 6).Adjacent(Period(2, 6)));  // equal = overlapping
}

TEST(PeriodTest, SubtractProducesUpToTwoFragments) {
  // Middle cut: two fragments.
  std::vector<Period> two = Period(1, 10).Subtract(Period(4, 6));
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], Period(1, 4));
  EXPECT_EQ(two[1], Period(6, 10));
  // Left trim.
  std::vector<Period> left = Period(1, 10).Subtract(Period(0, 4));
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0], Period(4, 10));
  // Swallowed entirely.
  EXPECT_TRUE(Period(3, 5).Subtract(Period(1, 8)).empty());
  // Disjoint: unchanged.
  std::vector<Period> same = Period(1, 3).Subtract(Period(5, 9));
  ASSERT_EQ(same.size(), 1u);
  EXPECT_EQ(same[0], Period(1, 3));
}

TEST(PeriodTest, SubtractAllAndNormalize) {
  std::vector<Period> frags =
      SubtractAll(Period(0, 20), {Period(2, 4), Period(10, 12), Period(3, 6)});
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_EQ(frags[0], Period(0, 2));
  EXPECT_EQ(frags[1], Period(6, 10));
  EXPECT_EQ(frags[2], Period(12, 20));

  std::vector<Period> norm =
      NormalizePeriods({Period(5, 7), Period(1, 3), Period(3, 5), Period(6, 9)});
  ASSERT_EQ(norm.size(), 1u);
  EXPECT_EQ(norm[0], Period(1, 9));
}

TEST(SchemaTest, TemporalDetection) {
  Relation r = TemporalRel({{"a", 1, 0, 5}});
  EXPECT_TRUE(r.schema().IsTemporal());
  Relation c = ConventionalRel({{"a", 1}});
  EXPECT_FALSE(c.schema().IsTemporal());
  std::vector<std::string> nt = r.schema().NonTemporalAttrNames();
  ASSERT_EQ(nt.size(), 2u);
  EXPECT_EQ(nt[0], "Name");
  EXPECT_EQ(nt[1], "Val");
}

TEST(SchemaTest, PrefixPredicates) {
  SortSpec a = {{"A", true}};
  SortSpec ab = {{"A", true}, {"B", false}};
  EXPECT_TRUE(IsPrefixOf(a, ab));
  EXPECT_FALSE(IsPrefixOf(ab, a));
  EXPECT_TRUE(IsPrefixOf({}, a));
  // Direction matters.
  SortSpec a_desc = {{"A", false}};
  EXPECT_FALSE(IsPrefixOf(a_desc, ab));
}

TEST(SchemaTest, OrderPrefixOnAttrs) {
  SortSpec order = {{"A", true}, {"B", true}, {"C", true}};
  // Projecting on A and C keeps only the prefix ending before B (Table 1).
  SortSpec kept = OrderPrefixOnAttrs(order, {"A", "C"});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].attr, "A");
}

TEST(TupleTest, ValueEquivalence) {
  Relation r = TemporalRel({{"a", 1, 0, 5}, {"a", 1, 5, 9}, {"b", 1, 0, 5}});
  EXPECT_TRUE(
      ValueEquivalent(r.tuple(0), r.tuple(1), r.schema()));  // times differ
  EXPECT_FALSE(ValueEquivalent(r.tuple(0), r.tuple(2), r.schema()));
}

TEST(RelationTest, SnapshotExtractsAndDropsTimes) {
  Relation r = TemporalRel({{"a", 1, 1, 8}, {"b", 2, 6, 11}, {"a", 1, 2, 6}});
  Relation snap = r.Snapshot(6);
  EXPECT_FALSE(snap.schema().IsTemporal());
  ASSERT_EQ(snap.size(), 2u);  // [1,8) and [6,11) contain 6; [2,6) does not
  EXPECT_EQ(snap.tuple(0).at(0).AsString(), "a");
  EXPECT_EQ(snap.tuple(1).at(0).AsString(), "b");
}

TEST(RelationTest, DuplicateDetection) {
  EXPECT_TRUE(TemporalRel({{"a", 1, 0, 5}, {"a", 1, 0, 5}}).HasDuplicates());
  EXPECT_FALSE(TemporalRel({{"a", 1, 0, 5}, {"a", 1, 5, 9}}).HasDuplicates());
}

TEST(RelationTest, SnapshotDuplicateDetection) {
  // Overlapping value-equivalent periods => snapshot duplicates.
  EXPECT_TRUE(
      TemporalRel({{"a", 1, 0, 5}, {"a", 1, 3, 9}}).HasSnapshotDuplicates());
  // Adjacent periods do not overlap.
  EXPECT_FALSE(
      TemporalRel({{"a", 1, 0, 5}, {"a", 1, 5, 9}}).HasSnapshotDuplicates());
  // Different values never produce snapshot duplicates.
  EXPECT_FALSE(
      TemporalRel({{"a", 1, 0, 5}, {"b", 1, 0, 5}}).HasSnapshotDuplicates());
}

TEST(RelationTest, CoalescedDetection) {
  EXPECT_FALSE(TemporalRel({{"a", 1, 0, 5}, {"a", 1, 5, 9}}).IsCoalesced());
  EXPECT_TRUE(TemporalRel({{"a", 1, 0, 5}, {"a", 1, 6, 9}}).IsCoalesced());
  EXPECT_TRUE(TemporalRel({{"a", 1, 0, 5}, {"b", 1, 5, 9}}).IsCoalesced());
}

TEST(RelationTest, IsSortedBy) {
  Relation r = TemporalRel({{"a", 2, 0, 5}, {"a", 1, 5, 9}, {"b", 0, 0, 2}});
  EXPECT_TRUE(r.IsSortedBy({{"Name", true}}));
  EXPECT_FALSE(r.IsSortedBy({{"Name", true}, {"Val", true}}));
  EXPECT_TRUE(r.IsSortedBy({{"Name", true}, {"Val", false}}));
}

TEST(RelationTest, TimeEndpoints) {
  Relation r = TemporalRel({{"a", 1, 1, 8}, {"b", 2, 6, 11}});
  std::vector<TimePoint> pts = r.TimeEndpoints();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0], 1);
  EXPECT_EQ(pts[3], 11);
}

TEST(CatalogTest, VerifiesDeclaredMetadata) {
  Catalog catalog;
  CatalogEntry entry;
  entry.data = TemporalRel({{"a", 1, 0, 5}, {"a", 1, 0, 5}});
  entry.duplicate_free = true;  // lie: the data has duplicates
  EXPECT_FALSE(catalog.Register("R", entry).ok());

  CatalogEntry ok_entry;
  ok_entry.data = TemporalRel({{"a", 1, 0, 5}, {"a", 1, 6, 9}});
  ok_entry.duplicate_free = true;
  ok_entry.snapshot_duplicate_free = true;
  ok_entry.coalesced = true;
  EXPECT_TRUE(catalog.Register("R", ok_entry).ok());
  EXPECT_TRUE(catalog.Contains("R"));
  EXPECT_FALSE(catalog.Register("R", ok_entry).ok());  // duplicate name
}

TEST(CatalogTest, InferredFlags) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterWithInferredFlags(
                      "R", TemporalRel({{"a", 1, 0, 5}, {"a", 1, 3, 9}}))
                  .ok());
  const CatalogEntry* e = catalog.Find("R");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->duplicate_free);
  EXPECT_FALSE(e->snapshot_duplicate_free);
}

TEST(CatalogTest, PerRelationVersionTracking) {
  Catalog catalog;
  EXPECT_EQ(catalog.version(), 0u);
  EXPECT_EQ(catalog.relation_version("R"), 0u);  // never registered

  ASSERT_TRUE(
      catalog.RegisterWithInferredFlags("R", TemporalRel({{"a", 1, 0, 5}}))
          .ok());
  const uint64_t r1 = catalog.relation_version("R");
  ASSERT_TRUE(
      catalog.RegisterWithInferredFlags("S", TemporalRel({{"b", 2, 1, 4}}))
          .ok());
  const uint64_t s1 = catalog.relation_version("S");
  EXPECT_GT(r1, 0u);
  EXPECT_GT(s1, r1);
  EXPECT_EQ(catalog.version(), s1);  // the latest stamp

  // Updating S restamps S (and moves the version), never R.
  CatalogEntry entry;
  entry.data = TemporalRel({{"c", 3, 2, 6}});
  ASSERT_TRUE(catalog.Update("S", entry).ok());
  const uint64_t s2 = catalog.relation_version("S");
  EXPECT_EQ(catalog.relation_version("R"), r1);
  EXPECT_GT(s2, s1);
  EXPECT_EQ(catalog.version(), s2);

  // A failed mutation changes nothing.
  CatalogEntry bad;
  bad.data = TemporalRel({{"d", 4, 0, 5}, {"d", 4, 0, 5}});
  bad.duplicate_free = true;
  EXPECT_FALSE(catalog.Update("S", bad).ok());
  EXPECT_EQ(catalog.relation_version("S"), s2);
  EXPECT_EQ(catalog.version(), s2);
  EXPECT_FALSE(catalog.Drop("missing"));
  EXPECT_EQ(catalog.relation_version("missing"), 0u);
  EXPECT_EQ(catalog.version(), s2);

  // Drop is a mutation of the dropped name; the tombstone persists, so a
  // re-register under the same name gets a strictly larger stamp.
  EXPECT_TRUE(catalog.Drop("S"));
  const uint64_t s3 = catalog.relation_version("S");
  EXPECT_GT(s3, s2);
  ASSERT_TRUE(
      catalog.RegisterWithInferredFlags("S", TemporalRel({{"e", 5, 1, 2}}))
          .ok());
  const uint64_t s4 = catalog.relation_version("S");
  EXPECT_GT(s4, s3);
  EXPECT_EQ(catalog.relation_version("R"), r1);
  EXPECT_EQ(catalog.version(), s4);
}

TEST(CatalogTest, StampsNeverRepeatAcrossCatalogs) {
  // Four threads each build two catalogs by the same registrations at
  // once: no two of the eight catalogs share a stamp.
  auto build = [] {
    Catalog c;
    TQP_CHECK(c.RegisterWithInferredFlags("R", ConventionalRel({{"x", 1}}))
                  .ok());
    TQP_CHECK(c.RegisterWithInferredFlags("S", ConventionalRel({{"y", 2}}))
                  .ok());
    CatalogEntry entry;
    entry.data = ConventionalRel({{"z", 3}});
    TQP_CHECK(c.Update("R", entry).ok());
    return c;
  };
  std::vector<Catalog> catalogs(8);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      catalogs[2 * t] = build();
      catalogs[2 * t + 1] = build();
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<uint64_t> stamps;
  for (const Catalog& c : catalogs) {
    EXPECT_EQ(c.version(),
              std::max(c.relation_version("R"), c.relation_version("S")));
    stamps.push_back(c.relation_version("R"));
    stamps.push_back(c.relation_version("S"));
  }
  std::sort(stamps.begin(), stamps.end());
  EXPECT_EQ(std::adjacent_find(stamps.begin(), stamps.end()), stamps.end());

  // A copy shares its original's stamps until either one is mutated; a
  // mutation restamps only the mutated relation, with a stamp neither
  // catalog has carried.
  Catalog original = catalogs[0];
  Catalog copy = original;
  EXPECT_EQ(copy.version(), original.version());
  EXPECT_EQ(copy.relation_version("R"), original.relation_version("R"));
  EXPECT_EQ(copy.relation_version("S"), original.relation_version("S"));
  CatalogEntry entry;
  entry.data = ConventionalRel({{"w", 4}});
  ASSERT_TRUE(copy.Update("R", entry).ok());
  EXPECT_GT(copy.relation_version("R"), original.version());
  EXPECT_EQ(copy.relation_version("S"), original.relation_version("S"));
  ASSERT_TRUE(original.Update("R", entry).ok());
  EXPECT_GT(original.relation_version("R"), copy.relation_version("R"));
  EXPECT_EQ(copy.relation_version("S"), original.relation_version("S"));
}

// ---- Copy-on-write storage -------------------------------------------------

TEST(RelationTest, CopiesShareTuplesUntilOneIsWritten) {
  const Relation original = ConventionalRel({{"a", 1}, {"b", 2}, {"c", 3}});
  const std::string before = original.ToTable();

  Relation appended = original;
  EXPECT_EQ(&appended.tuples(), &original.tuples());  // shared, not copied
  appended.Append(Tuple({Value::String("d"), Value::Int(4)}));
  EXPECT_EQ(appended.size(), 4u);

  Relation rewritten = original;
  std::vector<Tuple>& tuples = rewritten.mutable_tuples();
  std::reverse(tuples.begin(), tuples.end());
  tuples[1] = Tuple({Value::String("z"), Value::Int(9)});
  EXPECT_EQ(rewritten.tuple(0), original.tuple(2));

  EXPECT_EQ(original.ToTable(), before);
  EXPECT_EQ(original.size(), 3u);
}

TEST(RelationTest, SoleHolderWritesInPlace) {
  Relation r = ConventionalRel({{"a", 1}});
  const std::vector<Tuple>* list = &r.tuples();
  r.Append(Tuple({Value::String("b"), Value::Int(2)}));
  r.mutable_tuples().pop_back();
  EXPECT_EQ(&r.tuples(), list);
  Relation empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.tuples().empty());
}

// Sessions share tuple lists across threads: copies taken and written at
// once each detach from the shared list, and the original never changes.
TEST(RelationTest, ConcurrentCopiesWriteTheirOwnLists) {
  std::vector<std::pair<std::string, int64_t>> rows;
  for (int64_t i = 0; i < 200; ++i) rows.emplace_back("n", i);
  const Relation original = ConventionalRel(rows);
  const std::string before = original.ToTable();
  std::vector<Relation> copies(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < copies.size(); ++t) {
    threads.emplace_back([&, t] {
      Relation mine = original;
      mine.Append(
          Tuple({Value::String("t"), Value::Int(static_cast<int64_t>(t))}));
      std::reverse(mine.mutable_tuples().begin(), mine.mutable_tuples().end());
      copies[t] = mine;
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(original.ToTable(), before);
  for (size_t t = 0; t < copies.size(); ++t) {
    ASSERT_EQ(copies[t].size(), 201u);
    EXPECT_EQ(copies[t].tuple(0).at(1), Value::Int(static_cast<int64_t>(t)));
    EXPECT_EQ(copies[t].tuple(200), original.tuple(0));
  }
}

TEST(ColumnTableTest, CopiesShareColumnsUntilOneIsWritten) {
  const Relation rel = ConventionalRel({{"a", 1}, {"b", 2}});
  const ColumnTable original = ColumnTable::FromRelation(rel);
  ColumnTable copy = original;
  EXPECT_EQ(&copy.col(1), &original.col(1));  // shared, not copied
  copy.mutable_col(0).AppendValue(Value::String("c"));
  copy.mutable_col(1).AppendValue(Value::Int(3));
  copy.CommitRows(1);
  EXPECT_EQ(copy.rows(), 3u);
  EXPECT_EQ(copy.ToRelation().tuple(2).ToString(), "(c, 3)");
  EXPECT_EQ(original.rows(), 2u);
  EXPECT_EQ(original.col(0).size(), 2u);
  EXPECT_EQ(original.col(1).size(), 2u);
  EXPECT_EQ(original.ToRelation().ToTable(), rel.ToTable());
}

// A projection passes an attribute through by sharing its input column;
// writing either table afterwards leaves the other as it was.
TEST(ColumnTableTest, ColumnSharedByAProjectionStaysIntact) {
  const Relation rel = ConventionalRel({{"a", 1}, {"b", 2}});
  ColumnTable in = ColumnTable::FromRelation(rel);
  Schema out_schema;
  out_schema.Add(Attribute{"V", ValueType::kInt});
  out_schema.Add(Attribute{"W", ValueType::kInt});
  ColumnTable proj(out_schema);
  proj.ShareCol(0, in, 1);
  proj.ShareCol(1, in, 1);  // one attribute projected twice
  proj.CommitRows(in.rows());
  EXPECT_EQ(&proj.col(0), &in.col(1));
  EXPECT_EQ(&proj.col(1), &in.col(1));

  proj.mutable_col(0).AppendValue(Value::Int(7));
  proj.mutable_col(1).AppendValue(Value::Int(8));
  proj.CommitRows(1);
  EXPECT_EQ(proj.ToRelation().tuple(2).ToString(), "(7, 8)");
  EXPECT_EQ(in.ToRelation().ToTable(), rel.ToTable());

  in.mutable_col(0).AppendValue(Value::String("c"));
  in.mutable_col(1).AppendValue(Value::Int(3));
  in.CommitRows(1);
  EXPECT_EQ(proj.ToRelation().tuple(0).ToString(), "(1, 1)");
  EXPECT_EQ(proj.rows(), 3u);
  EXPECT_EQ(proj.col(0).size(), 3u);
}

TEST(CatalogTest, ColumnarTwinIsBuiltOncePerRelationVersion) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterWithInferredFlags(
                      "R", ConventionalRel({{"a", 1}, {"b", 2}}))
                  .ok());
  int builds = 0;
  auto build = [&builds](const Relation& r) {
    ++builds;
    return ColumnTable::FromRelation(r);
  };
  const ColumnTable first = catalog.Columns("R", build);
  const ColumnTable again = catalog.Columns("R", build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(&first.col(0), &again.col(0));  // one twin, shared

  // A copy shares the built twin. Update gives the original a fresh twin
  // and leaves the copy's alone.
  const Catalog copy = catalog;
  CatalogEntry entry;
  entry.data = ConventionalRel({{"c", 3}});
  ASSERT_TRUE(catalog.Update("R", entry).ok());
  EXPECT_EQ(catalog.Columns("R", build).rows(), 1u);
  EXPECT_EQ(builds, 2);
  const ColumnTable old = copy.Columns("R", build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(&old.col(0), &first.col(0));
  EXPECT_EQ(old.ToRelation().ToTable(), first.ToRelation().ToTable());

  // Drop releases the twin; a re-registered relation gets a new one.
  EXPECT_TRUE(catalog.Drop("R"));
  ASSERT_TRUE(catalog
                  .RegisterWithInferredFlags(
                      "R", ConventionalRel({{"d", 4}, {"e", 5}, {"f", 6}}))
                  .ok());
  EXPECT_EQ(catalog.Columns("R", build).rows(), 3u);
  EXPECT_EQ(builds, 3);
}

TEST(CatalogTest, ConcurrentFirstCallsBuildTheTwinOnce) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterWithInferredFlags(
                      "R", testing_util::RandomTemporal(5, 300))
                  .ok());
  std::atomic<int> builds{0};
  std::atomic<size_t> ready{0};
  std::vector<ColumnTable> got(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < got.size()) std::this_thread::yield();
      got[t] = catalog.Columns("R", [&builds](const Relation& r) {
        builds.fetch_add(1);
        return ColumnTable::FromRelation(r);
      });
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (const ColumnTable& t : got) EXPECT_EQ(&t.col(0), &got[0].col(0));
  EXPECT_EQ(got[0].ToRelation().ToTable(), catalog.Find("R")->data.ToTable());
}

TEST(RelationTest, ToTableRendersAllCells) {
  Relation r = TemporalRel({{"a", 1, 0, 5}});
  std::string table = r.ToTable("title");
  EXPECT_NE(table.find("title"), std::string::npos);
  EXPECT_NE(table.find("Name"), std::string::npos);
  EXPECT_NE(table.find("T1"), std::string::npos);
  EXPECT_NE(table.find("a"), std::string::npos);
}

// ---- Typed ColumnVec paths ---------------------------------------------------
//
// The bulk and typed entry points (AppendRangeFrom, FoldHashes / RowHashes /
// ClassHashes, CompareCells) must give what the per-cell path gives, on
// every storage class: int64 (Int and Time), double, string, boxed,
// undecided all-null, and null-bearing.

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

/// A column holding `cells` in order, declared `declared` (kNull declares
/// nothing).
ColumnVec Col(ValueType declared, const std::vector<Value>& cells) {
  ColumnVec c(declared);
  for (const Value& v : cells) c.AppendValue(v);
  return c;
}

/// One column of each storage class, named.
std::vector<std::pair<std::string, ColumnVec>> EveryStorage() {
  const int64_t big = int64_t{1} << 53;
  std::vector<std::pair<std::string, ColumnVec>> cols;
  cols.emplace_back("int", Col(ValueType::kInt,
                               {Value::Int(1), Value::Int(-5),
                                Value::Int(INT64_MAX), Value::Int(big + 1),
                                Value::Int(0)}));
  cols.emplace_back("time", Col(ValueType::kTime,
                                {Value::Time(1), Value::Time(big),
                                 Value::Time(-3), Value::Time(0),
                                 Value::Time(7)}));
  cols.emplace_back("double",
                    Col(ValueType::kDouble,
                        {Value::Double(kNaN), Value::Double(-0.0),
                         Value::Double(1.0), Value::Double(kInf),
                         Value::Double(9223372036854775808.0)}));
  cols.emplace_back("string", Col(ValueType::kString,
                                  {Value::String(""), Value::String("a"),
                                   Value::String(std::string("b\0c", 3)),
                                   Value::String("a"), Value::String("z")}));
  cols.emplace_back("boxed", Col(ValueType::kInt,
                                 {Value::Int(1), Value::Double(1.0),
                                  Value::Time(1), Value::String("x"),
                                  Value::Null()}));
  cols.emplace_back("all-null", Col(ValueType::kNull,
                                    {Value::Null(), Value::Null(),
                                     Value::Null(), Value::Null(),
                                     Value::Null()}));
  cols.emplace_back("int-nulls", Col(ValueType::kInt,
                                     {Value::Null(), Value::Int(2),
                                      Value::Null(), Value::Int(2),
                                      Value::Int(-1)}));
  cols.emplace_back("string-nulls",
                    Col(ValueType::kString,
                        {Value::String("q"), Value::Null(), Value::String(""),
                         Value::Null(), Value::Null()}));
  return cols;
}

/// Same cell: same type, and the same payload bits (-0.0 is not 0.0, and a
/// NaN only matches a NaN).
void ExpectSameCell(const CellRef& a, const CellRef& b,
                    const std::string& label) {
  ASSERT_EQ(a.type, b.type) << label;
  switch (a.type) {
    case ValueType::kInt:
    case ValueType::kTime:
      EXPECT_EQ(a.i, b.i) << label;
      break;
    case ValueType::kDouble:
      EXPECT_EQ(std::memcmp(&a.d, &b.d, sizeof a.d), 0) << label;
      break;
    case ValueType::kString:
      EXPECT_EQ(*a.s, *b.s) << label;
      break;
    case ValueType::kNull:
      break;
  }
}

void ExpectSameColumn(const ColumnVec& a, const ColumnVec& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(a.storage(), b.storage()) << label;
  EXPECT_EQ(a.declared_type(), b.declared_type()) << label;
  EXPECT_EQ(a.MayHaveNulls(), b.MayHaveNulls()) << label;
  for (size_t r = 0; r < a.size(); ++r) {
    ExpectSameCell(a.At(r), b.At(r), label + " row " + std::to_string(r));
  }
}

TEST(ColumnVecTest, AppendRangeFromMatchesPerCellAppendFrom) {
  // Destinations: undecided (empty, and with a null prefix), declared like
  // the source with one cell already in, declared otherwise, and boxed.
  auto destinations = [](const ColumnVec& src) {
    std::vector<std::pair<std::string, ColumnVec>> d;
    d.emplace_back("undecided", ColumnVec());
    d.emplace_back("undecided-null-prefix", Col(ValueType::kNull,
                                                {Value::Null()}));
    ColumnVec same(src.declared_type());
    if (src.size() > 0) same.AppendFrom(src, src.size() - 1);
    d.emplace_back("same-declared", same);
    const bool stringy = src.declared_type() == ValueType::kString;
    d.emplace_back("other-declared",
                   stringy ? Col(ValueType::kInt, {Value::Int(4)})
                           : Col(ValueType::kString, {Value::String("p")}));
    d.emplace_back("boxed", Col(ValueType::kInt,
                                {Value::Int(4), Value::String("p")}));
    return d;
  };
  for (const auto& [src_name, src] : EveryStorage()) {
    for (const auto& [dst_name, dst] : destinations(src)) {
      for (const auto& [b, e] : std::vector<std::pair<size_t, size_t>>{
               {0, 5}, {1, 4}, {2, 3}, {3, 3}, {4, 5}}) {
        const std::string label = src_name + " -> " + dst_name + " [" +
                                  std::to_string(b) + ", " +
                                  std::to_string(e) + ")";
        ColumnVec bulk = dst;
        bulk.AppendRangeFrom(src, b, e);
        ColumnVec per_cell = dst;
        for (size_t r = b; r < e; ++r) per_cell.AppendFrom(src, r);
        ExpectSameColumn(per_cell, bulk, label);
      }
    }
  }
}

TEST(ColumnVecTest, TypedHashFoldsMatchTupleHashAndClassHash) {
  // A temporal table with one column of every storage class.
  Schema s;
  std::vector<std::pair<std::string, ColumnVec>> cols = EveryStorage();
  for (const auto& [name, col] : cols) {
    s.Add(Attribute{name, col.declared_type()});
  }
  s.Add(Attribute{kT1, ValueType::kTime});
  s.Add(Attribute{kT2, ValueType::kTime});
  ColumnTable t(s);
  const size_t rows = cols[0].second.size();
  for (size_t i = 0; i < cols.size(); ++i) {
    t.mutable_col(i).AppendRangeFrom(cols[i].second, 0, rows);
  }
  for (size_t r = 0; r < rows; ++r) {
    t.mutable_col(cols.size()).AppendValue(Value::Time(static_cast<int>(r)));
    t.mutable_col(cols.size() + 1)
        .AppendValue(Value::Time(static_cast<int>(r) + 3));
  }
  t.CommitRows(rows);
  ASSERT_EQ(t.col(4).storage(), ColumnStorage::kBoxed);
  ASSERT_EQ(t.col(5).storage(), ColumnStorage::kUndecided);

  const Relation rel = t.ToRelation();
  const std::vector<int> key = t.NonTemporalCols();
  ASSERT_EQ(key.size(), cols.size());
  for (size_t b = 0; b < rows; ++b) {
    for (size_t e = b; e <= rows; ++e) {
      std::vector<uint64_t> h(e - b), ch(e - b);
      t.RowHashes(b, e, h.data());
      t.ClassHashes(key, b, e, ch.data());
      for (size_t r = b; r < e; ++r) {
        EXPECT_EQ(h[r - b], rel.tuple(r).Hash()) << "row " << r;
        EXPECT_EQ(h[r - b], t.RowHash(r)) << "row " << r;
        EXPECT_EQ(ch[r - b], t.RowHashNonTemporal(r)) << "row " << r;
      }
    }
  }
  // The class hash only reads numeric values: Int(1), Double(1.0) and
  // Time(1) in three storages, and -0.0 against Int(0), hash alike.
  const std::vector<int> only = {0};
  auto class_hash = [&](ValueType declared, const Value& v) {
    Schema one;
    one.Add(Attribute{"X", declared});
    ColumnTable u(one);
    u.mutable_col(0).AppendValue(v);
    u.CommitRows(1);
    uint64_t h = 0;
    u.ClassHashes(only, 0, 1, &h);
    return h;
  };
  EXPECT_EQ(class_hash(ValueType::kInt, Value::Int(1)),
            class_hash(ValueType::kDouble, Value::Double(1.0)));
  EXPECT_EQ(class_hash(ValueType::kInt, Value::Int(1)),
            class_hash(ValueType::kTime, Value::Time(1)));
  EXPECT_EQ(class_hash(ValueType::kInt, Value::Int(1)),
            class_hash(ValueType::kString, Value::Double(1.0)));  // boxed
  EXPECT_EQ(class_hash(ValueType::kInt, Value::Int(0)),
            class_hash(ValueType::kDouble, Value::Double(-0.0)));
  EXPECT_EQ(class_hash(ValueType::kDouble, Value::Double(kNaN)),
            class_hash(ValueType::kDouble, Value::Double(-kNaN)));
}

TEST(ColumnVecTest, TypedCellCompareMatchesCellRefCompare) {
  const int64_t big = int64_t{1} << 53;
  const std::vector<Value> values = {
      Value::Null(),          Value::Int(1),
      Value::Double(1.0),     Value::Time(1),
      Value::Double(kNaN),    Value::Double(-0.0),
      Value::Double(0.0),     Value::Int(0),
      Value::Int(INT64_MAX),  Value::Double(9223372036854775808.0),
      Value::Time(INT64_MAX), Value::Int(big + 1),
      Value::Time(big),       Value::Double(static_cast<double>(big)),
      Value::Double(-kInf),   Value::String(""),
      Value::String("a"),     Value::String("ab"),
  };
  // Each value as a typed cell, as a boxed one (row 1 behind a string) and
  // as a cell of a null-bearing column (row 1 behind a null).
  std::vector<std::pair<ColumnVec, size_t>> cells;
  for (const Value& v : values) {
    cells.emplace_back(Col(v.type(), {v}), 0);
    cells.emplace_back(Col(v.type(), {Value::String("pad"), v}), 1);
    cells.emplace_back(Col(v.type(), {Value::Null(), v}), 1);
  }
  for (const auto& [a, ra] : cells) {
    for (const auto& [b, rb] : cells) {
      const CellRef x = a.At(ra), y = b.At(rb);
      EXPECT_EQ(ColumnVec::CompareCells(a, ra, b, rb), CellRef::Compare(x, y))
          << x.ToValue().ToString() << " vs " << y.ToValue().ToString();
      EXPECT_EQ(CellRef::Compare(x, y), x.ToValue().Compare(y.ToValue()));
    }
  }
  // The exactness rules, spelled out.
  auto cmp = [](const Value& x, const Value& y) {
    return ColumnVec::CompareCells(Col(x.type(), {x}), 0, Col(y.type(), {y}),
                                   0);
  };
  EXPECT_EQ(cmp(Value::Double(kNaN), Value::Double(2.0)), 0);
  EXPECT_EQ(cmp(Value::Double(-0.0), Value::Double(0.0)), 0);
  EXPECT_EQ(cmp(Value::Int(1), Value::Double(1.0)), 0);
  EXPECT_EQ(cmp(Value::Int(1), Value::Time(1)), 0);
  EXPECT_EQ(cmp(Value::Int(INT64_MAX), Value::Double(9223372036854775808.0)),
            0);
  EXPECT_EQ(cmp(Value::Int(big + 1), Value::Time(big)), 0);  // as doubles
  EXPECT_EQ(cmp(Value::Int(big + 1), Value::Int(big)), 1);   // as int64
  EXPECT_EQ(cmp(Value::String("a"), Value::Int(5)), 1);      // type rank
}

}  // namespace
}  // namespace tqp
