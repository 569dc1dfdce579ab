// Tests for the service layer: the lock-free latency histogram, the plan
// store's serialization (full operator/expression/value coverage), the
// cross-restart snapshot contract (warm import, wholesale staleness
// rejection on any content change, older formats as cold starts,
// corrupt-file errors, byte-identical warm-vs-cold results), and
// the TCP server end to end (query streaming, the literal bytes of schema
// and batch frames, error recovery on a live connection, concurrent
// clients, clean shutdown). CI runs this suite under TSan as well.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "core/latency_histogram.h"
#include "service/loadgen.h"
#include "service/plan_store.h"
#include "service/server.h"
#include "test_util.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

// ---- Latency histogram -----------------------------------------------------

TEST(LatencyHistogramTest, ExactBelowSubBucketRange) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) h.Record(v);
  EXPECT_EQ(h.count(), LatencyHistogram::kSubBuckets);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), LatencyHistogram::kSubBuckets - 1);
  // Values below kSubBuckets land in exact slots: every percentile is exact.
  EXPECT_EQ(h.Percentile(50), 31u);
  EXPECT_EQ(h.Percentile(100), 63u);
}

TEST(LatencyHistogramTest, RelativeErrorBound) {
  LatencyHistogram h;
  const uint64_t values[] = {100,    999,     1024,      12345,
                             987654, 1234567, 987654321, (1ull << 40) + 17};
  for (uint64_t v : values) {
    h.Reset();
    h.Record(v);
    const uint64_t p = h.Percentile(50);
    EXPECT_GE(p, v);  // upper bucket edge never undershoots
    EXPECT_LE(static_cast<double>(p - v),
              static_cast<double>(v) / LatencyHistogram::kSubBuckets + 1.0)
        << "value " << v;
    EXPECT_EQ(h.min(), v);
    EXPECT_EQ(h.max(), v);
    EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(v));
  }
}

TEST(LatencyHistogramTest, PercentileClampsToObservedMax) {
  LatencyHistogram h;
  h.Record(1000);
  h.Record(1001);
  // The bucket edge for 1001 is above the observed max; reporting must clamp.
  EXPECT_EQ(h.Percentile(99.99), 1001u);
}

TEST(LatencyHistogramTest, MergeAndReset) {
  LatencyHistogram a, b;
  for (uint64_t v = 1; v <= 100; ++v) a.Record(v);
  for (uint64_t v = 1000; v <= 1100; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 201u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1100u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Percentile(50), 0u);
  EXPECT_EQ(a.min(), 0u);
}

TEST(LatencyHistogramTest, ConcurrentRecordLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + (i % 997));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7000 + 996);
}

TEST(LatencyHistogramTest, ToJsonShape) {
  LatencyHistogram h;
  h.Record(10);
  const std::string j = h.ToJson();
  EXPECT_NE(j.find("\"count\":1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"p999\":"), std::string::npos) << j;
}

// ---- Plan serialization ----------------------------------------------------

/// Deep structural equality: the fingerprint is computed bottom-up from
/// payloads, and the serializer is canonical, so fingerprint plus re-rendered
/// bytes equal ⇔ same tree. (PlanNode::Equal is shallow by design.)
void ExpectSamePlan(const PlanPtr& a, const PlanPtr& b) {
  ASSERT_TRUE(a != nullptr);
  ASSERT_TRUE(b != nullptr);
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  EXPECT_EQ(SerializePlan(a), SerializePlan(b));
}

void ExpectRoundTrip(const PlanPtr& plan) {
  const std::string data = SerializePlan(plan);
  Result<PlanPtr> back = DeserializePlan(data);
  ASSERT_TRUE(back.ok()) << back.status().message() << "\n" << data;
  ExpectSamePlan(plan, *back);
}

/// A predicate exercising every ExprKind and every Value type.
ExprPtr KitchenSinkPredicate() {
  ExprPtr cmp = Expr::Compare(CompareOp::kGe, Expr::Attr("Val"),
                              Expr::Const(Value::Int(-42)));
  ExprPtr arith = Expr::Compare(
      CompareOp::kNe,
      Expr::Arith(ArithOp::kMul, Expr::Attr("Val"),
                  Expr::Const(Value::Double(2.5))),
      Expr::Const(Value::Double(1.0 / 3.0)));
  ExprPtr str = Expr::Compare(CompareOp::kEq, Expr::Attr("Name"),
                              Expr::Const(Value::String(
                                  "needs \"escaping\"\nand spaces")));
  ExprPtr nul = Expr::Compare(CompareOp::kLt, Expr::Attr("Cat"),
                              Expr::Const(Value::Null()));
  ExprPtr overlaps =
      Expr::Overlaps(Expr::Attr("T1"), Expr::Attr("T2"),
                     Expr::Const(Value::Time(100)),
                     Expr::Const(Value::Time(200)));
  return Expr::And(Expr::Or(cmp, Expr::Not(arith)),
                   Expr::And(str, Expr::Or(nul, overlaps)));
}

TEST(PlanStoreTest, ExpressionAndValueRoundTrip) {
  ExpectRoundTrip(PlanNode::Select(PlanNode::Scan("R"),
                                   KitchenSinkPredicate()));
}

TEST(PlanStoreTest, EveryOperatorRoundTrips) {
  const PlanPtr r = PlanNode::Scan("R");
  const PlanPtr s = PlanNode::Scan("a relation\nwith \"odd\" name");
  std::vector<ProjItem> items;
  items.push_back(ProjItem{Expr::Attr("Name"), "Name"});
  items.push_back(ProjItem{
      Expr::Arith(ArithOp::kAdd, Expr::Attr("Val"),
                  Expr::Const(Value::Int(1))),
      "ValPlus"});
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggFunc::kCount, "", "n"});
  aggs.push_back(AggSpec{AggFunc::kAvg, "Val", "avg_val"});
  SortSpec sort{SortKey{"Name", true}, SortKey{"Val", false}};

  ExpectRoundTrip(r);
  ExpectRoundTrip(PlanNode::Select(r, KitchenSinkPredicate()));
  ExpectRoundTrip(PlanNode::Project(r, items));
  ExpectRoundTrip(PlanNode::UnionAll(r, s));
  ExpectRoundTrip(PlanNode::Product(r, s));
  ExpectRoundTrip(PlanNode::Difference(r, s));
  ExpectRoundTrip(PlanNode::Aggregate(r, {"Cat", "Name"}, aggs));
  ExpectRoundTrip(PlanNode::Rdup(r));
  ExpectRoundTrip(PlanNode::ProductT(r, s));
  ExpectRoundTrip(PlanNode::DifferenceT(r, s));
  ExpectRoundTrip(PlanNode::AggregateT(r, {}, aggs));
  ExpectRoundTrip(PlanNode::RdupT(r));
  ExpectRoundTrip(PlanNode::Union(r, s));
  ExpectRoundTrip(PlanNode::UnionT(r, s));
  ExpectRoundTrip(PlanNode::Sort(r, sort));
  ExpectRoundTrip(PlanNode::Coalesce(r));
  ExpectRoundTrip(PlanNode::TransferS(r));
  ExpectRoundTrip(PlanNode::TransferD(r));

  // A deep composite: every kind in one tree.
  ExpectRoundTrip(PlanNode::Sort(
      PlanNode::Coalesce(PlanNode::RdupT(PlanNode::AggregateT(
          PlanNode::TransferD(PlanNode::UnionT(
              PlanNode::Select(PlanNode::TransferS(PlanNode::Product(r, s)),
                               KitchenSinkPredicate()),
              PlanNode::DifferenceT(PlanNode::Project(r, items),
                                    PlanNode::Rdup(s)))),
          {"Cat"}, aggs))),
      sort));
}

TEST(PlanStoreTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DeserializePlan("").ok());
  EXPECT_FALSE(DeserializePlan("(scan").ok());
  EXPECT_FALSE(DeserializePlan("(warp \"1:R)").ok());
  EXPECT_FALSE(DeserializePlan("(scan \"9999:R)").ok());
  EXPECT_FALSE(DeserializePlan("(select (scan \"1:R))").ok());  // no predicate
  EXPECT_FALSE(DeserializePlan("(scan \"1:R) junk").ok());
  EXPECT_FALSE(DeserializeSnapshot("not-a-snapshot 1 2 3").ok());
  // An entry count far past the file's contents.
  EXPECT_FALSE(
      DeserializeSnapshot("tqp-plan-cache-v3 0 \"0: 0 18446744073709551615\n")
          .ok());
  // Nesting far past kMaxPlanDepth is a load error, not a stack
  // overflow.
  const size_t deep = 1000000;
  Result<PlanPtr> nested = DeserializePlan(
      testing_util::Repeat("(rdup ", deep) + "(rdup (scan \"1:R))" +
      std::string(deep, ')'));
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.status().message().find("nested deeper"),
            std::string::npos)
      << nested.status().message();
}

// A plan nesting exactly kMaxPlanDepth levels round-trips; one level
// more is refused by the reader, and SerializeSnapshot leaves its entry
// out, so the snapshot it writes still loads.
TEST(PlanStoreTest, NestingBoundHoldsOnBothSides) {
  auto wrap = [](PlanPtr p, int rdups) {
    for (int i = 0; i < rdups; ++i) p = PlanNode::Rdup(p);
    return p;
  };
  const PlanPtr at_bound = wrap(PlanNode::Scan("R"), kMaxPlanDepth - 1);
  EXPECT_EQ(at_bound->depth(), kMaxPlanDepth);  // the snapshot's measure
  Result<PlanPtr> back = DeserializePlan(SerializePlan(at_bound));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(SerializePlan(back.value()), SerializePlan(at_bound));
  const PlanPtr too_deep = wrap(PlanNode::Scan("R"), kMaxPlanDepth);
  EXPECT_FALSE(DeserializePlan(SerializePlan(too_deep)).ok());
  // Expression levels count below their operator: this predicate spans
  // the selection's level + 1 to + 3 (NOT, =, its operands).
  const PlanPtr select = PlanNode::Select(
      PlanNode::Scan("R"),
      Expr::Not(Expr::Compare(CompareOp::kEq, Expr::Attr("Val"),
                              Expr::Const(Value::Int(1)))));
  EXPECT_TRUE(
      DeserializePlan(SerializePlan(wrap(select, kMaxPlanDepth - 4)))
          .ok());
  const PlanPtr deep_predicate = wrap(select, kMaxPlanDepth - 3);
  EXPECT_EQ(deep_predicate->depth(), kMaxPlanDepth + 1);
  EXPECT_FALSE(DeserializePlan(SerializePlan(deep_predicate)).ok());

  PlanCacheSnapshot snap;
  PlanCacheEntry e;
  e.key = "fits";
  e.contract = QueryContract::Multiset();
  e.initial_plan = at_bound;
  e.best_plan = at_bound;
  snap.entries.push_back(e);
  e.key = "too deep";
  e.best_plan = too_deep;
  snap.entries.push_back(e);
  e.key = "deep predicate";
  e.best_plan = deep_predicate;
  snap.entries.push_back(e);
  Result<PlanCacheSnapshot> loaded =
      DeserializeSnapshot(SerializeSnapshot(snap));
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded->entries.size(), 1u);
  EXPECT_EQ(loaded->entries[0].key, "fits");
}

TEST(PlanStoreTest, SnapshotRoundTripPreservesEverything) {
  PlanCacheSnapshot snap;
  snap.catalog_fingerprint = 0xdeadbeefcafeull;
  PlanCacheEntry e;
  e.key = "#tql:select|name|from|r";
  e.text = "SELECT Name FROM R";
  e.contract = QueryContract::List({SortKey{"Name", true}});
  e.initial_plan = PlanNode::Project(
      PlanNode::Scan("R"), {ProjItem{Expr::Attr("Name"), "Name"}});
  e.best_plan = PlanNode::Sort(e.initial_plan, {SortKey{"Name", true}});
  e.best_cost = 12.5;
  e.initial_cost = 99.25;
  e.plans_considered = 1234;
  e.truncated = true;
  e.derivation = {"step one", "step \"two\""};
  snap.entries.push_back(e);

  Result<PlanCacheSnapshot> back = DeserializeSnapshot(SerializeSnapshot(snap));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->catalog_fingerprint, snap.catalog_fingerprint);
  ASSERT_EQ(back->entries.size(), 1u);
  const PlanCacheEntry& b = back->entries[0];
  EXPECT_EQ(b.key, e.key);
  EXPECT_EQ(b.text, e.text);
  EXPECT_EQ(b.contract.result_type, e.contract.result_type);
  ASSERT_EQ(b.contract.order_by.size(), 1u);
  EXPECT_EQ(b.contract.order_by[0].attr, "Name");
  EXPECT_TRUE(b.contract.order_by[0].ascending);
  EXPECT_DOUBLE_EQ(b.best_cost, e.best_cost);
  EXPECT_DOUBLE_EQ(b.initial_cost, e.initial_cost);
  EXPECT_EQ(b.plans_considered, e.plans_considered);
  EXPECT_TRUE(b.truncated);
  EXPECT_EQ(b.derivation, e.derivation);
  ExpectSamePlan(b.initial_plan, e.initial_plan);
  ExpectSamePlan(b.best_plan, e.best_plan);
}

// ---- Engine export/import + plan-store files -------------------------------

/// EMPLOYEE/PROJECT plus a generated temporal relation, rebuilt identically
/// on each call — the "server restart against the same data" scenario.
Catalog ServiceCatalog() {
  Catalog catalog = PaperCatalog();
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R", testing_util::RandomTemporal(3, 20), Site::kDbms)
                .ok());
  return catalog;
}

std::vector<std::string> ServiceQueries() {
  return {
      PaperQueryText(),
      "SELECT Name, Val FROM R WHERE Val > 10",
      "SELECT DISTINCT Name FROM R ORDER BY Name ASC",
      "SELECT Cat, COUNT(*) AS n FROM R GROUP BY Cat ORDER BY Cat",
  };
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PlanStoreTest, FileRoundTripWarmsARestartedEngine) {
  const std::string path = TempPath("tqp_plan_store_roundtrip.snapshot");
  std::remove(path.c_str());

  // First process lifetime: serve the mix, snapshot on the way out.
  std::vector<std::string> cold_tables;
  {
    Engine engine(ServiceCatalog());
    for (const std::string& q : ServiceQueries()) {
      Result<QueryResult> r = engine.Query(q);
      ASSERT_TRUE(r.ok()) << r.status().message();
      cold_tables.push_back(r->relation.ToTable());
    }
    ASSERT_TRUE(SavePlanCache(engine, path).ok());
    EXPECT_EQ(engine.stats().plan_cache_entries, ServiceQueries().size());
  }

  // Second lifetime: identical catalog rebuilt from scratch.
  Engine engine(ServiceCatalog());
  Result<PlanStoreLoadOutcome> loaded = LoadPlanCache(&engine, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_FALSE(loaded->file_missing);
  EXPECT_FALSE(loaded->stale);
  EXPECT_EQ(loaded->in_snapshot, ServiceQueries().size());
  EXPECT_EQ(loaded->imported, ServiceQueries().size());
  EXPECT_EQ(engine.stats().plan_cache_imports, ServiceQueries().size());

  // Every query hits the imported cache on first contact and returns the
  // byte-identical relation the cold engine produced.
  size_t i = 0;
  for (const std::string& q : ServiceQueries()) {
    Result<QueryResult> r = engine.Query(q);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_TRUE(r->plan_cache_hit) << q;
    EXPECT_EQ(r->relation.ToTable(), cold_tables[i]) << q;
    ++i;
  }
  EXPECT_EQ(engine.stats().prepares, 0u);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, MissingFileIsACleanColdStart) {
  Engine engine(ServiceCatalog());
  Result<PlanStoreLoadOutcome> loaded =
      LoadPlanCache(&engine, TempPath("tqp_plan_store_nonexistent.snapshot"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->file_missing);
  EXPECT_EQ(loaded->imported, 0u);
}

TEST(PlanStoreTest, CorruptFileIsAnErrorNotACrash) {
  const std::string path = TempPath("tqp_plan_store_corrupt.snapshot");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("tqp-plan-cache-v3 1 2 999\n(entry truncated", f);
    std::fclose(f);
  }
  Engine engine(ServiceCatalog());
  Result<PlanStoreLoadOutcome> loaded = LoadPlanCache(&engine, path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(engine.stats().plan_cache_imports, 0u);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, StaleCatalogVersionRejectsWholesale) {
  const std::string path = TempPath("tqp_plan_store_stale.snapshot");
  {
    Engine engine(ServiceCatalog());
    ASSERT_TRUE(engine.Query(ServiceQueries()[0]).ok());
    ASSERT_TRUE(SavePlanCache(engine, path).ok());
  }
  // The restarted catalog saw one extra mutation: version differs.
  Catalog catalog = ServiceCatalog();
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "S", testing_util::RandomTemporal(8, 16), Site::kDbms)
                .ok());
  Engine engine(std::move(catalog));
  Result<PlanStoreLoadOutcome> loaded = LoadPlanCache(&engine, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded->stale);
  EXPECT_EQ(loaded->imported, 0u);
  EXPECT_EQ(loaded->in_snapshot, 1u);

  // And the engine still serves the query cold, correctly.
  Result<QueryResult> r = engine.Query(ServiceQueries()[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->plan_cache_hit);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, ContentChangeRejectsWholesale) {
  // The restart has the same relations, sizes, flags and mutation count as
  // the exporter, but one value of R differs: the snapshot's plans were
  // made for other contents, so it loads stale.
  const std::string path = TempPath("tqp_plan_store_content.snapshot");
  auto catalog_with = [](int64_t last_val) {
    Catalog catalog = PaperCatalog();
    TQP_CHECK(catalog
                  .RegisterWithInferredFlags(
                      "R",
                      testing_util::TemporalRel({{"a", 1, 0, 5},
                                                 {"b", 2, 2, 9},
                                                 {"c", last_val, 4, 8}}),
                      Site::kDbms)
                  .ok());
    return catalog;
  };
  const std::string query = "SELECT Name, Val FROM R WHERE Val > 1";
  {
    Engine engine(catalog_with(3));
    ASSERT_TRUE(engine.Query(query).ok());
    ASSERT_TRUE(SavePlanCache(engine, path).ok());
  }
  const Catalog original = catalog_with(3);
  Catalog changed = catalog_with(4);
  const CatalogEntry* before = original.Find("R");
  const CatalogEntry* after = changed.Find("R");
  ASSERT_EQ(after->data.size(), before->data.size());
  ASSERT_EQ(after->duplicate_free, before->duplicate_free);
  ASSERT_EQ(after->snapshot_duplicate_free, before->snapshot_duplicate_free);
  ASSERT_EQ(after->coalesced, before->coalesced);

  Engine engine(std::move(changed));
  Result<PlanStoreLoadOutcome> loaded = LoadPlanCache(&engine, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded->stale);
  EXPECT_EQ(loaded->imported, 0u);
  EXPECT_EQ(loaded->in_snapshot, 1u);
  Result<QueryResult> r = engine.Query(query);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->plan_cache_hit);
  EXPECT_EQ(r->relation.size(), 2u);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, ExportImportPreservesLruOrder) {
  EngineOptions options;
  options.plan_cache_capacity = 2;
  Engine a(ServiceCatalog(), options);
  ASSERT_TRUE(a.Query(ServiceQueries()[0]).ok());
  ASSERT_TRUE(a.Query(ServiceQueries()[1]).ok());

  Engine b(ServiceCatalog(), options);
  ASSERT_EQ(b.ImportPlanCache(a.ExportPlanCache()), 2u);
  // A third distinct query must evict the imported LRU entry (queries[0]),
  // proving recency was reproduced, not reset.
  ASSERT_TRUE(b.Query(ServiceQueries()[2]).ok());
  Result<QueryResult> hit = b.Query(ServiceQueries()[1]);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->plan_cache_hit);
  Result<QueryResult> miss = b.Query(ServiceQueries()[0]);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->plan_cache_hit);
}

// ---- Server end to end -----------------------------------------------------

TEST(ServiceServerTest, QueryStreamsSchemaBatchesAndStats) {
  Engine engine(ServiceCatalog());
  ServerOptions opts;
  opts.batch_rows = 4;  // force multiple batch frames
  Server server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  Result<QueryResult> direct = engine.Query("SELECT Name, Val FROM R");
  ASSERT_TRUE(direct.ok());

  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  Result<QueryOutcome> out =
      client.RunQuery("SELECT Name, Val FROM R", /*capture_raw=*/true);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_TRUE(out->ok) << out->error;
  EXPECT_EQ(out->rows, direct->relation.size());
  EXPECT_EQ(out->batches, (direct->relation.size() + 3) / 4);
  EXPECT_NE(out->raw.find("{\"type\":\"schema\""), std::string::npos);
  EXPECT_NE(out->raw.find("\"name\":\"Name\""), std::string::npos);

  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_NE(stats->find("\"queries\":1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"engine\":"), std::string::npos) << *stats;

  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().queries, 1u);
  EXPECT_EQ(server.stats().errors, 0u);
}

TEST(ServiceServerTest, ErrorFrameLeavesConnectionUsable) {
  Engine engine(ServiceCatalog());
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  // A syntax error, then literals out of range, expressions deeper than
  // the parser's bound, and a 20 000-way UNION ALL chain far deeper than
  // kMaxPlanDepth: each must come back as an error frame, not stop the
  // server.
  std::vector<std::string> bad_lines = {"SELECT FROM nothing !!"};
  for (const std::string& where : testing_util::HostileWhereClauses("Val")) {
    bad_lines.push_back("SELECT Name FROM R WHERE " + where);
  }
  bad_lines.push_back(testing_util::UnionAllChain(20000));
  for (const std::string& line : bad_lines) {
    Result<QueryOutcome> bad = client.RunQuery(line);
    ASSERT_TRUE(bad.ok()) << line.substr(0, 40) << ": "
                          << bad.status().message();
    EXPECT_FALSE(bad->ok) << line.substr(0, 40);
    EXPECT_FALSE(bad->error.empty()) << line.substr(0, 40);
  }

  Result<QueryOutcome> good = client.RunQuery("SELECT Name FROM R");
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_TRUE(good->ok) << good->error;
  EXPECT_GT(good->rows, 0u);
  server.Stop();
  EXPECT_EQ(server.stats().errors, bad_lines.size());
}

// A client that never ends its line cannot grow the server's buffer
// without bound: past 1 MiB it gets one error frame and then EOF, and the
// server goes on serving other clients.
TEST(ServiceServerTest, OversizedLineIsRejected) {
  Engine engine(ServiceCatalog());
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // Bounded waits: a server that keeps buffering fails the test instead of
  // hanging it.
  timeval timeout{};
  timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)), 0);
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                         sizeof(timeout)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, server.host().c_str(), &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // 2 MiB without a newline. The server stops reading after 1 MiB, so the
  // send may end early with an error once it closes the connection.
  const std::string chunk(64 * 1024, 'x');
  for (size_t sent = 0; sent < 2 * 1024 * 1024;) {
    ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(n, 0) << "expected EOF, got errno " << errno;
  ::close(fd);
  EXPECT_EQ(reply.rfind("{\"type\":\"error\"", 0), 0u) << reply;
  EXPECT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;

  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  Result<QueryOutcome> good = client.RunQuery("SELECT Name FROM R");
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_TRUE(good->ok) << good->error;
  server.Stop();
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServiceServerTest, ConcurrentClientsThroughLoadgen) {
  Engine engine(ServiceCatalog());
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  LoadGenOptions load;
  load.host = server.host();
  load.port = server.port();
  load.clients = 8;
  load.rounds = 3;  // 8 clients × 3 passes × |mix| queries, then stop
  load.queries = ServiceQueries();
  LoadGenReport report;
  Status st = RunLoad(load, &report);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(report.queries, 8u * 3u * ServiceQueries().size());
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.latency_us.count(), report.queries);
  EXPECT_GT(report.rows, 0u);
  // Every query text repeats across clients: the shared plan cache must
  // serve the repeats warm. Concurrent first contacts can each miss (the
  // compile races the store), so the worst case is one miss per client per
  // distinct query.
  EXPECT_GE(report.plan_cache_hits,
            report.queries - load.clients * ServiceQueries().size());
  server.Stop();
  EXPECT_EQ(server.stats().queries, report.queries);
}

TEST(ServiceServerTest, WarmRestartIsByteIdenticalToCold) {
  const std::string path = TempPath("tqp_service_warm_restart.snapshot");
  std::remove(path.c_str());

  LoadGenOptions load;
  load.clients = 2;
  load.rounds = 2;
  load.queries = ServiceQueries();
  load.record_raw = true;

  auto run_against = [&](const ServerOptions& opts,
                         std::vector<std::string>* raws) {
    Engine engine(ServiceCatalog());
    Server server(&engine, opts);
    ASSERT_TRUE(server.Start().ok());
    load.host = server.host();
    load.port = server.port();
    LoadGenReport report;
    Status st = RunLoad(load, &report);
    ASSERT_TRUE(st.ok()) << st.message();
    ASSERT_EQ(report.errors, 0u);
    *raws = report.raw_by_client;
    server.Stop();  // writes the final snapshot when configured
  };

  ServerOptions with_snapshot;
  with_snapshot.snapshot_path = path;
  std::vector<std::string> first_raws, warm_raws, cold_raws;
  run_against(with_snapshot, &first_raws);   // writes snapshot on Stop()
  run_against(with_snapshot, &warm_raws);    // restarts warm from it
  run_against(ServerOptions{}, &cold_raws);  // fresh cold server, no store

  // The deterministic rounds-mode workload makes per-client streams directly
  // comparable: a warm restart changes latency, never a byte of results.
  ASSERT_EQ(warm_raws.size(), cold_raws.size());
  for (size_t i = 0; i < warm_raws.size(); ++i) {
    EXPECT_EQ(warm_raws[i], cold_raws[i]) << "client " << i;
    EXPECT_EQ(warm_raws[i], first_raws[i]) << "client " << i;
  }
  std::remove(path.c_str());
}

// The wire bytes of result frames, pinned literally. perfbench's oracle
// renders its expected frames with the same JsonWriter, so a format drift
// there would pass the benchmark's byte-identity gate; these literals do
// not move with the writer. The values cover the integer and time extremes,
// doubles that %.17g renders in every notation (non-finite ones as null),
// NULL in each column, and strings that need every kind of escape.
TEST(ServiceServerTest, WireFramesArePinned) {
  Schema s;
  s.Add(Attribute{"I", ValueType::kInt});
  s.Add(Attribute{"Tp", ValueType::kTime});
  s.Add(Attribute{"D", ValueType::kDouble});
  s.Add(Attribute{"S", ValueType::kString});
  Relation w(s);
  auto add = [&](Value i, Value tp, Value d, Value str) {
    Tuple t;
    t.push_back(std::move(i));
    t.push_back(std::move(tp));
    t.push_back(std::move(d));
    t.push_back(std::move(str));
    w.Append(std::move(t));
  };
  const double inf = std::numeric_limits<double>::infinity();
  add(Value::Int(std::numeric_limits<int64_t>::min()), Value::Time(-7),
      Value::Double(-0.0), Value::String("quote\"q"));
  add(Value::Int(std::numeric_limits<int64_t>::max()), Value::Time(0),
      Value::Double(5e-324), Value::String("back\\slash"));
  add(Value::Int(0), Value::Time(1700000000), Value::Double(1e308),
      Value::String("nl\nand\ttab\r"));
  add(Value::Int(-1), Value::Time(std::numeric_limits<int64_t>::min()),
      Value::Double(std::numeric_limits<double>::quiet_NaN()),
      Value::String("\x01\x1f\x7f"));
  add(Value::Int(-42), Value::Null(), Value::Double(inf),
      Value::String("\xc3\xa9\xe6\x97\xa5\xf0\x9f\x99\x82"));
  add(Value::Null(), Value::Time(-1), Value::Double(-inf), Value::String(""));
  add(Value::Int(7), Value::Time(2), Value::Null(), Value::Null());
  add(Value::Int(123456789), Value::Time(3), Value::Double(0.1),
      Value::String("plain"));
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterWithInferredFlags("W", w).ok());

  Engine engine(std::move(catalog));
  ServerOptions opts;
  opts.batch_rows = 3;
  Server server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());
  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  Result<QueryOutcome> out =
      client.RunQuery("SELECT I, Tp, D, S FROM W", /*capture_raw=*/true);
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_TRUE(out->ok) << out->error;
  EXPECT_EQ(out->raw,
            "{\"type\":\"schema\",\"attrs\":[{\"name\":\"I\",\"type\":\"int\"},"
            "{\"name\":\"Tp\",\"type\":\"time\"},"
            "{\"name\":\"D\",\"type\":\"double\"},"
            "{\"name\":\"S\",\"type\":\"string\"}]}\n"
            "{\"type\":\"batch\",\"rows\":["
            "[-9223372036854775808,-7,-0,\"quote\\\"q\"],"
            "[9223372036854775807,0,4.9406564584124654e-324,"
            "\"back\\\\slash\"],"
            "[0,1700000000,1e+308,\"nl\\nand\\ttab\\r\"]]}\n"
            "{\"type\":\"batch\",\"rows\":["
            "[-1,-9223372036854775808,null,\"\\u0001\\u001f\x7f\"],"
            "[-42,null,null,\"\xc3\xa9\xe6\x97\xa5\xf0\x9f\x99\x82\"],"
            "[null,-1,null,\"\"]]}\n"
            "{\"type\":\"batch\",\"rows\":["
            "[7,2,null,null],"
            "[123456789,3,0.10000000000000001,\"plain\"]]}\n");
  client.Close();
  server.Stop();
}

TEST(ServiceServerTest, OlderFormatIsAColdStart) {
  // A snapshot of this catalog and query mix in the v2 layout: catalog
  // mutation count, content fingerprint (0 = not checked), backend kind,
  // calibration fingerprint and entry count, then the entries, laid out as
  // in v3. Another format version is a stale snapshot: the server starts
  // cold and serves every query.
  const std::string path = TempPath("tqp_service_v2.snapshot");
  {
    Engine engine(ServiceCatalog());
    for (const std::string& q : ServiceQueries()) {
      ASSERT_TRUE(engine.Query(q).ok());
    }
    PlanCacheSnapshot snap = engine.ExportPlanCache();
    const std::string v3 = SerializeSnapshot(snap);
    const std::string v2 = "tqp-plan-cache-v2 3 0 \"9:simulated 0 " +
                           std::to_string(snap.entries.size()) +
                           v3.substr(v3.find('\n'));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(v2.c_str(), f);
    std::fclose(f);
  }
  Result<PlanStoreLoadOutcome> loaded = [&] {
    Engine engine(ServiceCatalog());
    return LoadPlanCache(&engine, path);
  }();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded->stale);
  EXPECT_EQ(loaded->imported, 0u);

  Engine engine(ServiceCatalog());
  ServerOptions opts;
  opts.snapshot_path = path;
  Server server(&engine, opts);
  Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.message();
  EXPECT_EQ(server.stats().plans_imported, 0u);
  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  Engine cold(ServiceCatalog());
  for (const std::string& q : ServiceQueries()) {
    Result<QueryOutcome> out = client.RunQuery(q);
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_TRUE(out->ok) << out->error;
    EXPECT_FALSE(out->plan_cache_hit) << q;
    Result<QueryResult> expected = cold.Query(q);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(out->rows, expected->relation.size()) << q;
  }
  client.Close();
  server.Stop();
  std::remove(path.c_str());
}

TEST(ServiceServerTest, StopUnblocksIdleConnections) {
  Engine engine(ServiceCatalog());
  auto server = std::make_unique<Server>(&engine, ServerOptions{});
  ASSERT_TRUE(server->Start().ok());
  ServiceClient idle1, idle2;
  ASSERT_TRUE(idle1.Connect(server->host(), server->port()).ok());
  ASSERT_TRUE(idle2.Connect(server->host(), server->port()).ok());
  // Stop() must shut down reads and join the connection threads without
  // waiting for the idle clients to say \quit; hanging here fails the test
  // by timeout.
  server->Stop();
  server.reset();
}

}  // namespace
}  // namespace tqp
