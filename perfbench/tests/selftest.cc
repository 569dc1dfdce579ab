// Self-test of the benchmark's checking and summary helpers. Build the
// perfbench_selftest target and run it; it prints each failed check and
// exits non-zero if any failed. tests/check_bench.py runs it.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

using tqp::Attribute;
using tqp::QueryContract;
using tqp::Relation;
using tqp::Schema;
using tqp::SortKey;
using tqp::Tuple;
using tqp::Value;
using tqp::ValueType;

int failures = 0;

void Check(bool cond, const char* what) {
  if (!cond) {
    ++failures;
    std::printf("FAILED: %s\n", what);
  }
}

Relation Spells(const std::vector<std::tuple<const char*, int, int>>& rows) {
  Relation r(Schema({Attribute{"Name", ValueType::kString},
                     Attribute{tqp::kT1, ValueType::kTime},
                     Attribute{tqp::kT2, ValueType::kTime}}));
  for (const auto& [name, t1, t2] : rows) {
    r.Append(Tuple({Value::String(name), Value::Time(t1), Value::Time(t2)}));
  }
  return r;
}

void ContractCheck() {
  const Relation base = Spells({{"ann", 1, 5}, {"bob", 2, 6}, {"cat", 3, 9}});
  const QueryContract list = QueryContract::List({SortKey{"Name", true}});
  const QueryContract multiset = QueryContract::Multiset();
  const QueryContract set = QueryContract::Set();

  Check(SatisfiesContract(list, base, base), "identical list accepted");
  Check(!SatisfiesContract(multiset, base,
                           Spells({{"ann", 1, 5}, {"bob", 2, 6}})),
        "a dropped tuple is flagged");
  Check(!SatisfiesContract(list, base,
                           Spells({{"bob", 2, 6}, {"ann", 1, 5}, {"cat", 3, 9}})),
        "two rows swapped under a list contract are flagged");
  Check(SatisfiesContract(multiset, base,
                          Spells({{"cat", 3, 9}, {"ann", 1, 5}, {"bob", 2, 6}})),
        "a reordered result under a multiset contract is accepted");
  Check(!SatisfiesContract(
            set, base,
            Spells({{"ann", 1, 5}, {"bob", 2, 6}, {"cat", 3, 9}, {"ann", 4, 7}})),
        "an added overlapping value-equivalent tuple under a set contract is "
        "flagged");
  Check(SatisfiesContract(
            set, base,
            Spells({{"ann", 1, 5}, {"bob", 2, 6}, {"cat", 3, 9}, {"ann", 1, 5}})),
        "an exact duplicate under a set contract is accepted");
}

void TailHelper() {
  Check(TailPercentileFor(400) == 95.0, "400 samples: p95 (20 beyond)");
  Check(TailPercentileFor(100) == 90.0, "100 samples: p90 (10 beyond)");
  Check(TailPercentileFor(99) == 75.0, "99 samples: p75 (p90 has 9 beyond)");
  Check(TailPercentileFor(1000) == 99.0, "1000 samples: p99 (10 beyond)");
  Check(TailPercentileFor(10000) == 99.9, "10000 samples: p99.9 (10 beyond)");
  Check(TailPercentileFor(40) == 75.0, "40 samples: p75 (10 beyond)");
  Check(TailPercentileFor(20) == 50.0, "20 samples: p50 (10 beyond)");
  Check(TailPercentileFor(19) == 0.0, "19 samples: no tail");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Check(Percentile(v, 90.0) == 90.0, "nearest-rank p90 of 1..100 is 90");
  Check(Median(v) == 50.5, "median of 1..100 is 50.5");
}

void Digest() {
  Relation a = Spells({{"ann", 1, 5}, {"bob", 2, 6}});
  Relation b = a;
  Check(DigestRelation(a) == DigestRelation(b), "equal relations, equal digest");
  b.set_order({SortKey{"Name", true}});
  Check(DigestRelation(a) != DigestRelation(b),
        "the order annotation is part of the digest");
  Check(DigestRelation(a) !=
            DigestRelation(Spells({{"bob", 2, 6}, {"ann", 1, 5}})),
        "tuple order is part of the digest");
  Relation ints(Schema({Attribute{"x", ValueType::kInt}}));
  ints.Append(Tuple({Value::Int(1)}));
  Relation doubles(Schema({Attribute{"x", ValueType::kInt}}));
  doubles.Append(Tuple({Value::Double(1.0)}));
  Check(DigestRelation(ints) != DigestRelation(doubles),
        "value types are part of the digest");
}

void Spans() {
  tqp::Tracer tracer;
  {
    tqp::TraceSpan op(&tracer, "op", "query");
    op.Arg("op_id", uint64_t{7});
    {
      tqp::TraceSpan outer(&tracer, "opt", "enumerate");
      outer.Arg("op_id", uint64_t{7});
      tqp::TraceSpan inner(&tracer, "exec", "evaluate");
      inner.Arg("op_id", uint64_t{8});
    }
  }
  SpanReport rep = SpanReport::Build(tracer.Snapshot());
  Check(rep.foreign_spans == 1, "a span tagged with another op is counted");
  Check(rep.covered_ns <= rep.op_wall_ns, "self time never exceeds the op");
  Check(rep.self_ns_by_layer.count("opt") == 1 &&
            rep.self_ns_by_layer.count("exec") == 1,
        "self time is grouped by layer");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::ContractCheck();
  perfbench::TailHelper();
  perfbench::Digest();
  perfbench::Spans();
  if (perfbench::failures > 0) {
    std::printf("%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
