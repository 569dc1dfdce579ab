#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "core/equivalence.h"
#include "core/hash.h"
#include "core/json.h"

namespace perfbench {

using tqp::Relation;
using tqp::Value;
using tqp::ValueType;

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

void AppendValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      int64_t x = v.AsInt();
      out->append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
    case ValueType::kDouble: {
      double x = v.AsDouble();
      out->append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
    case ValueType::kString: {
      const std::string& s = v.AsString();
      uint64_t n = s.size();
      out->append(reinterpret_cast<const char*>(&n), sizeof(n));
      out->append(s);
      break;
    }
    case ValueType::kTime: {
      int64_t x = v.AsTime();
      out->append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
  }
}

// Mirrors the query service's row rendering: ints and time points as JSON
// numbers, doubles through JsonWriter, strings escaped.
void WriteRowValue(tqp::JsonWriter* w, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      w->Null();
      return;
    case ValueType::kInt:
      w->Int(v.AsInt());
      return;
    case ValueType::kDouble:
      w->Double(v.AsDouble());
      return;
    case ValueType::kString:
      w->String(v.AsString());
      return;
    case ValueType::kTime:
      w->Int(v.AsTime());
      return;
  }
}

}  // namespace

uint64_t DigestRelation(const Relation& rel) {
  std::string buf;
  for (const tqp::Attribute& a : rel.schema().attrs()) {
    buf += a.name;
    buf.push_back('\0');
    buf.push_back(static_cast<char>(a.type));
  }
  buf += "|order:" + tqp::SortSpecToString(rel.order()) + "|";
  uint64_t h = tqp::HashString(buf);
  for (const tqp::Tuple& t : rel.tuples()) {
    buf.clear();
    for (const Value& v : t.values()) AppendValue(v, &buf);
    h = tqp::HashCombine(h, tqp::HashString(buf));
  }
  return tqp::HashCombine(h, rel.size());
}

std::string RenderWireFrames(const Relation& rel, size_t batch_rows) {
  std::string out;
  {
    tqp::JsonWriter w;
    w.BeginObject();
    w.Key("type").String("schema");
    w.Key("attrs").BeginArray();
    for (const tqp::Attribute& a : rel.schema().attrs()) {
      w.BeginObject();
      w.Key("name").String(a.name);
      w.Key("type").String(tqp::ValueTypeName(a.type));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    out += w.Take();
    out.push_back('\n');
  }
  for (size_t start = 0; start < rel.size(); start += batch_rows) {
    const size_t end = std::min(rel.size(), start + batch_rows);
    tqp::JsonWriter w;
    w.BeginObject();
    w.Key("type").String("batch");
    w.Key("rows").BeginArray();
    for (size_t i = start; i < end; ++i) {
      w.BeginArray();
      for (const Value& v : rel.tuple(i).values()) WriteRowValue(&w, v);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
    out += w.Take();
    out.push_back('\n');
  }
  return out;
}

bool SatisfiesContract(const tqp::QueryContract& contract, const Relation& base,
                       const Relation& result) {
  switch (contract.result_type) {
    case tqp::ResultType::kList:
      return tqp::EquivalentAsMultisets(base, result) &&
             tqp::EquivalentAsListsOn(contract.order_by, base, result);
    case tqp::ResultType::kMultiset:
      return tqp::EquivalentAsMultisets(base, result);
    case tqp::ResultType::kSet:
      return tqp::EquivalentAsSets(base, result);
  }
  return false;
}

namespace {

// 1-based nearest rank ceil(p/100 · n), immune to rounding of p/100 · n.
size_t NearestRank(double p, size_t n) {
  return static_cast<size_t>(std::ceil(p * static_cast<double>(n) / 100.0 -
                                       1e-9));
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = NearestRank(p, samples.size());
  rank = std::max<size_t>(1, std::min(rank, samples.size()));
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double TailPercentileFor(size_t n) {
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    const size_t rank = NearestRank(p, n);
    if (rank >= 1 && rank <= n && n - rank >= 10) return p;
  }
  return 0.0;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + tqp::JsonEscape(m.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + tqp::JsonEscape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

void AddProfileSelfNs(const tqp::ProfileNode& node,
                      std::map<std::string, uint64_t>* by_kind) {
  (*by_kind)[node.kind] += node.SelfNs();
  for (const tqp::ProfileNode& child : node.children) {
    AddProfileSelfNs(child, by_kind);
  }
}

SpanReport SpanReport::Build(const std::vector<tqp::TraceEvent>& events) {
  SpanReport out;
  std::unordered_map<uint64_t, size_t> by_id;
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (size_t i = 0; i < events.size(); ++i) {
    by_id[events[i].id] = i;
    if (events[i].parent != 0) child_ns[events[i].parent] += events[i].dur_ns;
  }
  auto op_id = [](const tqp::TraceEvent& ev) -> std::string {
    for (const auto& [key, value] : ev.args) {
      if (std::strcmp(key, "op_id") == 0) return value;
    }
    return "";
  };
  for (const tqp::TraceEvent& ev : events) {
    // Walk up to the enclosing "op" root span.
    const tqp::TraceEvent* root = &ev;
    while (root->parent != 0) {
      auto it = by_id.find(root->parent);
      if (it == by_id.end()) break;
      root = &events[it->second];
    }
    if (std::strcmp(root->cat, "op") != 0) continue;
    const uint64_t children = child_ns[ev.id];
    const uint64_t self = ev.dur_ns > children ? ev.dur_ns - children : 0;
    if (&ev == root) {
      out.op_wall_ns += ev.dur_ns;
      continue;
    }
    if (op_id(ev) != op_id(*root)) ++out.foreign_spans;
    out.covered_ns += self;
    out.self_ns_by_span[std::string(ev.cat) + "." + ev.name] += self;
    out.self_ns_by_layer[ev.cat] += self;
  }
  return out;
}

}  // namespace perfbench
