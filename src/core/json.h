// A minimal streaming JSON writer — the one serialization used everywhere a
// tqp component emits JSON: the stats ToJson() methods (ExecStats,
// EngineStats, LatencyHistogram), the service layer's response frames, and
// the bench BENCH_<name>.json metric files. One writer means the service's
// wire format and the bench artifacts cannot drift apart: both render the
// same structs through the same code.
//
// Writer only — the repo never *parses* general JSON (service requests are
// raw TQL lines; the plan-cache snapshot uses its own token format in
// service/plan_store.h), so no third-party dependency is needed.
#ifndef TQP_CORE_JSON_H_
#define TQP_CORE_JSON_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

namespace tqp {

/// Appends `s` to `*out` escaped for a JSON string literal (quotes not
/// included): `"`, `\`, \n, \r and \t get their short escapes, other
/// control characters become \u00XX, and every other byte (UTF-8 included)
/// is copied as is. Runs of bytes that need no escape are copied whole.
inline void AppendJsonEscaped(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\"", 2); break;
      case '\\': out->append("\\\\", 2); break;
      case '\n': out->append("\\n", 2); break;
      case '\r': out->append("\\r", 2); break;
      case '\t': out->append("\\t", 2); break;
      default: {
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out->append(u, sizeof(u));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

/// Escapes a string for inclusion inside a JSON string literal (quotes not
/// included). Control characters become \u00XX.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  AppendJsonEscaped(s, &out);
  return out;
}

/// Marks a stats field that ToJson() renders but PublishTo() does not publish
/// as a gauge (identity values such as a backend name or a fingerprint).
template <typename T>
struct JsonOnly {
  const T& value;
};
template <typename T>
JsonOnly(const T&) -> JsonOnly<T>;

/// Builds a JSON document into a string. Purely syntactic: the caller drives
/// Begin/End nesting; the writer only tracks where commas are needed. No
/// newlines or indentation — frames go over the wire one per line, so the
/// output must never contain a raw newline (the escaping guarantees that for
/// string payloads).
///
/// The service renders every result row through this class, so it writes
/// straight into its buffer: integers through std::to_chars, keys and
/// strings escaped in place (AppendJsonEscaped), no temporary per value.
/// Doubles go through printf's %.17g, which round-trips every double.
class JsonWriter {
 public:
  JsonWriter() { out_.reserve(256); }

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  /// Object key; must be followed by exactly one value/Begin call.
  JsonWriter& Key(std::string_view k) {
    Comma();
    out_ += '"';
    AppendJsonEscaped(k, &out_);
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view v) {
    Comma();
    out_ += '"';
    AppendJsonEscaped(v, &out_);
    out_ += '"';
    return *this;
  }
  JsonWriter& Int(int64_t v) { return Integer(v); }
  JsonWriter& Uint(uint64_t v) { return Integer(v); }
  JsonWriter& Double(double v) {
    // JSON has no inf/nan literals; clamp to null.
    if (!std::isfinite(v)) return Null();
    Comma();
    char buf[40];
    // %.17g round-trips doubles exactly (the bench files rely on that).
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& Null() {
    Comma();
    out_ += "null";
    return *this;
  }
  /// Key plus value, for the stats structs' field lists (ForEachField).
  JsonWriter& Field(const char* k, double v) { return Key(k).Double(v); }
  JsonWriter& Field(const char* k, int64_t v) { return Key(k).Int(v); }
  JsonWriter& Field(const char* k, uint64_t v) { return Key(k).Uint(v); }
  JsonWriter& Field(const char* k, const std::string& v) {
    return Key(k).String(v);
  }
  JsonWriter& Field(const char* k,
                    const std::map<std::string, int64_t>& counts) {
    Key(k).BeginObject();
    for (const auto& [name, n] : counts) Key(name).Int(n);
    return EndObject();
  }
  template <typename T>
  JsonWriter& Field(const char* k, JsonOnly<T> v) {
    return Field(k, v.value);
  }

  /// Splices a pre-rendered JSON value verbatim (e.g. a nested ToJson()).
  JsonWriter& Raw(const std::string& json) {
    Comma();
    out_ += json;
    return *this;
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <typename T>
  JsonWriter& Integer(T v) {
    Comma();
    char buf[24];  // 20 digits and a sign at most
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, static_cast<size_t>(r.ptr - buf));
    return *this;
  }
  JsonWriter& Open(char c) {
    Comma();
    out_ += c;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    need_comma_ = true;
    pending_value_ = false;
    return *this;
  }
  void Comma() {
    if (pending_value_) {
      // A value right after Key(): no comma, the key already emitted one.
      pending_value_ = false;
      return;
    }
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }

  std::string out_;
  bool need_comma_ = false;
  bool pending_value_ = false;
};

/// Renders a stats struct as one flat JSON object from its field list:
/// `stats.ForEachField(f)` calls f(name, value) once per field, in key order.
template <typename Stats>
std::string StatsToJson(const Stats& stats) {
  JsonWriter w;
  w.BeginObject();
  stats.ForEachField(
      [&w](const char* name, const auto& value) { w.Field(name, value); });
  w.EndObject();
  return w.Take();
}

}  // namespace tqp

#endif  // TQP_CORE_JSON_H_
