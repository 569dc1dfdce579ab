#include "backend/sqlite_backend.h"

#ifdef TQP_HAVE_SQLITE3

#include <sqlite3.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "backend/sql_serializer.h"
#include "core/hash.h"
#include "exec/evaluator.h"

namespace tqp {

namespace {

// Window functions (ROW_NUMBER) arrived in 3.25.0; the serializer's list
// semantics depend on them.
constexpr int kMinSqliteVersion = 3025000;

const char* SqlType(ValueType t) {
  switch (t) {
    case ValueType::kInt:
    case ValueType::kTime:
      return " INTEGER";
    case ValueType::kDouble:
      return " REAL";
    case ValueType::kString:
      return " TEXT";
    case ValueType::kNull:
      return "";  // no affinity; the column only ever holds NULLs
  }
  return "";
}

/// Binds `v` to parameter `idx` of `st`. A NaN is never bound: SQLite
/// would store it as NULL, where the stratum keeps a NaN (which compares
/// equal to every number).
Status BindValue(sqlite3* db, sqlite3_stmt* st, int idx, const Value& v) {
  int rc = SQLITE_MISUSE;
  switch (v.type()) {
    case ValueType::kNull:
      rc = sqlite3_bind_null(st, idx);
      break;
    case ValueType::kInt:
      rc = sqlite3_bind_int64(st, idx, v.AsInt());
      break;
    case ValueType::kTime:
      rc = sqlite3_bind_int64(st, idx, v.AsTime());
      break;
    case ValueType::kDouble:
      if (std::isnan(v.AsDouble())) {
        return Status::Error("sqlite bind: NaN would be stored as NULL");
      }
      rc = sqlite3_bind_double(st, idx, v.AsDouble());
      break;
    case ValueType::kString:
      rc = sqlite3_bind_text(st, idx, v.AsString().c_str(),
                             static_cast<int>(v.AsString().size()),
                             SQLITE_TRANSIENT);
      break;
  }
  if (rc != SQLITE_OK) {
    return Status::Error(std::string("sqlite bind: ") + sqlite3_errmsg(db));
  }
  return Status::OK();
}

/// True iff a tuple of `rows` from position `from` on holds a NaN double,
/// which the mirror cannot store (BindValue).
bool HoldsNaN(const Relation& rows, size_t from) {
  for (size_t r = from; r < rows.size(); ++r) {
    for (const Value& v : rows.tuple(r).values()) {
      if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) {
        return true;
      }
    }
  }
  return false;
}

/// True iff `plan` scans a relation of `unmirrored` (name -> the digest it
/// was left out of the mirror at) in the version `catalog` holds.
bool ScansUnmirrored(const PlanPtr& plan, const Catalog& catalog,
                     const std::map<std::string, uint64_t>& unmirrored) {
  if (plan->kind() == OpKind::kScan) {
    auto it = unmirrored.find(plan->rel_name());
    return it != unmirrored.end() &&
           it->second == catalog.relation_digest(plan->rel_name());
  }
  for (const PlanPtr& c : plan->children()) {
    if (ScansUnmirrored(c, catalog, unmirrored)) return true;
  }
  return false;
}

Value DecodeColumn(sqlite3_stmt* st, int i, ValueType t) {
  if (sqlite3_column_type(st, i) == SQLITE_NULL) return Value::Null();
  switch (t) {
    case ValueType::kInt:
      return Value::Int(sqlite3_column_int64(st, i));
    case ValueType::kTime:
      return Value::Time(sqlite3_column_int64(st, i));
    case ValueType::kDouble:
      return Value::Double(sqlite3_column_double(st, i));
    case ValueType::kString: {
      // By length, not as a C string: a bound string may hold NUL bytes.
      // (The bytes are read after the text, as SQLite asks.)
      const char* text =
          reinterpret_cast<const char*>(sqlite3_column_text(st, i));
      return Value::String(std::string(
          text, static_cast<size_t>(sqlite3_column_bytes(st, i))));
    }
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

/// `id` as a quoted SQL identifier.
std::string QuoteIdent(const std::string& id) {
  std::string out = "\"";
  for (char c : id) {
    out += c;
    if (c == '"') out += '"';
  }
  return out + "\"";
}

// tqp_meta keys of the per-relation mirror records.
const char kRecordPrefix[] = "mirror:";
constexpr size_t kRecordPrefixLen = sizeof(kRecordPrefix) - 1;

/// One mirrored relation: its table, and the ContentDigest and row count of
/// the tuple list the table holds (rowid = list position). Persisted in
/// tqp_meta as "<version> <table> <digest hex> <rows>" under
/// "mirror:<name>".
struct MirrorRecord {
  std::string table;
  uint64_t digest = 0;
  size_t rows = 0;
};

/// The record format's version. Records without it were written while
/// NaNs were still bound (and stored as NULL), so their tables may not
/// hold what their digests say: DecodeRecord rejects them, and the next
/// sync reloads their relations in full, checking them for NaN.
const char kRecordVersion[] = "v2";

std::string EncodeRecord(const MirrorRecord& rec) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(rec.digest));
  return std::string(kRecordVersion) + " " + rec.table + " " + digest + " " +
         std::to_string(rec.rows);
}

bool DecodeRecord(const std::string& value, MirrorRecord* rec) {
  std::istringstream in(value);
  std::string version;
  return in >> version && version == kRecordVersion &&
         in >> rec->table >> std::hex >> rec->digest >> std::dec >> rec->rows;
}

}  // namespace

struct SqliteBackend::Impl {
  sqlite3* db = nullptr;
  // One statement at a time: sqlite connections are not meant for
  // concurrent statement execution, and a single coarse lock keeps the
  // backend trivially TSan-clean under the multi-tenant engine.
  mutable std::mutex mu;
  /// Committed mirror state by relation name; changed only after COMMIT.
  std::map<std::string, MirrorRecord> mirrored;
  /// DBMS-site relations kept out of the mirror because they hold a NaN
  /// double, by name, with the relation digest they were synced at.
  std::map<std::string, uint64_t> unmirrored;
  int64_t mirror_loads = 0;

  Status CreateTableLocked(const std::string& table, const Schema& schema) {
    TQP_RETURN_IF_ERROR(
        ExecLocked("DROP TABLE IF EXISTS " + QuoteIdent(table)));
    std::string sql = "CREATE TABLE " + QuoteIdent(table) + " (";
    for (size_t i = 0; i < schema.size(); ++i) {
      if (i) sql += ", ";
      sql += "c" + std::to_string(i) + SqlType(schema.attr(i).type);
    }
    sql += ")";
    return ExecLocked(sql);
  }

  /// Appends the tuples of `rows` from position `from` on.
  Status LoadLocked(const std::string& table, const Relation& rows,
                    size_t from = 0) {
    std::string sql = "INSERT INTO " + QuoteIdent(table) + " VALUES (";
    for (size_t i = 0; i < rows.schema().size(); ++i) {
      sql += i ? ", ?" : "?";
    }
    sql += ")";
    sqlite3_stmt* st = nullptr;
    if (sqlite3_prepare_v2(db, sql.c_str(), -1, &st, nullptr) != SQLITE_OK) {
      return Status::Error(std::string("sqlite prepare: ") +
                           sqlite3_errmsg(db));
    }
    for (size_t r = from; r < rows.size(); ++r) {
      const Tuple& t = rows.tuple(r);
      for (size_t i = 0; i < t.size(); ++i) {
        Status bound = BindValue(db, st, static_cast<int>(i) + 1, t.at(i));
        if (!bound.ok()) {
          sqlite3_finalize(st);
          return bound;
        }
      }
      if (sqlite3_step(st) != SQLITE_DONE) {
        sqlite3_finalize(st);
        return Status::Error(std::string("sqlite insert: ") +
                             sqlite3_errmsg(db));
      }
      sqlite3_reset(st);
    }
    sqlite3_finalize(st);
    return Status::OK();
  }

  /// Runs exactly one statement: SQL holding a second one is refused, not
  /// run.
  Result<Relation> ExecuteSqlLocked(const std::string& sql,
                                    const std::vector<Value>& params,
                                    const Schema& out_schema) {
    sqlite3_stmt* st = nullptr;
    const char* tail = nullptr;
    if (sqlite3_prepare_v2(db, sql.c_str(), static_cast<int>(sql.size()),
                           &st, &tail) != SQLITE_OK) {
      return Status::Error(std::string("sqlite prepare: ") +
                           sqlite3_errmsg(db));
    }
    const bool more = std::any_of(tail, sql.c_str() + sql.size(), [](char c) {
      return !std::isspace(static_cast<unsigned char>(c));
    });
    if (st == nullptr || more) {
      sqlite3_finalize(st);
      return Status::Error("sqlite: expected exactly one statement");
    }
    for (size_t i = 0; i < params.size(); ++i) {
      Status bound = BindValue(db, st, static_cast<int>(i) + 1, params[i]);
      if (!bound.ok()) {
        sqlite3_finalize(st);
        return bound;
      }
    }
    size_t width = out_schema.size();
    Relation out(out_schema);
    int rc;
    while ((rc = sqlite3_step(st)) == SQLITE_ROW) {
      if (static_cast<size_t>(sqlite3_column_count(st)) != width) {
        sqlite3_finalize(st);
        return Status::Error("sqlite: column count mismatch");
      }
      std::vector<Value> values;
      values.reserve(width);
      for (size_t i = 0; i < width; ++i) {
        values.push_back(DecodeColumn(st, static_cast<int>(i),
                                      out_schema.attr(i).type));
      }
      out.Append(Tuple(std::move(values)));
    }
    if (rc != SQLITE_DONE) {
      Status s = Status::Error(std::string("sqlite step: ") +
                               sqlite3_errmsg(db));
      sqlite3_finalize(st);
      return s;
    }
    sqlite3_finalize(st);
    return out;
  }

  Status ExecLocked(const std::string& sql) {
    return ExecuteSqlLocked(sql, {}, Schema()).status();
  }

  /// The tables named like a mirror table ("rel_" prefix).
  Result<Relation> MirrorTablesLocked() {
    return ExecuteSqlLocked(
        "SELECT name FROM sqlite_master WHERE type='table' AND "
        "name GLOB 'rel_*'",
        {}, Schema(std::vector<Attribute>{{"name", ValueType::kString}}));
  }

  /// The (key, value) rows of the mirror records in tqp_meta.
  Result<Relation> RecordRowsLocked() {
    return ExecuteSqlLocked(
        "SELECT key, value FROM tqp_meta WHERE key GLOB 'mirror:*'", {},
        Schema(std::vector<Attribute>{{"key", ValueType::kString},
                                      {"value", ValueType::kString}}));
  }

  /// Adopts the records a file-backed database kept from an earlier
  /// process, each only if its table is still there.
  Status AdoptRecordsLocked() {
    TQP_ASSIGN_OR_RETURN(tables, MirrorTablesLocked());
    std::set<std::string> present;
    for (const Tuple& t : tables.tuples()) present.insert(t.at(0).AsString());
    TQP_ASSIGN_OR_RETURN(rows, RecordRowsLocked());
    for (const Tuple& t : rows.tuples()) {
      const std::string name = t.at(0).AsString().substr(kRecordPrefixLen);
      MirrorRecord rec;
      if (DecodeRecord(t.at(1).AsString(), &rec) &&
          rec.table == SqlSerializer::MirrorTable(name) &&
          present.count(rec.table) > 0) {
        mirrored[name] = rec;
      }
    }
    return Status::OK();
  }

  Status PutRecordLocked(const std::string& name, const MirrorRecord& rec) {
    return ExecuteSqlLocked(
               "INSERT OR REPLACE INTO tqp_meta (key, value) VALUES (?, ?)",
               {Value::String(kRecordPrefix + name),
                Value::String(EncodeRecord(rec))},
               Schema())
        .status();
  }

  /// Drops every mirror table and record that `keep` does not list: those
  /// of relations gone from the DBMS site, and leftovers of an earlier
  /// process or of a failed sync.
  Status SweepLocked(const std::map<std::string, MirrorRecord>& keep) {
    std::set<std::string> kept_tables;
    for (const auto& [name, rec] : keep) kept_tables.insert(rec.table);
    TQP_ASSIGN_OR_RETURN(tables, MirrorTablesLocked());
    for (const Tuple& t : tables.tuples()) {
      const std::string& table = t.at(0).AsString();
      if (kept_tables.count(table) == 0) {
        TQP_RETURN_IF_ERROR(ExecLocked("DROP TABLE " + QuoteIdent(table)));
      }
    }
    TQP_ASSIGN_OR_RETURN(records, RecordRowsLocked());
    for (const Tuple& t : records.tuples()) {
      const std::string& key = t.at(0).AsString();
      if (keep.count(key.substr(kRecordPrefixLen)) == 0) {
        TQP_RETURN_IF_ERROR(
            ExecuteSqlLocked("DELETE FROM tqp_meta WHERE key = ?",
                             {Value::String(key)}, Schema())
                .status());
      }
    }
    return Status::OK();
  }
};

bool SqliteBackend::Available() {
  return sqlite3_libversion_number() >= kMinSqliteVersion;
}

SqliteBackend::SqliteBackend() : impl_(new Impl()) {}

SqliteBackend::~SqliteBackend() {
  if (impl_ != nullptr && impl_->db != nullptr) sqlite3_close(impl_->db);
}

Result<std::unique_ptr<SqliteBackend>> SqliteBackend::Open(
    const std::string& db_path) {
  if (!Available()) {
    return Status::Error("system sqlite3 too old (need >= 3.25 for window "
                         "functions)");
  }
  std::string target = db_path.empty() ? ":memory:" : db_path;
  sqlite3* db = nullptr;
  int flags = SQLITE_OPEN_READWRITE | SQLITE_OPEN_CREATE |
              SQLITE_OPEN_FULLMUTEX;
  if (sqlite3_open_v2(target.c_str(), &db, flags, nullptr) != SQLITE_OK) {
    std::string msg = db != nullptr ? sqlite3_errmsg(db) : "open failed";
    if (db != nullptr) sqlite3_close(db);
    return Status::Error("sqlite open '" + target + "': " + msg);
  }
  std::unique_ptr<SqliteBackend> be(new SqliteBackend());
  be->impl_->db = db;
  TQP_RETURN_IF_ERROR(be->impl_->ExecLocked(
      "CREATE TABLE IF NOT EXISTS tqp_meta (key TEXT PRIMARY KEY, value "
      "TEXT)"));
  TQP_RETURN_IF_ERROR(be->impl_->AdoptRecordsLocked());
  return be;
}

Status SqliteBackend::SyncCatalog(const Catalog& catalog) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::map<std::string, MirrorRecord>& mirrored = impl_->mirrored;
  // O(relations): a DBMS-site relation is written when its digest differs
  // from its record's (or from the digest it was left unmirrored at); a
  // record whose relation left the DBMS site is dropped.
  std::vector<std::string> changed;
  std::map<std::string, MirrorRecord> next;
  std::map<std::string, uint64_t> next_unmirrored;
  for (const std::string& name : catalog.Names()) {
    if (catalog.Find(name)->site != Site::kDbms) continue;
    const uint64_t digest = catalog.relation_digest(name);
    auto un = impl_->unmirrored.find(name);
    if (un != impl_->unmirrored.end() && un->second == digest) {
      next_unmirrored.insert(*un);
      continue;
    }
    auto it = mirrored.find(name);
    if (it == mirrored.end() || it->second.digest != digest) {
      changed.push_back(name);
    } else {
      next.insert(*it);
    }
  }
  if (changed.empty() && next.size() == mirrored.size()) {
    impl_->unmirrored = std::move(next_unmirrored);
    return Status::OK();
  }

  Status st = [&]() -> Status {
    TQP_RETURN_IF_ERROR(impl_->ExecLocked("BEGIN IMMEDIATE"));
    for (const std::string& name : changed) {
      const Relation& data = catalog.Find(name)->data;
      MirrorRecord rec{SqlSerializer::MirrorTable(name),
                       catalog.relation_digest(name), data.size()};
      // A list that extends the mirrored one only needs its new suffix;
      // anything else is reloaded.
      auto old = mirrored.find(name);
      const bool append =
          old != mirrored.end() && old->second.rows <= data.size() &&
          ContentDigest(data, old->second.rows) == old->second.digest;
      const size_t from = append ? old->second.rows : 0;
      // A mirrored prefix holds no NaN, so only the new rows are checked. A
      // relation holding one stays unmirrored, and the sweep below drops
      // its old table: no cut can read a stale copy, and the other
      // relations still sync.
      if (HoldsNaN(data, from)) {
        next_unmirrored[name] = rec.digest;
        continue;
      }
      if (!append) {
        TQP_RETURN_IF_ERROR(impl_->CreateTableLocked(rec.table, data.schema()));
      }
      TQP_RETURN_IF_ERROR(impl_->LoadLocked(rec.table, data, from));
      TQP_RETURN_IF_ERROR(impl_->PutRecordLocked(name, rec));
      next[name] = std::move(rec);
    }
    TQP_RETURN_IF_ERROR(impl_->SweepLocked(next));
    return impl_->ExecLocked("COMMIT");
  }();
  if (!st.ok()) {
    (void)impl_->ExecLocked("ROLLBACK");
    // A table this sync failed to write may not hold what its record says
    // (it was dropped behind the backend's back, say): forget the records,
    // so the next sync reloads those relations in full.
    for (const std::string& name : changed) mirrored.erase(name);
    return st;
  }
  mirrored = std::move(next);
  impl_->unmirrored = std::move(next_unmirrored);
  ++impl_->mirror_loads;
  return Status::OK();
}

bool SqliteBackend::CanPush(const PlanPtr& plan,
                            const AnnotatedPlan& ann) const {
  // The serializer refuses NaN constants; a cut over a relation the last
  // sync left unmirrored runs in the stratum. A cut that runs before that
  // sync finds no table and falls back instead.
  if (!SqlSerializer(ann).CanSerialize(plan)) return false;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->unmirrored.empty() ||
         !ScansUnmirrored(plan, ann.catalog(), impl_->unmirrored);
}

Result<Relation> SqliteBackend::ExecuteSubplan(const PlanPtr& plan,
                                               const AnnotatedPlan& ann) {
  SqlSerializer ser(ann);
  TQP_ASSIGN_OR_RETURN(ss, ser.Serialize(plan));
  return ExecuteSql(ss.sql, ss.params, ann.info(plan.get()).schema);
}

Status SqliteBackend::CreateTable(const std::string& table,
                                  const Schema& schema) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->CreateTableLocked(table, schema);
}

Status SqliteBackend::Load(const std::string& table, const Relation& rows) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->LoadLocked(table, rows);
}

Result<Relation> SqliteBackend::ExecuteSql(const std::string& sql,
                                           const std::vector<Value>& params,
                                           const Schema& out_schema) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->ExecuteSqlLocked(sql, params, out_schema);
}

int64_t SqliteBackend::mirror_loads() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->mirror_loads;
}

// ---- Calibration --------------------------------------------------------

namespace {

double TimeUs(const std::function<void()>& fn) {
  fn();  // warm-up
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    double us =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
        1000.0;
    best = std::min(best, us);
  }
  return std::max(best, 0.5);  // clock-resolution floor
}

/// Quantize a measured ratio to the nearest power of two in [1/64, 64]:
/// run-to-run timing jitter collapses to a stable bucket, so the profile
/// fingerprint (and with it plan-cache validity) is reproducible.
double QuantizeFactor(double f) {
  f = std::max(1.0 / 64.0, std::min(64.0, f));
  int e = static_cast<int>(std::lround(std::log2(f)));
  return std::ldexp(1.0, e);
}

}  // namespace

BackendCostProfile SqliteBackend::Calibrate(const EngineConfig& config) {
  BackendCostProfile p;
  p.transfer_cost_per_tuple = config.transfer_cost_per_tuple;
  for (size_t k = 0; k < kOpKindCount; ++k) {
    p.dbms_op_factor[k] = IsTemporalOp(static_cast<OpKind>(k))
                              ? config.dbms_temporal_penalty
                              : 1.0;
  }

  // Deterministic conventional probe data.
  Schema ps(std::vector<Attribute>{{"K", ValueType::kInt},
                                   {"V", ValueType::kInt},
                                   {"S", ValueType::kString}});
  Relation probe(ps);
  for (int i = 0; i < 1500; ++i) {
    Tuple t;
    t.push_back(Value::Int(i % 97));
    t.push_back(Value::Int((i * 7) % 1001));
    t.push_back(Value::String("s" + std::to_string(i % 13)));
    probe.Append(std::move(t));
  }
  Relation small(ps);
  for (int i = 0; i < 150; ++i) {
    Tuple t;
    t.push_back(Value::Int(i % 23));
    t.push_back(Value::Int((i * 11) % 311));
    t.push_back(Value::String("t" + std::to_string(i % 7)));
    small.Append(std::move(t));
  }
  if (!CreateTable("cal_probe", ps).ok() || !Load("cal_probe", probe).ok() ||
      !CreateTable("cal_small", ps).ok() || !Load("cal_small", small).ok()) {
    return p;  // probes unavailable; keep the constant model
  }

  // One representative per cost class, stratum vs backend, with the fetch
  // cost included on the backend side (that is what pushdown pays).
  struct ClassProbe {
    std::vector<OpKind> kinds;
    std::function<void()> stratum;
    std::function<void()> backend;
  };
  ExprPtr sel_pred = Expr::Compare(CompareOp::kLt, Expr::Attr("V"),
                                   Expr::Const(Value::Int(500)));
  Schema pair_schema(std::vector<Attribute>{{"K1", ValueType::kInt},
                                            {"V1", ValueType::kInt},
                                            {"S1", ValueType::kString},
                                            {"K2", ValueType::kInt},
                                            {"V2", ValueType::kInt},
                                            {"S2", ValueType::kString}});
  Schema agg_schema(std::vector<Attribute>{{"K", ValueType::kInt},
                                           {"n", ValueType::kInt},
                                           {"sv", ValueType::kInt}});
  Schema count_schema(std::vector<Attribute>{{"n", ValueType::kInt}});
  SortSpec sort_spec{{"V", true}, {"K", true}};
  std::vector<AggSpec> aggs{{AggFunc::kCount, "", "n"},
                            {AggFunc::kSum, "V", "sv"}};
  auto run_sql = [this](const std::string& sql, const Schema& out) {
    auto r = ExecuteSql(sql, {}, out);
    (void)r;
  };
  std::vector<ClassProbe> probes;
  probes.push_back(
      {{OpKind::kScan, OpKind::kSelect, OpKind::kProject, OpKind::kUnionAll},
       [&] { EvalSelect(probe, sel_pred); },
       [&] { run_sql("SELECT c0, c1, c2 FROM cal_probe WHERE c1 < 500", ps); }});
  probes.push_back(
      {{OpKind::kUnion, OpKind::kDifference, OpKind::kRdup},
       [&] { EvalRdup(probe, ps); },
       [&] {
         run_sql("SELECT c0, c1, c2 FROM cal_probe GROUP BY c0, c1, c2", ps);
       }});
  probes.push_back(
      {{OpKind::kProduct},
       [&] { EvalProduct(small, small, pair_schema); },
       [&] {
         run_sql("SELECT a.c0, a.c1, a.c2, b.c0, b.c1, b.c2 FROM cal_small "
                 "AS a, cal_small AS b",
                 pair_schema);
       }});
  probes.push_back(
      {{OpKind::kSort},
       [&] { EvalSort(probe, sort_spec); },
       [&] {
         run_sql("SELECT c0, c1, c2 FROM cal_probe ORDER BY c1, c0", ps);
       }});
  probes.push_back(
      {{OpKind::kAggregate},
       [&] {
         auto r = EvalAggregate(probe, {"K"}, aggs, agg_schema);
         (void)r;
       },
       [&] {
         run_sql("SELECT c0, COUNT(*), CAST(TOTAL(c1) AS INTEGER) FROM "
                 "cal_probe GROUP BY c0",
                 agg_schema);
       }});

  for (const ClassProbe& cp : probes) {
    double t_stratum = TimeUs(cp.stratum);
    double t_backend = TimeUs(cp.backend);
    // The cost model charges stratum work `units * stratum_cpu_factor` and
    // DBMS work `units * factor`; equal wall time therefore means
    // factor = stratum_cpu_factor * (t_backend / t_stratum).
    double f =
        QuantizeFactor(config.stratum_cpu_factor * t_backend / t_stratum);
    for (OpKind k : cp.kinds) {
      p.dbms_op_factor[static_cast<size_t>(k)] = f;
    }
  }
  (void)ExecuteSql("DROP TABLE IF EXISTS cal_probe", {}, count_schema);
  (void)ExecuteSql("DROP TABLE IF EXISTS cal_small", {}, count_schema);

  uint64_t fp = 0x5ca1e0b5;
  for (size_t k = 0; k < kOpKindCount; ++k) {
    fp = HashCombine(fp, static_cast<uint64_t>(
                             std::lround(std::log2(p.dbms_op_factor[k]) * 4)));
  }
  fp = HashCombine(fp, static_cast<uint64_t>(p.transfer_cost_per_tuple * 16));
  p.fingerprint = fp;
  p.calibrated = true;
  return p;
}

}  // namespace tqp

#else  // !TQP_HAVE_SQLITE3

namespace tqp {

struct SqliteBackend::Impl {};

bool SqliteBackend::Available() { return false; }

SqliteBackend::SqliteBackend() = default;
SqliteBackend::~SqliteBackend() = default;

Result<std::unique_ptr<SqliteBackend>> SqliteBackend::Open(
    const std::string& db_path) {
  (void)db_path;
  return Status::Error("built without sqlite3 (install libsqlite3-dev)");
}

Status SqliteBackend::SyncCatalog(const Catalog&) {
  return Status::Error("sqlite3 unavailable");
}
bool SqliteBackend::CanPush(const PlanPtr&, const AnnotatedPlan&) const {
  return false;
}
Result<Relation> SqliteBackend::ExecuteSubplan(const PlanPtr&,
                                               const AnnotatedPlan&) {
  return Status::Error("sqlite3 unavailable");
}
BackendCostProfile SqliteBackend::Calibrate(const EngineConfig&) {
  return BackendCostProfile{};
}
Status SqliteBackend::CreateTable(const std::string&, const Schema&) {
  return Status::Error("sqlite3 unavailable");
}
Status SqliteBackend::Load(const std::string&, const Relation&) {
  return Status::Error("sqlite3 unavailable");
}
Result<Relation> SqliteBackend::ExecuteSql(const std::string&,
                                           const std::vector<Value>&,
                                           const Schema&) {
  return Status::Error("sqlite3 unavailable");
}
int64_t SqliteBackend::mirror_loads() const { return 0; }

}  // namespace tqp

#endif  // TQP_HAVE_SQLITE3
