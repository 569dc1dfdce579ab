// SQL pushdown to an embedded SQLite database (system sqlite3).
//
// DBMS-site catalog relations are mirrored as positional tables (named by
// SqlSerializer::MirrorTable, columns c0..cN-1, rowid = list position);
// conventional cut subplans run as one serialized SQL statement each
// (sql_serializer.h).
//
// The mirror is incremental and per relation. Each mirrored relation has a
// record (table, Catalog::relation_digest, row count), kept in memory and in
// the database's tqp_meta table. SyncCatalog compares the catalog's digests
// with the records, O(relations), and in one transaction:
//  * leaves the tables of unchanged relations alone;
//  * appends only the new suffix when the first `rows` tuples of the new
//    list digest to the record (ContentDigest of a prefix);
//  * reloads any other changed relation;
//  * drops the tables of relations gone from the DBMS site.
// Records change only after COMMIT; a failed sync forgets the records of the
// relations it was writing, so the next sync reloads them in full. SQLite
// stores a bound NaN as NULL, so nothing binds one: a relation holding a
// NaN double stays out of the mirror (its old table is dropped, the other
// relations sync as usual), and CanPush refuses a cut that scans it in that
// version or compares with a NaN constant, so such cuts run in the stratum
// (counted as refusals; a cut that runs before the first sync finds no
// table and counts as a fallback). Digests, unlike catalog versions,
// identify contents across catalogs and processes: a file-backed database
// written by an earlier process is reused across restarts, reloading only
// the relations that changed meanwhile. Records carry a format version;
// those written before NaNs were kept out (NULL in a NaN's place) lack it
// and are not adopted, so their relations reload in full.
//
// Compiled against system sqlite3 when available (TQP_HAVE_SQLITE3,
// detected by CMake); otherwise Available() is false and Open() fails,
// and everything falls back to the SimulatedBackend.
#ifndef TQP_BACKEND_SQLITE_BACKEND_H_
#define TQP_BACKEND_SQLITE_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"

namespace tqp {

class SqliteBackend : public Backend {
 public:
  /// True iff this build links sqlite3 with window-function support.
  static bool Available();

  /// Opens a backend over a private in-memory database (empty path) or a
  /// file-backed one whose catalog mirror survives restarts.
  static Result<std::unique_ptr<SqliteBackend>> Open(
      const std::string& db_path = "");

  ~SqliteBackend() override;

  BackendKind kind() const override { return BackendKind::kSqlite; }
  Status SyncCatalog(const Catalog& catalog) override;
  bool SupportsPushdown() const override { return true; }
  bool CanPush(const PlanPtr& plan, const AnnotatedPlan& ann) const override;
  Result<Relation> ExecuteSubplan(const PlanPtr& plan,
                                  const AnnotatedPlan& ann) override;
  BackendCostProfile Calibrate(const EngineConfig& config) override;
  Status CreateTable(const std::string& table, const Schema& schema) override;
  Status Load(const std::string& table, const Relation& rows) override;
  Result<Relation> ExecuteSql(const std::string& sql,
                              const std::vector<Value>& params,
                              const Schema& out_schema) override;

  /// Number of SyncCatalog calls since Open that wrote to the mirror
  /// (loaded, appended to or dropped a table); a sync that found every
  /// relation unchanged does not count. Stays 0 when a file-backed mirror
  /// from an earlier process is reused unchanged.
  int64_t mirror_loads() const;

 private:
  SqliteBackend();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tqp

#endif  // TQP_BACKEND_SQLITE_BACKEND_H_
