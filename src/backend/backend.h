// The stratum⇄DBMS boundary (Section 2.1/4.5) as a pluggable interface.
//
// The paper's layered architecture runs maximal conventional subplans below
// each transferS cut inside a conventional DBMS and only the temporal
// stratum work above it. A Backend is that DBMS: the stratum mirrors
// DBMS-site catalog relations into it (SyncCatalog), asks whether a cut
// subtree is expressible there (CanPush), and fetches the cut-point result
// (ExecuteSubplan) instead of evaluating the subtree itself. Table 1/Table 2
// contracts at the boundary stay enforced by the stratum: the fetched list
// must be exactly what the reference evaluator would have produced, scramble
// honesty included (see ExecuteCutPoint).
#ifndef TQP_BACKEND_BACKEND_H_
#define TQP_BACKEND_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/derivation.h"
#include "algebra/plan.h"
#include "exec/cost_model.h"

namespace tqp {

/// Selectable backend implementations (EngineOptions::backend).
enum class BackendKind {
  kSimulated,  // in-engine evaluation + scramble; the historical behavior
  kSqlite,     // SQL pushdown to an embedded SQLite database
};

const char* BackendKindName(BackendKind k);

/// A conventional DBMS below the stratum.
///
/// Implementations must be safe for concurrent use from multiple query
/// threads (the Engine shares one backend across sessions).
class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const = 0;
  const char* name() const { return BackendKindName(kind()); }

  /// Mirrors the DBMS-site relations of `catalog` into the backend, per
  /// relation and keyed on Catalog::relation_digest: a call costs
  /// O(relations) when nothing changed, a write to one relation rewrites
  /// only that relation's mirror (only its new rows after an append), and a
  /// file-backed mirror written by an earlier process is reused instead of
  /// reloaded. Called automatically before each cut-point execution; an
  /// error makes the caller evaluate the cut in-engine.
  virtual Status SyncCatalog(const Catalog& catalog) = 0;

  /// False = the engine never consults CanPush/ExecuteSubplan and evaluates
  /// every subtree itself (SimulatedBackend).
  virtual bool SupportsPushdown() const = 0;

  /// True iff the subtree rooted at `plan` can be executed natively with
  /// exact list semantics. Conservative: anything refused is evaluated
  /// in-engine, which is always correct.
  virtual bool CanPush(const PlanPtr& plan, const AnnotatedPlan& ann) const = 0;

  /// Executes the subtree natively and returns its result in the exact
  /// reference list order (before any scramble; see ExecuteCutPoint).
  virtual Result<Relation> ExecuteSubplan(const PlanPtr& plan,
                                          const AnnotatedPlan& ann) = 0;

  /// Measures per-operator backend cost behavior for the optimizer. The
  /// SimulatedBackend returns the EngineConfig constants (cost model
  /// byte-identical to the pre-backend one); real backends probe themselves.
  virtual BackendCostProfile Calibrate(const EngineConfig& config) = 0;

  // ---- Raw DBMS primitives (exercised directly by tests/examples) ----

  /// Creates (or replaces) a backend table with positional columns c0..cN-1
  /// typed after `schema`.
  virtual Status CreateTable(const std::string& table,
                             const Schema& schema) = 0;

  /// Bulk-loads tuples into a table created by CreateTable, preserving list
  /// order as the backend's stored order.
  virtual Status Load(const std::string& table, const Relation& rows) = 0;

  /// Executes one SQL statement with positional `?` parameters; rows are
  /// decoded according to `out_schema`.
  virtual Result<Relation> ExecuteSql(const std::string& sql,
                                      const std::vector<Value>& params,
                                      const Schema& out_schema) = 0;
};

/// Constructs a backend. `db_path` applies to kSqlite only: empty = private
/// in-memory database, otherwise a file-backed database whose catalog mirror
/// survives restarts. Fails if the requested backend is not available in
/// this build (e.g. kSqlite without system sqlite3).
Result<std::unique_ptr<Backend>> MakeBackend(BackendKind kind,
                                             const std::string& db_path = "");

/// True iff the subtree under a transferS cut can be fetched from `backend`.
bool CanPushCut(Backend& backend, const PlanPtr& cut, const AnnotatedPlan& ann);

/// Fetches the result of transferS(cut) through the backend, reproducing the
/// reference evaluator's list exactly — including the deterministic scramble
/// when `config.dbms_scrambles_order` (a conventional operator's output
/// multiset is order-independent, and the scramble is a pure function of
/// that multiset; top-of-cut sort chains are replayed in the stratum so
/// their DBMS-honored order survives). On error the caller falls back to
/// in-engine evaluation.
Result<Relation> ExecuteCutPoint(Backend& backend, const PlanPtr& cut,
                                 const AnnotatedPlan& ann,
                                 const EngineConfig& config);

}  // namespace tqp

#endif  // TQP_BACKEND_BACKEND_H_
