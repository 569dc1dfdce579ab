// tqp::Engine — the concurrency-aware session facade over the whole
// pipeline.
//
// The paper's pipeline (TQL text → initial plan → Figure 5 enumeration →
// cost-based choice → layered execution) is implemented by four layers with
// four separate option structs. An Engine binds them behind one stable entry
// point and — the point of a *session* — keeps the state worth keeping
// between queries: a plan cache (LRU when bounded) keyed by the query's
// lexed token stream (or initial-plan fingerprint), so a repeated query —
// including whitespace/comment/keyword-case variants of it — skips parsing,
// enumeration, and costing entirely. An entry keeps the query's initial and
// chosen plans, the chosen plan's annotation, and the stamp of every
// relation they read (Catalog::relation_version()). One rule decides
// staleness: an entry or prepared state is current iff every relation it
// reads still carries its stamp. Stamps are process-unique, so neither an
// update nor a wholesale catalog replacement can pass for the contents a
// plan was made for — a stale plan is never served.
//
// Plan search state is not session state: each prepare runs the Figure 5
// search in a PlanInterner and DerivationCache of its own, which die with
// the call, so the plan space of one query never outlives it. Cache warmth
// is an optimization only: a warm Engine returns byte-identical relations,
// the same chosen-plan fingerprints, and the same costs as a cold one, and
// as the hand-wired CompileQuery + Optimize + Evaluate pipeline (enforced by
// tests/test_api_engine.cc and bench/bench_engine_warm.cc).
//
// Concurrency: one Engine serves any number of threads over its one shared
// catalog. Queries hold the catalog lock shared for their whole duration;
// MutateCatalog takes it exclusively, so every query sees one consistent
// catalog version and stale state is never served mid-mutation. The plan
// cache and counters sit behind one mutex, each query's search state is
// its own, and EngineOptions::max_concurrent_queries bounds how many
// expensive pipeline runs are in flight at once (a counting semaphore;
// excess callers queue), so heavy traffic degrades gracefully instead of
// thrashing. Individual
// PreparedQuery handles are not thread-safe objects — give each thread its
// own handle (they share the immutable prepared state).
//
// Usage:
//   Engine engine(std::move(catalog));
//   TQP_ASSIGN_OR_RETURN(result, engine.Query("SELECT ..."));      // one-shot
//   TQP_ASSIGN_OR_RETURN(prepared, engine.Prepare("SELECT ..."));  // repeated
//   for (...) { auto r = prepared.Execute(); ... }
#ifndef TQP_API_ENGINE_H_
#define TQP_API_ENGINE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/backend.h"
#include "core/json.h"
#include "core/sync.h"
#include "exec/evaluator.h"
#include "opt/optimizer.h"
#include "tql/translator.h"
#include "vexec/vexec.h"

namespace tqp {

class LatencyHistogram;
class MetricCounter;
class MetricsRegistry;
class Tracer;

/// Which physical executor runs chosen plans.
enum class ExecutorKind {
  /// The row-at-a-time reference evaluator (exec/evaluator.h). The default:
  /// every byte-identity check predates the vectorized engine and keeps
  /// running against it unchanged.
  kReference,
  /// The columnar batch engine (vexec/vexec.h). List-identical to the
  /// reference by contract (tests/test_vexec.cc) and >= 5x faster on large
  /// inputs (bench_vexec_pipeline).
  kVectorized,
};

/// The unified option set, subsuming the per-layer structs. One EngineConfig
/// and one CardinalityParams drive the plan search, plan choice, and
/// execution alike (`enumeration.cost_engine`/`.cardinality` are overridden
/// by the unified fields, exactly as OptimizerOptions always did).
struct EngineOptions {
  EngineOptions();

  /// TQL → initial plan (layered architecture on/off).
  TranslatorOptions translator;
  /// Figure 5 search knobs. Two defaults differ from the bare
  /// EnumerationOptions, which stay the paper's exhaustive breadth-first
  /// order for the reproduction tests and benches: `strategy` is kBestFirst,
  /// the cost-directed search that stops once its work outweighs the best
  /// plan's estimated cost (SearchStrategy::kBestFirst; `max_plans` still
  /// caps it), and `fill_canonical` is OFF — the facade never asserts on
  /// canonical strings. Each query's search runs serially on its calling
  /// thread, in an interner and derivation cache of its own.
  EnumerationOptions enumeration;
  /// Cost model + simulated execution environment.
  EngineConfig engine;
  /// Cardinality estimation parameters.
  CardinalityParams cardinality;
  /// Transformation rule catalogue.
  std::vector<Rule> rules;
  /// Bound on plan-cache entries; the least-recently-used entry is evicted
  /// beyond it (stats().plan_cache_evictions counts them). 0 (default) =
  /// unbounded, the pre-bound behavior.
  size_t plan_cache_capacity = 0;
  /// Admission control: at most this many queries inside the expensive
  /// sections (full prepare pipelines, plan evaluation) at once; excess
  /// callers block on a semaphore until a permit frees. A plan-cache hit
  /// skips the gate at *prepare* time (Prepare of a warm query returns
  /// instantly even when the gate is saturated); Execute's evaluation is
  /// always gated — it is per-query work that must degrade gracefully too.
  /// 0 (default) = unlimited.
  size_t max_concurrent_queries = 0;
  /// Physical executor for Execute()/Query(). Both produce list-identical
  /// relations; kVectorized additionally fills the ExecStats vec_* batch
  /// counters surfaced in QueryResult::exec.
  ExecutorKind executor = ExecutorKind::kReference;
  /// Rows per column batch when executor == kVectorized.
  size_t vexec_batch_size = 1024;
  /// Worker threads of the vectorized executor's morsel scheduler
  /// (VexecOptions::threads). 1 (default) = the serial code path; any
  /// thread count produces byte-identical results.
  size_t vexec_threads = 1;
  /// Unread: the vectorized executor runs every operator in memory (see
  /// VexecOptions). Kept only because the repository benchmark's harness
  /// still sets it; it goes once the harness stops.
  uint64_t vexec_memory_budget = 0;
  /// Which DBMS implements the layer below the stratum. kSimulated (the
  /// default) keeps the historical in-engine evaluation with the
  /// deterministic scramble; kSqlite runs maximal conventional subplans
  /// under each transferS cut as SQL (backend/sqlite_backend.h). Both
  /// executors fetch cut results through the same Backend interface; a
  /// backend that cannot run a subtree leaves it to in-engine evaluation,
  /// so results are byte-identical across backends. If the requested
  /// backend cannot be constructed (e.g. kSqlite in a build without
  /// sqlite3), the Engine falls back to kSimulated.
  BackendKind backend = BackendKind::kSimulated;
  /// kSqlite only: empty = a private in-memory database; otherwise a
  /// database file whose catalog mirror survives and is reused across
  /// process restarts.
  std::string backend_db_path;
  /// Probe the backend's per-operator cost behavior at construction and
  /// feed the measured profile to the optimizer's cost model
  /// (EngineConfig::calibration), letting it *choose* transfer placements
  /// that exploit a fast backend. The SimulatedBackend's profile reproduces
  /// the constant model exactly, so calibration never changes plans there.
  bool calibrate_backend = false;
  /// Incremental prepared-query re-execution: keep a subplan result cache
  /// (exec/result_cache.h) keyed on relation stamps and shared across this
  /// Engine's sessions. Both executors probe it at transfer/root cut
  /// points; when the catalog restamps one relation, only subplans
  /// transitively reading it recompute — everything else splices its
  /// cached, byte-identical result. Off (default) = no cache exists and
  /// execution is unchanged.
  bool incremental_execution = false;
  /// Byte bound of the subplan result cache (least-recently-used results
  /// evicted beyond it). 0 = a 64 MiB default. Ignored unless
  /// incremental_execution is on.
  uint64_t result_cache_bytes = 0;
  /// Slow-query log: a query whose executor wall time reaches this threshold
  /// is recorded — text, plan fingerprint, wall time, top-3 hottest
  /// operators by self time — in a bounded in-memory log
  /// (Engine::slow_queries()) and counted in EngineStats::slow_queries.
  /// Arming the log forces profiling for every query (that is where
  /// "hottest" comes from). 0 (default) = off.
  double slow_query_threshold_ms = 0.0;
};

/// Per-call observability opt-ins for Engine::Query and
/// PreparedQuery::Execute.
struct QueryRunOptions {
  /// Record a span tree for this call; the rendered Chrome trace JSON is
  /// returned in QueryResult::trace_json.
  bool trace = false;
  /// Collect the per-operator profile tree in QueryResult::profile.
  bool profile = false;
};

/// Everything one query execution returns: the relation plus execution and
/// optimizer telemetry.
struct QueryResult {
  Relation relation;
  /// Execution statistics of this query's evaluation: simulated work by
  /// site, transfer volume, tuples produced, per-operator counts, and — on
  /// the vectorized executor — the vec_* batch/materialization counters.
  /// Filled per query and returned to the caller, never dropped.
  ExecStats exec;
  /// Optimizer telemetry for this query's plan.
  double best_cost = 0.0;
  double initial_cost = 0.0;
  size_t plans_considered = 0;
  bool truncated = false;
  std::vector<std::string> derivation;
  /// Structural fingerprint of the executed (chosen) plan.
  uint64_t plan_fingerprint = 0;
  /// True iff the plan came from the session plan cache (no enumeration ran).
  bool plan_cache_hit = false;
  /// Executor wall time of this query's evaluation (always measured).
  uint64_t exec_wall_ns = 0;
  /// Per-operator profile tree of the executed plan — the EXPLAIN ANALYZE
  /// data: inclusive/self wall time, rows in/out, vexec batch counts,
  /// result-cache and backend-pushdown flags (render with PrintProfile or
  /// ProfileNode::ToJson). Null unless QueryRunOptions::profile was set.
  std::shared_ptr<const ProfileNode> profile;
  /// Chrome trace_event JSON of this query's spans; empty unless
  /// QueryRunOptions::trace was set.
  std::string trace_json;
};

/// Session counters, for observability and the warm-path benches.
struct EngineStats {
  /// Full compile+optimize pipelines actually run.
  uint64_t prepares = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// LRU evictions forced by EngineOptions::plan_cache_capacity.
  uint64_t plan_cache_evictions = 0;
  /// Plan-cache entries evicted because a catalog mutation restamped one of
  /// the relations their plans read. Invalidation is keyed on each entry's
  /// relation-dependency set: updating relation A never evicts (or
  /// re-prepares) a plan reading only B.
  uint64_t plan_cache_stale_evictions = 0;
  /// Catalog changes reconciled with the plan cache: each time the
  /// catalog's version moved, the entries whose relations were restamped
  /// were evicted.
  uint64_t invalidations = 0;
  /// Highest number of queries simultaneously inside the admission-gated
  /// sections since construction; with max_concurrent_queries = N this
  /// never exceeds N.
  uint64_t peak_concurrent_queries = 0;
  size_t plan_cache_entries = 0;
  /// Plan-search totals summed over this engine's prepares: the distinct
  /// nodes each query's interner held when its search ended, the Intern()
  /// visits it resolved to an existing node, and its derivation-cache
  /// entries. The tables themselves die with each prepare.
  size_t interner_nodes = 0;
  size_t interner_hits = 0;
  size_t derivation_nodes = 0;
  /// Plan-cache entries installed from a persisted snapshot
  /// (Engine::ImportPlanCache), e.g. by the service layer's warm start.
  uint64_t plan_cache_imports = 0;

  /// Backend identity and lifetime execution counters: the active backend's
  /// name, cut subplans pushed down to it, rows fetched across the
  /// stratum⇄DBMS boundary, runtime pushdown fallbacks (all summed over
  /// every query), and the calibrated cost profile's fingerprint (0 =
  /// uncalibrated constant model).
  std::string backend_name = "simulated";
  uint64_t backend_pushdowns = 0;
  uint64_t backend_rows = 0;
  uint64_t backend_fallbacks = 0;
  /// Pushdown-eligible cuts the serializer refused before execution (the
  /// backend never saw them), as opposed to backend_fallbacks, which counts
  /// cuts the backend accepted and then failed at runtime. Summed over every
  /// query from ExecStats::backend_refusals.
  uint64_t backend_refusals = 0;
  uint64_t calibration_fingerprint = 0;
  /// Queries whose executor wall time reached
  /// EngineOptions::slow_query_threshold_ms (0 while the log is unarmed).
  uint64_t slow_queries = 0;

  /// Subplan result-cache lifetime counters (EngineOptions::
  /// incremental_execution), read straight from the shared cache: probe
  /// outcomes across every session, LRU evictions, and current occupancy.
  /// All 0 when incremental execution is off.
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t result_cache_evictions = 0;
  uint64_t result_cache_entries = 0;
  uint64_t result_cache_bytes = 0;

  /// Every field once, in rendering order: f(name, value). The backend
  /// name and calibration fingerprint are JSON-only identity fields.
  template <typename F>
  void ForEachField(F&& f) const {
    f("prepares", prepares);
    f("plan_cache_hits", plan_cache_hits);
    f("plan_cache_misses", plan_cache_misses);
    f("plan_cache_evictions", plan_cache_evictions);
    f("plan_cache_stale_evictions", plan_cache_stale_evictions);
    f("plan_cache_imports", plan_cache_imports);
    f("invalidations", invalidations);
    f("peak_concurrent_queries", peak_concurrent_queries);
    f("plan_cache_entries", plan_cache_entries);
    f("interner_nodes", interner_nodes);
    f("interner_hits", interner_hits);
    f("derivation_nodes", derivation_nodes);
    f("backend", JsonOnly{backend_name});
    f("backend_pushdowns", backend_pushdowns);
    f("backend_rows", backend_rows);
    f("backend_fallbacks", backend_fallbacks);
    f("backend_refusals", backend_refusals);
    f("calibration_fingerprint", JsonOnly{calibration_fingerprint});
    f("slow_queries", slow_queries);
    f("result_cache_hits", result_cache_hits);
    f("result_cache_misses", result_cache_misses);
    f("result_cache_evictions", result_cache_evictions);
    f("result_cache_entries", result_cache_entries);
    f("result_cache_bytes", result_cache_bytes);
  }

  /// One flat JSON object with every counter above — the rendering the
  /// service's \stats command and the bench JSON both embed.
  std::string ToJson() const;

  /// Publishes every counter above into `registry` as tqp_engine_* gauges.
  /// Gauges are *set*, not accumulated, so republishing the same snapshot is
  /// idempotent — callers refresh on demand (the service does it per
  /// \metrics request).
  void PublishTo(MetricsRegistry* registry) const;
};

/// One slow-query log entry (EngineOptions::slow_query_threshold_ms).
struct SlowQueryRecord {
  /// Original TQL text; empty for plan-keyed preparations.
  std::string text;
  /// Structural fingerprint of the executed plan.
  uint64_t plan_fingerprint = 0;
  /// Executor wall time of the slow run.
  uint64_t wall_ns = 0;
  /// Up to three hottest operators by self time, hottest first:
  /// {operator kind, self nanoseconds}.
  std::vector<std::pair<std::string, uint64_t>> hottest;
};

/// One plan-cache entry in exported form: everything needed to reinstall a
/// PreparedQuery state into another Engine serving the same catalog. The
/// service layer's plan store serializes these across restarts.
struct PlanCacheEntry {
  /// Cache key ("#tql:..." token-stream key or "#plan:..." fingerprint key).
  std::string key;
  /// Original query text; empty for plan-keyed preparations.
  std::string text;
  QueryContract contract;
  PlanPtr initial_plan;
  PlanPtr best_plan;
  double best_cost = 0.0;
  double initial_cost = 0.0;
  size_t plans_considered = 0;
  bool truncated = false;
  std::vector<std::string> derivation;
};

/// A point-in-time export of an Engine's plan cache, valid only for the
/// catalog contents it was taken under. Relation stamps mean nothing in
/// another process, so the snapshot keys on content alone.
struct PlanCacheSnapshot {
  /// Content summary of the catalog at export time: every relation's name,
  /// ContentDigest, cardinality, property flags, declared order and site.
  /// Import rejects the snapshot wholesale when it differs from the live
  /// catalog's.
  uint64_t catalog_fingerprint = 0;
  /// Backend the exporter ran: cached best plans and costs were chosen for
  /// this backend (and, when calibrated, for this measured cost profile).
  /// Import rejects wholesale on a mismatch with the importing Engine —
  /// plans optimized for a different backend are stale in the same way
  /// plans for a different catalog are.
  std::string backend_kind;
  /// Fingerprint of the exporter's calibrated cost profile (0 =
  /// uncalibrated constant model; checked like backend_kind).
  uint64_t calibration_fingerprint = 0;
  /// Entries in least- to most-recently-used order, so importing them in
  /// sequence reproduces the exporter's LRU recency.
  std::vector<PlanCacheEntry> entries;
};

class Engine;
class SubplanResultCache;

/// A compiled-and-optimized query bound to its Engine. Cheap to copy (shared
/// immutable state); must not outlive the Engine. Execute() re-prepares
/// transparently if a relation the query reads was restamped since
/// preparation, so a PreparedQuery can be held across catalog mutations
/// without ever running a stale plan. One handle serves one thread; copies
/// are independent.
class PreparedQuery {
 public:
  /// Evaluates the chosen plan against the Engine's catalog.
  Result<QueryResult> Execute();

  /// Same, with per-call tracing/profiling opt-ins (QueryResult::trace_json
  /// and ::profile). The trace covers the execution only — prepare already
  /// happened; Engine::Query(text, run) traces the whole lifecycle.
  Result<QueryResult> Execute(const QueryRunOptions& run);

  const PlanPtr& initial_plan() const;
  const PlanPtr& best_plan() const;
  /// Structural fingerprint of the chosen plan.
  uint64_t fingerprint() const;
  double best_cost() const;
  double initial_cost() const;
  size_t plans_considered() const;
  const std::vector<std::string>& derivation() const;
  const QueryContract& contract() const;
  /// True iff this preparation was served from the plan cache.
  bool from_cache() const { return from_cache_; }

 private:
  friend class Engine;
  struct State;
  PreparedQuery(Engine* engine, std::shared_ptr<const State> state,
                bool from_cache)
      : engine_(engine), state_(std::move(state)), from_cache_(from_cache) {}

  /// The shared implementation behind both Execute overloads and
  /// Engine::Query's traced path. `external` (may be null) is a caller-owned
  /// Tracer whose events already cover prepare; when set, this call appends
  /// its execution spans there and renders the combined trace.
  Result<QueryResult> ExecuteRun(const QueryRunOptions& run, Tracer* external);

  Engine* engine_;
  std::shared_ptr<const State> state_;
  bool from_cache_;
};

/// The facade. Owns the catalog, the plan cache and the result cache; safe
/// for concurrent use by any number of threads. Every query also publishes
/// per-query counters (tqp_queries_total, tqp_query_rows_total,
/// tqp_query_latency_us, tqp_slow_queries_total) into
/// MetricsRegistry::Global(): a handful of relaxed atomics per query, never
/// per row.
class Engine {
 public:
  explicit Engine(Catalog catalog, EngineOptions options = EngineOptions());
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Direct read access to the catalog. Unsynchronized: only safe while no
  /// concurrent MutateCatalog can run — e.g. single-threaded use, or
  /// quiescent points between traffic. Queries themselves never need this;
  /// they read the catalog under the engine's internal lock.
  const Catalog& catalog() const { return catalog_; }
  /// Applies `mutation` to the catalog under the engine's exclusive lock:
  /// it waits for in-flight queries to drain, runs the mutation, and lets
  /// traffic resume. The mutation may update, drop or register relations,
  /// or assign a whole new catalog: every relation it changes carries a
  /// fresh stamp, so the next query evicts exactly the plans that read one
  /// and re-prepares against the new contents, and outstanding
  /// PreparedQuery handles re-prepare on their next Execute() (a query
  /// whose relation is gone returns a clean error). The only way to change
  /// an Engine's catalog; safe to call from any thread at any time.
  Status MutateCatalog(const std::function<Status(Catalog&)>& mutation);
  const EngineOptions& options() const { return options_; }

  /// Compiles and optimizes `text` once; Execute() the result any number of
  /// times. Served from the plan cache when possible; the cache is keyed on
  /// the lexed token stream, so whitespace/comment/keyword-case variants of
  /// one query share an entry.
  Result<PreparedQuery> Prepare(const std::string& text);

  /// Same for a hand-built initial plan + contract (no TQL involved). The
  /// plan cache keys these by the initial plan's structural fingerprint;
  /// hits are confirmed structurally before being served. A plan deeper
  /// than kMaxPlanDepth is InvalidArgument, as is (for either Prepare) a
  /// chosen plan that a rewrite took past it.
  Result<PreparedQuery> Prepare(const PlanPtr& initial,
                                const QueryContract& contract);

  /// One-shot: Prepare + Execute.
  Result<QueryResult> Query(const std::string& text);

  /// One-shot with observability opt-ins. With `run.trace` the span tree
  /// covers the full lifecycle — plan-cache probe, parse/translate,
  /// enumeration, costing, and per-operator execution — in one Chrome trace
  /// (QueryResult::trace_json); `run.profile` fills QueryResult::profile.
  Result<QueryResult> Query(const std::string& text,
                            const QueryRunOptions& run);

  /// Parses and translates only (no optimization, no caching of the result).
  Result<TranslatedQuery> Compile(const std::string& text) const;

  /// Enumerates the full equivalent-plan space of `text` — the facade behind
  /// examples/plan_explorer — in an interner and derivation cache of this
  /// call's own, so the result's plans are the only search state that
  /// survives it. `options.cardinality` and `options.cost_engine` are
  /// overridden by the Engine's unified models, as for Prepare.
  Result<EnumerationResult> Enumerate(const std::string& text,
                                      EnumerationOptions options);

  /// Session counters: the plan cache, the plan-search totals, the backend
  /// and the result cache.
  EngineStats stats() const;

  /// The slow-query log, oldest first (EngineOptions::
  /// slow_query_threshold_ms; bounded — the oldest entries fall off).
  /// Empty while the threshold is 0.
  std::vector<SlowQueryRecord> slow_queries() const;

  /// Exports every current plan-cache entry (LRU → MRU order) together
  /// with the content fingerprint of the catalog they are valid for. The
  /// service layer persists the result across restarts
  /// (service/plan_store.h). Waits for no one: concurrent queries keep
  /// running; the export is a consistent snapshot under the engine's locks.
  PlanCacheSnapshot ExportPlanCache() const;

  /// Installs a previously exported snapshot into this engine's plan cache,
  /// returning the number of entries installed. A snapshot whose catalog
  /// fingerprint, backend or calibration differs from this engine's is
  /// rejected wholesale (returns 0) — stale plans are never imported. An
  /// entry whose initial plan reads a relation the live catalog lacks, or
  /// whose chosen plan does not annotate against it, is skipped. Imported
  /// entries are stamped with the live catalog's stamps; LRU capacity
  /// applies as usual.
  size_t ImportPlanCache(const PlanCacheSnapshot& snapshot);

  /// The live backend (never null; kSimulated when the requested backend
  /// could not be constructed). Exposed for tests and examples that inspect
  /// backend state (e.g. SqliteBackend::mirror_loads).
  Backend* backend() const { return backend_.get(); }
  /// The calibrated cost profile in effect (calibrated == false when
  /// EngineOptions::calibrate_backend was off).
  const BackendCostProfile& calibration() const { return calibration_; }

 private:
  friend class PreparedQuery;

  struct LruEntry {
    std::string key;
    std::shared_ptr<const PreparedQuery::State> state;
  };
  using LruList = std::list<LruEntry>;

  /// RAII admission ticket: takes a semaphore permit (when configured) and
  /// tracks the in-flight peak for stats().
  class AdmissionTicket {
   public:
    explicit AdmissionTicket(Engine* engine);
    ~AdmissionTicket();
    AdmissionTicket(const AdmissionTicket&) = delete;
    AdmissionTicket& operator=(const AdmissionTicket&) = delete;

   private:
    Engine* engine_;
    SemaphoreGuard permit_;
  };

  /// Evicts the plan-cache entries that are no longer current if the
  /// catalog's version moved since the last sync; an entry reading only
  /// untouched relations stays warm. The result cache needs no sync: its
  /// keys carry relation stamps, so a stale entry can never match a probe.
  /// Requires the catalog lock (shared suffices: a mismatch can only be
  /// observed once the mutating writer has drained every older reader).
  void SyncWithCatalog();
  /// The one staleness rule: true iff every relation `state`'s plans read
  /// still carries the stamp it had when the state was made. Requires the
  /// catalog lock (shared suffices).
  bool StateIsCurrent(const PreparedQuery::State& state) const;
  /// Builds a prepared state from `entry`: annotates its chosen plan and
  /// stamps the relations its plans read against the live catalog.
  /// Requires the catalog lock (shared suffices).
  Result<std::shared_ptr<const PreparedQuery::State>> MakeState(
      PlanCacheEntry entry) const;

  /// Plan-cache probe under state_mu_: on a hit bumps the entry to the LRU
  /// front and counts a hit. `confirm` (optional) structurally verifies the
  /// entry's initial plan before serving — fingerprint keys are never
  /// trusted blindly.
  std::shared_ptr<const PreparedQuery::State> LookupPlanCache(
      const std::string& key, const PlanPtr* confirm);
  /// Inserts/overwrites under state_mu_, evicting LRU entries beyond
  /// plan_cache_capacity.
  void StorePlanCache(const std::string& key,
                      std::shared_ptr<const PreparedQuery::State> state);

  /// Prepare(text) with an optional per-query Tracer threaded through the
  /// whole pipeline (plan-cache probe, parse/translate, enumerate, cost).
  /// Null tracer = the public Prepare, span-free.
  Result<PreparedQuery> PrepareTraced(const std::string& text, Tracer* tracer);

  /// The full compile-free pipeline (intern, optimize, cache), with search
  /// state local to the call. Requires the caller to hold the catalog lock
  /// shared and to have synced. `tracer` (may be null) reaches the
  /// enumeration/costing spans.
  Result<std::shared_ptr<const PreparedQuery::State>> PrepareImpl(
      const std::string& key, const std::string& text, const PlanPtr& initial,
      const QueryContract& contract, Tracer* tracer);

  /// Evaluates `state`'s annotated chosen plan. Requires the catalog lock
  /// shared and `state` to be current.
  /// `tracer` (may be null) records execution spans; `want_profile` returns
  /// the per-operator tree in QueryResult::profile (profiling also runs,
  /// without being returned, while the slow-query log is armed).
  Result<QueryResult> ExecuteState(const PreparedQuery::State& state,
                                   bool from_cache, Tracer* tracer,
                                   bool want_profile);

  Catalog catalog_;
  EngineOptions options_;
  /// The DBMS below the stratum. Owned here; options_.engine.backend /
  /// .calibration point into these for the executors and cost model.
  std::unique_ptr<Backend> backend_;
  BackendCostProfile calibration_;
  /// The shared subplan result cache (EngineOptions::incremental_execution);
  /// nullptr when off. options_.engine.result_cache points at it for both
  /// executors. Its keys carry relation stamps, so it is never cleared:
  /// stale entries age out through its LRU bound.
  std::unique_ptr<SubplanResultCache> result_cache_;

  /// Queries hold this shared for their full duration; catalog mutation
  /// holds it exclusive. Lock order: admission semaphore → catalog_mu_ →
  /// state_mu_.
  mutable std::shared_mutex catalog_mu_;
  /// Guards the plan cache, counters, slow log, and caches_version_.
  mutable std::mutex state_mu_;

  /// Catalog::version() at the last SyncWithCatalog.
  uint64_t caches_version_ = 0;
  /// LRU plan cache: list front = most recently used; map points into it.
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> plan_cache_;
  EngineStats stats_;
  /// Bounded slow-query log, oldest at the front. Guarded by state_mu_.
  std::deque<SlowQueryRecord> slow_log_;
  /// Cached MetricsRegistry::Global() pointers. Registry entries are never
  /// removed, so the pointers stay valid for the process lifetime.
  MetricCounter* metric_queries_ = nullptr;
  MetricCounter* metric_rows_ = nullptr;
  MetricCounter* metric_slow_ = nullptr;
  LatencyHistogram* metric_latency_ = nullptr;

  std::unique_ptr<Semaphore> query_sem_;
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> peak_in_flight_{0};
};

}  // namespace tqp

#endif  // TQP_API_ENGINE_H_
