#include "api/engine.h"

#include <cstdio>
#include <utility>

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "algebra/intern.h"
#include "backend/simulated_backend.h"
#include "core/hash.h"
#include "core/json.h"
#include "core/metrics.h"
#include "core/profile.h"
#include "core/trace.h"
#include "exec/result_cache.h"
#include "tql/lexer.h"

namespace tqp {

namespace {

/// Plan-cache key for a TQL query: the lexed token stream, so whitespace,
/// "--" comments, and keyword-case variants of one query share a cache
/// entry. Unlexable text is keyed by the raw string under its own prefix —
/// such a query cannot compile, so the key only routes it to the real
/// CompileQuery error, and the prefix keeps it from ever colliding with a
/// lexable query's token key (a raw string can contain anything, including
/// a verbatim copy of some other query's token rendering). All prefixes are
/// likewise disjoint from the "#plan:" keys of hand-built plans.
std::string TextPlanCacheKey(const std::string& text) {
  Result<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return "#rawtext:" + text;
  return "#tql:" + TokenStreamKey(tokens.value());
}

/// How many times Execute() retries when the catalog keeps mutating out
/// from under its re-prepared state before giving up.
constexpr int kMaxExecuteReprepares = 8;

/// Result-cache byte budget when EngineOptions::result_cache_bytes is 0.
constexpr uint64_t kDefaultResultCacheBytes = 64ull << 20;

/// Slow-query log bound: the oldest entries fall off beyond it.
constexpr size_t kSlowLogCapacity = 64;

void CollectScanRelations(const PlanPtr& plan, std::set<std::string>* out) {
  if (plan->kind() == OpKind::kScan) out->insert(plan->rel_name());
  for (const PlanPtr& c : plan->children()) CollectScanRelations(c, out);
}

/// The relation-dependency set of a prepared state — every relation either
/// of its plans reads — stamped with the live per-relation catalog versions.
/// Sorted by name (std::set iteration), so comparisons are deterministic.
std::vector<std::pair<std::string, uint64_t>> StampDepVersions(
    const PlanPtr& initial, const PlanPtr& best, const Catalog& catalog) {
  std::set<std::string> names;
  CollectScanRelations(initial, &names);
  if (best != nullptr) CollectScanRelations(best, &names);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    out.emplace_back(name, catalog.relation_version(name));
  }
  return out;
}

}  // namespace

EngineOptions::EngineOptions() : rules(DefaultRuleSet()) {
  // The facade's plan identity is fingerprint/pointer-based end to end;
  // canonical strings are only for callers that assert on them.
  enumeration.fill_canonical = false;
}

/// The immutable outcome of one compile+optimize run, shared between the
/// plan cache and every PreparedQuery handed out for it.
struct PreparedQuery::State {
  /// Plan-cache key this state is stored under.
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
  /// Catalog version the optimization ran under.
  uint64_t catalog_version = 0;
  /// Every relation the initial or best plan reads, with the per-relation
  /// catalog version it carried at preparation. Staleness is judged against
  /// this set, not the global version: a mutation of a relation outside it
  /// neither evicts the cache entry nor forces Execute() to re-prepare.
  std::vector<std::pair<std::string, uint64_t>> dep_versions;
  /// Engine cache epoch the optimization ran under (bumped on every cache
  /// flush). Catches what the version alone cannot: a catalog *replaced*
  /// through mutable_catalog() can coincidentally carry the same version
  /// count as the old one, and a stale state must still never execute
  /// against it.
  uint64_t engine_epoch = 0;
};

const PlanPtr& PreparedQuery::initial_plan() const {
  return state_->initial_plan;
}
const PlanPtr& PreparedQuery::best_plan() const { return state_->best_plan; }
uint64_t PreparedQuery::fingerprint() const {
  return state_->best_plan->fingerprint();
}
double PreparedQuery::best_cost() const { return state_->best_cost; }
double PreparedQuery::initial_cost() const { return state_->initial_cost; }
size_t PreparedQuery::plans_considered() const {
  return state_->plans_considered;
}
const std::vector<std::string>& PreparedQuery::derivation() const {
  return state_->derivation;
}
const QueryContract& PreparedQuery::contract() const {
  return state_->contract;
}

Result<QueryResult> PreparedQuery::Execute() {
  return ExecuteRun(QueryRunOptions{}, /*external=*/nullptr);
}

Result<QueryResult> PreparedQuery::Execute(const QueryRunOptions& run) {
  return ExecuteRun(run, /*external=*/nullptr);
}

Result<QueryResult> PreparedQuery::ExecuteRun(const QueryRunOptions& run,
                                              Tracer* external) {
  // An external tracer (Engine::Query's traced path) already carries the
  // prepare spans; otherwise stand up a per-call Tracer on demand. The
  // common untraced path never constructs one (a Tracer stamps its epoch
  // from the clock).
  std::optional<Tracer> local;
  Tracer* tracer = external;
  if (tracer == nullptr &&
      (run.trace || engine_->options_.trace_queries)) {
    tracer = &local.emplace();
  }
  const bool want_profile =
      run.profile || engine_->options_.profile_queries;
  for (int attempt = 0; attempt < kMaxExecuteReprepares; ++attempt) {
    {
      // Evaluation runs under the shared catalog lock, gated by admission
      // control. The ticket is taken before the lock (lock order: semaphore
      // → catalog → state), and released before any re-prepare — Prepare
      // takes its own ticket, so permits never nest.
      Engine::AdmissionTicket ticket(engine_);
      std::shared_lock<std::shared_mutex> cat(engine_->catalog_mu_);
      engine_->SyncWithCatalog();
      if (engine_->StateIsCurrent(*state_)) {
        Result<QueryResult> res =
            engine_->ExecuteState(*state_, from_cache_, tracer, want_profile);
        if (!res.ok()) return res.status();
        QueryResult out = std::move(res).value();
        if (tracer != nullptr) out.trace_json = tracer->ToChromeJson();
        return out;
      }
    }
    // The catalog moved on since this query was prepared: re-prepare against
    // the live catalog rather than run a stale plan, then re-verify.
    Result<PreparedQuery> fresh =
        state_->text.empty()
            ? engine_->Prepare(state_->initial_plan, state_->contract)
            : engine_->Prepare(state_->text);
    if (!fresh.ok()) return fresh.status();
    state_ = fresh.value().state_;
    from_cache_ = fresh.value().from_cache_;
  }
  return Status::Error(
      "catalog kept mutating while Execute was re-preparing; giving up");
}

Engine::AdmissionTicket::AdmissionTicket(Engine* engine)
    : engine_(engine), permit_(engine->query_sem_.get()) {
  uint64_t now = engine_->in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = engine_->peak_in_flight_.load(std::memory_order_relaxed);
  while (now > peak && !engine_->peak_in_flight_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

Engine::AdmissionTicket::~AdmissionTicket() {
  engine_->in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

Engine::Engine(Catalog catalog, EngineOptions options)
    : catalog_(std::move(catalog)),
      options_(std::move(options)),
      caches_version_(catalog_.version()) {
  // The backend below the stratum. A construction failure (e.g. kSqlite in
  // a build without sqlite3) degrades to the simulated backend: every query
  // still runs, just without pushdown.
  auto made = MakeBackend(options_.backend, options_.backend_db_path);
  if (made.ok()) {
    backend_ = std::move(made.value());
  } else {
    backend_ = std::make_unique<SimulatedBackend>();
  }
  if (options_.calibrate_backend) {
    calibration_ = backend_->Calibrate(options_.engine);
  }
  // The executors and the cost model reach the backend through the unified
  // EngineConfig; both pointers live exactly as long as this Engine.
  options_.engine.backend = backend_.get();
  options_.engine.calibration =
      calibration_.calibrated ? &calibration_ : nullptr;
  stats_.backend_name = backend_->name();
  stats_.calibration_fingerprint =
      calibration_.calibrated ? calibration_.fingerprint : 0;
  // The subplan result cache. Never inherited from a passed-in options
  // struct: like the backend pointer, it must belong to *this* engine.
  options_.engine.result_cache = nullptr;
  options_.engine.result_cache_env = 0;
  if (options_.incremental_execution) {
    result_cache_ = std::make_unique<SubplanResultCache>(
        options_.result_cache_bytes == 0 ? kDefaultResultCacheBytes
                                         : options_.result_cache_bytes);
    options_.engine.result_cache = result_cache_.get();
    // Everything outside the plan that shapes executor output bytes:
    // scramble mode and seed, backend identity, calibration. Results cached
    // under one environment can never match a probe from another.
    uint64_t env = HashMix64(options_.engine.dbms_scrambles_order ? 1 : 2);
    env = HashCombine(env, options_.engine.scramble_seed);
    env = HashCombine(env, HashString(backend_->name()));
    env = HashCombine(env, calibration_.calibrated ? calibration_.fingerprint
                                                   : 0);
    options_.engine.result_cache_env = env;
  }
  if (options_.max_concurrent_queries > 0) {
    query_sem_ = std::make_unique<Semaphore>(options_.max_concurrent_queries);
  }
  // Per-query metric pointers, resolved once: the hot path only does
  // relaxed atomic adds against them.
  if (options_.publish_metrics) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    metric_queries_ =
        reg.GetCounter("tqp_queries_total", "Queries executed by the engine");
    metric_rows_ =
        reg.GetCounter("tqp_query_rows_total", "Result rows produced");
    metric_slow_ = reg.GetCounter(
        "tqp_slow_queries_total",
        "Queries at or above the slow-query threshold");
    metric_latency_ = reg.GetHistogram(
        "tqp_query_latency_us", "Executor wall time per query (microseconds)");
  }
}

Engine::~Engine() = default;

void Engine::FlushCachesLocked() {
  lru_.clear();
  plan_cache_.clear();
  // A wholesale flush means the catalog may have been *replaced*: a fresh
  // catalog can coincidentally reproduce old per-relation version stamps
  // over different data, so self-versioned result-cache keys are no longer
  // trustworthy either.
  if (result_cache_ != nullptr) result_cache_->Clear();
  caches_version_ = catalog_.version();
  // Every flush starts a new epoch: prepared states from before the flush
  // must re-prepare even if the catalog version count happens to match
  // (mutable_catalog() replacement).
  ++catalog_epoch_;
}

uint64_t Engine::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return catalog_epoch_;
}

void Engine::ClearCaches() {
  // Exclusive catalog lock: wait for in-flight queries (which hold it
  // shared) to drain, so none of them still runs under the old epoch.
  std::unique_lock<std::shared_mutex> cat(catalog_mu_);
  std::lock_guard<std::mutex> state(state_mu_);
  FlushCachesLocked();
}

void Engine::SyncWithCatalog() {
  std::lock_guard<std::mutex> state(state_mu_);
  // A handed-out mutable_catalog() reference may have replaced the catalog
  // without bumping the version (a fresh catalog can coincidentally carry
  // the same count). Conservatively treat the handout as a mutation: flush
  // once, on the next query after it.
  if (catalog_handout_.exchange(false, std::memory_order_acq_rel)) {
    ++stats_.invalidations;
    FlushCachesLocked();
    return;
  }
  if (caches_version_ == catalog_.version()) return;
  // The catalog moved through ordinary, per-relation-tracked mutation.
  // Invalidate selectively rather than wholesale — exactly one thread
  // reconciles per version change (the check and the update are atomic
  // under state_mu_):
  //
  //  * plan cache — evict only entries whose relation-dependency set moved;
  //    a plan reading only untouched relations stays warm;
  //  * result cache — kept: entries carry exact per-relation version
  //    vectors, so stale ones can never match a probe (they age out LRU).
  ++stats_.invalidations;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (DepsCurrentLocked(*it->state)) {
      ++it;
      continue;
    }
    plan_cache_.erase(it->key);
    it = lru_.erase(it);
    ++stats_.plan_cache_stale_evictions;
  }
  caches_version_ = catalog_.version();
}

bool Engine::DepsCurrentLocked(const PreparedQuery::State& state) const {
  for (const auto& [name, version] : state.dep_versions) {
    if (catalog_.relation_version(name) != version) return false;
  }
  return true;
}

bool Engine::StateIsCurrent(const PreparedQuery::State& state) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state.engine_epoch == catalog_epoch_ && DepsCurrentLocked(state);
}

Status Engine::MutateCatalog(const std::function<Status(Catalog&)>& mutation) {
  std::unique_lock<std::shared_mutex> cat(catalog_mu_);
  return mutation(catalog_);
}

std::shared_ptr<const PreparedQuery::State> Engine::LookupPlanCache(
    const std::string& key, const PlanPtr* confirm) {
  std::lock_guard<std::mutex> state(state_mu_);
  auto it = plan_cache_.find(key);
  if (it == plan_cache_.end()) return nullptr;
  if (confirm != nullptr &&
      !PlanNode::Equal(it->second->state->initial_plan, *confirm)) {
    return nullptr;
  }
  ++stats_.plan_cache_hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
  return it->second->state;
}

void Engine::StorePlanCache(
    const std::string& key,
    std::shared_ptr<const PreparedQuery::State> state) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) {
    // A concurrent prepare of the same query beat us; results are
    // identical, so just refresh the entry.
    it->second->state = std::move(state);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(LruEntry{key, std::move(state)});
  plan_cache_[key] = lru_.begin();
  if (options_.plan_cache_capacity > 0) {
    while (lru_.size() > options_.plan_cache_capacity) {
      plan_cache_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.plan_cache_evictions;
    }
  }
}

Result<std::shared_ptr<const PreparedQuery::State>> Engine::PrepareImpl(
    const std::string& key, const std::string& text, const PlanPtr& initial,
    const QueryContract& contract, Tracer* tracer) {
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    ++stats_.prepares;
    ++stats_.plan_cache_misses;
    epoch = catalog_epoch_;
  }
  // The search state belongs to this query alone: the costing loop reuses
  // the search's derivations, and only the plans the cache entry keeps
  // outlive the call.
  PlanInterner interner;
  DerivationCache derivation;
  PlanPtr root = interner.Intern(initial);

  OptimizerOptions opt;
  opt.enumeration = options_.enumeration;
  opt.enumeration.tracer = tracer;  // enumerate/expand/cost spans
  opt.engine = options_.engine;
  opt.cardinality = options_.cardinality;
  TQP_ASSIGN_OR_RETURN(
      optimized,
      Optimize(root, catalog_, contract, options_.rules, opt, &interner,
               &derivation));

  auto state = std::make_shared<PreparedQuery::State>();
  state->key = key;
  state->text = text;
  state->contract = contract;
  state->initial_plan = root;
  state->best_plan = optimized.best_plan;
  state->best_cost = optimized.best_cost;
  state->initial_cost = optimized.initial_cost;
  state->plans_considered = optimized.plans_considered;
  state->truncated = optimized.truncated;
  state->derivation = std::move(optimized.derivation);
  state->catalog_version = catalog_.version();
  state->engine_epoch = epoch;
  state->dep_versions = StampDepVersions(root, state->best_plan, catalog_);

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stats_.interner_nodes += interner.unique_nodes();
    stats_.interner_hits += interner.hits();
    stats_.derivation_nodes += derivation.size();
  }
  std::shared_ptr<const PreparedQuery::State> shared = state;
  StorePlanCache(key, shared);
  return shared;
}

Result<PreparedQuery> Engine::Prepare(const std::string& text) {
  return PrepareTraced(text, /*tracer=*/nullptr);
}

Result<PreparedQuery> Engine::PrepareTraced(const std::string& text,
                                            Tracer* tracer) {
  // Token-stream keying: "SELECT  x" with extra spaces or a trailing
  // comment hits the entry its normalized twin created. The original text
  // is still what a stale PreparedQuery re-prepares from; re-lexing it
  // reproduces the same key.
  std::string key = TextPlanCacheKey(text);

  // Fast path: a cached plan is served without an admission permit, so a
  // warm engine keeps answering instantly even when the pipeline gate is
  // saturated.
  {
    std::shared_lock<std::shared_mutex> cat(catalog_mu_);
    SyncWithCatalog();
    TraceSpan probe(tracer, "api", "plan_cache_probe");
    auto hit = LookupPlanCache(key, /*confirm=*/nullptr);
    if (probe.active()) probe.Arg("hit", uint64_t{hit != nullptr});
    if (hit) {
      return PreparedQuery(this, std::move(hit), /*from_cache=*/true);
    }
  }

  // Miss: the full pipeline, under admission control. Re-probe first — a
  // concurrent session may have prepared the same query while we waited for
  // the permit.
  AdmissionTicket ticket(this);
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  SyncWithCatalog();
  {
    TraceSpan probe(tracer, "api", "plan_cache_probe");
    auto hit = LookupPlanCache(key, /*confirm=*/nullptr);
    if (probe.active()) probe.Arg("hit", uint64_t{hit != nullptr});
    if (hit) {
      return PreparedQuery(this, std::move(hit), /*from_cache=*/true);
    }
  }
  TranslatorOptions topts = options_.translator;
  topts.tracer = tracer;
  TQP_ASSIGN_OR_RETURN(compiled, CompileQuery(text, catalog_, topts));
  TQP_ASSIGN_OR_RETURN(
      state,
      PrepareImpl(key, text, compiled.plan, compiled.contract, tracer));
  return PreparedQuery(this, state, /*from_cache=*/false);
}

Result<PreparedQuery> Engine::Prepare(const PlanPtr& initial,
                                      const QueryContract& contract) {
  // Key hand-built plans by structural fingerprint + contract. Fingerprints
  // are 64-bit and never trusted blindly anywhere in this codebase: a cache
  // hit is confirmed structurally before it is served.
  char fp[32];
  std::snprintf(fp, sizeof(fp), "#plan:%016llx",
                static_cast<unsigned long long>(initial->fingerprint()));
  std::string key = std::string(fp) + "/" +
                    ResultTypeName(contract.result_type) + "/" +
                    SortSpecToString(contract.order_by);

  {
    std::shared_lock<std::shared_mutex> cat(catalog_mu_);
    SyncWithCatalog();
    if (auto hit = LookupPlanCache(key, &initial)) {
      return PreparedQuery(this, std::move(hit), /*from_cache=*/true);
    }
  }

  AdmissionTicket ticket(this);
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  SyncWithCatalog();
  if (auto hit = LookupPlanCache(key, &initial)) {
    return PreparedQuery(this, std::move(hit), /*from_cache=*/true);
  }
  TQP_ASSIGN_OR_RETURN(state, PrepareImpl(key, /*text=*/"", initial, contract,
                                          /*tracer=*/nullptr));
  return PreparedQuery(this, state, /*from_cache=*/false);
}

Result<QueryResult> Engine::Query(const std::string& text) {
  TQP_ASSIGN_OR_RETURN(prepared, Prepare(text));
  return prepared.Execute();
}

Result<QueryResult> Engine::Query(const std::string& text,
                                  const QueryRunOptions& run) {
  const bool want_trace = run.trace || options_.trace_queries;
  if (!want_trace) {
    TQP_ASSIGN_OR_RETURN(prepared, Prepare(text));
    return prepared.ExecuteRun(run, /*external=*/nullptr);
  }
  // One Tracer across prepare and execute: the exported trace shows the
  // whole lifecycle on one timeline.
  Tracer tracer;
  TQP_ASSIGN_OR_RETURN(prepared, PrepareTraced(text, &tracer));
  return prepared.ExecuteRun(run, &tracer);
}

Result<TranslatedQuery> Engine::Compile(const std::string& text) const {
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  return CompileQuery(text, catalog_, options_.translator);
}

Result<QueryResult> Engine::ExecuteState(const PreparedQuery::State& state,
                                         bool from_cache, Tracer* tracer,
                                         bool want_profile) {
  Result<AnnotatedPlan> ann = AnnotatedPlan::Make(
      state.best_plan, &catalog_, state.contract, options_.cardinality);
  if (!ann.ok()) return ann.status();

  // An armed slow-query log needs the hottest-operator ranking, so it
  // forces profile collection even when the caller did not ask for the
  // tree back.
  const bool slow_armed = options_.slow_query_threshold_ms > 0.0;
  std::shared_ptr<ProfileNode> profile_root;
  if (want_profile || slow_armed) {
    profile_root = std::make_shared<ProfileNode>();
  }
  // The per-query tracer rides on a config copy — options_ is shared by
  // every concurrent session and must stay untouched.
  const EngineConfig* cfg = &options_.engine;
  EngineConfig traced_cfg;
  if (tracer != nullptr) {
    traced_cfg = options_.engine;
    traced_cfg.tracer = tracer;
    cfg = &traced_cfg;
  }

  QueryResult out;
  const auto exec_start = std::chrono::steady_clock::now();
  Result<Relation> relation = [&]() -> Result<Relation> {
    if (options_.executor == ExecutorKind::kVectorized) {
      VexecOptions vopts;
      vopts.batch_size = options_.vexec_batch_size;
      vopts.threads = options_.vexec_threads;
      vopts.memory_budget = options_.vexec_memory_budget;
      return ExecuteVectorized(ann.value(), *cfg, &out.exec, vopts,
                               profile_root.get());
    }
    return Evaluate(ann.value(), *cfg, &out.exec, profile_root.get());
  }();
  const uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - exec_start)
          .count());
  if (!relation.ok()) return relation.status();

  const bool slow =
      slow_armed &&
      static_cast<double>(wall_ns) >= options_.slow_query_threshold_ms * 1e6;
  if (out.exec.backend_pushdowns > 0 || out.exec.backend_fallbacks > 0 ||
      out.exec.backend_refusals > 0 || slow) {
    std::lock_guard<std::mutex> lock(state_mu_);
    stats_.backend_pushdowns +=
        static_cast<uint64_t>(out.exec.backend_pushdowns);
    stats_.backend_rows += static_cast<uint64_t>(out.exec.backend_rows);
    stats_.backend_fallbacks +=
        static_cast<uint64_t>(out.exec.backend_fallbacks);
    stats_.backend_refusals +=
        static_cast<uint64_t>(out.exec.backend_refusals);
    if (slow) {
      ++stats_.slow_queries;
      SlowQueryRecord rec;
      rec.text = state.text;
      rec.plan_fingerprint = state.best_plan->fingerprint();
      rec.wall_ns = wall_ns;
      rec.hottest = HottestOperators(*profile_root, 3);
      slow_log_.push_back(std::move(rec));
      while (slow_log_.size() > kSlowLogCapacity) slow_log_.pop_front();
    }
  }
  out.relation = std::move(relation).value();
  out.best_cost = state.best_cost;
  out.initial_cost = state.initial_cost;
  out.plans_considered = state.plans_considered;
  out.truncated = state.truncated;
  out.derivation = state.derivation;
  out.plan_fingerprint = state.best_plan->fingerprint();
  out.plan_cache_hit = from_cache;
  out.exec_wall_ns = wall_ns;
  if (want_profile) out.profile = profile_root;
  if (metric_queries_ != nullptr) {
    metric_queries_->Add(1);
    metric_rows_->Add(static_cast<uint64_t>(out.relation.size()));
    metric_latency_->Record(wall_ns / 1000);
    if (slow) metric_slow_->Add(1);
  }
  return out;
}

Result<EnumerationResult> Engine::Enumerate(const std::string& text,
                                            EnumerationOptions options) {
  AdmissionTicket ticket(this);
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  SyncWithCatalog();
  TQP_ASSIGN_OR_RETURN(compiled,
                       CompileQuery(text, catalog_, options_.translator));
  // Enumerate with the Engine's unified models, like Prepare does.
  options.cardinality = options_.cardinality;
  options.cost_engine = options_.engine;
  PlanInterner interner;
  DerivationCache derivation;
  return EnumeratePlans(interner.Intern(compiled.plan), catalog_,
                        compiled.contract, options_.rules, options, &interner,
                        &derivation);
}

namespace {

/// Content summary of a catalog: relation names, schemas, cardinalities,
/// property flags, declared orders, and sites. Deliberately skips tuple
/// contents — the summary must stay cheap enough to compute on every
/// snapshot save/load, and the version counter already covers in-place
/// mutation; this catches *rebuilt* catalogs whose shape differs.
uint64_t FingerprintCatalog(const Catalog& catalog) {
  uint64_t h = 0x7177705f63617461ull;  // arbitrary nonzero seed
  for (const std::string& name : catalog.Names()) {
    const CatalogEntry* e = catalog.Find(name);
    h = HashCombine(h, HashString(name));
    for (const Attribute& a : e->data.schema().attrs()) {
      h = HashCombine(h, HashString(a.name));
      h = HashCombine(h, static_cast<uint64_t>(a.type));
    }
    h = HashCombine(h, e->data.size());
    h = HashCombine(h, (static_cast<uint64_t>(e->duplicate_free) << 3) |
                           (static_cast<uint64_t>(e->snapshot_duplicate_free)
                            << 2) |
                           (static_cast<uint64_t>(e->coalesced) << 1) |
                           static_cast<uint64_t>(e->site == Site::kDbms));
    for (const SortKey& k : e->order) {
      h = HashCombine(h, HashString(k.attr));
      h = HashCombine(h, static_cast<uint64_t>(k.ascending));
    }
  }
  // Never return the "unknown" sentinel for a real catalog.
  return h == 0 ? 1 : h;
}

/// True iff every kScan in `plan` names a relation the catalog contains.
bool AllScansExist(const PlanPtr& plan, const Catalog& catalog) {
  if (plan->kind() == OpKind::kScan &&
      catalog.Find(plan->rel_name()) == nullptr) {
    return false;
  }
  for (const PlanPtr& c : plan->children()) {
    if (!AllScansExist(c, catalog)) return false;
  }
  return true;
}

}  // namespace

PlanCacheSnapshot Engine::ExportPlanCache() const {
  // Shared catalog lock: the version stamped into the snapshot is the one
  // every exported entry was prepared under (any concurrent mutation either
  // drains us first or flushes the cache before the next query).
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  std::lock_guard<std::mutex> state(state_mu_);
  PlanCacheSnapshot out;
  out.catalog_version = catalog_.version();
  out.catalog_fingerprint = FingerprintCatalog(catalog_);
  out.backend_kind = backend_->name();
  out.calibration_fingerprint =
      calibration_.calibrated ? calibration_.fingerprint : 0;
  // An unprocessed mutable_catalog() handout means every cached entry is
  // suspect (the catalog may have been replaced wholesale) while the
  // version/fingerprint above describe the *new* catalog. Exporting the
  // entries would label them valid for a catalog they were never prepared
  // under — a stale-positive. Export none.
  if (catalog_handout_.load(std::memory_order_acquire)) return out;
  out.entries.reserve(lru_.size());
  // lru_ front = most recent; emit back-to-front so importing in sequence
  // reproduces the recency order.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const PreparedQuery::State& s = *it->state;
    // Same stale-positive guard for individual entries: SyncWithCatalog
    // evicts dependency-stale entries lazily (on the next query), so an
    // export taken between a mutation and that next query can still see
    // them. The snapshot stamps the live catalog version; only entries
    // actually valid under it may ship.
    if (s.engine_epoch != catalog_epoch_ || !DepsCurrentLocked(s)) continue;
    PlanCacheEntry e;
    e.key = it->key;
    e.text = s.text;
    e.contract = s.contract;
    e.initial_plan = s.initial_plan;
    e.best_plan = s.best_plan;
    e.best_cost = s.best_cost;
    e.initial_cost = s.initial_cost;
    e.plans_considered = s.plans_considered;
    e.truncated = s.truncated;
    e.derivation = s.derivation;
    out.entries.push_back(std::move(e));
  }
  return out;
}

size_t Engine::ImportPlanCache(const PlanCacheSnapshot& snapshot) {
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  SyncWithCatalog();
  // Wholesale staleness rule: a snapshot from any other catalog version —
  // or any other catalog *content* — is rejected entirely, exactly as the
  // in-memory caches are flushed entirely.
  if (snapshot.catalog_version != catalog_.version()) return 0;
  if (snapshot.catalog_fingerprint != 0 &&
      snapshot.catalog_fingerprint != FingerprintCatalog(catalog_)) {
    return 0;
  }
  // Cached best plans embed the exporter's cost environment: a snapshot
  // from a different backend, or from a differently calibrated one, would
  // warm this engine with plans its own optimizer might not choose. Reject
  // wholesale, like any other staleness.
  if (!snapshot.backend_kind.empty() &&
      snapshot.backend_kind != backend_->name()) {
    return 0;
  }
  if (snapshot.calibration_fingerprint !=
      (calibration_.calibrated ? calibration_.fingerprint : 0)) {
    return 0;
  }
  const uint64_t epoch = CurrentEpoch();
  size_t installed = 0;
  for (const PlanCacheEntry& e : snapshot.entries) {
    if (e.key.empty() || e.initial_plan == nullptr || e.best_plan == nullptr) {
      continue;
    }
    // Defense against a same-version but different catalog: an entry whose
    // plans reference relations this catalog lacks is skipped (it could
    // never have been prepared here).
    if (!AllScansExist(e.initial_plan, catalog_) ||
        !AllScansExist(e.best_plan, catalog_)) {
      continue;
    }
    auto state = std::make_shared<PreparedQuery::State>();
    state->key = e.key;
    state->text = e.text;
    state->contract = e.contract;
    state->initial_plan = e.initial_plan;
    state->best_plan = e.best_plan;
    state->best_cost = e.best_cost;
    state->initial_cost = e.initial_cost;
    state->plans_considered = e.plans_considered;
    state->truncated = e.truncated;
    state->derivation = e.derivation;
    state->catalog_version = catalog_.version();
    state->engine_epoch = epoch;
    state->dep_versions =
        StampDepVersions(state->initial_plan, state->best_plan, catalog_);
    StorePlanCache(e.key, std::move(state));
    ++installed;
  }
  if (installed > 0) {
    std::lock_guard<std::mutex> state(state_mu_);
    stats_.plan_cache_imports += installed;
  }
  return installed;
}

uint64_t Engine::CatalogFingerprint() const {
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  return FingerprintCatalog(catalog_);
}

std::string EngineStats::ToJson() const { return StatsToJson(*this); }

void EngineStats::PublishTo(MetricsRegistry* registry) const {
  PublishStatsGauges(*this, "tqp_engine_", registry);
}

std::vector<SlowQueryRecord> Engine::slow_queries() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return std::vector<SlowQueryRecord>(slow_log_.begin(), slow_log_.end());
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  EngineStats out = stats_;
  out.peak_concurrent_queries =
      peak_in_flight_.load(std::memory_order_relaxed);
  out.plan_cache_entries = plan_cache_.size();
  if (result_cache_ != nullptr) {
    ResultCacheStats rc = result_cache_->stats();
    out.result_cache_hits = rc.hits;
    out.result_cache_misses = rc.misses;
    out.result_cache_evictions = rc.evictions;
    out.result_cache_entries = rc.entries;
    out.result_cache_bytes = rc.bytes;
  }
  return out;
}

}  // namespace tqp
