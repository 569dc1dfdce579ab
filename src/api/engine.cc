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
/// of its plans reads — with the live catalog's stamps. Sorted by name
/// (std::set iteration), so comparisons are deterministic.
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
  // A search that pays for itself: cheapest plans first, stopping once the
  // search has outworked the best plan's estimated cost.
  enumeration.strategy = SearchStrategy::kBestFirst;
  // The facade's plan identity is fingerprint/pointer-based end to end;
  // canonical strings are only for callers that assert on them.
  enumeration.fill_canonical = false;
}

/// The immutable outcome of one compile+optimize run (or one imported
/// snapshot entry), shared between the plan cache and every PreparedQuery
/// handed out for it.
struct PreparedQuery::State {
  /// Key, text, contract, plans and optimizer telemetry: what a snapshot
  /// exports.
  PlanCacheEntry entry;
  /// The chosen plan annotated against the catalog the state was made
  /// under. A state executes only while its stamps hold, so the annotation
  /// stays valid for the state's whole life.
  AnnotatedPlan annotated;
  /// Every relation the initial or best plan reads, with the stamp it
  /// carried when the state was made. Staleness is judged against this
  /// set: a mutation of a relation outside it neither evicts the cache
  /// entry nor forces Execute() to re-prepare.
  std::vector<std::pair<std::string, uint64_t>> dep_versions;
};

const PlanPtr& PreparedQuery::initial_plan() const {
  return state_->entry.initial_plan;
}
const PlanPtr& PreparedQuery::best_plan() const {
  return state_->entry.best_plan;
}
uint64_t PreparedQuery::fingerprint() const {
  return state_->entry.best_plan->fingerprint();
}
double PreparedQuery::best_cost() const { return state_->entry.best_cost; }
double PreparedQuery::initial_cost() const {
  return state_->entry.initial_cost;
}
size_t PreparedQuery::plans_considered() const {
  return state_->entry.plans_considered;
}
const std::vector<std::string>& PreparedQuery::derivation() const {
  return state_->entry.derivation;
}
const QueryContract& PreparedQuery::contract() const {
  return state_->entry.contract;
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
  if (tracer == nullptr && run.trace) tracer = &local.emplace();
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
            engine_->ExecuteState(*state_, from_cache_, tracer, run.profile);
        if (!res.ok()) return res.status();
        QueryResult out = std::move(res).value();
        if (tracer != nullptr) out.trace_json = tracer->ToChromeJson();
        return out;
      }
    }
    // A relation this query reads was restamped since it was prepared:
    // re-prepare against the live catalog rather than run a stale plan, then
    // re-verify.
    const PlanCacheEntry& e = state_->entry;
    Result<PreparedQuery> fresh = e.text.empty()
                                      ? engine_->Prepare(e.initial_plan,
                                                         e.contract)
                                      : engine_->Prepare(e.text);
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
  MetricsRegistry& reg = MetricsRegistry::Global();
  metric_queries_ =
      reg.GetCounter("tqp_queries_total", "Queries executed by the engine");
  metric_rows_ = reg.GetCounter("tqp_query_rows_total", "Result rows produced");
  metric_slow_ =
      reg.GetCounter("tqp_slow_queries_total",
                     "Queries at or above the slow-query threshold");
  metric_latency_ = reg.GetHistogram(
      "tqp_query_latency_us", "Executor wall time per query (microseconds)");
}

Engine::~Engine() = default;

void Engine::SyncWithCatalog() {
  std::lock_guard<std::mutex> state(state_mu_);
  // Stamps are process-unique, so an unchanged version means unchanged
  // contents. Otherwise exactly one thread reconciles per version change
  // (the check and the update are atomic under state_mu_), evicting only
  // the entries a restamped relation made stale.
  if (caches_version_ == catalog_.version()) return;
  ++stats_.invalidations;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (StateIsCurrent(*it->state)) {
      ++it;
      continue;
    }
    plan_cache_.erase(it->key);
    it = lru_.erase(it);
    ++stats_.plan_cache_stale_evictions;
  }
  caches_version_ = catalog_.version();
}

bool Engine::StateIsCurrent(const PreparedQuery::State& state) const {
  for (const auto& [name, version] : state.dep_versions) {
    if (catalog_.relation_version(name) != version) return false;
  }
  return true;
}

Result<std::shared_ptr<const PreparedQuery::State>> Engine::MakeState(
    PlanCacheEntry entry) const {
  TQP_ASSIGN_OR_RETURN(annotated,
                       AnnotatedPlan::Make(entry.best_plan, &catalog_,
                                           entry.contract,
                                           options_.cardinality));
  auto deps = StampDepVersions(entry.initial_plan, entry.best_plan, catalog_);
  return std::make_shared<const PreparedQuery::State>(PreparedQuery::State{
      std::move(entry), std::move(annotated), std::move(deps)});
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
      !PlanNode::Equal(it->second->state->entry.initial_plan, *confirm)) {
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
  {
    std::lock_guard<std::mutex> state(state_mu_);
    ++stats_.prepares;
    ++stats_.plan_cache_misses;
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
  // A rewrite may add up to max_plan_growth nodes to a plan at the depth
  // bound; the cache keeps only plans a snapshot can hold.
  TQP_RETURN_IF_ERROR(CheckPlanDepth(optimized.best_plan));

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stats_.interner_nodes += interner.unique_nodes();
    stats_.interner_hits += interner.hits();
    stats_.derivation_nodes += derivation.size();
  }
  TQP_ASSIGN_OR_RETURN(
      state, MakeState(PlanCacheEntry{key, text, contract, root,
                                      optimized.best_plan, optimized.best_cost,
                                      optimized.initial_cost,
                                      optimized.plans_considered,
                                      optimized.truncated,
                                      std::move(optimized.derivation)}));
  StorePlanCache(key, state);
  return state;
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
  // Checked before the cache probe: confirming a hit, interning and
  // derivation all recurse once per plan level.
  TQP_RETURN_IF_ERROR(CheckPlanDepth(initial));
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
  if (!run.trace) {
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
      return ExecuteVectorized(state.annotated, *cfg, &out.exec, vopts,
                               profile_root.get());
    }
    return Evaluate(state.annotated, *cfg, &out.exec, profile_root.get());
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
      rec.text = state.entry.text;
      rec.plan_fingerprint = state.entry.best_plan->fingerprint();
      rec.wall_ns = wall_ns;
      rec.hottest = HottestOperators(*profile_root, 3);
      slow_log_.push_back(std::move(rec));
      while (slow_log_.size() > kSlowLogCapacity) slow_log_.pop_front();
    }
  }
  const PlanCacheEntry& e = state.entry;
  out.relation = std::move(relation).value();
  out.best_cost = e.best_cost;
  out.initial_cost = e.initial_cost;
  out.plans_considered = e.plans_considered;
  out.truncated = e.truncated;
  out.derivation = e.derivation;
  out.plan_fingerprint = e.best_plan->fingerprint();
  out.plan_cache_hit = from_cache;
  out.exec_wall_ns = wall_ns;
  if (want_profile) out.profile = profile_root;
  metric_queries_->Add(1);
  metric_rows_->Add(static_cast<uint64_t>(out.relation.size()));
  metric_latency_->Record(wall_ns / 1000);
  if (slow) metric_slow_->Add(1);
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

/// Content summary of a catalog, comparable across processes: every
/// relation's name, ContentDigest (schema and tuples, computed once when
/// the catalog accepted the relation), cardinality, property flags,
/// declared order and site.
uint64_t FingerprintCatalog(const Catalog& catalog) {
  uint64_t h = 0x7177705f63617461ull;  // arbitrary nonzero seed
  for (const std::string& name : catalog.Names()) {
    const CatalogEntry* e = catalog.Find(name);
    h = HashCombine(h, HashString(name));
    h = HashCombine(h, catalog.relation_digest(name));
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
  return h;
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
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  std::lock_guard<std::mutex> state(state_mu_);
  PlanCacheSnapshot out;
  out.catalog_fingerprint = FingerprintCatalog(catalog_);
  out.backend_kind = backend_->name();
  out.calibration_fingerprint =
      calibration_.calibrated ? calibration_.fingerprint : 0;
  out.entries.reserve(lru_.size());
  // lru_ front = most recent; emit back-to-front so importing in sequence
  // reproduces the recency order.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    // SyncWithCatalog evicts stale entries lazily (on the next query), so
    // an export taken between a mutation and that query can still see
    // them. The snapshot is labelled with the live catalog's fingerprint;
    // only entries current under it may ship.
    if (StateIsCurrent(*it->state)) out.entries.push_back(it->state->entry);
  }
  return out;
}

size_t Engine::ImportPlanCache(const PlanCacheSnapshot& snapshot) {
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  SyncWithCatalog();
  // Cached best plans embed the exporter's catalog contents and cost
  // environment: a snapshot of other contents, from a different backend,
  // or from a differently calibrated one would warm this engine with plans
  // its own optimizer might not choose (or that are wrong here). Reject
  // wholesale.
  if (snapshot.catalog_fingerprint != FingerprintCatalog(catalog_) ||
      snapshot.backend_kind != backend_->name() ||
      snapshot.calibration_fingerprint !=
          (calibration_.calibrated ? calibration_.fingerprint : 0)) {
    return 0;
  }
  size_t installed = 0;
  for (const PlanCacheEntry& e : snapshot.entries) {
    // A snapshot file is outside input: skip an entry that could never have
    // been prepared against this catalog.
    if (e.key.empty() || e.initial_plan == nullptr || e.best_plan == nullptr ||
        !AllScansExist(e.initial_plan, catalog_)) {
      continue;
    }
    Result<std::shared_ptr<const PreparedQuery::State>> state = MakeState(e);
    if (!state.ok()) continue;
    StorePlanCache(e.key, std::move(state).value());
    ++installed;
  }
  if (installed > 0) {
    std::lock_guard<std::mutex> state(state_mu_);
    stats_.plan_cache_imports += installed;
  }
  return installed;
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
