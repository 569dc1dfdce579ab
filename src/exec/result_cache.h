// Stamp-keyed subplan result cache for incremental prepared-query
// re-execution.
//
// When the catalog restamps one relation, a prepared plan only needs to
// recompute the subplans that transitively read it; everything else can be
// spliced in from a cache of earlier, byte-identical results. An entry is keyed on
//
//   (subplan identity, engine environment, query contract,
//    catalog stamps of every base relation it reads)
//
// so a cached result is served only when re-running the subplan from scratch
// would reproduce it byte for byte:
//
//   * subplan identity — the hash-consed PlanNode fingerprint, confirmed
//     structurally on every probe (fingerprints are never trusted blindly);
//   * environment — a caller-provided fingerprint covering everything outside
//     the plan that shapes executor output: DBMS scramble mode and seed,
//     backend identity, and the backend calibration fingerprint;
//   * contract — the query contract (result type + order) under which the
//     plan was annotated; annotation decides coalescing/sort enforcement, so
//     the same tree under a different contract may evaluate differently;
//   * dependency stamps — the sorted relation-dependency set from
//     NodeInfo::relation_deps() paired with Catalog::relation_version()
//     stamps. Stamps are process-unique, so a (name, stamp) pair names one
//     relation content: neither an update nor a wholesale catalog
//     replacement can match an entry made for other contents, and an
//     update of relation A never matches (or evicts) entries that read only
//     relation B. The cache is never cleared; stale entries age out via the
//     LRU bound.
//
// The cache is byte-bounded LRU under a single mutex and is shared by all
// sessions of an Engine across both executors. Entries hold immutable
// std::shared_ptr<const Relation> snapshots, so a hit can outlive eviction.
#ifndef TQP_EXEC_RESULT_CACHE_H_
#define TQP_EXEC_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/derivation.h"
#include "algebra/plan.h"
#include "core/catalog.h"
#include "core/relation.h"

namespace tqp {

/// Lifetime counters, readable while the cache is in use.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Current occupancy.
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t capacity_bytes = 0;
};

/// The full identity of one cached subplan result. `dep_names` must be sorted
/// and deduplicated (NodeInfo::relation_deps() already is) and `dep_versions`
/// is parallel to it.
struct SubplanCacheKey {
  PlanPtr plan;
  uint64_t env = 0;
  uint64_t contract = 0;
  std::shared_ptr<const std::vector<std::string>> dep_names;
  std::vector<uint64_t> dep_versions;

  /// Combined hash over every component; cheap enough to recompute per probe.
  uint64_t Hash() const;
};

/// Deterministic in-memory footprint estimate used for the byte bound.
/// Exact enough that the LRU budget tracks real usage; cheap enough to run
/// on every insertion.
uint64_t ApproxRelationBytes(const Relation& r);

/// Stable digest of a query contract (result type + ORDER BY spec) folded
/// with an executor tag. The tag keeps results segregated per executor:
/// both executors are list-identical at the root by contract, but nothing
/// requires their *intermediate* materializations to agree byte for byte,
/// so cross-executor splicing is never attempted.
uint64_t ContractFingerprint(const QueryContract& contract,
                             uint64_t executor_tag);

/// Builds the complete key for `node`: dependency names come from the
/// derived NodeInfo, versions are stamped from `catalog` (the same snapshot
/// the executor reads under the engine's shared lock, so the vector is
/// consistent with the data the subplan would scan).
SubplanCacheKey MakeSubplanCacheKey(const PlanPtr& node, const NodeInfo& info,
                                    const Catalog& catalog, uint64_t env,
                                    uint64_t contract_fp);

class SubplanResultCache {
 public:
  /// `capacity_bytes` == 0 disables insertion entirely (every probe misses).
  explicit SubplanResultCache(uint64_t capacity_bytes);

  SubplanResultCache(const SubplanResultCache&) = delete;
  SubplanResultCache& operator=(const SubplanResultCache&) = delete;

  /// Returns the cached result for `key`, or nullptr. A hit refreshes LRU
  /// recency. The returned snapshot is immutable and safe to hold after
  /// eviction.
  std::shared_ptr<const Relation> Lookup(const SubplanCacheKey& key);

  /// Stores `result` under `key`, replacing any entry with the identical key
  /// and evicting from the LRU tail until the byte budget holds. Results
  /// larger than the whole budget are not cached.
  void Insert(const SubplanCacheKey& key, Relation result);

  ResultCacheStats stats() const;

 private:
  struct Entry {
    SubplanCacheKey key;
    uint64_t hash = 0;
    uint64_t bytes = 0;
    std::shared_ptr<const Relation> result;
  };
  using Lru = std::list<Entry>;

  static bool KeysEqual(const SubplanCacheKey& a, const SubplanCacheKey& b);
  /// Unlinks `it` from the index and LRU list. Caller holds `mu_`.
  void EvictLocked(Lru::iterator it);

  const uint64_t capacity_;

  mutable std::mutex mu_;
  Lru lru_;  // front = most recent
  std::unordered_multimap<uint64_t, Lru::iterator> index_;
  uint64_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace tqp

#endif  // TQP_EXEC_RESULT_CACHE_H_
