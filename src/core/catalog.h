// The catalog: named base relations with data-integrity metadata and site.
//
// In the layered architecture (Section 2.1) base relations live in the DBMS;
// the stratum sees them through transfer operations. The catalog also records
// the statically guaranteed data properties the optimizer's precondition
// checks rely on (duplicate-freeness, snapshot-duplicate-freeness, coalescing,
// declared sort order).
#ifndef TQP_CORE_CATALOG_H_
#define TQP_CORE_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/column_batch.h"
#include "core/relation.h"

namespace tqp {

/// Where data resides / where an operation executes (Section 4.5).
enum class Site {
  kDbms,
  kStratum,
};

const char* SiteName(Site s);

/// A registered base relation plus its statically declared guarantees.
struct CatalogEntry {
  Relation data;
  /// No duplicate tuples (full-tuple equality).
  bool duplicate_free = false;
  /// No snapshot contains duplicates (temporal relations).
  bool snapshot_duplicate_free = false;
  /// No value-equivalent tuples with adjacent periods (temporal relations).
  bool coalesced = false;
  /// Declared physical order of the stored tuple list.
  SortSpec order;
  /// Storage site; base tables normally live in the DBMS.
  Site site = Site::kDbms;
};

/// Name → relation registry shared by the planner and the executor.
///
/// Every successful mutation (register/update/drop) bumps a monotonically
/// increasing version. Session-scoped consumers (tqp::Engine's plan and
/// derivation caches) key their cached state on it: anything derived under
/// version v is stale — and must be invalidated, never served — once
/// version() != v.
///
/// Mutations are additionally tracked *per relation*: every successful
/// Register/Update/Drop of `name` stamps that relation with the new global
/// counter, so relation_version(name) moves exactly when `name`'s contents
/// (or existence) change. The global version is always the maximum of the
/// per-relation versions. Dependency-keyed consumers (the Engine's
/// relation-dependency plan-cache invalidation and the subplan result
/// cache) compare per-relation versions instead of the global counter, so
/// an update of relation A never invalidates state derived only from B.
/// Dropped relations keep their stamp (a tombstone): re-registering under
/// the same name yields a strictly larger version, never a repeat.
///
/// Versions are counters of one Catalog object: two catalogs (or one
/// replaced wholesale) can carry equal (name, version) pairs over different
/// data. Consumers that must recognize contents across catalogs or processes
/// (the SQLite backend's mirror) key on relation_digest(name) instead, the
/// ContentDigest computed once when Register/Update accepts the relation.
///
/// Each relation version also has a columnar twin (Columns()), the
/// ColumnTable the vectorized executor scans. It is built on the first
/// vectorized scan of that version and lives with the catalog until
/// Register/Update replaces it or Drop releases it; it is never edited, so
/// a Catalog copy shares its twins with the original.
class Catalog {
 public:
  /// Registers a relation; metadata flags are *verified* against the data so
  /// the optimizer can trust them. Fails if `name` is already registered.
  Status Register(const std::string& name, CatalogEntry entry);

  /// Registers or replaces a relation, with the same metadata verification.
  Status Update(const std::string& name, CatalogEntry entry);

  /// Convenience: registers and derives all metadata flags from the data.
  Status RegisterWithInferredFlags(const std::string& name, Relation data,
                                   Site site = Site::kDbms);

  /// Removes a relation. Returns false (and does not bump the version) if
  /// `name` is not registered.
  bool Drop(const std::string& name);

  bool Contains(const std::string& name) const;
  const CatalogEntry* Find(const std::string& name) const;

  std::vector<std::string> Names() const;

  /// Number of successful mutations so far; 0 for a fresh catalog. Equals
  /// the maximum over all relation_version() values.
  uint64_t version() const { return version_; }

  /// The global version at the last successful mutation of `name`
  /// (including its drop — tombstones persist); 0 if `name` was never
  /// registered. Monotonically increasing per relation.
  uint64_t relation_version(const std::string& name) const;

  /// ContentDigest of `name`'s registered relation; 0 if `name` is not
  /// registered.
  uint64_t relation_digest(const std::string& name) const;

  /// The columnar twin of `name`'s registered relation version, as a table
  /// that shares the twin's columns (copy-on-write, so O(columns)). The
  /// first call for a version runs `build` on the relation under a
  /// once-flag: concurrent first callers build it once, and the others
  /// wait for it. `name` must be registered.
  ColumnTable Columns(
      const std::string& name,
      const std::function<ColumnTable(const Relation&)>& build) const;

 private:
  /// One relation version's columnar twin, built at most once.
  struct ColumnarTwin {
    std::once_flag built;
    ColumnTable table;
  };

  Status Verify(const std::string& name, const CatalogEntry& entry) const;

  std::map<std::string, CatalogEntry> entries_;
  /// Per-relation mutation stamps, including tombstones for dropped names.
  std::map<std::string, uint64_t> relation_versions_;
  /// ContentDigest of every registered relation.
  std::map<std::string, uint64_t> relation_digests_;
  /// The columnar twin of every registered relation version.
  std::map<std::string, std::shared_ptr<ColumnarTwin>> twins_;
  uint64_t version_ = 0;
};

}  // namespace tqp

#endif  // TQP_CORE_CATALOG_H_
