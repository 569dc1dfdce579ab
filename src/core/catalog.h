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
/// Every successful mutation (Register/Update/Drop) of `name` stamps that
/// relation with a fresh value of one process-wide counter, so a (name,
/// stamp) pair names exactly one relation content in the process:
/// relation_version(name) moves exactly when `name`'s contents (or
/// existence) change, a Catalog copy shares its original's stamps, and a
/// catalog rebuilt by the same registrations never repeats them. version()
/// is the latest stamp, so an equal version means the same contents.
/// Consumers that cache derived state (tqp::Engine's plan cache and
/// prepared queries, the subplan result cache) compare per-relation stamps:
/// an update of relation A never invalidates state derived only from B,
/// and no replacement catalog can pass for the one the state was made for.
/// Dropped relations keep their stamp (a tombstone): re-registering under
/// the same name yields a strictly larger stamp, never a repeat.
///
/// Stamps mean nothing in another process. Consumers that must recognize
/// contents across processes (the SQLite backend's mirror, persisted plan
/// caches) key on relation_digest(name) instead, the ContentDigest computed
/// once when Register/Update accepts the relation.
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

  /// Removes a relation. Returns false (and stamps nothing) if `name` is
  /// not registered.
  bool Drop(const std::string& name);

  bool Contains(const std::string& name) const;
  const CatalogEntry* Find(const std::string& name) const;

  std::vector<std::string> Names() const;

  /// The stamp of this catalog's latest successful mutation; 0 for a fresh
  /// catalog. Equals the maximum over all relation_version() values.
  uint64_t version() const { return version_; }

  /// The stamp of the last successful mutation of `name` (including its
  /// drop — tombstones persist); 0 if `name` was never registered.
  /// Strictly increasing per relation.
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
  /// Stamps `name` with the next process-wide stamp.
  void Stamp(const std::string& name);

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
