#include "core/catalog.h"

#include <atomic>

namespace tqp {

namespace {

/// The source of every Catalog's stamps. Each value is handed out once, so
/// two catalogs share a stamp only when one copied it from the other.
/// Relaxed order suffices: every fetch_add reads the latest value, so the
/// stamps are unique, and a catalog (mutated under its owner's
/// synchronization) sees them strictly increase.
std::atomic<uint64_t> next_stamp{0};

}  // namespace

const char* SiteName(Site s) {
  return s == Site::kDbms ? "DBMS" : "STRATUM";
}

Status Catalog::Register(const std::string& name, CatalogEntry entry) {
  if (entries_.count(name) > 0) {
    return Status::InvalidArgument("relation '" + name + "' already registered");
  }
  TQP_RETURN_IF_ERROR(Verify(name, entry));
  entry.data.set_order(entry.order);
  relation_digests_[name] = ContentDigest(entry.data);
  twins_[name] = std::make_shared<ColumnarTwin>();
  entries_.emplace(name, std::move(entry));
  Stamp(name);
  return Status::OK();
}

Status Catalog::Update(const std::string& name, CatalogEntry entry) {
  TQP_RETURN_IF_ERROR(Verify(name, entry));
  entry.data.set_order(entry.order);
  relation_digests_[name] = ContentDigest(entry.data);
  twins_[name] = std::make_shared<ColumnarTwin>();
  entries_[name] = std::move(entry);
  Stamp(name);
  return Status::OK();
}

bool Catalog::Drop(const std::string& name) {
  if (entries_.erase(name) == 0) return false;
  relation_digests_.erase(name);
  twins_.erase(name);
  // Tombstone: the drop is a mutation of `name`, visible to per-relation
  // consumers exactly like an update.
  Stamp(name);
  return true;
}

void Catalog::Stamp(const std::string& name) {
  version_ = next_stamp.fetch_add(1, std::memory_order_relaxed) + 1;
  relation_versions_[name] = version_;
}

uint64_t Catalog::relation_version(const std::string& name) const {
  auto it = relation_versions_.find(name);
  return it == relation_versions_.end() ? 0 : it->second;
}

uint64_t Catalog::relation_digest(const std::string& name) const {
  auto it = relation_digests_.find(name);
  return it == relation_digests_.end() ? 0 : it->second;
}

ColumnTable Catalog::Columns(
    const std::string& name,
    const std::function<ColumnTable(const Relation&)>& build) const {
  ColumnarTwin& twin = *twins_.at(name);
  std::call_once(twin.built,
                 [&] { twin.table = build(entries_.at(name).data); });
  return twin.table;
}

Status Catalog::Verify(const std::string& name,
                       const CatalogEntry& entry) const {
  // Verify declared metadata so downstream precondition checks can trust it.
  if (entry.duplicate_free && entry.data.HasDuplicates()) {
    return Status::InvalidArgument("relation '" + name +
                                   "' declared duplicate-free but has duplicates");
  }
  if (entry.snapshot_duplicate_free) {
    if (entry.data.HasSnapshotDuplicates()) {
      return Status::InvalidArgument(
          "relation '" + name +
          "' declared snapshot-duplicate-free but has snapshot duplicates");
    }
  }
  if (entry.coalesced) {
    if (!entry.data.IsTemporal() || !entry.data.IsCoalesced()) {
      return Status::InvalidArgument("relation '" + name +
                                     "' declared coalesced but is not");
    }
  }
  if (!entry.order.empty() && !entry.data.IsSortedBy(entry.order)) {
    return Status::InvalidArgument("relation '" + name +
                                   "' declared order does not hold");
  }
  return Status::OK();
}

Status Catalog::RegisterWithInferredFlags(const std::string& name,
                                          Relation data, Site site) {
  CatalogEntry entry;
  entry.duplicate_free = !data.HasDuplicates();
  entry.snapshot_duplicate_free =
      data.IsTemporal() ? !data.HasSnapshotDuplicates() : entry.duplicate_free;
  entry.coalesced = data.IsTemporal() && data.IsCoalesced();
  entry.site = site;
  entry.data = std::move(data);
  return Register(name, std::move(entry));
}

bool Catalog::Contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

const CatalogEntry* Catalog::Find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : entries_) out.push_back(name);
  return out;
}

}  // namespace tqp
