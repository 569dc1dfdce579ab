#include "exec/result_cache.h"

#include <utility>

#include "core/hash.h"
#include "core/value.h"

namespace tqp {

uint64_t SubplanCacheKey::Hash() const {
  uint64_t h = plan == nullptr ? 0 : plan->fingerprint();
  h = HashCombine(h, env);
  h = HashCombine(h, contract);
  if (dep_names != nullptr) {
    for (const std::string& name : *dep_names) {
      h = HashCombine(h, HashString(name));
    }
  }
  for (uint64_t v : dep_versions) h = HashCombine(h, v);
  return h;
}

uint64_t ApproxRelationBytes(const Relation& r) {
  // Fixed per-tuple overhead (vector header + small-vector slack) plus the
  // variant payload per value; strings add their heap storage. Deterministic
  // by construction: a function of the tuple contents only.
  uint64_t bytes = 64 + 32 * static_cast<uint64_t>(r.schema().size());
  for (const Tuple& t : r.tuples()) {
    bytes += 32;
    for (size_t i = 0; i < t.size(); ++i) {
      const Value& v = t.at(i);
      bytes += 24;
      if (v.type() == ValueType::kString) bytes += v.AsString().size();
    }
  }
  return bytes;
}

uint64_t ContractFingerprint(const QueryContract& contract,
                             uint64_t executor_tag) {
  uint64_t h = HashMix64(static_cast<uint64_t>(contract.result_type) + 1);
  for (const SortKey& k : contract.order_by) {
    h = HashCombine(h, HashString(k.attr));
    h = HashCombine(h, k.ascending ? 1 : 2);
  }
  return HashCombine(h, executor_tag);
}

SubplanCacheKey MakeSubplanCacheKey(const PlanPtr& node, const NodeInfo& info,
                                    const Catalog& catalog, uint64_t env,
                                    uint64_t contract_fp) {
  SubplanCacheKey key;
  key.plan = node;
  key.env = env;
  key.contract = contract_fp;
  key.dep_names = info.relations;
  const std::vector<std::string>& names = info.relation_deps();
  key.dep_versions.reserve(names.size());
  for (const std::string& name : names) {
    key.dep_versions.push_back(catalog.relation_version(name));
  }
  return key;
}

SubplanResultCache::SubplanResultCache(uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {}

bool SubplanResultCache::KeysEqual(const SubplanCacheKey& a,
                                   const SubplanCacheKey& b) {
  // Fingerprint equality is necessary but not sufficient: confirm the plans
  // structurally, per the codebase-wide hashing contract.
  if (a.env != b.env || a.contract != b.contract) return false;
  if (a.dep_versions != b.dep_versions) return false;
  static const std::vector<std::string> kNoNames;
  const std::vector<std::string>& an =
      a.dep_names == nullptr ? kNoNames : *a.dep_names;
  const std::vector<std::string>& bn =
      b.dep_names == nullptr ? kNoNames : *b.dep_names;
  if (a.dep_names != b.dep_names && an != bn) return false;
  if (a.plan == b.plan) return true;
  if (a.plan == nullptr || b.plan == nullptr) return false;
  return a.plan->fingerprint() == b.plan->fingerprint() &&
         PlanNode::Equal(a.plan, b.plan);
}

std::shared_ptr<const Relation> SubplanResultCache::Lookup(
    const SubplanCacheKey& key) {
  const uint64_t h = key.Hash();
  std::lock_guard<std::mutex> lock(mu_);
  auto [lo, hi] = index_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    Lru::iterator e = it->second;
    if (!KeysEqual(e->key, key)) continue;
    ++hits_;
    lru_.splice(lru_.begin(), lru_, e);  // refresh recency; iterator stable
    return e->result;
  }
  ++misses_;
  return nullptr;
}

void SubplanResultCache::EvictLocked(Lru::iterator it) {
  auto [lo, hi] = index_.equal_range(it->hash);
  for (auto i = lo; i != hi; ++i) {
    if (i->second == it) {
      index_.erase(i);
      break;
    }
  }
  bytes_ -= it->bytes;
  lru_.erase(it);
  ++evictions_;
}

void SubplanResultCache::Insert(const SubplanCacheKey& key, Relation result) {
  const uint64_t bytes = ApproxRelationBytes(result);
  if (capacity_ == 0 || bytes > capacity_) return;
  const uint64_t h = key.Hash();
  auto snapshot = std::make_shared<const Relation>(std::move(result));

  std::lock_guard<std::mutex> lock(mu_);
  // Replace an identical key in place (concurrent sessions may race to
  // compute the same subplan; last writer wins, results are identical).
  auto [lo, hi] = index_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    Lru::iterator e = it->second;
    if (!KeysEqual(e->key, key)) continue;
    bytes_ = bytes_ - e->bytes + bytes;
    e->bytes = bytes;
    e->result = std::move(snapshot);
    lru_.splice(lru_.begin(), lru_, e);
    while (bytes_ > capacity_) EvictLocked(std::prev(lru_.end()));
    return;
  }

  lru_.push_front(Entry{key, h, bytes, std::move(snapshot)});
  index_.emplace(h, lru_.begin());
  bytes_ += bytes;
  ++insertions_;
  while (bytes_ > capacity_) EvictLocked(std::prev(lru_.end()));
}

ResultCacheStats SubplanResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResultCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.capacity_bytes = capacity_;
  return s;
}

}  // namespace tqp
