// Vectorized operator kernels and the plan driver.
//
// Every kernel produces the list of the corresponding Eval* in
// exec/eval_ops.cc, over row indices and typed columns instead of per-tuple
// Value vectors — including which occurrence survives duplicate
// elimination, difference fragment order, and rdupT's in-place period
// replacement. Hash-based duplicate lookups reuse the exact Tuple::Hash /
// Tuple::Compare semantics through ColumnTable::RowHash / RowCompare.
//
// The class kernels (rdupT, \T and ∪T, coalT, ℵT, ℵ) share one class index
// (BuildClassIndex): rows grouped by key in first-occurrence order, members
// ascending, built by hash partition on the pool; every class's work then
// runs through VexecRuntime::ForUnits. The reference's per-class maps are
// ordered, but their iteration order is inert: its outputs are placed by
// row or by first occurrence. Where the reference rescans a class's members
// for every elementary interval, ℵT and \T sweep the class's endpoints
// instead, keeping the members that cover the current interval in row
// order — so each interval folds exactly the members the rescan admits, in
// the rescan's order. rdupT subtracts from each member only the covered
// periods that overlap it. Outputs return to row order (rdupT, \T) or
// first-occurrence order (ℵ, ℵT) from flat per-chunk arrays, so no result
// depends on the thread count.
//
// A class kernel whose key cells are copies of a catalog twin's cells (its
// input's row lineage, vexec_internal.h) does not hash them: it derives its
// class index from the twin's classes on that key, built once per relation
// version (see "Per-version classes" below).
#include "vexec/vexec.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "backend/simulated_backend.h"
#include "core/hash.h"
#include "core/profile.h"
#include "core/task_pool.h"
#include "core/trace.h"
#include "exec/plan_driver.h"
#include "vexec/vexec_internal.h"

namespace tqp {

namespace {

using vexec::EvalColumn;
using vexec::VecEval;

// ---- Row-identity hashing (full-tuple equality) ---------------------------

struct RowRef {
  const ColumnTable* t;
  uint32_t row;
  uint64_t hash;  // ColumnTable::RowHash(row)
};

struct RowRefHash {
  size_t operator()(const RowRef& k) const { return k.hash; }
};

struct RowRefEq {
  bool operator()(const RowRef& a, const RowRef& b) const {
    if (a.hash != b.hash) return false;  // hash is a function of the row
    return ColumnTable::RowEquals(*a.t, a.row, *b.t, b.row);
  }
};

// ---- Morsel runtime -------------------------------------------------------

// The execution context threaded through every kernel: the work-stealing
// pool (null = serial) and the morsel granularity.
// Parallel loops split row ranges into morsels whose results are stitched
// back in input order, so kernel output never depends on the thread count —
// with one pool worker or pool == nullptr, every loop degenerates to the
// single-range serial call.
struct VexecRuntime {
  WorkStealingPool* pool = nullptr;
  size_t morsel_rows = 8192;
  /// Per-query span recorder; null = untraced (one pointer test per
  /// parallel loop, then one RAII span per *morsel*, never per row).
  Tracer* tracer = nullptr;

  size_t Workers() const { return pool == nullptr ? 1 : pool->workers(); }

  size_t NumMorsels(size_t count) const {
    size_t g = morsel_rows == 0 ? 1 : morsel_rows;
    return (count + g - 1) / g;
  }

  /// Runs body(begin, end) over [0, count): one call covering everything
  /// when serial, one call per morsel (any thread, any order) otherwise.
  /// Serial and parallel runs see the same begin-aligned morsel boundaries
  /// except for the single-call degenerate cases, so bodies must be
  /// per-row pure (they are: every caller writes row-indexed slots or
  /// per-morsel fragment lists).
  template <typename Body>
  void ForRows(size_t count, const Body& body) const {
    if (pool == nullptr || NumMorsels(count) <= 1) {
      if (count > 0) body(0, count);
      return;
    }
    if (tracer != nullptr) {
      pool->ParallelFor(count, morsel_rows, [&](size_t b, size_t e) {
        TraceSpan span(tracer, "vexec", "morsel");
        span.Arg("rows", static_cast<uint64_t>(e - b));
        body(b, e);
      });
      return;
    }
    pool->ParallelFor(count, morsel_rows, body);
  }

  /// Runs body(i) for i in [0, n): independent coarse tasks (one output
  /// column, one sort run), one morsel each.
  template <typename Body>
  void ForTasks(size_t n, const Body& body) const {
    if (pool == nullptr || n <= 1) {
      for (size_t i = 0; i < n; ++i) body(i);
      return;
    }
    pool->ParallelFor(n, 1, [&](size_t b, size_t e) {
      TraceSpan span(tracer, "vexec", "task");
      for (size_t i = b; i < e; ++i) body(i);
    });
  }

  /// The most chunks ForUnits cuts a class index into: one when serial,
  /// eight per worker otherwise (never more than there are classes).
  size_t UnitChunks() const { return pool == nullptr ? 1 : Workers() * 8; }

  /// Runs body(chunk, begin, end) over the classes [0, offsets.size() - 1)
  /// of a class index (offsets = its member offsets), cut into UnitChunks()
  /// contiguous ranges of about equal member count: a class larger than
  /// the target is a range of its own, and a neighbour may come out empty
  /// (it is skipped). Chunk k holds earlier classes than chunk k + 1, so
  /// per-chunk outputs concatenate in class order.
  template <typename Body>
  void ForUnits(const std::vector<uint32_t>& offsets, const Body& body) const {
    const size_t classes = offsets.size() - 1;
    const size_t chunks = std::min(UnitChunks(), classes);
    if (chunks <= 1) {
      if (classes > 0) body(0, 0, classes);
      return;
    }
    const uint64_t total = offsets.back();
    std::vector<size_t> bound(chunks + 1, classes);
    for (size_t k = 0; k < chunks; ++k) {
      bound[k] = static_cast<size_t>(
          std::lower_bound(offsets.begin(), offsets.end() - 1,
                           k * total / chunks) -
          offsets.begin());
    }
    pool->ParallelFor(chunks, 1, [&](size_t b, size_t e) {
      for (size_t k = b; k < e; ++k) {
        if (bound[k] == bound[k + 1]) continue;
        TraceSpan span(tracer, "vexec", "units");
        if (span.active()) {
          span.Arg("units", static_cast<uint64_t>(bound[k + 1] - bound[k]));
        }
        body(k, bound[k], bound[k + 1]);
      }
    });
  }
};

// Concatenates per-morsel row lists in morsel order — the deterministic
// stitch step of every parallel filter-style kernel.
std::vector<uint32_t> ConcatFrags(
    const std::vector<std::vector<uint32_t>>& per) {
  size_t total = 0;
  for (const auto& v : per) total += v.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const auto& v : per) out.insert(out.end(), v.begin(), v.end());
  return out;
}

// ---- Row lineage ----------------------------------------------------------

// A lineage over `twin` and `rows` with column map `cols`, or none when no
// column maps to the twin.
std::shared_ptr<const RowLineage> MakeLineage(
    std::shared_ptr<vexec::TwinClasses> twin,
    std::shared_ptr<const std::vector<uint32_t>> rows, std::vector<int> cols) {
  if (std::all_of(cols.begin(), cols.end(), [](int c) { return c < 0; })) {
    return nullptr;
  }
  return std::make_shared<const RowLineage>(
      RowLineage{std::move(twin), std::move(rows), std::move(cols)});
}

// Builds a table whose row k copies row rows[k] of `src`: fill(dst, c,
// rows) fills output column c, one column per task, and the table's
// lineage is src's composed with `rows`, less the columns in `unmapped`.
// Under the identity lineage `rows` itself becomes the twin rows;
// otherwise one more task composes them beside the column tasks.
template <typename Fill>
ColumnTable GatherWithLineage(const ColumnTable& src, const Schema& out_schema,
                              std::vector<uint32_t> rows,
                              std::initializer_list<int> unmapped,
                              const Fill& fill, const VexecRuntime& rt) {
  ColumnTable out(out_schema);
  const RowLineage* from = src.lineage().get();
  const size_t cols = out.num_cols();
  const bool compose = from != nullptr && from->rows != nullptr;
  std::shared_ptr<const std::vector<uint32_t>> twin_rows;
  rt.ForTasks(cols + (compose ? 1 : 0), [&](size_t c) {
    if (c < cols) {
      fill(out.mutable_col(c), c, rows);
      return;
    }
    std::vector<uint32_t> composed(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      composed[k] = (*from->rows)[rows[k]];
    }
    twin_rows = std::make_shared<const std::vector<uint32_t>>(
        std::move(composed));
  });
  out.CommitRows(rows.size());
  if (from == nullptr) return out;
  if (!compose) {
    twin_rows = std::make_shared<const std::vector<uint32_t>>(std::move(rows));
  }
  std::vector<int> map = from->cols;
  for (int c : unmapped) {
    if (c >= 0) map[static_cast<size_t>(c)] = -1;
  }
  out.set_lineage(MakeLineage(from->twin, std::move(twin_rows), std::move(map)));
  return out;
}

// Gathers `rows` of `src` into a fresh table, one column per task.
ColumnTable GatherTable(const ColumnTable& src, const Schema& out_schema,
                        std::vector<uint32_t> rows, const VexecRuntime& rt) {
  return GatherWithLineage(
      src, out_schema, std::move(rows), {},
      [&](ColumnVec& dst, size_t c, const std::vector<uint32_t>& at) {
        dst.AppendGather(src.col(c), at.data(), at.size());
      },
      rt);
}

// Per-row RowHash (full-row identity), folded column by column over each
// morsel.
std::vector<uint64_t> RowHashes(const ColumnTable& t, const VexecRuntime& rt) {
  std::vector<uint64_t> h(t.rows());
  rt.ForRows(t.rows(), [&](size_t b, size_t e) {
    t.RowHashes(b, e, h.data() + b);
  });
  return h;
}

// Per-row class-key hashes over `cols` (the non-time columns of a
// value-equivalence class, or the group-by columns): the Compare-consistent
// class hash, folded column by column over each morsel.
std::vector<uint64_t> KeyHashes(const ColumnTable& t,
                                const std::vector<int>& cols,
                                const VexecRuntime& rt) {
  std::vector<uint64_t> h(t.rows());
  rt.ForRows(t.rows(), [&](size_t b, size_t e) {
    t.ClassHashes(cols, b, e, h.data() + b);
  });
  return h;
}

// ---- Class index ----------------------------------------------------------

// Rows grouped by a key (the non-temporal attributes, or the group-by
// columns) in compressed form: class c's member rows are
// members[offsets[c], offsets[c + 1]), ascending, and classes are numbered
// in first-occurrence order, so a class's first member is its first row and
// first rows ascend with c. The layout is a function of the rows and the
// key alone, never of the thread count.
struct ClassIndex {
  std::vector<uint32_t> offsets{0};  // classes() + 1 entries
  std::vector<uint32_t> members;

  size_t classes() const { return offsets.size() - 1; }
  const uint32_t* begin(size_t c) const {
    return members.data() + offsets[c];
  }
  const uint32_t* end(size_t c) const {
    return members.data() + offsets[c + 1];
  }
};

// Builds the class index of rows [0, hash.size()), where equal(a, b) is the
// key equality on row ids and hash[i] a hash consistent with it. A hash
// partition on the pool: rows scatter to partitions by hash, ascending
// within each; every partition numbers its classes through one flat
// open-addressing table; ranking the first-occurrence flags turns those
// local numbers into global first-occurrence ones; and each partition
// scatters its rows into their classes. The partition and chunk counts only
// split the work — any of them gives the same index — and nothing is
// allocated per class.
template <typename Equal>
ClassIndex BuildClassIndex(const std::vector<uint64_t>& hash,
                           const Equal& equal, const VexecRuntime& rt) {
  const size_t n = hash.size();
  // One chunk per morsel, up to one per worker; 64 partitions when split.
  const size_t chunks =
      std::max<size_t>(1, std::min(rt.Workers(), rt.NumMorsels(n)));
  const unsigned bits = chunks == 1 ? 0 : 6;
  const size_t parts = size_t{1} << bits;
  auto part_of = [&](uint64_t m) {
    return bits == 0 ? size_t{0} : static_cast<size_t>(m >> (64 - bits));
  };
  auto chunk_begin = [&](size_t t) { return t * n / chunks; };

  // Row ids grouped by partition (mixed hashes beside them), each partition
  // in ascending row order: per-chunk histograms, then a scatter in
  // (partition, chunk) order.
  std::vector<size_t> cursor(chunks * parts, 0);
  rt.ForTasks(chunks, [&](size_t t) {
    size_t* count = &cursor[t * parts];
    for (size_t i = chunk_begin(t); i < chunk_begin(t + 1); ++i) {
      ++count[part_of(HashMix64(hash[i]))];
    }
  });
  std::vector<size_t> part_begin(parts + 1, n);
  size_t at = 0;
  for (size_t p = 0; p < parts; ++p) {
    part_begin[p] = at;
    for (size_t t = 0; t < chunks; ++t) {
      size_t c = cursor[t * parts + p];
      cursor[t * parts + p] = at;
      at += c;
    }
  }
  std::vector<uint32_t> order(n);
  std::vector<uint64_t> mixed(n);
  rt.ForTasks(chunks, [&](size_t t) {
    size_t* next = &cursor[t * parts];
    for (size_t i = chunk_begin(t); i < chunk_begin(t + 1); ++i) {
      uint64_t m = HashMix64(hash[i]);
      size_t pos = next[part_of(m)]++;
      order[pos] = static_cast<uint32_t>(i);
      mixed[pos] = m;
    }
  });

  // Local class numbers per position, plus each local class's first row
  // and size; a row that opens its class is flagged.
  struct Part {
    std::vector<uint32_t> first;  // local class -> first row
    std::vector<uint32_t> size;   // local class -> members (later: cursor)
  };
  std::vector<Part> part(parts);
  std::vector<uint32_t> local(n);
  std::vector<uint8_t> opens(n, 0);
  rt.ForTasks(parts, [&](size_t p) {
    const size_t b = part_begin[p], e = part_begin[p + 1];
    size_t cap = 2;
    while (cap < 2 * (e - b)) cap <<= 1;
    constexpr uint32_t kEmpty = ~uint32_t{0};
    std::vector<uint32_t> slot(cap, kEmpty);
    std::vector<uint64_t> first_hash;
    Part& pt = part[p];
    for (size_t pos = b; pos < e; ++pos) {
      const uint64_t m = mixed[pos];
      const uint32_t row = order[pos];
      for (size_t s = m & (cap - 1);; s = (s + 1) & (cap - 1)) {
        uint32_t c = slot[s];
        if (c == kEmpty) {
          c = static_cast<uint32_t>(pt.first.size());
          slot[s] = c;
          pt.first.push_back(row);
          pt.size.push_back(0);
          first_hash.push_back(m);
          opens[row] = 1;
        } else if (first_hash[c] != m || !equal(pt.first[c], row)) {
          continue;
        }
        local[pos] = c;
        ++pt.size[c];
        break;
      }
    }
  });

  // Global class numbers: the rank of each first row among all first rows.
  std::vector<uint32_t> rank(n);
  uint32_t classes = 0;
  for (size_t i = 0; i < n; ++i) {
    if (opens[i]) rank[i] = classes++;
  }

  ClassIndex idx;
  idx.offsets.assign(classes + 1, 0);
  for (const Part& pt : part) {
    for (size_t c = 0; c < pt.first.size(); ++c) {
      idx.offsets[rank[pt.first[c]] + 1] = pt.size[c];
    }
  }
  for (size_t c = 1; c < idx.offsets.size(); ++c) {
    idx.offsets[c] += idx.offsets[c - 1];
  }
  idx.members.resize(n);
  rt.ForTasks(parts, [&](size_t p) {
    Part& pt = part[p];
    for (size_t c = 0; c < pt.first.size(); ++c) {
      pt.size[c] = idx.offsets[rank[pt.first[c]]];
    }
    for (size_t pos = part_begin[p]; pos < part_begin[p + 1]; ++pos) {
      idx.members[pt.size[local[pos]]++] = order[pos];
    }
  });
  return idx;
}

// ---- Per-version classes --------------------------------------------------
//
// A relation version's classes on a key are built once, beside its twin, and
// every later class kernel whose key cells are copies of that twin's cells
// (its input's row lineage says so) derives its class index from them
// instead of hashing and comparing key cells. Derivation applies when every
// key column maps to a twin column stored as int64, string, or double
// without NaN. Key equality is then an equivalence relation on the twin's
// cells, so the classes of any subset of its rows are the twin's classes
// restricted to the subset, and BuildClassIndex over each row's twin class
// id, with integer equality, yields the hashed build's index exactly: the
// same first-occurrence class numbers, members ascending. A NaN (which
// ties every number) or a boxed column (whose cross-type numeric keys are
// not transitive) keeps the hashed build.

// Key equality of rows a and b of `t` over the columns `key`.
struct KeyEqual {
  const ColumnTable& t;
  const std::vector<int>& key;
  bool operator()(uint32_t a, uint32_t b) const {
    for (int c : key) {
      const ColumnVec& col = t.col(static_cast<size_t>(c));
      if (ColumnVec::CompareCells(col, a, col, b) != 0) return false;
    }
    return true;
  }
};

// Equality of class ids, the key of a derived build.
struct IdEqual {
  const std::vector<uint64_t>& ids;
  bool operator()(uint32_t a, uint32_t b) const { return ids[a] == ids[b]; }
};

// The class index of `t`'s rows on `key` by hashing and comparing key
// cells: they compare with CompareCells (CellRef::Compare's cross-type
// numeric equality), so they hash with the Compare-consistent class hash.
ClassIndex HashedClassIndex(const ColumnTable& t, const std::vector<int>& key,
                            const VexecRuntime& rt) {
  return BuildClassIndex(KeyHashes(t, key, rt), KeyEqual{t, key}, rt);
}

std::atomic<vexec::ClassIndexAudit*> class_index_audit{nullptr};

}  // namespace

namespace vexec {

// Another twin's classes mapped onto a KeyClasses' own (JointClassIds):
// right class d becomes `to[d]`. It holds for one pairing of key columns,
// left_cols[k] against right_cols[k], and lives while the other twin does.
struct ClassMap {
  std::weak_ptr<TwinClasses> right;
  std::vector<int> left_cols, right_cols;
  std::shared_ptr<const std::vector<uint32_t>> to;
};

// A twin's classes on one key, a sorted set K of twin columns.
struct KeyClasses {
  std::once_flag built;
  /// Every column of K is stored as int64, string, or double without NaN.
  /// Otherwise nothing is built, and kernels keyed on K hash.
  bool derivable = false;
  /// The twin's own class index on K, built by BuildClassIndex.
  std::shared_ptr<const ClassIndex> index;
  /// The class of each twin row in `index`.
  std::vector<uint32_t> class_of;
  /// Other twins' classes mapped onto these, built on first demand.
  mutable std::mutex maps_mu;
  mutable std::vector<ClassMap> maps;
};

// The class cache of one relation version. VecScan creates it with the
// version's columnar twin and gives the twin a lineage that holds it, so it
// is shared by every table derived from the twin and freed with the twin.
struct TwinClasses {
  explicit TwinClasses(ColumnTable columns) : twin(std::move(columns)) {}

  /// The twin's columns, shared. Without lineage: the twin's own would hold
  /// this cache and keep it alive for ever.
  const ColumnTable twin;
  std::mutex mu;
  /// By K. Entries are never erased, so references to them stay valid for
  /// the cache's lifetime.
  std::map<std::vector<int>, std::unique_ptr<KeyClasses>> by_key;
};

void SetClassIndexAudit(ClassIndexAudit* audit) {
  class_index_audit.store(audit, std::memory_order_release);
}

}  // namespace vexec

namespace {

using vexec::ClassMap;
using vexec::KeyClasses;
using vexec::TwinClasses;

// The twin's classes on the twin columns `cols` (any order, repeats
// allowed), built on the first demand for that key set: concurrent first
// users wait for the one build, as for the twin itself.
const KeyClasses& TwinKeyClasses(TwinClasses& tc, std::vector<int> cols,
                                 const VexecRuntime& rt) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  KeyClasses* kc = nullptr;
  {
    std::lock_guard<std::mutex> lock(tc.mu);
    std::unique_ptr<KeyClasses>& slot = tc.by_key[cols];
    if (slot == nullptr) slot = std::make_unique<KeyClasses>();
    kc = slot.get();
  }
  std::call_once(kc->built, [&] {
    const ColumnTable& twin = tc.twin;
    TraceSpan span(rt.tracer, "vexec", "twin_classes");
    if (span.active()) span.Arg("rows", static_cast<uint64_t>(twin.rows()));
    for (int c : cols) {
      const ColumnVec& col = twin.col(static_cast<size_t>(c));
      if (col.storage() == ColumnStorage::kDouble) {
        for (size_t i = 0; i < col.size(); ++i) {
          if (!col.IsNull(i) && std::isnan(col.DoubleAt(i))) return;
        }
      } else if (col.storage() != ColumnStorage::kInt64 &&
                 col.storage() != ColumnStorage::kString) {
        return;
      }
    }
    auto index = std::make_shared<const ClassIndex>(
        HashedClassIndex(twin, cols, rt));
    kc->class_of.resize(twin.rows());
    rt.ForUnits(index->offsets, [&](size_t, size_t cb, size_t ce) {
      for (size_t c = cb; c < ce; ++c) {
        for (const uint32_t* m = index->begin(c); m != index->end(c); ++m) {
          kc->class_of[*m] = static_cast<uint32_t>(c);
        }
      }
    });
    kc->index = std::move(index);
    kc->derivable = true;
  });
  return *kc;
}

// Where the key columns of a table trace to: the twin's class cache, the
// twin column of each key column (in key order), and the twin row of each
// row (null = the identity). `twin` is null when the table has no lineage
// or a key column is unmapped.
struct KeyLineage {
  std::shared_ptr<TwinClasses> twin;
  std::vector<int> cols;
  const std::vector<uint32_t>* rows = nullptr;
};

KeyLineage TraceKey(const ColumnTable& t, const std::vector<int>& key) {
  KeyLineage out;
  const RowLineage* lin = t.lineage().get();
  if (lin == nullptr) return out;
  for (int c : key) {
    const int twin_col = lin->cols[static_cast<size_t>(c)];
    if (twin_col < 0) return out;
    out.cols.push_back(twin_col);
  }
  out.twin = lin->twin;
  out.rows = lin->rows.get();
  return out;
}

// The derivable twin classes a traced key maps to, or null.
const KeyClasses* Derivable(const KeyLineage& kl, const VexecRuntime& rt) {
  if (kl.twin == nullptr) return nullptr;
  const KeyClasses& kc = TwinKeyClasses(*kl.twin, kl.cols, rt);
  return kc.derivable ? &kc : nullptr;
}

// ids[i] = the twin class of row i, for rows [0, n) of a table with twin
// rows `rows` (null = the identity), through `to` when it is set.
void FillClassIds(const KeyClasses& kc, const std::vector<uint32_t>* rows,
                  const std::vector<uint32_t>* to, size_t n, uint64_t* ids,
                  const VexecRuntime& rt) {
  rt.ForRows(n, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const uint32_t c = kc.class_of[rows == nullptr ? i : (*rows)[i]];
      ids[i] = to == nullptr ? c : (*to)[c];
    }
  });
}

// Counts `idx` in the audit, when one is set; a derived index is checked
// against hashed(), the build over the same rows' key cells.
template <typename Hashed>
void AuditClassIndex(bool derived, const ClassIndex& idx,
                     const Hashed& hashed) {
  vexec::ClassIndexAudit* audit =
      class_index_audit.load(std::memory_order_acquire);
  if (audit == nullptr) return;
  if (!derived) {
    audit->hashed.fetch_add(1);
    return;
  }
  audit->derived.fetch_add(1);
  const ClassIndex want = hashed();
  if (want.offsets != idx.offsets || want.members != idx.members) {
    audit->mismatched.fetch_add(1);
  }
}

// The class index of `t`'s rows on the key columns `key`: with the
// identity lineage the twin's cached index, through any other lineage a
// build over the rows' twin class ids, and without one (or when the key is
// not derivable) the hashed build.
std::shared_ptr<const ClassIndex> KeyClassIndex(const ColumnTable& t,
                                                const std::vector<int>& key,
                                                const VexecRuntime& rt) {
  TraceSpan span(rt.tracer, "vexec", "class_index");
  const KeyLineage kl = TraceKey(t, key);
  const KeyClasses* kc = Derivable(kl, rt);
  std::shared_ptr<const ClassIndex> idx;
  if (kc == nullptr) {
    idx = std::make_shared<const ClassIndex>(HashedClassIndex(t, key, rt));
  } else if (kl.rows == nullptr) {
    TQP_DCHECK(kc->class_of.size() == t.rows());
    idx = kc->index;
  } else {
    std::vector<uint64_t> ids(t.rows());
    FillClassIds(*kc, kl.rows, nullptr, t.rows(), ids.data(), rt);
    idx = std::make_shared<const ClassIndex>(
        BuildClassIndex(ids, IdEqual{ids}, rt));
  }
  if (span.active()) {
    span.Arg("rows", static_cast<uint64_t>(t.rows()));
    span.Arg("derived", static_cast<uint64_t>(kc != nullptr ? 1 : 0));
  }
  AuditClassIndex(kc != nullptr, *idx,
                  [&] { return HashedClassIndex(t, key, rt); });
  return idx;
}

// The right twin's classes on `right` mapped onto the left twin's on
// `left`, built on the first demand for the pair: right class d takes the
// left class whose first member's key equals its first member's key
// (ClassHashes, then CompareCells column by column), or the fresh id
// left classes + d. Equality of those keys is an equivalence over both
// twins' cells (the caller checks that the columns pair up), so it decides
// every member of both classes.
std::shared_ptr<const std::vector<uint32_t>> MapClasses(
    const KeyClasses& kl, const KeyLineage& left, const KeyClasses& kr,
    const KeyLineage& right) {
  std::lock_guard<std::mutex> lock(kl.maps_mu);
  for (auto it = kl.maps.begin(); it != kl.maps.end();) {
    const std::shared_ptr<TwinClasses> twin = it->right.lock();
    if (twin == nullptr) {  // the right version is gone
      it = kl.maps.erase(it);
      continue;
    }
    if (twin == right.twin && it->left_cols == left.cols &&
        it->right_cols == right.cols) {
      return it->to;
    }
    ++it;
  }
  auto key_hash = [](const KeyLineage& side, uint32_t row) {
    uint64_t h = 0;
    side.twin->twin.ClassHashes(side.cols, row, row + 1, &h);
    return h;
  };
  const size_t left_classes = kl.index->classes();
  std::vector<std::pair<uint64_t, uint32_t>> reps(left_classes);  // (hash, c)
  for (size_t c = 0; c < left_classes; ++c) {
    reps[c] = {key_hash(left, *kl.index->begin(c)), static_cast<uint32_t>(c)};
  }
  std::sort(reps.begin(), reps.end());
  auto to = std::make_shared<std::vector<uint32_t>>(kr.index->classes());
  for (size_t d = 0; d < to->size(); ++d) {
    const uint32_t rep = *kr.index->begin(d);
    const uint64_t h = key_hash(right, rep);
    (*to)[d] = static_cast<uint32_t>(left_classes + d);
    for (auto it = std::lower_bound(reps.begin(), reps.end(),
                                    std::make_pair(h, uint32_t{0}));
         it != reps.end() && it->first == h; ++it) {
      const uint32_t left_rep = *kl.index->begin(it->second);
      bool equal = true;
      for (size_t k = 0; equal && k < left.cols.size(); ++k) {
        equal = ColumnVec::CompareCells(
                    left.twin->twin.col(static_cast<size_t>(left.cols[k])),
                    left_rep,
                    right.twin->twin.col(static_cast<size_t>(right.cols[k])),
                    rep) == 0;
      }
      if (equal) {
        (*to)[d] = it->second;
        break;
      }
    }
  }
  kl.maps.push_back(ClassMap{right.twin, left.cols, right.cols, to});
  return to;
}

// The class ids of l's rows followed by r's in one id space, when both
// value-equivalence keys trace to derivable twin classes. Keys on the same
// twin columns share the twin's id space. Otherwise the key columns must
// pair up in storage and declared type, so that equality across the sides
// is the same equivalence, and the right twin's classes are mapped onto
// the left's (MapClasses). False means hash instead; `ids` is then
// unspecified.
bool JointClassIds(const ColumnTable& l, const ColumnTable& r,
                   const VexecRuntime& rt, std::vector<uint64_t>* ids) {
  const KeyLineage ll = TraceKey(l, l.NonTemporalCols());
  const KeyLineage rl = TraceKey(r, r.NonTemporalCols());
  if (ll.twin == nullptr || rl.twin == nullptr ||
      ll.cols.size() != rl.cols.size()) {
    return false;
  }
  const bool shared = ll.twin == rl.twin && ll.cols == rl.cols;
  for (size_t k = 0; !shared && k < ll.cols.size(); ++k) {
    const ColumnVec& a = ll.twin->twin.col(static_cast<size_t>(ll.cols[k]));
    const ColumnVec& b = rl.twin->twin.col(static_cast<size_t>(rl.cols[k]));
    if (a.storage() != b.storage() || a.declared_type() != b.declared_type()) {
      return false;
    }
  }
  const KeyClasses* kl = Derivable(ll, rt);
  if (kl == nullptr) return false;
  const KeyClasses* kr = shared ? kl : Derivable(rl, rt);
  if (kr == nullptr) return false;
  const std::shared_ptr<const std::vector<uint32_t>> to =
      shared ? nullptr : MapClasses(*kl, ll, *kr, rl);
  const size_t nl = l.rows();
  ids->resize(nl + r.rows());
  FillClassIds(*kl, ll.rows, nullptr, nl, ids->data(), rt);
  FillClassIds(*kr, rl.rows, to.get(), r.rows(), ids->data() + nl, rt);
  return true;
}

// \T's class index over l's rows followed by r's (row ids nl + j), so each
// class lists its left members, ascending, before its right ones.
std::shared_ptr<const ClassIndex> DifferenceClasses(const ColumnTable& l,
                                                    const ColumnTable& r,
                                                    const VexecRuntime& rt) {
  TraceSpan span(rt.tracer, "vexec", "class_index");
  const size_t nl = l.rows();
  auto hashed = [&] {
    std::vector<uint64_t> hash = KeyHashes(l, l.NonTemporalCols(), rt);
    std::vector<uint64_t> rhash = KeyHashes(r, r.NonTemporalCols(), rt);
    hash.insert(hash.end(), rhash.begin(), rhash.end());
    return BuildClassIndex(
        hash,
        [&](uint32_t a, uint32_t b) {
          return ColumnTable::RowCompareNonTemporal(
                     a < nl ? l : r, a < nl ? a : a - nl, b < nl ? l : r,
                     b < nl ? b : b - nl) == 0;
        },
        rt);
  };
  std::vector<uint64_t> ids;
  const bool derived = JointClassIds(l, r, rt, &ids);
  auto idx = std::make_shared<const ClassIndex>(
      derived ? BuildClassIndex(ids, IdEqual{ids}, rt) : hashed());
  if (span.active()) {
    span.Arg("rows", static_cast<uint64_t>(nl + r.rows()));
    span.Arg("derived", static_cast<uint64_t>(derived ? 1 : 0));
  }
  AuditClassIndex(derived, *idx, hashed);
  return idx;
}

// Stable sort of the index vector [0, n) by `less`. Parallel plan: sort a
// power-of-two number of contiguous runs independently, then merge adjacent
// runs pairwise with std::inplace_merge — itself stable and left-biased —
// which reproduces std::stable_sort's result exactly for any run count
// (runs hold index-ascending row ranges, so ties resolve left-run-first =
// lower-index-first at every level).
template <typename Less>
std::vector<uint32_t> SortIndices(size_t n, const Less& less,
                                  const VexecRuntime& rt) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  size_t workers = rt.Workers();
  if (workers <= 1 || n < 8192) {
    std::stable_sort(order.begin(), order.end(), less);
    return order;
  }
  size_t runs = 1;
  while (runs < workers) runs <<= 1;
  std::vector<size_t> bound(runs + 1);
  for (size_t k = 0; k <= runs; ++k) bound[k] = k * n / runs;
  rt.ForTasks(runs, [&](size_t k) {
    std::stable_sort(order.begin() + bound[k], order.begin() + bound[k + 1],
                     less);
  });
  for (size_t width = 1; width < runs; width <<= 1) {
    size_t pairs = runs / (2 * width);
    rt.ForTasks(pairs, [&](size_t p) {
      size_t lo = bound[2 * width * p];
      size_t mid = bound[2 * width * p + width];
      size_t hi = bound[2 * width * p + 2 * width];
      std::inplace_merge(order.begin() + lo, order.begin() + mid,
                         order.begin() + hi, less);
    });
  }
  return order;
}

// ---- Kernels --------------------------------------------------------------

// The scan hands out the relation version's columnar twin
// (Catalog::Columns), sharing its columns in O(columns). The first
// vectorized scan of a version builds the twin on this query's pool: each
// task appends one column's cells in row order — the same per-cell append
// sequence FromRelation performs. The twin carries the identity lineage,
// whose class cache (empty until a class kernel asks) lives as long as it.
ColumnTable VecScan(const Catalog& catalog, const std::string& name,
                    const VexecRuntime& rt) {
  return catalog.Columns(name, [&rt](const Relation& r) {
    TraceSpan span(rt.tracer, "vexec", "twin_build");
    if (span.active()) span.Arg("rows", static_cast<uint64_t>(r.size()));
    ColumnTable t(r.schema());
    rt.ForTasks(t.num_cols(), [&](size_t c) {
      ColumnVec& col = t.mutable_col(c);
      col.Reserve(r.size());
      for (size_t i = 0; i < r.size(); ++i) col.AppendValue(r.tuple(i).at(c));
    });
    t.CommitRows(r.size());
    std::vector<int> cols(t.num_cols());
    std::iota(cols.begin(), cols.end(), 0);
    t.set_lineage(MakeLineage(std::make_shared<TwinClasses>(t), nullptr,
                              std::move(cols)));
    return t;
  });
}

// The columnar-to-row conversion of the root result, morsel-parallel:
// tuples are written into pre-sized slots, so the row order never depends
// on the thread count.
Relation VecToRelation(const ColumnTable& t, const VexecRuntime& rt) {
  TraceSpan span(rt.tracer, "vexec", "to_rows");
  if (span.active()) span.Arg("rows", static_cast<uint64_t>(t.rows()));
  if (rt.pool == nullptr) return t.ToRelation();
  std::vector<Tuple> tuples(t.rows());
  rt.ForRows(t.rows(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      std::vector<Value> vals;
      vals.reserve(t.num_cols());
      for (size_t c = 0; c < t.num_cols(); ++c) {
        vals.push_back(t.col(c).ValueAt(i));
      }
      tuples[i] = Tuple(std::move(vals));
    }
  });
  return Relation(t.schema(), std::move(tuples));
}

ColumnTable VecSelect(const ColumnTable& in, const ExprPtr& predicate,
                      size_t batch_size, const VexecRuntime& rt) {
  size_t grain = rt.morsel_rows == 0 ? 1 : rt.morsel_rows;
  std::vector<std::vector<uint32_t>> frags(
      std::max<size_t>(1, rt.NumMorsels(in.rows())));
  rt.ForRows(in.rows(), [&](size_t mb, size_t me) {
    std::vector<uint32_t>& keep = frags[mb / grain];
    for (size_t b = mb; b < me; b += batch_size) {
      size_t e = std::min(me, b + batch_size);
      EvalColumn ec = VecEval(predicate, in, b, e);
      if (ec.errs.empty() && ec.col.storage() == ColumnStorage::kInt64 &&
          !ec.col.MayHaveNulls()) {
        // The typed comparison's 0/1 column: a row holds iff its cell is
        // non-zero, as below.
        const int64_t* v = ec.col.ints().data();
        for (uint32_t k = 0; k < e - b; ++k) {
          if (v[k] != 0) keep.push_back(static_cast<uint32_t>(b + k));
        }
        continue;
      }
      for (uint32_t k = 0; k < e - b; ++k) {
        // EvalPredicate semantics: an erroring or NULL row is simply false.
        if (ec.ErrAt(k) != nullptr) continue;
        CellRef c = ec.col.At(k);
        if (c.is_null()) continue;
        if (c.Numeric() != 0) keep.push_back(static_cast<uint32_t>(b + k));
      }
    }
  });
  return GatherTable(in, in.schema(), ConcatFrags(frags), rt);
}

Result<ColumnTable> VecProject(const ColumnTable& in,
                               const std::vector<ProjItem>& items,
                               const Schema& out_schema, size_t batch_size,
                               const VexecRuntime& rt) {
  // An item naming an input attribute (ProjItem::Pass / Rename) shares that
  // input column, and maps to its twin column in the output's lineage: it
  // copies each cell unchanged and cannot err. Every other item is
  // evaluated, and unmapped. The reference fails with the error of the first
  // erroring row (and that row's first erroring item): rows outermost, so
  // an error at (row, item) is superseded only by one at a strictly smaller
  // row. Evaluate column-at-a-time (items outermost, serial), keep the
  // minimum error row, and bound every later item to rows below it: a
  // strict `<` update means the earliest item to error on the final
  // minimum row wins, exactly the reference's (row, item) order. Within an
  // item the rows are evaluated morsel-parallel — VecEval is per-row pure,
  // so evaluating rows the serial bound would have skipped changes nothing
  // observable — and the per-morsel column pieces are stitched back in
  // morsel order.
  size_t err_row = static_cast<size_t>(-1);
  std::string err_msg;
  std::mutex err_mu;
  size_t grain = rt.morsel_rows == 0 ? 1 : rt.morsel_rows;
  ColumnTable out(out_schema);
  const RowLineage* from = in.lineage().get();
  std::vector<int> twin_cols(items.size(), -1);  // the output's lineage
  for (size_t i = 0; i < items.size(); ++i) {
    const ExprPtr& expr = items[i].expr;
    const int src = expr->kind() == ExprKind::kAttr
                        ? in.schema().IndexOf(expr->attr_name())
                        : -1;
    if (src >= 0) {
      out.ShareCol(i, in, static_cast<size_t>(src));
      if (from != nullptr) twin_cols[i] = from->cols[static_cast<size_t>(src)];
      continue;
    }
    size_t limit = std::min(in.rows(), err_row);
    std::vector<ColumnVec> pieces(std::max<size_t>(1, rt.NumMorsels(limit)));
    rt.ForRows(limit, [&](size_t mb, size_t me) {
      ColumnVec& piece = pieces[mb / grain];
      for (size_t b = mb; b < me; b += batch_size) {
        size_t e = std::min(me, b + batch_size);
        EvalColumn ec = VecEval(items[i].expr, in, b, e);
        if (!ec.errs.empty()) {
          std::lock_guard<std::mutex> lock(err_mu);
          for (const auto& [k, msg] : ec.errs) {
            if (b + k < err_row) {
              err_row = b + k;
              err_msg = msg;
            }
          }
        }
        piece.AppendRangeFrom(ec.col, 0, e - b);
      }
    });
    ColumnVec col;
    for (ColumnVec& piece : pieces) col.AppendRangeFrom(piece, 0, piece.size());
    out.mutable_col(i) = std::move(col);
  }
  if (err_row != static_cast<size_t>(-1)) return Status::Error(err_msg);
  out.CommitRows(in.rows());
  if (from != nullptr) {
    out.set_lineage(MakeLineage(from->twin, from->rows, std::move(twin_cols)));
  }
  return out;
}

ColumnTable VecUnionAll(const ColumnTable& l, const ColumnTable& r,
                        const Schema& out_schema, const VexecRuntime& rt) {
  ColumnTable out(out_schema);
  rt.ForTasks(out.num_cols(), [&](size_t c) {
    out.mutable_col(c).AppendRangeFrom(l.col(c), 0, l.rows());
    out.mutable_col(c).AppendRangeFrom(r.col(c), 0, r.rows());
  });
  out.CommitRows(l.rows() + r.rows());
  return out;
}

ColumnTable VecUnion(const ColumnTable& l, const ColumnTable& r,
                     const Schema& out_schema, const VexecRuntime& rt) {
  // Hashes morsel-parallel; the multiplicity bookkeeping stays serial (it
  // is inherently a running count in row order).
  std::vector<uint64_t> lh = RowHashes(l, rt);
  std::vector<uint64_t> rh = RowHashes(r, rt);
  std::unordered_map<RowRef, int64_t, RowRefHash, RowRefEq> left_count;
  left_count.reserve(l.rows());
  for (uint32_t i = 0; i < l.rows(); ++i) ++left_count[RowRef{&l, i, lh[i]}];
  std::unordered_map<RowRef, int64_t, RowRefHash, RowRefEq> right_seen;
  std::vector<uint32_t> extra;
  for (uint32_t j = 0; j < r.rows(); ++j) {
    RowRef key{&r, j, rh[j]};
    int64_t seen = ++right_seen[key];
    auto it = left_count.find(key);
    int64_t in_left = it == left_count.end() ? 0 : it->second;
    if (seen > in_left) extra.push_back(j);
  }
  ColumnTable out(out_schema);
  rt.ForTasks(out.num_cols(), [&](size_t c) {
    out.mutable_col(c).AppendRangeFrom(l.col(c), 0, l.rows());
    out.mutable_col(c).AppendGather(r.col(c), extra.data(), extra.size());
  });
  out.CommitRows(l.rows() + extra.size());
  return out;
}

ColumnTable VecProduct(const ColumnTable& l, const ColumnTable& r,
                       const Schema& out_schema, const VexecRuntime& rt) {
  // Left-major pair order, generated column-wise (one output column per
  // task): left columns repeat each cell |r| times, right columns tile |l|
  // times.
  ColumnTable out(out_schema);
  size_t lc = l.num_cols();
  rt.ForTasks(out.num_cols(), [&](size_t pos) {
    ColumnVec& dst = out.mutable_col(pos);
    dst.Reserve(l.rows() * r.rows());
    if (pos < lc) {
      for (size_t i = 0; i < l.rows(); ++i) {
        for (size_t j = 0; j < r.rows(); ++j) dst.AppendFrom(l.col(pos), i);
      }
    } else {
      for (size_t i = 0; i < l.rows(); ++i) {
        dst.AppendRangeFrom(r.col(pos - lc), 0, r.rows());
      }
    }
  });
  out.CommitRows(l.rows() * r.rows());
  return out;
}

ColumnTable VecDifference(const ColumnTable& l, const ColumnTable& r,
                          const VexecRuntime& rt) {
  std::vector<uint64_t> lh = RowHashes(l, rt);
  std::vector<uint64_t> rh = RowHashes(r, rt);
  std::unordered_map<RowRef, int64_t, RowRefHash, RowRefEq> cancel;
  cancel.reserve(r.rows());
  for (uint32_t j = 0; j < r.rows(); ++j) ++cancel[RowRef{&r, j, rh[j]}];
  std::vector<uint32_t> keep;
  for (uint32_t i = 0; i < l.rows(); ++i) {
    auto it = cancel.find(RowRef{&l, i, lh[i]});
    if (it != cancel.end() && it->second > 0) {
      --it->second;
      continue;
    }
    keep.push_back(i);
  }
  return GatherTable(l, l.schema(), std::move(keep), rt);
}

ColumnTable VecRdup(const ColumnTable& in, const Schema& out_schema,
                    const VexecRuntime& rt) {
  std::vector<uint64_t> h = RowHashes(in, rt);
  std::vector<uint32_t> keep;
  std::unordered_set<RowRef, RowRefHash, RowRefEq> seen;
  seen.reserve(in.rows());
  for (uint32_t i = 0; i < in.rows(); ++i) {
    if (seen.insert(RowRef{&in, i, h[i]}).second) keep.push_back(i);
  }
  return GatherTable(in, out_schema, std::move(keep), rt);
}

ColumnTable VecSort(const ColumnTable& in, const SortSpec& spec,
                    const VexecRuntime& rt) {
  // Per-key comparators specialized once on the column's storage class, so
  // the O(n log n) comparison loop touches raw typed vectors. Null-free
  // typed columns order exactly as Value::Compare does (same type, payload
  // order); anything else falls back to the generic cell comparison.
  enum class KeyKind { kInt64, kDouble, kString, kGeneric };
  struct Key {
    const ColumnVec* col;
    KeyKind kind;
    bool ascending;
  };
  std::vector<Key> keys;
  for (const SortKey& k : spec) {
    int idx = in.schema().IndexOf(k.attr);
    TQP_CHECK(idx >= 0);
    const ColumnVec& col = in.col(static_cast<size_t>(idx));
    KeyKind kind = KeyKind::kGeneric;
    if (!col.MayHaveNulls()) {
      switch (col.storage()) {
        case ColumnStorage::kInt64:
          kind = KeyKind::kInt64;
          break;
        case ColumnStorage::kDouble:
          kind = KeyKind::kDouble;
          break;
        case ColumnStorage::kString:
          kind = KeyKind::kString;
          break;
        default:
          break;
      }
    }
    keys.push_back(Key{&col, kind, k.ascending});
  }
  auto key_compare = [](const Key& k, uint32_t a, uint32_t b) {
    switch (k.kind) {
      case KeyKind::kInt64: {
        int64_t x = k.col->ints()[a], y = k.col->ints()[b];
        return x < y ? -1 : (y < x ? 1 : 0);
      }
      case KeyKind::kDouble: {
        double x = k.col->doubles()[a], y = k.col->doubles()[b];
        return x < y ? -1 : (y < x ? 1 : 0);
      }
      case KeyKind::kString: {
        int c = k.col->strings()[a].compare(k.col->strings()[b]);
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
      case KeyKind::kGeneric:
        return CellRef::Compare(k.col->At(a), k.col->At(b));
    }
    return 0;
  };
  auto less = [&](uint32_t a, uint32_t b) {
    for (const Key& k : keys) {
      int c = key_compare(k, a, b);
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  };
  std::vector<uint32_t> order = SortIndices(in.rows(), less, rt);
  return GatherTable(in, in.schema(), std::move(order), rt);
}

// Extracts the T1/T2 endpoints of every row into flat arrays, morsel by
// morsel: range copies of a null-free int64 column, else cell by cell.
void ExtractPeriods(const ColumnTable& t, std::vector<TimePoint>* begins,
                    std::vector<TimePoint>* ends, const VexecRuntime& rt) {
  auto extract = [&](const ColumnVec& c, std::vector<TimePoint>* out) {
    out->resize(t.rows());
    const bool typed =
        c.storage() == ColumnStorage::kInt64 && !c.MayHaveNulls();
    rt.ForRows(t.rows(), [&](size_t b, size_t e) {
      if (typed) {
        std::copy(c.ints().begin() + b, c.ints().begin() + e,
                  out->begin() + b);
        return;
      }
      for (size_t i = b; i < e; ++i) (*out)[i] = c.At(i).i;
    });
  };
  extract(t.col(static_cast<size_t>(t.t1_index())), begins);
  extract(t.col(static_cast<size_t>(t.t2_index())), ends);
}

ColumnTable VecProductT(const ColumnTable& l, const ColumnTable& r,
                        const Schema& out_schema, const VexecRuntime& rt) {
  std::vector<TimePoint> lb, le, rb, re;
  ExtractPeriods(l, &lb, &le, rt);
  ExtractPeriods(r, &rb, &re, rt);
  // The hot loop: the overlap test runs over flat endpoint arrays —
  // max(begin) < min(end) is exactly lp.Intersect(rp).Valid(), the
  // reference's pair filter. Left rows probe morsel-parallel; each morsel's
  // (left, right) pairs stitch back in morsel order, reproducing the serial
  // left-major pair list.
  size_t grain = rt.morsel_rows == 0 ? 1 : rt.morsel_rows;
  std::vector<std::vector<uint32_t>> lfr(
      std::max<size_t>(1, rt.NumMorsels(l.rows())));
  std::vector<std::vector<uint32_t>> rfr(lfr.size());
  rt.ForRows(l.rows(), [&](size_t mb, size_t me) {
    std::vector<uint32_t>& lf = lfr[mb / grain];
    std::vector<uint32_t>& rf = rfr[mb / grain];
    for (size_t i = mb; i < me; ++i) {
      TimePoint b = lb[i], e = le[i];
      for (uint32_t j = 0; j < r.rows(); ++j) {
        if (std::max(b, rb[j]) < std::min(e, re[j])) {
          lf.push_back(static_cast<uint32_t>(i));
          rf.push_back(j);
        }
      }
    }
  });
  std::vector<uint32_t> li = ConcatFrags(lfr);
  std::vector<uint32_t> ri = ConcatFrags(rfr);

  ColumnTable out(out_schema);
  int l1 = l.t1_index(), l2 = l.t2_index();
  int r1 = r.t1_index(), r2 = r.t2_index();
  // Output column layout: left non-time, right non-time, then 1.T1, 1.T2,
  // 2.T1, 2.T2 and the overlap as T1/T2 — the exact value order
  // EvalProductT pushes. One output column per task.
  std::vector<size_t> lsrc, rsrc;
  for (size_t c = 0; c < l.num_cols(); ++c) {
    if (static_cast<int>(c) != l1 && static_cast<int>(c) != l2) {
      lsrc.push_back(c);
    }
  }
  for (size_t c = 0; c < r.num_cols(); ++c) {
    if (static_cast<int>(c) != r1 && static_cast<int>(c) != r2) {
      rsrc.push_back(c);
    }
  }
  size_t fill0 = lsrc.size() + rsrc.size();
  rt.ForTasks(out.num_cols(), [&](size_t pos) {
    ColumnVec& dst = out.mutable_col(pos);
    if (pos < lsrc.size()) {
      dst.AppendGather(l.col(lsrc[pos]), li.data(), li.size());
    } else if (pos < fill0) {
      dst.AppendGather(r.col(rsrc[pos - lsrc.size()]), ri.data(), ri.size());
    } else {
      dst.Reserve(li.size());
      size_t f = pos - fill0;
      for (size_t k = 0; k < li.size(); ++k) {
        TimePoint v = 0;
        switch (f) {
          case 0: v = lb[li[k]]; break;
          case 1: v = le[li[k]]; break;
          case 2: v = rb[ri[k]]; break;
          case 3: v = re[ri[k]]; break;
          case 4: v = std::max(lb[li[k]], rb[ri[k]]); break;
          default: v = std::min(le[li[k]], re[ri[k]]); break;
        }
        dst.AppendInt64(v);
      }
    }
  });
  out.CommitRows(li.size());
  return out;
}

// Emits one output row per (source row, period) pair, in pair order: every
// column is gathered from `in` except T1/T2, which carry the pair's period —
// the columnar form of "copy the tuple, replace its period in place".
// The lineage follows the gathered rows; T1 and T2 are unmapped.
ColumnTable EmitWithPeriods(const ColumnTable& in, std::vector<uint32_t> rows,
                            const std::vector<Period>& periods,
                            const VexecRuntime& rt) {
  const int t1 = in.t1_index(), t2 = in.t2_index();
  return GatherWithLineage(
      in, in.schema(), std::move(rows), {t1, t2},
      [&](ColumnVec& dst, size_t c, const std::vector<uint32_t>& at) {
        if (static_cast<int>(c) == t1) {
          dst.Reserve(periods.size());
          for (const Period& p : periods) dst.AppendInt64(p.begin);
        } else if (static_cast<int>(c) == t2) {
          dst.Reserve(periods.size());
          for (const Period& p : periods) dst.AppendInt64(p.end);
        } else {
          dst.AppendGather(in.col(c), at.data(), at.size());
        }
      },
      rt);
}

// Per-chunk output of the row-ordered class sweeps (\T, rdupT): (row,
// period) pairs. A row's pairs all come from its own class, hence one
// chunk, in ascending period order.
struct RowPeriods {
  std::vector<uint32_t> rows;
  std::vector<Period> periods;

  void Add(uint32_t row, const Period& p) {
    rows.push_back(row);
    periods.push_back(p);
  }
};

// Merges the chunks' pairs into ascending row order, each row's pairs in
// the order they were added: count per row, prefix sum, scatter. Rows
// [0, n) may appear.
RowPeriods OrderByRow(size_t n, const std::vector<RowPeriods>& chunks,
                      const VexecRuntime& rt) {
  std::vector<uint32_t> at(n + 1, 0);
  rt.ForTasks(chunks.size(), [&](size_t k) {
    for (uint32_t row : chunks[k].rows) ++at[row + 1];
  });
  for (size_t i = 0; i < n; ++i) at[i + 1] += at[i];
  RowPeriods out;
  out.rows.resize(at[n]);
  out.periods.resize(at[n]);
  rt.ForTasks(chunks.size(), [&](size_t k) {
    const RowPeriods& ch = chunks[k];
    for (size_t j = 0; j < ch.rows.size(); ++j) {
      uint32_t pos = at[ch.rows[j]]++;
      out.rows[pos] = ch.rows[j];
      out.periods[pos] = ch.periods[j];
    }
  });
  return out;
}

// The sorted, deduplicated endpoints of the given rows' periods: the cut
// points whose consecutive pairs are the class's elementary intervals.
// Empty and inverted periods contribute cuts like any other.
void CutPoints(const uint32_t* rows, const uint32_t* rows_end,
               const std::vector<TimePoint>& begins,
               const std::vector<TimePoint>& ends,
               std::vector<TimePoint>* cuts) {
  cuts->clear();
  for (const uint32_t* m = rows; m != rows_end; ++m) {
    cuts->push_back(begins[*m]);
    cuts->push_back(ends[*m]);
  }
  std::sort(cuts->begin(), cuts->end());
  cuts->erase(std::unique(cuts->begin(), cuts->end()), cuts->end());
}

// The members covering the current elementary interval of a class sweep,
// in row order. Every endpoint is a cut, so a member with a valid period
// [b, e) covers the interval starting at cut t iff b <= t < e: it enters
// at cut b and leaves at cut e — a member ending at a cut is not active in
// the interval starting there. Empty and inverted periods never enter.
// Members are identified by their position in the class's (ascending)
// member list, so position order is row order.
class ActiveSet {
 public:
  /// Resets the sweep to the class's members `rows` (ascending row ids).
  void Reset(const uint32_t* rows, size_t count,
             const std::vector<TimePoint>& begins,
             const std::vector<TimePoint>& ends) {
    enter_.clear();
    leave_.clear();
    active_.clear();
    for (uint32_t k = 0; k < count; ++k) {
      if (begins[rows[k]] < ends[rows[k]]) {
        enter_.push_back({begins[rows[k]], k});
        leave_.push_back({ends[rows[k]], k});
      }
    }
    std::sort(enter_.begin(), enter_.end());
    std::sort(leave_.begin(), leave_.end());
    next_enter_ = next_leave_ = 0;
  }

  /// Advances to the interval starting at cut t (cuts visited ascending).
  void AdvanceTo(TimePoint t) {
    for (; next_leave_ < leave_.size() && leave_[next_leave_].t <= t;
         ++next_leave_) {
      uint32_t k = leave_[next_leave_].pos;
      active_.erase(std::lower_bound(active_.begin(), active_.end(), k));
    }
    for (; next_enter_ < enter_.size() && enter_[next_enter_].t <= t;
         ++next_enter_) {
      uint32_t k = enter_[next_enter_].pos;
      active_.insert(std::lower_bound(active_.begin(), active_.end(), k), k);
    }
  }

  /// Positions of the covering members, ascending.
  const std::vector<uint32_t>& active() const { return active_; }

 private:
  struct Event {
    TimePoint t;
    uint32_t pos;
    bool operator<(const Event& o) const {
      return t != o.t ? t < o.t : pos < o.pos;
    }
  };
  std::vector<Event> enter_, leave_;
  size_t next_enter_ = 0, next_leave_ = 0;
  std::vector<uint32_t> active_;
};

ColumnTable VecDifferenceT(const ColumnTable& l, const ColumnTable& r,
                           const VexecRuntime& rt) {
  // EvalDifferenceT as an endpoint sweep per value-equivalence class. One
  // class index over the left rows followed by the right rows (row ids
  // nl + j) puts each class's left members, ascending, before its right
  // ones. A class without right rows passes its left rows through
  // unchanged, empty periods included. Otherwise the sweep keeps the
  // covering left members in row order and a count of the covering right
  // periods, so each elementary interval sees exactly the left members the
  // reference's rescan admits, in its order: the first right-cover of them
  // are cancelled and the rest gain the interval, stitched onto their open
  // fragment when adjacent. Fragments return to left-row order.
  const size_t nl = l.rows();
  const std::shared_ptr<const ClassIndex> classes = DifferenceClasses(l, r, rt);
  const ClassIndex& idx = *classes;
  std::vector<TimePoint> begins, ends, rbegins, rends;
  ExtractPeriods(l, &begins, &ends, rt);
  ExtractPeriods(r, &rbegins, &rends, rt);
  begins.insert(begins.end(), rbegins.begin(), rbegins.end());
  ends.insert(ends.end(), rends.begin(), rends.end());

  std::vector<RowPeriods> out(rt.UnitChunks());
  rt.ForUnits(idx.offsets, [&](size_t chunk, size_t cb, size_t ce) {
    RowPeriods& o = out[chunk];
    std::vector<TimePoint> cuts, right_enter, right_leave;
    ActiveSet left;
    std::vector<Period> open;
    std::vector<uint8_t> has_open;
    for (size_t c = cb; c < ce; ++c) {
      const uint32_t* mb = idx.begin(c);
      const uint32_t* me = idx.end(c);
      const uint32_t* split = std::lower_bound(mb, me, nl);
      const size_t left_count = static_cast<size_t>(split - mb);
      if (left_count == 0) continue;  // nothing to cancel from
      if (split == me) {
        for (const uint32_t* m = mb; m != split; ++m) {
          o.Add(*m, Period(begins[*m], ends[*m]));
        }
        continue;
      }
      CutPoints(mb, me, begins, ends, &cuts);
      left.Reset(mb, left_count, begins, ends);
      right_enter.clear();
      right_leave.clear();
      for (const uint32_t* m = split; m != me; ++m) {
        if (begins[*m] < ends[*m]) {
          right_enter.push_back(begins[*m]);
          right_leave.push_back(ends[*m]);
        }
      }
      std::sort(right_enter.begin(), right_enter.end());
      std::sort(right_leave.begin(), right_leave.end());
      open.resize(left_count);
      has_open.assign(left_count, 0);
      size_t right_in = 0, right_out = 0;
      for (size_t ci = 0; ci + 1 < cuts.size(); ++ci) {
        const Period elem(cuts[ci], cuts[ci + 1]);
        left.AdvanceTo(elem.begin);
        while (right_in < right_enter.size() &&
               right_enter[right_in] <= elem.begin) {
          ++right_in;
        }
        while (right_out < right_leave.size() &&
               right_leave[right_out] <= elem.begin) {
          ++right_out;
        }
        // The first right_in - right_out covering left members cancel.
        const std::vector<uint32_t>& act = left.active();
        for (size_t j = right_in - right_out; j < act.size(); ++j) {
          uint32_t k = act[j];
          if (has_open[k] && open[k].end == elem.begin) {
            open[k].end = elem.end;
            continue;
          }
          if (has_open[k]) o.Add(mb[k], open[k]);
          open[k] = elem;
          has_open[k] = 1;
        }
      }
      for (size_t k = 0; k < left_count; ++k) {
        if (has_open[k]) o.Add(mb[k], open[k]);
      }
    }
  });
  RowPeriods frags = OrderByRow(nl, out, rt);
  return EmitWithPeriods(l, std::move(frags.rows), frags.periods, rt);
}

ColumnTable VecUnionT(const ColumnTable& l, const ColumnTable& r,
                      const VexecRuntime& rt) {
  ColumnTable extra = VecDifferenceT(r, l, rt);
  ColumnTable out(l.schema());
  rt.ForTasks(out.num_cols(), [&](size_t c) {
    out.mutable_col(c).AppendRangeFrom(l.col(c), 0, l.rows());
    out.mutable_col(c).AppendRangeFrom(extra.col(c), 0, extra.rows());
  });
  out.CommitRows(l.rows() + extra.rows());
  return out;
}

ColumnTable VecRdupT(const ColumnTable& in, const VexecRuntime& rt) {
  // EvalRdupT per value-equivalence class: each member, in row order,
  // keeps its period minus the class's earlier coverage, as ascending
  // fragments. The coverage is kept as the reference's normalized form —
  // sorted, disjoint, non-adjacent periods — so the covered periods that
  // overlap a member are one contiguous run found by binary search, and
  // the member's fragments are the gaps of that run inside its period:
  // exactly SubtractAll's maximal pieces. An empty or inverted period
  // survives whole iff no covered period overlaps it (Period::Overlaps),
  // and never adds coverage. Fragments return to row order.
  const size_t n = in.rows();
  // Value-equivalence classes: equal non-temporal attributes.
  const std::shared_ptr<const ClassIndex> classes =
      KeyClassIndex(in, in.NonTemporalCols(), rt);
  const ClassIndex& idx = *classes;
  std::vector<TimePoint> begins, ends;
  ExtractPeriods(in, &begins, &ends, rt);
  std::vector<RowPeriods> out(rt.UnitChunks());
  rt.ForUnits(idx.offsets, [&](size_t chunk, size_t cb, size_t ce) {
    RowPeriods& o = out[chunk];
    std::vector<Period> cov;
    for (size_t c = cb; c < ce; ++c) {
      cov.clear();
      for (const uint32_t* m = idx.begin(c); m != idx.end(c); ++m) {
        const Period p(begins[*m], ends[*m]);
        // The covered periods overlapping p: begin < p.end and end > p.begin.
        auto hi = std::lower_bound(
            cov.begin(), cov.end(), p.end,
            [](const Period& s, TimePoint t) { return s.begin < t; });
        auto lo = std::upper_bound(
            cov.begin(), hi, p.begin,
            [](TimePoint t, const Period& s) { return t < s.end; });
        if (!p.Valid()) {
          if (lo == hi) o.Add(*m, p);
          continue;
        }
        TimePoint from = p.begin;
        for (auto s = lo; s != hi; ++s) {
          if (from < s->begin) o.Add(*m, Period(from, s->begin));
          from = s->end;
        }
        if (from < p.end) o.Add(*m, Period(from, p.end));
        // Merge p with the covered periods it overlaps or meets.
        auto mhi = std::upper_bound(
            hi, cov.end(), p.end,
            [](TimePoint t, const Period& s) { return t < s.begin; });
        auto mlo = std::lower_bound(
            cov.begin(), lo, p.begin,
            [](const Period& s, TimePoint t) { return s.end < t; });
        if (mlo == mhi) {
          cov.insert(mlo, p);
        } else {
          mlo->begin = std::min(mlo->begin, p.begin);
          mlo->end = std::max((mhi - 1)->end, p.end);
          cov.erase(mlo + 1, mhi);
        }
      }
    }
  });
  RowPeriods frags = OrderByRow(n, out, rt);
  return EmitWithPeriods(in, std::move(frags.rows), frags.periods, rt);
}

// The greedy adjacency merge of one coalescing class — EvalCoalesce's inner
// loop: the head absorbs the first later adjacent fragment until a
// fixpoint. [idxs, idxs_end) lists the class rows in ascending row order;
// period/consumed are global row-indexed arrays (a class only ever touches
// its own rows, so classes can run concurrently; consumed is uint8_t, not
// vector<bool>, precisely so concurrent classes never share a byte through
// bit packing).
void CoalesceClass(const uint32_t* idxs, const uint32_t* idxs_end,
                   std::vector<Period>& period,
                   std::vector<uint8_t>& consumed) {
  const size_t count = static_cast<size_t>(idxs_end - idxs);
  for (size_t a = 0; a < count; ++a) {
    uint32_t head = idxs[a];
    if (consumed[head]) continue;
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t b = a + 1; b < count; ++b) {
        uint32_t j = idxs[b];
        if (consumed[j]) continue;
        if (period[head].Adjacent(period[j])) {
          period[head] = period[head].Merge(period[j]);
          consumed[j] = 1;
          changed = true;
          break;  // restart: the grown period may meet earlier fragments
        }
      }
    }
  }
}

ColumnTable VecCoalesce(const ColumnTable& in, const VexecRuntime& rt) {
  // Classes interact with nothing, so the class index (members in row
  // order) reproduces the reference's ordered-map version exactly, and the
  // per-class merges run in parallel.
  size_t n = in.rows();
  std::vector<uint8_t> consumed(n, 0);
  std::vector<TimePoint> begins, ends;
  ExtractPeriods(in, &begins, &ends, rt);
  std::vector<Period> period(n);
  rt.ForRows(n, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) period[i] = Period(begins[i], ends[i]);
  });
  // Value-equivalence classes: equal non-temporal attributes.
  const std::shared_ptr<const ClassIndex> classes =
      KeyClassIndex(in, in.NonTemporalCols(), rt);
  const ClassIndex& idx = *classes;
  rt.ForUnits(idx.offsets, [&](size_t, size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      CoalesceClass(idx.begin(c), idx.end(c), period, consumed);
    }
  });
  std::vector<uint32_t> rows;
  std::vector<Period> periods;
  for (uint32_t i = 0; i < n; ++i) {
    if (consumed[i]) continue;
    rows.push_back(i);
    periods.push_back(period[i]);
  }
  return EmitWithPeriods(in, std::move(rows), periods, rt);
}

// ---- Aggregation ----------------------------------------------------------

// AggState of exec/eval_ops.cc over cells: same accumulation order, same
// min/max update rule (strict comparisons keep the first extremum), same
// Finish typing. Only MIN and MAX read the extremes, so only they track
// them.
struct VecAggState {
  explicit VecAggState(AggFunc f)
      : track_minmax(f == AggFunc::kMin || f == AggFunc::kMax) {}

  bool track_minmax;
  int64_t count = 0;
  double sum = 0.0;
  bool has_minmax = false;
  Value min, max;
  int64_t non_null = 0;

  void Add(const CellRef& v) {
    ++count;
    if (v.is_null()) return;
    ++non_null;
    if (v.IsNumeric()) sum += v.Numeric();
    if (!track_minmax) return;
    if (!has_minmax) {
      min = v.ToValue();
      max = min;
      has_minmax = true;
    } else {
      if (CellRef::Compare(v, CellRef::Of(min)) < 0) min = v.ToValue();
      if (CellRef::Compare(CellRef::Of(max), v) < 0) max = v.ToValue();
    }
  }

  Value Finish(AggFunc f, ValueType input_type) const {
    switch (f) {
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (non_null == 0) return Value::Null();
        if (input_type == ValueType::kDouble) return Value::Double(sum);
        return Value::Int(static_cast<int64_t>(sum));
      case AggFunc::kAvg:
        if (non_null == 0) return Value::Null();
        return Value::Double(sum / static_cast<double>(non_null));
      case AggFunc::kMin:
        return has_minmax ? min : Value::Null();
      case AggFunc::kMax:
        return has_minmax ? max : Value::Null();
    }
    return Value::Null();
  }
};

/// Resolves group-by / aggregate attribute positions with the reference's
/// exact error messages.
Status ResolveAggColumns(const Schema& schema,
                         const std::vector<std::string>& group_by,
                         const std::vector<AggSpec>& aggs,
                         std::vector<int>* group_idx,
                         std::vector<int>* agg_idx,
                         std::vector<ValueType>* agg_type) {
  for (const std::string& g : group_by) {
    int idx = schema.IndexOf(g);
    if (idx < 0) return Status::InvalidArgument("unknown group attr " + g);
    group_idx->push_back(idx);
  }
  for (const AggSpec& a : aggs) {
    if (a.func == AggFunc::kCount && a.attr.empty()) {
      agg_idx->push_back(-1);
      agg_type->push_back(ValueType::kInt);
      continue;
    }
    int idx = schema.IndexOf(a.attr);
    if (idx < 0) return Status::InvalidArgument("unknown agg attr " + a.attr);
    agg_idx->push_back(idx);
    agg_type->push_back(schema.attr(static_cast<size_t>(idx)).type);
  }
  return Status::OK();
}

// One VecAggState per aggregate, folding rows of `t` (COUNT(*) folds Int 1).
struct AggFold {
  const ColumnTable& t;
  const std::vector<AggSpec>& aggs;
  const std::vector<int>& agg_idx;
  const std::vector<ValueType>& agg_type;
  std::vector<VecAggState> st;

  void Reset() {
    st.clear();
    for (const AggSpec& a : aggs) st.emplace_back(a.func);
  }

  void Add(uint32_t row) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      CellRef cell;
      if (agg_idx[a] < 0) {
        cell.type = ValueType::kInt;
        cell.i = 1;
      } else {
        cell = t.col(static_cast<size_t>(agg_idx[a])).At(row);
      }
      st[a].Add(cell);
    }
  }

  /// Writes the finished aggregates to out[0, aggs.size()).
  void Finish(Value* out) const {
    for (size_t a = 0; a < aggs.size(); ++a) {
      out[a] = st[a].Finish(aggs[a].func, agg_type[a]);
    }
  }
};

Result<ColumnTable> VecAggregate(const ColumnTable& in,
                                 const std::vector<std::string>& group_by,
                                 const std::vector<AggSpec>& aggs,
                                 const Schema& out_schema,
                                 const VexecRuntime& rt) {
  std::vector<int> group_idx, agg_idx;
  std::vector<ValueType> agg_type;
  TQP_RETURN_IF_ERROR(ResolveAggColumns(in.schema(), group_by, aggs,
                                        &group_idx, &agg_idx, &agg_type));
  const size_t na = aggs.size();
  const std::shared_ptr<const ClassIndex> classes =
      KeyClassIndex(in, group_idx, rt);
  const ClassIndex& idx = *classes;
  // Groups in first-occurrence order: each group's first row and its
  // finished aggregates (group-major). Every group folds its rows in row
  // order — floating-point sums are not associative, so the order is part
  // of the contract — and the groups fold in parallel.
  std::vector<uint32_t> first_row(idx.classes());
  std::vector<Value> finished(idx.classes() * na);
  rt.ForUnits(idx.offsets, [&](size_t, size_t cb, size_t ce) {
    AggFold fold{in, aggs, agg_idx, agg_type, {}};
    for (size_t g = cb; g < ce; ++g) {
      fold.Reset();
      for (const uint32_t* m = idx.begin(g); m != idx.end(g); ++m) {
        fold.Add(*m);
      }
      fold.Finish(finished.data() + g * na);
      first_row[g] = *idx.begin(g);
    }
  });

  ColumnTable out(out_schema);
  rt.ForTasks(out.num_cols(), [&](size_t pos) {
    ColumnVec& dst = out.mutable_col(pos);
    if (pos < group_idx.size()) {
      dst.AppendGather(in.col(static_cast<size_t>(group_idx[pos])),
                       first_row.data(), first_row.size());
      return;
    }
    const size_t a = pos - group_idx.size();
    for (size_t g = 0; g < first_row.size(); ++g) {
      dst.AppendValue(finished[g * na + a]);
    }
  });
  out.CommitRows(first_row.size());
  return out;
}

Result<ColumnTable> VecAggregateT(const ColumnTable& in,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<AggSpec>& aggs,
                                  const Schema& out_schema,
                                  const VexecRuntime& rt) {
  // EvalAggregateT as an endpoint sweep per group: the sweep keeps the
  // members covering the current elementary interval in row order, so each
  // interval folds exactly the members the reference's rescan admits, in
  // its order (float sums and first-extremum MIN/MAX stay exact), and
  // adjacent intervals with equal results merge into maximal constancy
  // intervals. Groups sweep in parallel; their rows concatenate in
  // first-occurrence order.
  std::vector<int> group_idx, agg_idx;
  std::vector<ValueType> agg_type;
  TQP_RETURN_IF_ERROR(ResolveAggColumns(in.schema(), group_by, aggs,
                                        &group_idx, &agg_idx, &agg_type));
  const size_t na = aggs.size();
  const std::shared_ptr<const ClassIndex> classes =
      KeyClassIndex(in, group_idx, rt);
  const ClassIndex& idx = *classes;
  std::vector<TimePoint> begins, ends;
  ExtractPeriods(in, &begins, &ends, rt);

  struct GroupRows {
    std::vector<uint32_t> key_row;  // the group's first row
    std::vector<Value> aggs;        // na per output row
    std::vector<Period> period;
  };
  std::vector<GroupRows> out_rows(rt.UnitChunks());
  rt.ForUnits(idx.offsets, [&](size_t chunk, size_t cb, size_t ce) {
    GroupRows& o = out_rows[chunk];
    AggFold fold{in, aggs, agg_idx, agg_type, {}};
    std::vector<TimePoint> cuts;
    ActiveSet active;
    std::vector<Value> cur(na), prev(na);
    for (size_t g = cb; g < ce; ++g) {
      const uint32_t* mb = idx.begin(g);
      const uint32_t* me = idx.end(g);
      CutPoints(mb, me, begins, ends, &cuts);
      active.Reset(mb, static_cast<size_t>(me - mb), begins, ends);
      Period open;
      bool has_open = false;
      auto flush = [&]() {
        if (!has_open) return;
        o.key_row.push_back(*mb);
        o.aggs.insert(o.aggs.end(), prev.begin(), prev.end());
        o.period.push_back(open);
        has_open = false;
      };
      for (size_t ci = 0; ci + 1 < cuts.size(); ++ci) {
        const Period elem(cuts[ci], cuts[ci + 1]);
        active.AdvanceTo(elem.begin);
        if (active.active().empty()) {
          flush();
          continue;
        }
        fold.Reset();
        for (uint32_t k : active.active()) fold.Add(mb[k]);
        fold.Finish(cur.data());
        if (has_open && cur == prev && open.end == elem.begin) {
          open.end = elem.end;
        } else {
          flush();
          open = elem;
          prev.swap(cur);
          has_open = true;
        }
      }
      flush();
    }
  });

  ColumnTable out(out_schema);
  size_t rows = 0;
  for (const GroupRows& o : out_rows) rows += o.key_row.size();
  const size_t key_cols = group_idx.size();
  rt.ForTasks(out.num_cols(), [&](size_t pos) {
    ColumnVec& dst = out.mutable_col(pos);
    for (const GroupRows& o : out_rows) {
      if (pos < key_cols) {
        dst.AppendGather(in.col(static_cast<size_t>(group_idx[pos])),
                         o.key_row.data(), o.key_row.size());
      } else if (pos < key_cols + na) {
        for (size_t r = 0; r < o.key_row.size(); ++r) {
          dst.AppendValue(o.aggs[r * na + (pos - key_cols)]);
        }
      } else {
        for (const Period& p : o.period) {
          dst.AppendValue(
              Value::Time(pos == key_cols + na ? p.begin : p.end));
        }
      }
    }
  });
  out.CommitRows(rows);
  return out;
}

// ---- DBMS order scramble --------------------------------------------------

// The columnar twin of SimulatedBackend::ScrambleRelation: the same seeded
// hash-key stable sort over row indices yields the same permutation.
ColumnTable VecScramble(const ColumnTable& in, uint64_t seed,
                        const VexecRuntime& rt) {
  std::vector<uint64_t> key(in.rows());
  rt.ForRows(in.rows(), [&](size_t b, size_t e) {
    in.RowHashes(b, e, key.data() + b);
    for (size_t i = b; i < e; ++i) {
      key[i] = SimulatedBackend::MixHash(key[i], seed);
    }
  });
  std::vector<uint32_t> order = SortIndices(
      in.rows(),
      [&](uint32_t a, uint32_t b) {
        if (key[a] != key[b]) return key[a] < key[b];
        return ColumnTable::RowCompare(in, a, in, b) < 0;
      },
      rt);
  return GatherTable(in, in.schema(), std::move(order), rt);
}

// ---- Vectorized hash join (σ over ×, fused) -------------------------------

// Collects the equality conjuncts Attr = Attr joining the two product sides
// from the predicate's AND tree, as (left column, right column) pairs
// resolved against the product schema (left columns first). Any other
// connective or comparison is simply not a key — the residual predicate is
// re-evaluated in full over the candidates, so keys only need to be
// *necessary* conditions.
void CollectEquiKeys(const ExprPtr& e, const Schema& combined,
                     size_t left_cols,
                     std::vector<std::pair<int, int>>* keys) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kAnd) {
    for (const ExprPtr& c : e->children()) {
      CollectEquiKeys(c, combined, left_cols, keys);
    }
    return;
  }
  if (e->kind() != ExprKind::kCompare || e->compare_op() != CompareOp::kEq) {
    return;
  }
  const ExprPtr& a = e->children()[0];
  const ExprPtr& b = e->children()[1];
  if (a->kind() != ExprKind::kAttr || b->kind() != ExprKind::kAttr) return;
  int ia = combined.IndexOf(a->attr_name());
  int ib = combined.IndexOf(b->attr_name());
  if (ia < 0 || ib < 0) return;
  bool a_left = ia < static_cast<int>(left_cols);
  bool b_left = ib < static_cast<int>(left_cols);
  if (a_left == b_left) return;  // both keys on one side: not a join key
  int li = a_left ? ia : ib;
  int ri = (a_left ? ib : ia) - static_cast<int>(left_cols);
  keys->emplace_back(li, ri);
}

// Builds the (left, right) candidate pairs whose key columns compare equal,
// in left-major order with ascending right rows — a subsequence of the
// Cartesian product's pair order, so the residual selection sees its
// surviving rows in exactly the order σ(×) would emit them. A row with a
// NULL key never satisfies `=` (NULL comparisons are not truthy), so both
// sides drop NULL keys up front. Key equality is CellRef::Compare == 0 —
// the same cross-type numeric equality the predicate's `=` uses — with the
// Compare-consistent class hash, so every satisfying pair is a candidate.
void HashJoinCandidates(const ColumnTable& l, const ColumnTable& r,
                        const std::vector<std::pair<int, int>>& keys,
                        const VexecRuntime& rt, std::vector<uint32_t>* li,
                        std::vector<uint32_t>* ri) {
  std::vector<int> lkey, rkey;
  for (const auto& [lc, rc] : keys) {
    lkey.push_back(lc);
    rkey.push_back(rc);
  }
  // Each row's key hash over rows [b, e) of `t`, and whether its key holds
  // no NULL.
  auto key_hashes = [](const ColumnTable& t, const std::vector<int>& key,
                       size_t b, size_t e, uint64_t* hash, uint8_t* valid) {
    t.ClassHashes(key, b, e, hash + b);
    std::fill(valid + b, valid + e, 1);
    for (int c : key) {
      const ColumnVec& col = t.col(static_cast<size_t>(c));
      if (!col.MayHaveNulls()) continue;
      for (size_t i = b; i < e; ++i) {
        if (col.IsNull(i)) valid[i] = 0;
      }
    }
  };
  std::vector<uint64_t> rh(r.rows());
  std::vector<uint8_t> rvalid(r.rows());
  rt.ForRows(r.rows(), [&](size_t b, size_t e) {
    key_hashes(r, rkey, b, e, rh.data(), rvalid.data());
  });
  std::vector<uint64_t> lh(l.rows());
  std::vector<uint8_t> lvalid(l.rows());
  rt.ForRows(l.rows(), [&](size_t b, size_t e) {
    key_hashes(l, lkey, b, e, lh.data(), lvalid.data());
  });
  // Bucketed build side: power-of-two bucket count, counting-sort scatter
  // so each bucket lists its rows in ascending row order.
  size_t nb = 16;
  while (nb < 2 * std::max<size_t>(1, r.rows())) nb <<= 1;
  std::vector<uint32_t> bucket_start(nb + 1, 0);
  for (size_t j = 0; j < r.rows(); ++j) {
    if (rvalid[j]) ++bucket_start[(rh[j] & (nb - 1)) + 1];
  }
  for (size_t b = 0; b < nb; ++b) bucket_start[b + 1] += bucket_start[b];
  std::vector<uint32_t> bucket_rows(bucket_start[nb]);
  {
    std::vector<uint32_t> cur(bucket_start.begin(), bucket_start.end() - 1);
    for (size_t j = 0; j < r.rows(); ++j) {
      if (rvalid[j]) {
        bucket_rows[cur[rh[j] & (nb - 1)]++] = static_cast<uint32_t>(j);
      }
    }
  }
  auto keys_equal = [&](size_t i, size_t j) {
    for (const auto& [lc, rc] : keys) {
      if (ColumnVec::CompareCells(l.col(static_cast<size_t>(lc)), i,
                                  r.col(static_cast<size_t>(rc)), j) != 0) {
        return false;
      }
    }
    return true;
  };
  size_t grain = rt.morsel_rows == 0 ? 1 : rt.morsel_rows;
  std::vector<std::vector<uint32_t>> lfr(
      std::max<size_t>(1, rt.NumMorsels(l.rows())));
  std::vector<std::vector<uint32_t>> rfr(lfr.size());
  rt.ForRows(l.rows(), [&](size_t mb, size_t me) {
    std::vector<uint32_t>& lf = lfr[mb / grain];
    std::vector<uint32_t>& rf = rfr[mb / grain];
    for (size_t i = mb; i < me; ++i) {
      if (!lvalid[i]) continue;
      const uint64_t h = lh[i];
      size_t b = h & (nb - 1);
      for (uint32_t k = bucket_start[b]; k < bucket_start[b + 1]; ++k) {
        uint32_t j = bucket_rows[k];
        if (rh[j] == h && keys_equal(i, j)) {
          lf.push_back(static_cast<uint32_t>(i));
          rf.push_back(j);
        }
      }
    }
  });
  *li = ConcatFrags(lfr);
  *ri = ConcatFrags(rfr);
}

// ---- The driver -----------------------------------------------------------

/// The vectorized executor: the shared plan driver (exec/plan_driver.h) over
/// ColumnTables. Its result-cache tag (2) differs from the reference
/// evaluator's; the vectorized pipeline itself is byte-deterministic across
/// thread counts, so one tag covers every VexecOptions setting. Cache entries
/// store the row Relation (ColumnTable's ToRelation/FromRelation round trip
/// is byte-identical).
struct VecTreeExecutor : PlanDriver<VecTreeExecutor, ColumnTable> {
  VecTreeExecutor(const AnnotatedPlan& ann, const EngineConfig& config,
                  ExecStats* stats, const VexecOptions& options,
                  const VexecRuntime& rt)
      : PlanDriver(ann, config, stats, /*executor_tag=*/2, "vexec"),
        options(options),
        rt(rt) {}

  const VexecOptions& options;
  const VexecRuntime& rt;

  static size_t Rows(const ColumnTable& t) { return t.rows(); }
  static ColumnTable FromRows(const Relation& r) {
    return ColumnTable::FromRelation(r);
  }
  static Relation ToRows(const ColumnTable& t, const NodeInfo& info) {
    Relation rows = t.ToRelation();
    rows.set_order(info.order);
    return rows;
  }

  // The root's row form, converted once on a result-cache miss: the cache
  // gets a copy and ExecuteVectorized returns this one.
  std::optional<Relation> root_rows;

  Relation RootToRows(const ColumnTable& t, const NodeInfo& info) {
    root_rows = VecToRelation(t, rt);
    root_rows->set_order(info.order);
    return *root_rows;
  }
  static void StampOrder(ColumnTable*, const NodeInfo&) {}

  // The columnar scramble rebuilds the table: one more materialization.
  void Scramble(ColumnTable* t, uint64_t seed) {
    *t = VecScramble(*t, seed, rt);
    if (stats != nullptr) ++stats->vec_materializations;
  }

  // The batch-engine counters beside the driver's simulated accounting:
  // batches consumed (input rows, or the scanned rows for leaves, per
  // batch_size) and one columnar materialization per operator output.
  void AccountBatches(const PlanNode* node, double in1, double in2,
                      size_t out_rows, ProfileNode* prof) {
    size_t consumed = node->kind() == OpKind::kScan
                          ? out_rows
                          : static_cast<size_t>(in1 + in2);
    int64_t batches = static_cast<int64_t>(
        (consumed + options.batch_size - 1) / options.batch_size);
    if (prof != nullptr) prof->batches += batches;
    if (stats == nullptr) return;
    stats->vec_batches += batches;
    stats->vec_rows += static_cast<int64_t>(out_rows);
    ++stats->vec_materializations;
  }

  // Runs before a node's children: σ over × with equi-join keys across the
  // sides takes the fused hash join below.
  std::optional<Result<ColumnTable>> Intercept(const PlanPtr& node,
                                               ProfileNode* prof) {
    if (node->kind() != OpKind::kSelect ||
        node->children()[0]->kind() != OpKind::kProduct) {
      return std::nullopt;
    }
    const PlanPtr& product = node->children()[0];
    const NodeInfo& pinfo = ann.info(product.get());
    if (ScramblesAt(product.get(), pinfo)) return std::nullopt;
    size_t left_cols = ann.info(product->children()[0].get()).schema.size();
    std::vector<std::pair<int, int>> keys;
    CollectEquiKeys(node->predicate(), pinfo.schema, left_cols, &keys);
    if (keys.empty()) return std::nullopt;
    return EvalFusedJoin(node, product, keys, prof);
  }

  // σ over × with equality conjuncts across the sides, fused into a
  // partitioned hash join: build buckets on the right input's keys, probe
  // with the left morsels, materialize only the key-equal candidate pairs
  // (a superset of the satisfying rows, in product order), and re-evaluate
  // the full predicate over them. VecEval is per-row pure, so the
  // surviving list — and every stat — is byte-identical to the unfused
  // σ(×). Fusion is skipped when the DBMS scramble would observe the
  // unfiltered product's order.
  Result<ColumnTable> EvalFusedJoin(
      const PlanPtr& select, const PlanPtr& product,
      const std::vector<std::pair<int, int>>& keys, ProfileNode* prof) {
    const NodeInfo& sinfo = ann.info(select.get());
    const NodeInfo& pinfo = ann.info(product.get());
    // The fused product never runs through the Eval shell, so its profile
    // node is stamped here: same shape as the unfused plan, with the join's
    // wall time attributed to the selection (its self time).
    ProfileNode* pprof = AddChild(prof);
    if (pprof != nullptr) Stamp(pprof, *product);
    TQP_ASSIGN_OR_RETURN(l, Eval(product->children()[0], AddChild(pprof)));
    TQP_ASSIGN_OR_RETURN(r, Eval(product->children()[1], AddChild(pprof)));
    std::vector<uint32_t> li, ri;
    HashJoinCandidates(l, r, keys, rt, &li, &ri);
    ColumnTable cand(pinfo.schema);
    size_t lc = l.num_cols();
    rt.ForTasks(cand.num_cols(), [&](size_t pos) {
      if (pos < lc) {
        cand.mutable_col(pos).AppendGather(l.col(pos), li.data(), li.size());
      } else {
        cand.mutable_col(pos).AppendGather(r.col(pos - lc), ri.data(),
                                           ri.size());
      }
    });
    cand.CommitRows(li.size());
    ColumnTable out =
        VecSelect(cand, select->predicate(), options.batch_size, rt);
    // Simulated costs are the *unfused* plan's: the product is charged for
    // its full |l|*|r| output, the selection for consuming it.
    double in1 = static_cast<double>(l.rows());
    double in2 = static_cast<double>(r.rows());
    Account(product.get(), pinfo, in1, in2, l.rows() * r.rows(), pprof);
    Account(select.get(), sinfo, in1 * in2, 0.0, out.rows(), prof);
    if (pprof != nullptr) {
      // Modeled output (the product never materialized); zero self time —
      // its wall is its children's, the join work lands in the selection.
      pprof->rows_out = static_cast<int64_t>(l.rows() * r.rows());
      for (const ProfileNode& c : pprof->children) pprof->wall_ns += c.wall_ns;
    }
    MaybeScramble(select.get(), sinfo, &out);
    return out;
  }

  Result<ColumnTable> Apply(const PlanPtr& node, const NodeInfo& info,
                            std::vector<ColumnTable>& in) {
    switch (node->kind()) {
      case OpKind::kScan:
        if (!ann.catalog().Contains(node->rel_name())) {
          return Status::NotFound(node->rel_name());
        }
        return VecScan(ann.catalog(), node->rel_name(), rt);
      case OpKind::kSelect:
        return VecSelect(in[0], node->predicate(), options.batch_size, rt);
      case OpKind::kProject:
        return VecProject(in[0], node->projections(), info.schema,
                          options.batch_size, rt);
      case OpKind::kUnionAll:
        return VecUnionAll(in[0], in[1], info.schema, rt);
      case OpKind::kUnion:
        return VecUnion(in[0], in[1], info.schema, rt);
      case OpKind::kProduct:
        return VecProduct(in[0], in[1], info.schema, rt);
      case OpKind::kDifference:
        return VecDifference(in[0], in[1], rt);
      case OpKind::kAggregate:
        return VecAggregate(in[0], node->group_by(), node->aggregates(),
                            info.schema, rt);
      case OpKind::kRdup:
        return VecRdup(in[0], info.schema, rt);
      case OpKind::kProductT:
        return VecProductT(in[0], in[1], info.schema, rt);
      case OpKind::kDifferenceT:
        return VecDifferenceT(in[0], in[1], rt);
      case OpKind::kAggregateT:
        return VecAggregateT(in[0], node->group_by(), node->aggregates(),
                             info.schema, rt);
      case OpKind::kRdupT:
        return VecRdupT(in[0], rt);
      case OpKind::kUnionT:
        return VecUnionT(in[0], in[1], rt);
      case OpKind::kSort:
        return VecSort(in[0], node->sort_spec(), rt);
      case OpKind::kCoalesce:
        return VecCoalesce(in[0], rt);
      case OpKind::kTransferS:
      case OpKind::kTransferD:
        return std::move(in[0]);
    }
    return Status::Error("unreachable operator kind");
  }
};

}  // namespace

Result<Relation> ExecuteVectorized(const AnnotatedPlan& plan,
                                   const EngineConfig& config,
                                   ExecStats* stats,
                                   const VexecOptions& options,
                                   ProfileNode* profile) {
  VexecOptions opts = options;
  if (opts.batch_size == 0) opts.batch_size = 1;
  if (opts.morsel_rows == 0) opts.morsel_rows = 1;
  if (opts.threads == 0) opts.threads = 1;
  std::unique_ptr<WorkStealingPool> pool;
  VexecRuntime rt;
  rt.morsel_rows = opts.morsel_rows;
  rt.tracer = config.tracer;
  if (opts.threads > 1) {
    pool = std::make_unique<WorkStealingPool>(opts.threads);
    rt.pool = pool.get();
  }
  VecTreeExecutor ex{plan, config, stats, opts, rt};
  TQP_ASSIGN_OR_RETURN(table, ex.Eval(plan.plan(), profile));
  Relation out = ex.root_rows.has_value() ? std::move(*ex.root_rows)
                                          : VecToRelation(table, rt);
  out.set_order(plan.root_info().order);
  if (stats != nullptr && pool != nullptr) {
    stats->morsels += static_cast<int64_t>(pool->morsels_executed());
    stats->steals += static_cast<int64_t>(pool->steals());
  }
  return out;
}

Result<Relation> ExecuteVectorizedPlan(const PlanPtr& plan,
                                       const Catalog& catalog,
                                       const EngineConfig& config,
                                       ExecStats* stats,
                                       const VexecOptions& options) {
  TQP_ASSIGN_OR_RETURN(
      ann, AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset()));
  return ExecuteVectorized(ann, config, stats, options);
}

}  // namespace tqp
