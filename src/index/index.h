#ifndef VDB_INDEX_INDEX_H_
#define VDB_INDEX_INDEX_H_

#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/distance.h"
#include "core/row_ids.h"
#include "core/status.h"
#include "core/types.h"
#include "storage/vector_store.h"

namespace vdb {

class QueryTrace;  // exec/trace.h — optional per-query span recorder

/// Filter over a bitset keyed by (dense) external id. The standard carrier
/// for attribute bitmasks built by the storage manager.
class BitsetIdFilter final : public IdFilter {
 public:
  explicit BitsetIdFilter(const Bitset* bits) : bits_(bits) {}
  bool Matches(VectorId id) const override {
    return id < bits_->size() && bits_->Test(static_cast<std::size_t>(id));
  }
  const Bitset* bits() const { return bits_; }

 private:
  const Bitset* bits_;  // not owned
};

/// How a predicate combines with an index scan (paper §2.3 "Hybrid
/// Operators" / "Plan Enumeration").
enum class FilterMode {
  kNone,        ///< unfiltered scan
  kBlockFirst,  ///< pre-filtering: blocked entries are never explored
  kVisitFirst,  ///< single-stage: traversal sees all, results must match
  kPostFilter,  ///< post-filtering: search a*k unfiltered, filter after
};

/// Per-query knobs. `-1` (or negative) selects the index's build-time
/// default. A single struct is shared across all index families so the
/// query executor can sweep knobs uniformly.
struct SearchParams {
  std::size_t k = 10;

  int nprobe = -1;          ///< IVF/SPANN: posting lists to scan
  int ef = -1;              ///< graphs: candidate queue width
  int beam_width = -1;      ///< DiskANN: beam search width
  int max_leaf_visits = -1; ///< trees: leaves to inspect before stopping
  int lsh_probes = -1;      ///< LSH: extra multi-probe buckets per table
  float spann_eps = -1.0f;  ///< SPANN: closure pruning ratio at query time
  bool rerank = true;       ///< compressed indexes: re-rank with full vectors

  const IdFilter* filter = nullptr;      ///< not owned
  FilterMode filter_mode = FilterMode::kBlockFirst;
  /// Post-filter amplification `a`: retrieve a*k then filter (§2.6(3)).
  float post_filter_amplification = 3.0f;

  /// Optional per-query trace (not owned, not thread-safe): layers that
  /// see it record timed spans. Null disables tracing at zero cost.
  QueryTrace* trace = nullptr;

  /// Absolute deadline (steady clock). Epoch-zero means none. A query
  /// whose deadline has already passed is *cancelled before it is
  /// computed*: `Search` returns DEADLINE_EXCEEDED instead of scanning.
  /// The serving layer sets this from the client-propagated deadline so
  /// work that sat too long in the run queue is never executed.
  std::chrono::steady_clock::time_point deadline{};

  bool HasDeadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
  bool DeadlineExpired() const {
    return HasDeadline() && std::chrono::steady_clock::now() >= deadline;
  }
};

/// Abstract approximate/exact nearest-neighbor index over one vector
/// collection (paper Figure 1 "Search Indexes"). An index owns the rows it
/// indexes — the one copy of a sealed segment's rows: in-memory families
/// hold them in a VectorStore, disk-resident ones in their pages. External
/// `VectorId` labels flow through results.
class VectorIndex {
 public:
  using RowFn = std::function<void(VectorId, const float*)>;

  virtual ~VectorIndex() = default;

  virtual std::string Name() const = 0;

  /// Builds from scratch. `ids[i]` labels row i of `data`; when `ids` is
  /// empty, row indices are used as labels. In-memory families keep `data`
  /// as their rows, so a caller that is done with it moves it in.
  virtual Status Build(FloatMatrix data, std::span<const VectorId> ids) = 0;

  /// Incremental insert. Default: unsupported (the paper's "hard to
  /// update" indexes — callers fall back to out-of-place updates).
  virtual Status Add(const float* vec, VectorId id);

  /// Removes `id` from results (most families tombstone it). NotFound
  /// when the index holds no live row labelled `id`.
  virtual Status Remove(VectorId id) = 0;

  /// k-NN search. Applies `params.filter` per `params.filter_mode`;
  /// post-filtering is handled generically for every index.
  Status Search(const float* query, const SearchParams& params,
                std::vector<Neighbor>* out, SearchStats* stats = nullptr) const;

  /// Range search: all ids with distance <= radius (internal-score space).
  /// Default: unsupported (flat and graph indexes implement it).
  virtual Status RangeSearch(const float* query, float radius,
                             std::vector<Neighbor>* out,
                             SearchStats* stats = nullptr) const;

  /// Number of (live) indexed vectors.
  std::size_t Size() const { return row_ids().live(); }

  // Row surface: the collection's exact paths (brute force, range search,
  // the (c,k) oracle, multi-vector re-scoring, checkpoints and rebuilds)
  // read a sealed segment's rows here.

  /// Row identity of the indexed rows: labels, tombstones, live count.
  virtual const RowIds& row_ids() const = 0;
  /// The rows when the index keeps them in memory; null when they live in
  /// its pages.
  virtual const VectorStore* resident_rows() const { return nullptr; }
  /// Calls fn(id, vector) for each live row, in row order. The default
  /// walks resident_rows(); disk-resident families read their pages
  /// (counted in `stats->io_reads`).
  virtual Status ScanRows(const RowFn& fn, SearchStats* stats) const;
  /// Calls fn(id, vector) once for each id of `ids` that labels a live
  /// row here. Resident rows are read in place; paged rows default to one
  /// ScanRows pass (each page read once), or none when no id is live here.
  virtual Status ReadRows(std::span<const VectorId> ids, const RowFn& fn,
                          SearchStats* stats) const;

  /// Rough resident memory of the index structure + stored vectors.
  virtual std::size_t MemoryBytes() const = 0;

  virtual bool SupportsAdd() const { return false; }

  /// True for the graph families. Blocking rows before a graph traversal
  /// (kBlockFirst) can disconnect it (§2.3), so planners do not offer the
  /// pre-filter plan over a graph; an explicit kBlockFirst still runs.
  virtual bool IsGraph() const { return false; }

 protected:
  /// Family-specific search; `params.filter_mode` is never kPostFilter
  /// here (the base class rewrites post-filter queries).
  virtual Status SearchImpl(const float* query, const SearchParams& params,
                            std::vector<Neighbor>* out,
                            SearchStats* stats) const = 0;
};

/// Creates an empty index; a collection builds one per sealed segment.
using IndexFactory = std::function<std::unique_ptr<VectorIndex>()>;

/// ScanRows, with `fn` inlined into the loop when the rows are resident.
template <typename Fn>
Status ForEachLiveRow(const VectorIndex& index, Fn&& fn, SearchStats* stats) {
  if (const VectorStore* rows = index.resident_rows()) {
    rows->ForEachLive(fn);
    return Status::Ok();
  }
  return index.ScanRows(fn, stats);
}

/// Convenience: applies a filter to `results`, keeping order, truncating
/// to k. Used by post-filtering and by operators that re-check predicates.
std::vector<Neighbor> FilterNeighbors(const std::vector<Neighbor>& results,
                                      const IdFilter& filter, std::size_t k,
                                      SearchStats* stats);

}  // namespace vdb

#endif  // VDB_INDEX_INDEX_H_
