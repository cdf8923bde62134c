#ifndef VDB_INDEX_DENSE_BASE_H_
#define VDB_INDEX_DENSE_BASE_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "index/graph_util.h"
#include "index/index.h"

namespace vdb {

class BinaryReader;  // storage/serializer.h
class BinaryWriter;

/// Shared machinery for in-memory indexes: the segment's rows (vectors,
/// labels and tombstones, one VectorStore) and the metric scorer. The
/// index owns the one copy of its rows; the collection reads them through
/// the row surface (resident_rows).
class DenseIndexBase : public VectorIndex {
 public:
  /// Tombstones the label's row. Graph nodes keep routing traffic (their
  /// edges stay) but no longer appear in results — the standard
  /// out-of-place delete.
  Status Remove(VectorId id) override { return rows_.Delete(id); }
  const RowIds& row_ids() const override { return rows_.ids(); }
  const VectorStore* resident_rows() const override { return &rows_; }
  std::size_t dim() const { return rows_.dim(); }
  VectorId label(std::uint32_t idx) const { return rows_.ids().label(idx); }
  const float* vector(std::uint32_t idx) const { return rows_.row(idx); }

 protected:
  /// Takes data/ids as the rows and creates the scorer. Call first from
  /// Build.
  Status InitBase(FloatMatrix data, std::span<const VectorId> ids,
                  const MetricSpec& spec) {
    if (data.empty()) return Status::InvalidArgument("empty build data");
    if (!ids.empty() && ids.size() != data.rows()) {
      return Status::InvalidArgument("ids size must match data rows");
    }
    VDB_ASSIGN_OR_RETURN(scorer_, Scorer::Create(spec, data.cols()));
    rows_.Reset(std::move(data), ids);
    return Status::Ok();
  }

  /// Appends one vector (for incremental indexes) under RowIds' re-add
  /// rule; returns its internal index.
  Result<std::uint32_t> AddBase(const float* vec, VectorId id) {
    if (rows_.dim() == 0) return Status::FailedPrecondition("index not built");
    const auto idx = static_cast<std::uint32_t>(rows_.total_rows());
    VDB_RETURN_IF_ERROR(rows_.Put(id, vec));
    return idx;
  }

  bool IsDeleted(std::uint32_t idx) const {
    return rows_.ids().IsDeleted(idx);
  }

  /// True when the candidate may enter the result set: live and (when a
  /// filter is active) matching. Counts the filter probe.
  bool Admissible(std::uint32_t idx, const SearchParams& params,
                  SearchStats* stats) const {
    return rows_.ids().Admissible(idx, params.filter, stats);
  }

  /// The k-NN tail every graph family shares: beam search from `entries`
  /// with ef = max(params.ef, or `default_ef` when unset, k), admitting
  /// per Admissible under params.filter_mode, then the first k hits with
  /// their labels into `out`.
  template <typename NeighborsFn>
  void GraphSearch(const float* query, std::span<const std::uint32_t> entries,
                   NeighborsFn&& neighbors, std::size_t default_ef,
                   const SearchParams& params, std::vector<Neighbor>* out,
                   SearchStats* stats) const {
    std::size_t ef = params.ef > 0 ? static_cast<std::size_t>(params.ef)
                                   : default_ef;
    ef = std::max(ef, params.k);
    auto results = graph::BeamSearch(
        scorer_, rows_.vectors().data(), query, entries, ef, TotalRows(),
        params.filter_mode, neighbors,
        [this, &params, stats](std::uint32_t u) {
          return Admissible(u, params, stats);
        },
        stats);
    out->clear();
    for (std::size_t i = 0; i < std::min(params.k, results.size()); ++i) {
      out->push_back({label(results[i].idx), results[i].dist});
    }
  }

  std::size_t TotalRows() const { return rows_.total_rows(); }

  /// The snapshot row block every persistent family shares: vectors,
  /// labels, then the tombstoned rows.
  void SaveRows(BinaryWriter* w) const;
  /// Reads a block written by SaveRows and initializes the base from it.
  Status LoadRows(BinaryReader* r, const MetricSpec& spec);

  VectorStore rows_{0};
  Scorer scorer_;
};

}  // namespace vdb

#endif  // VDB_INDEX_DENSE_BASE_H_
