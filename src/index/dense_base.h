#ifndef VDB_INDEX_DENSE_BASE_H_
#define VDB_INDEX_DENSE_BASE_H_

#include <algorithm>
#include <span>
#include <vector>

#include "core/row_ids.h"
#include "index/graph_util.h"
#include "index/index.h"

namespace vdb {

class BinaryReader;  // storage/serializer.h
class BinaryWriter;

/// Shared machinery for in-memory indexes: owned copy of the vectors,
/// their row identity (labels and tombstones, one RowIds), and the metric
/// scorer. Indexes copy their data (faiss-style) so they stay decoupled
/// from the storage manager's lifecycle.
class DenseIndexBase : public VectorIndex {
 public:
  std::size_t Size() const override { return rows_.live(); }
  /// Tombstones the label's row. Graph nodes keep routing traffic (their
  /// edges stay) but no longer appear in results — the standard
  /// out-of-place delete.
  Status Remove(VectorId id) override { return rows_.Remove(id); }
  std::size_t dim() const { return data_.cols(); }
  const Scorer& scorer() const { return scorer_; }
  VectorId label(std::uint32_t idx) const { return rows_.label(idx); }
  const float* vector(std::uint32_t idx) const { return data_.row(idx); }
  const RowIds& row_ids() const { return rows_; }

 protected:
  /// Copies data/ids and creates the scorer. Call first from Build.
  Status InitBase(const FloatMatrix& data, std::span<const VectorId> ids,
                  const MetricSpec& spec) {
    if (data.empty()) return Status::InvalidArgument("empty build data");
    if (!ids.empty() && ids.size() != data.rows()) {
      return Status::InvalidArgument("ids size must match data rows");
    }
    VDB_ASSIGN_OR_RETURN(scorer_, Scorer::Create(spec, data.cols()));
    data_ = data;
    rows_.Reset(data.rows(), ids);
    return Status::Ok();
  }

  /// Appends one vector (for incremental indexes) under RowIds' re-add
  /// rule; returns its internal index.
  Result<std::uint32_t> AddBase(const float* vec, VectorId id) {
    if (data_.cols() == 0) {
      return Status::FailedPrecondition("index not built");
    }
    VDB_ASSIGN_OR_RETURN(std::uint32_t idx, rows_.Append(id));
    data_.AppendRow(vec, data_.cols());
    return idx;
  }

  bool IsDeleted(std::uint32_t idx) const { return rows_.IsDeleted(idx); }

  /// True when the candidate may enter the result set: live and (when a
  /// filter is active) matching. Counts the filter probe.
  bool Admissible(std::uint32_t idx, const SearchParams& params,
                  SearchStats* stats) const {
    return rows_.Admissible(idx, params.filter, stats);
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
        scorer_, data_.data(), query, entries, ef, TotalRows(),
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

  std::size_t TotalRows() const { return data_.rows(); }

  std::size_t BaseMemoryBytes() const {
    return data_.ByteSize() + rows_.LabelBytes();
  }

  /// The snapshot row block every persistent family shares: vectors,
  /// labels, then the tombstoned rows.
  void SaveRows(BinaryWriter* w) const;
  /// Reads a block written by SaveRows and initializes the base from it.
  Status LoadRows(BinaryReader* r, const MetricSpec& spec);

  FloatMatrix data_;
  RowIds rows_;
  Scorer scorer_;
};

}  // namespace vdb

#endif  // VDB_INDEX_DENSE_BASE_H_
