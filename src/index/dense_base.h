#ifndef VDB_INDEX_DENSE_BASE_H_
#define VDB_INDEX_DENSE_BASE_H_

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "index/graph_util.h"
#include "index/index.h"

namespace vdb {

/// Shared machinery for in-memory indexes: owned copy of the vectors,
/// external-label mapping, tombstones, and the metric scorer. Indexes copy
/// their data (faiss-style) so they stay decoupled from the storage
/// manager's lifecycle.
class DenseIndexBase : public VectorIndex {
 public:
  std::size_t Size() const override { return live_count_; }
  std::size_t dim() const { return data_.cols(); }
  const Scorer& scorer() const { return scorer_; }
  VectorId label(std::uint32_t idx) const { return labels_[idx]; }
  const float* vector(std::uint32_t idx) const { return data_.row(idx); }

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
    labels_.resize(data.rows());
    id_to_idx_.clear();
    for (std::size_t i = 0; i < data.rows(); ++i) {
      labels_[i] = ids.empty() ? static_cast<VectorId>(i) : ids[i];
      id_to_idx_[labels_[i]] = static_cast<std::uint32_t>(i);
    }
    deleted_ = Bitset(data.rows());
    live_count_ = data.rows();
    return Status::Ok();
  }

  /// Appends one vector (for incremental indexes); returns internal index.
  /// A removed label may be added again: its old row stays a tombstone and
  /// the label maps to the new row.
  Result<std::uint32_t> AddBase(const float* vec, VectorId id) {
    if (data_.cols() == 0) {
      return Status::FailedPrecondition("index not built");
    }
    auto it = id_to_idx_.find(id);
    if (it != id_to_idx_.end() && !deleted_.Test(it->second)) {
      return Status::AlreadyExists("id already indexed");
    }
    std::uint32_t idx = static_cast<std::uint32_t>(data_.rows());
    data_.AppendRow(vec, data_.cols());
    labels_.push_back(id);
    id_to_idx_[id] = idx;
    deleted_.Resize(data_.rows());
    ++live_count_;
    return idx;
  }

  /// Marks a label as deleted; returns its internal index.
  Result<std::uint32_t> RemoveBase(VectorId id) {
    auto it = id_to_idx_.find(id);
    if (it == id_to_idx_.end()) return Status::NotFound("id not indexed");
    VDB_RETURN_IF_ERROR(DeleteRow(it->second));
    return it->second;
  }

  /// Tombstones internal row `idx`. Snapshot loaders restore tombstones by
  /// row: a removed and re-added label has two rows.
  Status DeleteRow(std::uint32_t idx) {
    if (deleted_.Test(idx)) return Status::NotFound("id deleted");
    deleted_.Set(idx);
    --live_count_;
    return Status::Ok();
  }

  bool IsDeleted(std::uint32_t idx) const { return deleted_.Test(idx); }

  /// True when the candidate may enter the result set: live and (when a
  /// filter is active) matching. Counts the filter probe.
  bool Admissible(std::uint32_t idx, const SearchParams& params,
                  SearchStats* stats) const {
    if (IsDeleted(idx)) return false;
    if (params.filter == nullptr) return true;
    if (stats != nullptr) ++stats->filter_checks;
    return params.filter->Matches(labels_[idx]);
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
      out->push_back({labels_[results[i].idx], results[i].dist});
    }
  }

  std::size_t TotalRows() const { return data_.rows(); }

  std::size_t BaseMemoryBytes() const {
    return data_.ByteSize() + labels_.size() * sizeof(VectorId);
  }

  FloatMatrix data_;
  std::vector<VectorId> labels_;
  std::unordered_map<VectorId, std::uint32_t> id_to_idx_;
  Bitset deleted_;
  std::size_t live_count_ = 0;
  Scorer scorer_;
};

}  // namespace vdb

#endif  // VDB_INDEX_DENSE_BASE_H_
