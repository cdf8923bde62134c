#ifndef VDB_STORAGE_VECTOR_STORE_H_
#define VDB_STORAGE_VECTOR_STORE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/row_ids.h"
#include "core/status.h"
#include "core/types.h"

namespace vdb {

/// In-memory slab of full-precision vectors with stable external ids and
/// tombstones — the "Vector Storage" box of the paper's Figure 1. Indexes
/// copy from here at build time; operators read through `Get` when
/// re-checking or re-ranking.
class VectorStore {
 public:
  explicit VectorStore(std::size_t dim) : dim_(dim), data_(0, dim) {}

  std::size_t dim() const { return dim_; }
  std::size_t live_count() const { return ids_.live(); }
  std::size_t total_rows() const { return data_.rows(); }

  /// Inserts a vector under `id`; rejects live duplicates. Re-inserting a
  /// deleted id appends a fresh row (RowIds' re-add rule; the old row's
  /// slab space is reclaimed at the next Snapshot-based rebuild).
  Status Put(VectorId id, const float* vec) {
    VDB_RETURN_IF_ERROR(ids_.Append(id).status());
    data_.AppendRow(vec, dim_);
    return Status::Ok();
  }

  /// Pointer to the stored vector, or nullptr if missing/deleted.
  const float* Get(VectorId id) const {
    std::uint32_t row = ids_.LiveRow(id);
    return row == RowIds::kNoRow ? nullptr : data_.row(row);
  }

  bool Contains(VectorId id) const { return Get(id) != nullptr; }

  Status Delete(VectorId id) { return ids_.Remove(id); }

  /// Copies the live vectors of rows [first_row, end_row) (and their ids)
  /// into a dense matrix — the input of an index build, segment flush or
  /// compaction.
  void Snapshot(FloatMatrix* vectors, std::vector<VectorId>* ids,
                std::size_t first_row = 0,
                std::size_t end_row = static_cast<std::size_t>(-1)) const {
    end_row = std::min(end_row, data_.rows());
    std::size_t live = 0;
    for (std::size_t row = first_row; row < end_row; ++row) {
      live += ids_.IsDeleted(row) ? 0 : 1;
    }
    *vectors = FloatMatrix(live, dim_);
    ids->clear();
    ids->reserve(live);
    std::size_t at = 0;
    ForEachLive(first_row, end_row, [&](VectorId id, const float* vec) {
      std::copy_n(vec, dim_, vectors->row(at++));
      ids->push_back(id);
    });
  }

  /// Calls fn(id, vector) for each live row in [first_row, end_row), in
  /// row (insertion) order.
  template <typename Fn>
  void ForEachLive(std::size_t first_row, std::size_t end_row, Fn&& fn) const {
    end_row = std::min(end_row, data_.rows());
    for (std::size_t row = first_row; row < end_row; ++row) {
      if (!ids_.IsDeleted(row)) fn(ids_.label(row), data_.row(row));
    }
  }

  std::size_t MemoryBytes() const {
    return data_.ByteSize() + ids_.LabelBytes();
  }

 private:
  std::size_t dim_;
  FloatMatrix data_;
  RowIds ids_;
};

}  // namespace vdb

#endif  // VDB_STORAGE_VECTOR_STORE_H_
