#ifndef VDB_STORAGE_VECTOR_STORE_H_
#define VDB_STORAGE_VECTOR_STORE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/row_ids.h"
#include "core/status.h"
#include "core/types.h"

namespace vdb {

/// In-memory slab of full-precision vectors with stable external ids and
/// tombstones — the "Vector Storage" box of the paper's Figure 1, and the
/// one in-memory row container: a collection's growing segment is one,
/// and every in-memory index family holds its sealed segment's rows in
/// one. Rows are dense and never reused (RowIds' rule).
class VectorStore {
 public:
  explicit VectorStore(std::size_t dim) : dim_(dim), data_(0, dim) {}

  std::size_t dim() const { return dim_; }
  std::size_t live_count() const { return ids_.live(); }
  std::size_t total_rows() const { return data_.rows(); }
  const RowIds& ids() const { return ids_; }
  const float* row(std::uint32_t r) const { return data_.row(r); }
  /// Every row, tombstoned ones included, row-major.
  const FloatMatrix& vectors() const { return data_; }

  /// Replaces every row with the rows of `data`, all live, labelled `ids`
  /// (row numbers when `ids` is empty).
  void Reset(FloatMatrix data, std::span<const VectorId> ids) {
    dim_ = data.cols();
    ids_.Reset(data.rows(), ids);
    data_ = std::move(data);
  }

  /// Inserts a vector under `id`; rejects live duplicates. Re-inserting a
  /// deleted id appends a fresh row (RowIds' re-add rule; the old row's
  /// slab space is reclaimed when the rows are next rebuilt).
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
  /// Tombstones row `r` (< total_rows()), as a snapshot restores it.
  Status DeleteRow(std::uint32_t r) { return ids_.DeleteRow(r); }

  /// Calls fn(id, vector) for each live row, in row (insertion) order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (std::uint32_t row = 0; row < data_.rows(); ++row) {
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
