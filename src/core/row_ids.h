#ifndef VDB_CORE_ROW_IDS_H_
#define VDB_CORE_ROW_IDS_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace vdb {

/// Row identity of an append-only row set: the row→label vector, the
/// label→row map, the tombstones and the live count. The vector store and
/// every index family hold one, so the "Vector Storage" and "Search
/// Indexes" boxes of the paper's Figure 1 agree on which rows are live
/// under §2.3(3)'s updates by construction. Rows are dense and never
/// reused: appending a removed label gives it a new row, and its old row
/// stays a tombstone (snapshots therefore restore tombstones by row). The
/// payload of each row (vectors, codes, pages) stays with the holder.
class RowIds {
 public:
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

  std::size_t rows() const { return labels_.size(); }
  std::size_t live() const { return live_; }
  VectorId label(std::uint32_t row) const { return labels_[row]; }
  const std::vector<VectorId>& labels() const { return labels_; }
  bool IsDeleted(std::uint32_t row) const { return deleted_.Test(row); }

  /// The newest row labelled `id`, live or tombstoned; kNoRow if none.
  std::uint32_t RowOf(VectorId id) const {
    auto it = row_of_.find(id);
    return it == row_of_.end() ? kNoRow : it->second;
  }

  /// The live row labelled `id`; kNoRow if none.
  std::uint32_t LiveRow(VectorId id) const {
    std::uint32_t row = RowOf(id);
    return row == kNoRow || deleted_.Test(row) ? kNoRow : row;
  }

  /// Replaces every row with `n` live rows labelled `ids` (row numbers when
  /// `ids` is empty). A label given twice maps to its later row.
  void Reset(std::size_t n, std::span<const VectorId> ids) {
    labels_.resize(n);
    row_of_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      labels_[i] = ids.empty() ? static_cast<VectorId>(i) : ids[i];
      row_of_[labels_[i]] = static_cast<std::uint32_t>(i);
    }
    deleted_ = Bitset(n);
    live_ = n;
  }

  /// Appends a live row labelled `id` and returns it. AlreadyExists when a
  /// live row holds `id`; a tombstoned one keeps its tombstone.
  Result<std::uint32_t> Append(VectorId id) {
    if (LiveRow(id) != kNoRow) return Status::AlreadyExists("id exists");
    const auto row = static_cast<std::uint32_t>(labels_.size());
    labels_.push_back(id);
    row_of_[id] = row;
    deleted_.Resize(labels_.size());
    ++live_;
    return row;
  }

  /// Tombstones the live row labelled `id`; NotFound when there is none.
  Status Remove(VectorId id) {
    std::uint32_t row = LiveRow(id);
    if (row == kNoRow) return Status::NotFound("id not present");
    return DeleteRow(row);
  }

  /// Tombstones `row` (must be < rows()); NotFound when it already is one.
  Status DeleteRow(std::uint32_t row) {
    if (deleted_.Test(row)) return Status::NotFound("row already deleted");
    deleted_.Set(row);
    --live_;
    return Status::Ok();
  }

  /// The tombstoned rows, ascending.
  std::vector<std::uint32_t> DeletedRows() const {
    std::vector<std::uint32_t> out;
    for (std::size_t row = 0; row < labels_.size(); ++row) {
      if (deleted_.Test(row)) out.push_back(static_cast<std::uint32_t>(row));
    }
    return out;
  }

  /// True when `row` may enter a result set: live and, when `filter` is
  /// set, matching it. Each filter probe counts in `stats->filter_checks`.
  bool Admissible(std::uint32_t row, const IdFilter* filter,
                  SearchStats* stats) const {
    if (deleted_.Test(row)) return false;
    if (filter == nullptr) return true;
    if (stats != nullptr) ++stats->filter_checks;
    return filter->Matches(labels_[row]);
  }

  /// Bytes of the row→label vector. The label→row map and the tombstones
  /// are not counted.
  std::size_t LabelBytes() const { return labels_.size() * sizeof(VectorId); }

 private:
  std::vector<VectorId> labels_;
  std::unordered_map<VectorId, std::uint32_t> row_of_;
  Bitset deleted_;
  std::size_t live_ = 0;
};

}  // namespace vdb

#endif  // VDB_CORE_ROW_IDS_H_
