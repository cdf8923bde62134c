#include "exec/partitioned_index.h"

namespace vdb {

Result<std::unique_ptr<AttributePartitionedIndex>>
AttributePartitionedIndex::Build(const FloatMatrix& data,
                                 std::span<const VectorId> ids,
                                 std::span<const std::int64_t> partition_values,
                                 const IndexFactory& factory,
                                 std::string column_name) {
  if (data.rows() != partition_values.size()) {
    return Status::InvalidArgument("partition values must match rows");
  }
  if (!factory) return Status::InvalidArgument("factory is required");

  std::map<std::int64_t, std::pair<FloatMatrix, std::vector<VectorId>>> groups;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    auto& [vectors, group_ids] = groups[partition_values[i]];
    if (vectors.rows() == 0) vectors = FloatMatrix(0, data.cols());
    vectors.AppendRow(data.row(i), data.cols());
    group_ids.push_back(ids.empty() ? static_cast<VectorId>(i) : ids[i]);
  }

  auto index = std::unique_ptr<AttributePartitionedIndex>(
      new AttributePartitionedIndex());
  index->column_ = std::move(column_name);
  for (auto& [value, group] : groups) {
    auto sub = factory();
    if (sub == nullptr) return Status::Internal("factory returned null");
    VDB_RETURN_IF_ERROR(sub->Build(std::move(group.first), group.second));
    index->partitions_.emplace(value, std::move(sub));
  }
  return index;
}

std::size_t AttributePartitionedIndex::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& [value, index] : partitions_) bytes += index->MemoryBytes();
  return bytes;
}

Status AttributePartitionedIndex::Remove(std::int64_t value, VectorId id) {
  auto it = partitions_.find(value);
  if (it == partitions_.end()) return Status::NotFound("no such partition");
  return it->second->Remove(id);
}

Status AttributePartitionedIndex::Search(std::int64_t value,
                                         const float* query,
                                         const SearchParams& params,
                                         std::vector<Neighbor>* out,
                                         SearchStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  out->clear();
  auto it = partitions_.find(value);
  if (it == partitions_.end()) return Status::Ok();  // empty partition
  return it->second->Search(query, params, out, stats);
}

}  // namespace vdb
