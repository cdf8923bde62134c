#ifndef VDB_EXEC_PARTITIONED_INDEX_H_
#define VDB_EXEC_PARTITIONED_INDEX_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index/index.h"
#include "storage/attribute_store.h"

namespace vdb {

/// Offline blocking (paper §2.3(1): "the vector collection is
/// pre-partitioned along attributes so that at query time, only the
/// relevant partition needs to be searched"). One sub-index per distinct
/// value of a categorical int64 column; equality predicates on that column
/// prune to a single partition.
class AttributePartitionedIndex {
 public:
  /// `factory` builds each partition's index; `partition_values[i]` is the
  /// partition key of row i of `data`.
  static Result<std::unique_ptr<AttributePartitionedIndex>> Build(
      const FloatMatrix& data, std::span<const VectorId> ids,
      std::span<const std::int64_t> partition_values,
      const IndexFactory& factory, std::string column_name);

  const std::string& column() const { return column_; }
  std::size_t num_partitions() const { return partitions_.size(); }
  /// Sum of the partitions' index footprints.
  std::size_t MemoryBytes() const;

  /// Removes `id` from the partition holding `value` (the row's partition
  /// key); NotFound when that partition does not hold it.
  Status Remove(std::int64_t value, VectorId id);

  /// Searches only the partition holding `value`; empty result if no such
  /// partition exists.
  Status Search(std::int64_t value, const float* query,
                const SearchParams& params, std::vector<Neighbor>* out,
                SearchStats* stats = nullptr) const;

 private:
  std::string column_;
  std::map<std::int64_t, std::unique_ptr<VectorIndex>> partitions_;
};

}  // namespace vdb

#endif  // VDB_EXEC_PARTITIONED_INDEX_H_
