#ifndef VDB_INDEX_FLAT_H_
#define VDB_INDEX_FLAT_H_

#include <span>
#include <vector>

#include "index/dense_base.h"

namespace vdb {

/// Exact brute-force index ("Table Scan" + similarity projection in the
/// paper's Figure 1). Supports every metric, incremental updates, range
/// search, and (c,k)-search trivially (c = 0). Doubles as the ground-truth
/// oracle for every experiment.
class FlatIndex final : public DenseIndexBase {
 public:
  explicit FlatIndex(const MetricSpec& metric = MetricSpec::L2())
      : metric_(metric) {}

  std::string Name() const override { return "flat"; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Add(const float* vec, VectorId id) override;
  Status RangeSearch(const float* query, float radius,
                     std::vector<Neighbor>* out,
                     SearchStats* stats = nullptr) const override;
  std::size_t MemoryBytes() const override { return rows_.MemoryBytes(); }
  bool SupportsAdd() const override { return true; }

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  MetricSpec metric_;
};

}  // namespace vdb

#endif  // VDB_INDEX_FLAT_H_
