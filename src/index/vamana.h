#ifndef VDB_INDEX_VAMANA_H_
#define VDB_INDEX_VAMANA_H_

#include <span>
#include <vector>

#include "index/dense_base.h"

namespace vdb {

struct VamanaOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t r = 24;       ///< max out-degree
  std::size_t l = 64;       ///< construction beam width (search list size)
  float alpha = 1.2f;       ///< RNG-pruning slack (>1 keeps longer edges)
  int passes = 2;           ///< refinement passes over the data
  std::size_t default_ef = 32;
  std::uint64_t seed = 42;
};

/// Vamana / NSG-style monotonic search network (paper §2.2(2) MSNs):
/// a "navigating node" (the medoid) is the source of all search trials;
/// each point's neighborhood is the alpha-RNG pruning of the nodes visited
/// by a greedy search for it (robust prune), run for several passes. This
/// is the in-memory graph that DiskANN lays out on disk.
class VamanaIndex final : public DenseIndexBase {
 public:
  explicit VamanaIndex(const VamanaOptions& opts = {}) : opts_(opts) {}

  std::string Name() const override { return "vamana"; }
  bool IsGraph() const override { return true; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  std::size_t MemoryBytes() const override;

  std::uint32_t medoid() const { return medoid_; }
  const std::vector<std::vector<std::uint32_t>>& adjacency() const {
    return adjacency_;
  }
  const VamanaOptions& options() const { return opts_; }

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  std::uint32_t FindMedoid() const;
  /// Robust prune (DiskANN Alg. 2): pick the closest candidate, drop every
  /// candidate it alpha-dominates, repeat until R neighbors are chosen.
  void RobustPrune(std::uint32_t node,
                   std::vector<std::pair<float, std::uint32_t>>* candidates);

  VamanaOptions opts_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::uint32_t medoid_ = 0;
};

}  // namespace vdb

#endif  // VDB_INDEX_VAMANA_H_
