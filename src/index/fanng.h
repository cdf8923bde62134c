#ifndef VDB_INDEX_FANNG_H_
#define VDB_INDEX_FANNG_H_

#include <span>
#include <vector>

#include "core/rng.h"
#include "index/dense_base.h"

namespace vdb {

struct FanngOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t max_degree = 24;
  /// Search trials per point (total trials = trials_per_point * n).
  std::size_t trials_per_point = 8;
  std::size_t default_ef = 32;
  std::size_t num_entry_points = 8;
  std::uint64_t seed = 42;
};

/// FANNG (Harwood & Drummond; paper §2.2(2) MSNs): the monotonic search
/// network built by *search trials over random node pairs* — repeatedly
/// greedy-search from a random source toward a random target with the
/// current graph; whenever the walk strands at a local minimum short of
/// the target, add an edge from the stranded node to the target (with
/// occlusion pruning to respect the degree bound). Contrast with
/// NSG/Vamana, which run all trials from one navigating node.
class FanngIndex final : public DenseIndexBase {
 public:
  explicit FanngIndex(const FanngOptions& opts = {}) : opts_(opts) {}

  std::string Name() const override { return "fanng"; }
  bool IsGraph() const override { return true; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  std::size_t MemoryBytes() const override;

  /// Trials that required an edge insertion (diagnostic: decays as the
  /// graph approaches monotonic reachability).
  std::uint64_t edges_added() const { return edges_added_; }

  const std::vector<std::vector<std::uint32_t>>& adjacency() const {
    return adjacency_;
  }

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  /// Adds edge u -> v, occlusion-pruning u's list at the degree bound.
  void AddEdge(std::uint32_t u, std::uint32_t v);

  FanngOptions opts_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::vector<std::uint32_t> entry_points_;
  std::uint64_t edges_added_ = 0;
};

}  // namespace vdb

#endif  // VDB_INDEX_FANNG_H_
