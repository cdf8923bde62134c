#ifndef VDB_INDEX_RP_FOREST_H_
#define VDB_INDEX_RP_FOREST_H_

#include <span>

#include "index/bsp_forest.h"

namespace vdb {

struct RpForestOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t num_trees = 10;
  std::size_t leaf_size = 32;
  int default_leaf_visits = 64;
  std::uint64_t seed = 42;
};

/// Random-projection forest in the ANNOY style (paper §2.2 "Tree-based
/// indexes"): each split hyperplane is the perpendicular bisector of two
/// randomly sampled points of the subset, thresholded at the median
/// projection (ANNOY's "splitting threshold based on random medians").
/// Recall is improved by searching many trees with one shared queue,
/// mirroring LSH's multiple tables.
class RpForestIndex final : public BspForest {
 public:
  explicit RpForestIndex(const RpForestOptions& opts = {}) : opts_(opts) {
    default_leaf_visits_ = opts.default_leaf_visits;
  }

  std::string Name() const override { return "rp-forest"; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;

 protected:
  float Margin(const Tree& tree, const Node& node,
               const float* x) const override;
  bool ChooseSplit(Tree* tree, std::uint32_t lo, std::uint32_t hi,
                   std::size_t depth, Rng* rng, Node* node,
                   std::vector<float>* projections) override;

 private:
  RpForestOptions opts_;
};

}  // namespace vdb

#endif  // VDB_INDEX_RP_FOREST_H_
