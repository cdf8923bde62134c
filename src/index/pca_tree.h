#ifndef VDB_INDEX_PCA_TREE_H_
#define VDB_INDEX_PCA_TREE_H_

#include <span>

#include "core/linalg.h"
#include "index/bsp_forest.h"

namespace vdb {

struct PcaTreeOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t num_components = 8;  ///< principal axes to rotate through
  std::size_t leaf_size = 32;
  int default_leaf_visits = 64;
  std::uint64_t seed = 42;
};

/// Principal-component tree (paper §2.2: "a principal component tree first
/// finds the principal components of the dataset, and then splits along
/// the principal axes"; the PKD-tree "splits by rotating through the
/// principal axes"). One global PCA is computed at build time; depth `h`
/// splits on component `h mod num_components` at the median projection.
class PcaTreeIndex final : public BspForest {
 public:
  explicit PcaTreeIndex(const PcaTreeOptions& opts = {}) : opts_(opts) {
    default_leaf_visits_ = opts.default_leaf_visits;
  }

  std::string Name() const override { return "pca-tree"; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;

 protected:
  float Margin(const Tree& tree, const Node& node,
               const float* x) const override;
  bool ChooseSplit(Tree* tree, std::uint32_t lo, std::uint32_t hi,
                   std::size_t depth, Rng* rng, Node* node,
                   std::vector<float>* projections) override;

 private:
  PcaTreeOptions opts_;
  FloatMatrix components_;  ///< num_components x dim, orthonormal rows
};

}  // namespace vdb

#endif  // VDB_INDEX_PCA_TREE_H_
