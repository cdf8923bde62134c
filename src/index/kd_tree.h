#ifndef VDB_INDEX_KD_TREE_H_
#define VDB_INDEX_KD_TREE_H_

#include <span>

#include "index/bsp_forest.h"

namespace vdb {

struct KdTreeOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t leaf_size = 32;
  int default_leaf_visits = 64;
  /// 1 = classic deterministic k-d tree; >1 = FLANN-style randomized
  /// forest (each tree picks its split axis among the top variance axes
  /// at random).
  std::size_t num_trees = 1;
  std::uint64_t seed = 42;
};

/// k-d tree (paper §2.2 "Tree-based indexes"): deterministic splits on the
/// highest-variance coordinate axis at the subset median; with
/// `num_trees > 1` the split axis is sampled from the top-5 variance axes
/// (the FLANN randomization). Searched best-first with a leaf-visit budget.
class KdTreeIndex final : public BspForest {
 public:
  explicit KdTreeIndex(const KdTreeOptions& opts = {}) : opts_(opts) {
    default_leaf_visits_ = opts.default_leaf_visits;
  }

  std::string Name() const override {
    return opts_.num_trees > 1 ? "kd-forest" : "kd-tree";
  }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;

 protected:
  float Margin(const Tree& tree, const Node& node,
               const float* x) const override {
    (void)tree;
    return x[node.split] - node.threshold;
  }
  bool ChooseSplit(Tree* tree, std::uint32_t lo, std::uint32_t hi,
                   std::size_t depth, Rng* rng, Node* node,
                   std::vector<float>* projections) override;

 private:
  KdTreeOptions opts_;
};

}  // namespace vdb

#endif  // VDB_INDEX_KD_TREE_H_
