#ifndef VDB_INDEX_BSP_FOREST_H_
#define VDB_INDEX_BSP_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.h"
#include "index/dense_base.h"

namespace vdb {

/// Shared machinery for the tree-based index family (paper §2.2
/// "Tree-based indexes"): a forest of binary space-partition trees searched
/// with a single best-first priority queue bounded by a leaf-visit budget
/// (the FLANN search strategy). Subclasses define only the split rule:
///   - k-d tree: deterministic max-variance axis, median threshold;
///   - RP forest (ANNOY): random point-pair hyperplane, median threshold;
///   - PCA tree (PKD): principal axes rotated through by depth.
class BspForest : public DenseIndexBase {
 public:
  std::size_t MemoryBytes() const override;

  /// Total leaves across the forest (the budget for an exhaustive search).
  std::size_t TotalLeaves() const;

 protected:
  struct Node {
    std::int32_t left = -1;   ///< -1 marks a leaf
    std::int32_t right = -1;
    std::uint32_t split = 0;  ///< axis / hyperplane / component id
    float threshold = 0.0f;
    std::uint32_t start = 0;  ///< leaf: range into Tree::points
    std::uint32_t end = 0;
  };
  struct Tree {
    std::vector<Node> nodes;
    std::vector<std::uint32_t> points;  ///< permutation of internal ids
    FloatMatrix normals;  ///< RP forest hyperplane normals (else empty)
  };

  /// Signed distance of `x` to the node's splitting boundary (negative ->
  /// left child). Must be consistent with the thresholds set by ChooseSplit.
  virtual float Margin(const Tree& tree, const Node& node,
                       const float* x) const = 0;

  /// Picks the split for the points `tree->points[lo, hi)` at `depth`,
  /// writing node->split/threshold and the projection of each point (same
  /// order) into `projections`. Returns false to force a leaf.
  virtual bool ChooseSplit(Tree* tree, std::uint32_t lo, std::uint32_t hi,
                           std::size_t depth, Rng* rng, Node* node,
                           std::vector<float>* projections) = 0;

  /// Builds `num_trees` trees over all internal ids.
  Status BuildForest(std::size_t num_trees, std::size_t leaf_size,
                     std::uint64_t seed);

  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

  int default_leaf_visits_ = 64;

  std::vector<Tree> trees_;
  std::size_t leaf_size_ = 32;

 private:
  std::int32_t BuildNode(Tree* tree, std::uint32_t lo, std::uint32_t hi,
                         std::size_t depth, Rng* rng);
};

}  // namespace vdb

#endif  // VDB_INDEX_BSP_FOREST_H_
