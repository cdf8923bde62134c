#include "index/pca_tree.h"

#include <algorithm>

#include "core/simd.h"

namespace vdb {

Status PcaTreeIndex::Build(FloatMatrix data,
                           std::span<const VectorId> ids) {
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  auto pca =
      linalg::Pca(rows_.vectors(), std::min(opts_.num_components, dim()));
  components_ = std::move(pca.components);
  if (components_.rows() == 0) {
    return Status::Internal("pca produced no components");
  }
  return BuildForest(1, opts_.leaf_size, opts_.seed);
}

float PcaTreeIndex::Margin(const Tree& tree, const Node& node,
                           const float* x) const {
  (void)tree;
  return simd::InnerProduct(components_.row(node.split), x, dim()) -
         node.threshold;
}

bool PcaTreeIndex::ChooseSplit(Tree* tree, std::uint32_t lo, std::uint32_t hi,
                               std::size_t depth, Rng* rng, Node* node,
                               std::vector<float>* projections) {
  (void)rng;
  const std::size_t n = hi - lo;
  std::uint32_t comp = static_cast<std::uint32_t>(depth % components_.rows());

  projections->resize(n);
  for (std::uint32_t i = lo; i < hi; ++i) {
    (*projections)[i - lo] = simd::InnerProduct(
        components_.row(comp), vector(tree->points[i]), dim());
  }
  std::vector<float> sorted = *projections;
  std::nth_element(sorted.begin(), sorted.begin() + n / 2, sorted.end());
  float median = sorted[n / 2];
  // Degenerate projection spread: give up on this axis.
  auto [mn, mx] = std::minmax_element(sorted.begin(), sorted.end());
  if (*mx - *mn <= 1e-12f) return false;
  node->split = comp;
  node->threshold = median;
  return true;
}

}  // namespace vdb
