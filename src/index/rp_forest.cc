#include "index/rp_forest.h"

#include <algorithm>
#include <cmath>

#include "core/simd.h"

namespace vdb {

Status RpForestIndex::Build(FloatMatrix data,
                            std::span<const VectorId> ids) {
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  return BuildForest(opts_.num_trees, opts_.leaf_size, opts_.seed);
}

float RpForestIndex::Margin(const Tree& tree, const Node& node,
                            const float* x) const {
  return simd::InnerProduct(tree.normals.row(node.split), x, dim()) -
         node.threshold;
}

bool RpForestIndex::ChooseSplit(Tree* tree, std::uint32_t lo, std::uint32_t hi,
                                std::size_t depth, Rng* rng, Node* node,
                                std::vector<float>* projections) {
  (void)depth;
  const std::size_t d = dim();
  const std::size_t n = hi - lo;

  // Hyperplane normal: direction between two random subset members.
  std::vector<float> normal(d);
  bool ok = false;
  for (int attempt = 0; attempt < 4 && !ok; ++attempt) {
    const float* a = vector(tree->points[lo + rng->Next(n)]);
    const float* b = vector(tree->points[lo + rng->Next(n)]);
    double norm = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      normal[j] = a[j] - b[j];
      norm += static_cast<double>(normal[j]) * normal[j];
    }
    if (norm > 1e-12) {
      float inv = static_cast<float>(1.0 / std::sqrt(norm));
      for (std::size_t j = 0; j < d; ++j) normal[j] *= inv;
      ok = true;
    }
  }
  if (!ok) return false;  // duplicate-heavy subset: leaf

  if (tree->normals.empty()) tree->normals = FloatMatrix(0, d);
  std::uint32_t normal_id = static_cast<std::uint32_t>(tree->normals.rows());
  tree->normals.AppendRow(normal.data(), d);

  projections->resize(n);
  for (std::uint32_t i = lo; i < hi; ++i) {
    (*projections)[i - lo] =
        simd::InnerProduct(normal.data(), vector(tree->points[i]), d);
  }
  std::vector<float> sorted = *projections;
  std::nth_element(sorted.begin(), sorted.begin() + n / 2, sorted.end());
  node->split = normal_id;
  node->threshold = sorted[n / 2];
  return true;
}

}  // namespace vdb
