#include "index/kd_tree.h"

#include <algorithm>
#include <cmath>

namespace vdb {

Status KdTreeIndex::Build(FloatMatrix data,
                          std::span<const VectorId> ids) {
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));
  return BuildForest(opts_.num_trees, opts_.leaf_size, opts_.seed);
}

bool KdTreeIndex::ChooseSplit(Tree* tree, std::uint32_t lo, std::uint32_t hi,
                              std::size_t depth, Rng* rng, Node* node,
                              std::vector<float>* projections) {
  (void)depth;
  const std::size_t d = dim();
  const std::size_t n = hi - lo;

  // Per-axis variance over (a sample of) the subset.
  const std::size_t sample = std::min<std::size_t>(n, 256);
  std::vector<double> mean(d, 0.0), var(d, 0.0);
  for (std::size_t s = 0; s < sample; ++s) {
    const float* x = vector(tree->points[lo + s * n / sample]);
    for (std::size_t j = 0; j < d; ++j) mean[j] += x[j];
  }
  for (std::size_t j = 0; j < d; ++j) mean[j] /= static_cast<double>(sample);
  for (std::size_t s = 0; s < sample; ++s) {
    const float* x = vector(tree->points[lo + s * n / sample]);
    for (std::size_t j = 0; j < d; ++j) {
      double delta = x[j] - mean[j];
      var[j] += delta * delta;
    }
  }

  std::size_t axis;
  if (opts_.num_trees > 1) {
    // FLANN randomization: pick among the top-5 variance axes.
    std::vector<std::size_t> order(d);
    for (std::size_t j = 0; j < d; ++j) order[j] = j;
    std::partial_sort(order.begin(), order.begin() + std::min<std::size_t>(5, d),
                      order.end(),
                      [&](std::size_t a, std::size_t b) { return var[a] > var[b]; });
    axis = order[rng->Next(std::min<std::size_t>(5, d))];
  } else {
    axis = static_cast<std::size_t>(
        std::max_element(var.begin(), var.end()) - var.begin());
  }
  if (var[axis] <= 1e-20) return false;  // constant subset: leaf

  projections->resize(n);
  for (std::uint32_t i = lo; i < hi; ++i) {
    (*projections)[i - lo] = vector(tree->points[i])[axis];
  }
  std::vector<float> sorted = *projections;
  std::nth_element(sorted.begin(), sorted.begin() + n / 2, sorted.end());
  node->split = static_cast<std::uint32_t>(axis);
  node->threshold = sorted[n / 2];
  return true;
}

}  // namespace vdb
