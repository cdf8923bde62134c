#ifndef VDB_INDEX_KNN_GRAPH_H_
#define VDB_INDEX_KNN_GRAPH_H_

#include <span>
#include <vector>

#include "core/rng.h"
#include "index/dense_base.h"

namespace vdb {

/// How the approximate KNN graph is initialized before NN-Descent
/// refinement (paper §2.2(1)): KGraph starts from a random graph; EFANNA
/// starts from a forest of randomized k-d trees.
enum class KnnGraphInit {
  kRandom,
  kKdForest,  ///< EFANNA-style tree-seeded initialization
};

struct KnnGraphOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t graph_degree = 16;  ///< k of the KNN graph
  int nn_descent_iters = 8;
  /// Neighbors sampled per node and side during each local join.
  std::size_t sample = 12;
  KnnGraphInit init = KnnGraphInit::kRandom;
  std::size_t init_trees = 4;      ///< EFANNA: trees in the seeding forest
  std::size_t default_ef = 32;     ///< search queue width
  std::size_t num_entry_points = 8;
  std::uint64_t seed = 42;
};

/// Approximate k-nearest-neighbor graph built by NN-Descent iterative
/// refinement (KGraph; Dong et al.), optionally seeded from a randomized
/// k-d forest (EFANNA). Searched with best-first beam search from sampled
/// entry points. Exact O(N^2) construction is available for small N as the
/// brute-force reference.
class KnnGraphIndex final : public DenseIndexBase {
 public:
  explicit KnnGraphIndex(const KnnGraphOptions& opts = {}) : opts_(opts) {}

  std::string Name() const override {
    return opts_.init == KnnGraphInit::kKdForest ? "efanna" : "kgraph";
  }
  bool IsGraph() const override { return true; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  std::size_t MemoryBytes() const override;

  /// Fraction of edges of the exact KNN graph present in this graph
  /// (graph recall — the NN-Descent convergence measure). O(N^2); use on
  /// small datasets only.
  double GraphRecallVsExact() const;

  const std::vector<std::uint32_t>& NeighborsOf(std::uint32_t idx) const {
    return adjacency_[idx];
  }

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  void InitRandom(Rng* rng);
  void InitFromKdForest();
  /// One NN-Descent sweep; returns the number of list updates made.
  std::size_t NnDescentIteration(Rng* rng);
  /// Inserts candidate (idx, dist) into `node`'s bounded neighbor list.
  bool UpdateNeighborList(std::uint32_t node, std::uint32_t cand, float dist);

  KnnGraphOptions opts_;
  /// Working lists during construction: (dist, neighbor, is_new).
  struct Entry {
    float dist;
    std::uint32_t idx;
    bool is_new;
  };
  std::vector<std::vector<Entry>> lists_;
  std::vector<std::vector<std::uint32_t>> adjacency_;  ///< final graph
  std::vector<std::uint32_t> entry_points_;
};

}  // namespace vdb

#endif  // VDB_INDEX_KNN_GRAPH_H_
