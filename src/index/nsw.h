#ifndef VDB_INDEX_NSW_H_
#define VDB_INDEX_NSW_H_

#include <span>
#include <vector>

#include "index/dense_base.h"

namespace vdb {

struct NswOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t m = 12;                ///< links created per inserted node
  std::size_t ef_construction = 64;  ///< beam width while inserting
  std::size_t default_ef = 32;
  std::size_t num_entry_points = 4;
  std::uint64_t seed = 42;
};

/// Navigable small world graph (Malkov et al. 2014; paper §2.2(3) SWGs):
/// nodes are inserted one at a time and connected bidirectionally to their
/// `m` nearest already-inserted nodes found by beam search. Long-range
/// links arise naturally from early insertions, giving the small-world
/// navigability; degrees are unbounded (the flat-graph degree explosion
/// HNSW later fixes).
class NswIndex final : public DenseIndexBase {
 public:
  explicit NswIndex(const NswOptions& opts = {}) : opts_(opts) {}

  std::string Name() const override { return "nsw"; }
  bool IsGraph() const override { return true; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Add(const float* vec, VectorId id) override;
  bool SupportsAdd() const override { return true; }
  std::size_t MemoryBytes() const override;

  /// Mean node degree (diagnostic for the degree-growth behaviour).
  double MeanDegree() const;

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  void Insert(std::uint32_t idx);
  std::vector<std::uint32_t> EntryPoints() const;

  NswOptions opts_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::size_t inserted_ = 0;  ///< nodes currently linked into the graph
};

}  // namespace vdb

#endif  // VDB_INDEX_NSW_H_
