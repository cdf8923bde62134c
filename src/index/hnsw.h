#ifndef VDB_INDEX_HNSW_H_
#define VDB_INDEX_HNSW_H_

#include <span>
#include <vector>

#include "core/rng.h"
#include "index/dense_base.h"

namespace vdb {

struct HnswOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t m = 16;                 ///< target degree (layer > 0)
  std::size_t ef_construction = 100;
  std::size_t default_ef = 32;
  std::uint64_t seed = 42;
  /// Diversity-pruning neighbor selection (Malkov & Yashunin Alg. 4).
  /// false = plain closest-M selection; exposed for the A-series ablation
  /// (the heuristic is what keeps clustered datasets navigable).
  bool use_select_heuristic = true;
};

/// Hierarchical navigable small world graph (Malkov & Yashunin; paper
/// §2.2(3)): each node draws a maximum layer from an exponentially decaying
/// distribution; upper layers form a coarse navigation hierarchy and layer
/// 0 holds the full graph with degree bound 2M. Neighbor sets are chosen
/// with the diversity heuristic (a candidate is kept only if it is closer
/// to the query than to every already-kept neighbor), which prevents the
/// degree explosion of flat NSW. Supports incremental insertion, tombstone
/// deletion, and block-first / visit-first filtered search.
class HnswIndex final : public DenseIndexBase {
 public:
  explicit HnswIndex(const HnswOptions& opts = {}) : opts_(opts) {}

  std::string Name() const override { return "hnsw"; }
  bool IsGraph() const override { return true; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Add(const float* vec, VectorId id) override;
  bool SupportsAdd() const override { return true; }
  std::size_t MemoryBytes() const override;

  /// Approximate range search: beam search whose frontier keeps expanding
  /// while nodes within `radius` keep appearing (expansion halo of one
  /// `range_slack` factor beyond the radius catches boundary stragglers).
  /// Results are every visited node with distance <= radius, ascending.
  Status RangeSearch(const float* query, float radius,
                     std::vector<Neighbor>* out,
                     SearchStats* stats = nullptr) const override;

  int max_level() const { return max_level_; }
  std::size_t DegreeAt(std::uint32_t idx, int level) const {
    return links_[idx][level].size();
  }

  /// Restores an index saved by `Save` (options, rows, every layer's
  /// adjacency). Searches, adds, and removes behave identically to the
  /// original instance.
  static Result<std::unique_ptr<HnswIndex>> Load(const std::string& path) {
    return LoadIndexFile<HnswIndex>(path);
  }
  std::uint32_t CodecMagic() const override { return 0x56484E57; }  // "VHNW"
  void SaveStructure(BinaryWriter* w, bool with_rows) const override;
  Status LoadStructure(BinaryReader* r, VectorStore* rows) override;

  /// Search seeded at the node labeled `hint` instead of descending the
  /// hierarchy — the shared-entry batched execution trick (§2.3): when the
  /// previous query in a batch is similar, its best hit is already a good
  /// layer-0 entry and the upper-layer descent is skipped entirely.
  Status SearchWithEntryHint(const float* query, VectorId hint,
                             const SearchParams& params,
                             std::vector<Neighbor>* out,
                             SearchStats* stats = nullptr) const;

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  int RandomLevel(Rng* rng) const;
  /// Node u's adjacency at `level` (empty above the node's top level).
  std::span<const std::uint32_t> Neighbors(std::uint32_t u, int level) const;
  /// Greedy descent from the entry point through every level above
  /// `down_to`; returns the node to enter level `down_to` at.
  std::uint32_t Descend(const float* query, int down_to,
                        SearchStats* stats) const;
  void Insert(std::uint32_t idx, Rng* rng);
  /// Beam search restricted to one layer.
  std::vector<std::pair<float, std::uint32_t>> SearchLayer(
      const float* query, std::uint32_t entry, std::size_t ef,
      int level) const;
  /// Diversity-pruning neighbor selection over ascending candidates.
  std::vector<std::uint32_t> SelectNeighbors(
      const float* query,
      const std::vector<std::pair<float, std::uint32_t>>& candidates,
      std::size_t m) const;
  std::size_t MaxDegree(int level) const {
    return level == 0 ? 2 * opts_.m : opts_.m;
  }

  HnswOptions opts_;
  /// links_[node][level] = adjacency at that level (level <= node's top).
  std::vector<std::vector<std::vector<std::uint32_t>>> links_;
  std::uint32_t entry_point_ = 0;
  int max_level_ = -1;
  double level_mult_ = 0.0;
};

}  // namespace vdb

#endif  // VDB_INDEX_HNSW_H_
