#ifndef VDB_INDEX_LSH_H_
#define VDB_INDEX_LSH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "index/dense_base.h"

namespace vdb {

/// Hash families for LSH (paper §2.2(1)): random hyperplanes (sign bits,
/// for angular/cosine workloads — the IndexLSH-style binary projection)
/// and p-stable Gaussian projections with quantized offsets (E2LSH, for
/// L2 workloads).
enum class LshFamily {
  kSignRandomHyperplane,
  kPStableL2,
};

struct LshOptions {
  MetricSpec metric = MetricSpec::L2();
  LshFamily family = LshFamily::kPStableL2;
  std::size_t num_tables = 8;      ///< L: independent hash tables
  std::size_t hashes_per_table = 12;  ///< K: concatenated hash functions
  float bucket_width = 0.5f;       ///< w for the p-stable family
  int default_probes = 0;          ///< extra multi-probe buckets per table
  std::uint64_t seed = 42;
};

/// Locality-sensitive hashing index: a table-based index with randomized
/// partitioning. Easy to maintain (Add is O(L)); recall is governed by
/// (L, K, w) and optional multi-probing.
class LshIndex final : public DenseIndexBase {
 public:
  explicit LshIndex(const LshOptions& opts = {}) : opts_(opts) {}

  std::string Name() const override {
    return opts_.family == LshFamily::kPStableL2 ? "lsh-e2" : "lsh-sign";
  }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Add(const float* vec, VectorId id) override;
  std::size_t MemoryBytes() const override;
  bool SupportsAdd() const override { return true; }

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  /// Raw per-function hash values for one table (length K).
  void HashRaw(std::size_t table, const float* x,
               std::vector<std::int64_t>* raw) const;
  /// Combines raw values into a bucket key.
  static std::uint64_t CombineKey(const std::vector<std::int64_t>& raw);
  void InsertIntoTables(std::uint32_t idx);

  LshOptions opts_;
  /// Projection vectors: (L*K) x dim, row t*K+j is function j of table t.
  FloatMatrix projections_;
  std::vector<float> offsets_;  ///< p-stable: random shift per function
  std::vector<std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>>
      tables_;
};

}  // namespace vdb

#endif  // VDB_INDEX_LSH_H_
