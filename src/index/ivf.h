#ifndef VDB_INDEX_IVF_H_
#define VDB_INDEX_IVF_H_

#include <cstdint>
#include <span>
#include <vector>

#include "index/dense_base.h"

namespace vdb {

/// Shared options for the IVF family (paper §2.2: learning-to-hash /
/// quantization table indexes). The coarse quantizer is k-means — the
/// "bucket similar vectors by learned clustering" exemplar (as in SPANN's
/// in-memory ancestor and IVFADC).
struct IvfOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t nlist = 64;     ///< number of coarse buckets
  int default_nprobe = 8;     ///< buckets scanned per query by default
  int kmeans_iters = 15;
  std::uint64_t seed = 42;
  /// Compressed variants: candidates gathered per result slot before
  /// full-precision re-ranking.
  std::size_t rerank_factor = 4;
};

/// Common coarse-quantizer machinery for IVF-Flat / IVF-SQ / IVF-PQ.
class IvfBase : public DenseIndexBase {
 public:
  std::size_t nlist() const { return lists_.size(); }
  const FloatMatrix& centroids() const { return centroids_; }

 protected:
  explicit IvfBase(const IvfOptions& opts) : opts_(opts) {}

  /// Runs k-means and fills `lists_` with the internal ids per bucket.
  Status BuildCoarse();

  /// The snapshot block IVF-Flat and IVF-PQ share after SaveRows:
  /// centroids, then each inverted list.
  void SaveLists(BinaryWriter* w) const;
  Status LoadLists(BinaryReader* r);

  int EffectiveNprobe(const SearchParams& params) const {
    int np = params.nprobe > 0 ? params.nprobe : opts_.default_nprobe;
    return std::min<int>(np, static_cast<int>(lists_.size()));
  }

  IvfOptions opts_;
  FloatMatrix centroids_;                        ///< nlist x dim
  std::vector<std::vector<std::uint32_t>> lists_;  ///< internal ids per bucket
};

/// IVF-Flat: inverted lists of raw vectors; scan nprobe nearest buckets.
class IvfFlatIndex final : public IvfBase {
 public:
  explicit IvfFlatIndex(const IvfOptions& opts = {}) : IvfBase(opts) {}

  std::string Name() const override { return "ivf-flat"; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Add(const float* vec, VectorId id) override;
  std::size_t MemoryBytes() const override;
  bool SupportsAdd() const override { return true; }

  /// Serializes the index (vectors, labels, tombstones, centroids,
  /// inverted lists, options) to a CRC-guarded binary file.
  Status Save(const std::string& path) const;
  /// Restores an index saved by `Save`.
  static Result<std::unique_ptr<IvfFlatIndex>> Load(const std::string& path);

  /// Batched execution (paper §2.1 "batched queries" / §2.3): probes are
  /// computed for every query first, then inverted lists are scanned
  /// bucket-major — each list's vectors stay cache-resident while every
  /// interested query scores them, exploiting commonality in the batch.
  Status BatchSearch(const FloatMatrix& queries, const SearchParams& params,
                     std::vector<std::vector<Neighbor>>* out,
                     SearchStats* stats = nullptr) const;

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;
};

}  // namespace vdb

#endif  // VDB_INDEX_IVF_H_
