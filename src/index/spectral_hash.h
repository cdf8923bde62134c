#ifndef VDB_INDEX_SPECTRAL_HASH_H_
#define VDB_INDEX_SPECTRAL_HASH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "index/dense_base.h"

namespace vdb {

struct SpectralHashOptions {
  MetricSpec metric = MetricSpec::L2();
  std::size_t bits = 32;          ///< code length (<= 64)
  std::size_t num_components = 8; ///< PCA directions considered
  /// Candidates gathered per result slot before exact re-ranking.
  std::size_t rerank_factor = 16;
};

/// Spectral hashing (Weiss et al.; paper §2.2(2) learning-to-hash): codes
/// come from the analytical Laplacian eigenfunctions of a uniform
/// distribution over the PCA-aligned bounding box — for PCA direction d
/// with extent [mn, mx], bit (d, k) is sign(sin(pi/2 + k*pi*(x·d - mn) /
/// (mx - mn))), and the `bits` lowest-eigenvalue (d, k) pairs are kept.
/// Data-dependent (learned) partitioning: adapts code allocation to the
/// directions with the largest spread. Search ranks by Hamming distance
/// in the compressed domain and re-ranks the best candidates exactly.
class SpectralHashIndex final : public DenseIndexBase {
 public:
  explicit SpectralHashIndex(const SpectralHashOptions& opts = {})
      : opts_(opts) {}

  std::string Name() const override { return "spectral-hash"; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Add(const float* vec, VectorId id) override;
  bool SupportsAdd() const override { return true; }
  std::size_t MemoryBytes() const override;

  /// The 64-bit spectral code of an arbitrary vector.
  std::uint64_t Encode(const float* x) const;

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  struct BitFunction {
    std::uint32_t component;  ///< PCA direction index
    std::uint32_t frequency;  ///< k (harmonics along that direction)
  };

  SpectralHashOptions opts_;
  FloatMatrix components_;      ///< PCA directions (rows)
  std::vector<float> mins_;     ///< per-direction projection min
  std::vector<float> ranges_;   ///< per-direction extent (>= tiny)
  std::vector<BitFunction> bit_functions_;
  std::vector<std::uint64_t> codes_;  ///< per internal id
};

}  // namespace vdb

#endif  // VDB_INDEX_SPECTRAL_HASH_H_
