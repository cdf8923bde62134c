#ifndef VDB_QUANT_PQ_H_
#define VDB_QUANT_PQ_H_

#include <cstdint>
#include <vector>

#include "quant/quantizer.h"

namespace vdb {

/// Product quantizer (Jégou et al.; paper §2.2(3)): the space is split into
/// `m` subspaces of dim/m dimensions each; each subspace gets its own
/// k-means codebook of `ksub` centroids; a vector's code is the
/// concatenation of its per-subspace centroid indices.
struct PqOptions {
  std::size_t m = 8;       ///< number of subquantizers (must divide dim)
  std::size_t nbits = 8;   ///< bits per subquantizer index (<= 8)
  int train_iters = 20;
  std::uint64_t seed = 42;
};

class ProductQuantizer final : public Quantizer {
 public:
  explicit ProductQuantizer(const PqOptions& opts = {}) : opts_(opts) {}

  Status Train(const FloatMatrix& data) override;
  std::size_t code_size() const override { return opts_.m; }
  std::size_t dim() const override { return dim_; }
  void Encode(const float* x, std::uint8_t* code) const override;
  void Decode(const std::uint8_t* code, float* x) const override;
  std::string Name() const override;

  std::size_t m() const { return opts_.m; }
  std::size_t ksub() const { return ksub_; }
  std::size_t dsub() const { return dsub_; }

  /// Fills the ADC lookup tables for a query: row-major (m x ksub) of
  /// squared L2 from each query subvector to each subspace centroid.
  /// Asymmetric distance to any code is then a table-lookup sum —
  /// the kernel the paper's SIMD acceleration section targets.
  void ComputeAdcTables(const float* query, float* tables) const;

  /// Asymmetric (query vs code) distance via precomputed tables.
  float AdcDistance(const float* tables, const std::uint8_t* code) const;

  /// Symmetric (code vs code) distance: the sum over subspaces of the
  /// squared L2 between the two codes' centroids, computed on demand from
  /// the codebook (no m x ksub x ksub table is kept).
  float SdcDistance(const std::uint8_t* a, const std::uint8_t* b) const;

  /// Centroid `idx` of subspace `sub` (length dsub()). Read-only access
  /// for wrappers (OPQ, anisotropic assignment).
  const float* Centroid(std::size_t sub, std::size_t idx) const {
    return codebooks_.row(sub * ksub_ + idx);
  }

  /// Embeds the trained quantizer into a persistence container.
  void SaveTo(class BinaryWriter* writer) const;
  Status LoadFrom(class BinaryReader* reader);

 private:

  PqOptions opts_;
  std::size_t dim_ = 0;
  std::size_t dsub_ = 0;
  std::size_t ksub_ = 256;
  /// (m * ksub) x dsub; codebook of subspace s occupies rows [s*ksub, ...).
  FloatMatrix codebooks_;
};

}  // namespace vdb

#endif  // VDB_QUANT_PQ_H_
