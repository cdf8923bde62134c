#ifndef VDB_INDEX_IVF_PQ_H_
#define VDB_INDEX_IVF_PQ_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "index/ivf.h"
#include "quant/opq.h"
#include "quant/pq.h"

namespace vdb {

struct IvfPqOptions {
  IvfOptions ivf;
  PqOptions pq;
  /// Learn an OPQ rotation before residual encoding (OPQ+IVFADC).
  bool use_opq = false;
  int opq_iters = 6;
};

/// IVFADC (Jégou et al.; paper §2.2(3)): k-means coarse buckets storing
/// product-quantized *residuals* (x - centroid). Queries score candidates
/// with per-bucket ADC lookup tables — the access pattern the paper's SIMD
/// acceleration work (Quick ADC) targets — then optionally re-rank with
/// full vectors. L2 metric only.
class IvfPqIndex final : public IvfBase {
 public:
  explicit IvfPqIndex(const IvfPqOptions& opts = {})
      : IvfBase(opts.ivf), pq_opts_(opts) {}

  std::string Name() const override {
    return pq_opts_.use_opq ? "ivf-opq" : "ivf-pq";
  }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Add(const float* vec, VectorId id) override;
  std::size_t MemoryBytes() const override;
  bool SupportsAdd() const override { return true; }

  std::size_t CodeBytesPerVector() const { return pq_.code_size(); }

  /// Persistence (plain IVFADC only; OPQ-rotated indexes are rebuilt —
  /// their training is the cheap part relative to the rotation solve).
  Status Save(const std::string& path) const;
  static Result<std::unique_ptr<IvfPqIndex>> Load(const std::string& path);

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  /// Rotates into codebook space when OPQ is enabled (identity otherwise).
  void ToCodeSpace(const float* x, float* out) const;
  void EncodeResidual(const float* vec_code_space, std::uint32_t list_id,
                      std::uint8_t* code) const;

  IvfPqOptions pq_opts_;
  ProductQuantizer pq_;       ///< trained on residuals in code space
  std::unique_ptr<OptimizedProductQuantizer> opq_;  ///< rotation provider
  FloatMatrix rotated_centroids_;  ///< centroids in code space
  std::vector<std::uint8_t> codes_;
};

}  // namespace vdb

#endif  // VDB_INDEX_IVF_PQ_H_
