#ifndef VDB_INDEX_IVF_SQ_H_
#define VDB_INDEX_IVF_SQ_H_

#include <cstdint>
#include <span>
#include <vector>

#include "index/ivf.h"
#include "quant/sq.h"

namespace vdb {

/// IVF-SQ (paper §2.2(3) "IVFSQ"): k-means buckets whose members are
/// stored as 8-bit scalar-quantized codes. Candidates are scored in the
/// compressed domain (asymmetric decode-on-the-fly L2) and optionally
/// re-ranked with the full-precision vectors. L2 metric only.
class IvfSqIndex final : public IvfBase {
 public:
  explicit IvfSqIndex(const IvfOptions& opts = {}) : IvfBase(opts) {}

  std::string Name() const override { return "ivf-sq8"; }
  Status Build(FloatMatrix data, std::span<const VectorId> ids) override;
  Status Add(const float* vec, VectorId id) override;
  std::size_t MemoryBytes() const override;
  bool SupportsAdd() const override { return true; }

  /// Bytes of compressed payload per vector (the storage the paper's
  /// compression claims are about; full vectors kept only for re-rank).
  std::size_t CodeBytesPerVector() const { return sq_.code_size(); }

 protected:
  Status SearchImpl(const float* query, const SearchParams& params,
                    std::vector<Neighbor>* out,
                    SearchStats* stats) const override;

 private:
  ScalarQuantizer sq_;
  std::vector<std::uint8_t> codes_;  ///< per internal id, code_size bytes
};

}  // namespace vdb

#endif  // VDB_INDEX_IVF_SQ_H_
