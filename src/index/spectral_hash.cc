#include "index/spectral_hash.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "core/linalg.h"
#include "core/simd.h"
#include "core/topk.h"

namespace vdb {

Status SpectralHashIndex::Build(FloatMatrix data,
                                std::span<const VectorId> ids) {
  if (opts_.bits == 0 || opts_.bits > 64) {
    return Status::InvalidArgument("bits must be in [1, 64]");
  }
  if (opts_.metric.metric != Metric::kL2) {
    return Status::InvalidArgument("spectral-hash supports L2 only");
  }
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), ids, opts_.metric));

  auto pca =
      linalg::Pca(rows_.vectors(), std::min(opts_.num_components, dim()));
  components_ = std::move(pca.components);
  const std::size_t nc = components_.rows();

  mins_.assign(nc, std::numeric_limits<float>::max());
  std::vector<float> maxs(nc, std::numeric_limits<float>::lowest());
  std::vector<float> proj(nc);
  for (std::uint32_t i = 0; i < TotalRows(); ++i) {
    linalg::MatVec(components_, vector(i), proj.data());
    for (std::size_t c = 0; c < nc; ++c) {
      mins_[c] = std::min(mins_[c], proj[c]);
      maxs[c] = std::max(maxs[c], proj[c]);
    }
  }
  ranges_.resize(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    ranges_[c] = std::max(maxs[c] - mins_[c], 1e-6f);
  }

  // Eigenvalue of mode (c, k) on [0, range_c] is (k*pi/range_c)^2: keep
  // the `bits` smallest — long boxes get more harmonics.
  struct Mode {
    double eigenvalue;
    BitFunction fn;
  };
  std::vector<Mode> modes;
  for (std::uint32_t c = 0; c < nc; ++c) {
    for (std::uint32_t k = 1; k <= opts_.bits; ++k) {
      double lambda = std::pow(
          double(k) * std::numbers::pi / double(ranges_[c]), 2.0);
      modes.push_back({lambda, {c, k}});
    }
  }
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) {
              return a.eigenvalue < b.eigenvalue;
            });
  bit_functions_.clear();
  for (std::size_t b = 0; b < opts_.bits && b < modes.size(); ++b) {
    bit_functions_.push_back(modes[b].fn);
  }

  codes_.resize(TotalRows());
  for (std::uint32_t i = 0; i < TotalRows(); ++i) {
    codes_[i] = Encode(vector(i));
  }
  return Status::Ok();
}

std::uint64_t SpectralHashIndex::Encode(const float* x) const {
  std::vector<float> proj(components_.rows());
  linalg::MatVec(components_, x, proj.data());
  std::uint64_t code = 0;
  for (std::size_t b = 0; b < bit_functions_.size(); ++b) {
    const BitFunction& fn = bit_functions_[b];
    double t = (proj[fn.component] - mins_[fn.component]) /
               ranges_[fn.component];
    double wave = std::sin(std::numbers::pi / 2.0 +
                           double(fn.frequency) * std::numbers::pi * t);
    if (wave >= 0.0) code |= std::uint64_t{1} << b;
  }
  return code;
}

Status SpectralHashIndex::Add(const float* vec, VectorId id) {
  VDB_ASSIGN_OR_RETURN(std::uint32_t idx, AddBase(vec, id));
  codes_.resize(TotalRows());
  codes_[idx] = Encode(vec);
  return Status::Ok();
}

Status SpectralHashIndex::SearchImpl(const float* query,
                                     const SearchParams& params,
                                     std::vector<Neighbor>* out,
                                     SearchStats* stats) const {
  const std::uint64_t qcode = Encode(query);
  const std::size_t gather =
      params.rerank ? params.k * opts_.rerank_factor : params.k;
  // Compressed-domain pass: Hamming ranking of the code table.
  TopK approx(gather);
  for (std::uint32_t i = 0; i < TotalRows(); ++i) {
    if (!Admissible(i, params, stats)) continue;
    int hamming = __builtin_popcountll(qcode ^ codes_[i]);
    if (stats != nullptr) ++stats->code_comps;
    approx.Push(static_cast<VectorId>(i), static_cast<float>(hamming));
  }
  TopK top(params.k);
  for (const auto& cand : approx.Take()) {
    auto idx = static_cast<std::uint32_t>(cand.id);
    float dist = cand.dist;
    if (params.rerank) {
      dist = scorer_.Distance(query, vector(idx));
      if (stats != nullptr) ++stats->distance_comps;
    }
    top.Push(label(idx), dist);
  }
  *out = top.Take();
  return Status::Ok();
}

std::size_t SpectralHashIndex::MemoryBytes() const {
  return rows_.MemoryBytes() + components_.ByteSize() +
         codes_.size() * sizeof(std::uint64_t);
}

}  // namespace vdb
