#include "core/distance.h"

#include <cmath>

#include "core/simd.h"

namespace vdb {

std::string MetricName(Metric metric) {
  switch (metric) {
    case Metric::kL2: return "l2";
    case Metric::kInnerProduct: return "ip";
    case Metric::kCosine: return "cosine";
    case Metric::kHamming: return "hamming";
    case Metric::kMinkowski: return "minkowski";
    case Metric::kMahalanobis: return "mahalanobis";
  }
  return "unknown";
}

Result<Scorer> Scorer::Create(const MetricSpec& spec, std::size_t dim) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  Scorer s;
  s.dim_ = dim;
  s.spec_ = spec;
  switch (spec.metric) {
    case Metric::kL2:
      s.fn_ = &L2Fn;
      break;
    case Metric::kInnerProduct:
      s.fn_ = &IpFn;
      break;
    case Metric::kCosine:
      s.fn_ = &CosineFn;
      break;
    case Metric::kHamming:
      s.fn_ = &HammingFn;
      break;
    case Metric::kMinkowski:
      if (spec.minkowski_p <= 0.0f) {
        return Status::InvalidArgument("minkowski_p must be > 0");
      }
      s.fn_ = &MinkowskiFn;
      break;
    case Metric::kMahalanobis:
      if (!spec.mahalanobis_l.empty() &&
          spec.mahalanobis_l.size() != dim * dim) {
        return Status::InvalidArgument(
            "mahalanobis_l must be dim*dim (or empty for identity)");
      }
      s.fn_ = &MahalanobisFn;
      break;
  }
  return s;
}

void Scorer::DistanceBatch(const float* query, const float* base,
                           const std::uint32_t* ids, std::size_t n,
                           float* out) const {
  if (n == 0) return;
  switch (spec_.metric) {
    case Metric::kL2:
      simd::L2SqBatchGather(query, base, dim_, ids, n, out);
      return;
    case Metric::kInnerProduct:
      simd::InnerProductBatchGather(query, base, dim_, ids, n, out);
      for (std::size_t i = 0; i < n; ++i) out[i] = -out[i];
      return;
    default:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = fn_(*this, query, base + std::size_t{ids[i]} * dim_);
      }
      return;
  }
}

float Scorer::ToUserScore(float dist) const {
  switch (spec_.metric) {
    case Metric::kInnerProduct: return -dist;
    case Metric::kCosine: return 1.0f - dist;
    default: return dist;
  }
}

bool Scorer::IsTrueMetric() const {
  switch (spec_.metric) {
    case Metric::kL2:
    case Metric::kHamming:
    case Metric::kMahalanobis:
      return true;
    case Metric::kMinkowski:
      return spec_.minkowski_p >= 1.0f;
    case Metric::kInnerProduct:
    case Metric::kCosine:
      return false;
  }
  return false;
}

float Scorer::L2Fn(const Scorer& s, const float* a, const float* b) {
  return simd::L2Sq(a, b, s.dim_);
}

float Scorer::IpFn(const Scorer& s, const float* a, const float* b) {
  return -simd::InnerProduct(a, b, s.dim_);
}

float Scorer::CosineFn(const Scorer& s, const float* a, const float* b) {
  float ip = simd::InnerProduct(a, b, s.dim_);
  float na = simd::NormSq(a, s.dim_);
  float nb = simd::NormSq(b, s.dim_);
  if (na <= 0.0f || nb <= 0.0f) return 1.0f;  // zero vector: orthogonal-ish
  return 1.0f - ip / std::sqrt(na * nb);
}

float Scorer::HammingFn(const Scorer& s, const float* a, const float* b) {
  // Feature vectors are binarized per dimension at 0.5 (the SQ-style bit
  // representation the paper mentions for Hamming workloads).
  int diff = 0;
  for (std::size_t i = 0; i < s.dim_; ++i) {
    diff += (a[i] >= 0.5f) != (b[i] >= 0.5f);
  }
  return static_cast<float>(diff);
}

float Scorer::MinkowskiFn(const Scorer& s, const float* a, const float* b) {
  float p = s.spec_.minkowski_p;
  double acc = 0.0;
  for (std::size_t i = 0; i < s.dim_; ++i) {
    acc += std::pow(std::fabs(static_cast<double>(a[i]) - b[i]), p);
  }
  return static_cast<float>(std::pow(acc, 1.0 / p));
}

float Scorer::MahalanobisFn(const Scorer& s, const float* a, const float* b) {
  const std::size_t d = s.dim_;
  const auto& l = s.spec_.mahalanobis_l;
  if (l.empty()) return std::sqrt(simd::L2Sq(a, b, d));
  // dist = || L (a - b) ||; computed row-by-row to stay allocation-free.
  double acc = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const float* row = l.data() + i * d;
    double dot = 0.0;
    for (std::size_t j = 0; j < d; ++j) dot += row[j] * (a[j] - b[j]);
    acc += dot * dot;
  }
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace vdb
