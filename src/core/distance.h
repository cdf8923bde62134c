#ifndef VDB_CORE_DISTANCE_H_
#define VDB_CORE_DISTANCE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace vdb {

/// Basic similarity scores surveyed in §2.1 "Score Design". Every score is
/// normalized library-wide to a *distance* (lower is better); similarities
/// (inner product, cosine) are mapped monotonically so that top-k by
/// ascending distance equals top-k by descending similarity.
enum class Metric {
  kL2,           ///< squared Euclidean distance
  kInnerProduct, ///< negated dot product (MIPS)
  kCosine,       ///< 1 - cosine similarity
  kHamming,      ///< per-dimension binarized (>= 0.5) Hamming distance
  kMinkowski,    ///< Minkowski distance ||a-b||_p (parameter `minkowski_p`)
  kMahalanobis,  ///< sqrt((a-b)^T M (a-b)) with learned/supplied M = L^T L
};

/// Human-readable metric name ("l2", "ip", ...).
std::string MetricName(Metric metric);

/// Full specification of a score: the metric plus its parameters.
struct MetricSpec {
  Metric metric = Metric::kL2;
  /// Order of the Minkowski norm; p >= 1 gives a true metric.
  float minkowski_p = 3.0f;
  /// Row-major dim x dim factor L for Mahalanobis (distance uses M = L^T L).
  /// Identity is assumed when empty.
  std::vector<float> mahalanobis_l;

  static MetricSpec L2() { return {Metric::kL2, 3.0f, {}}; }
  static MetricSpec InnerProduct() { return {Metric::kInnerProduct, 3.0f, {}}; }
  static MetricSpec Cosine() { return {Metric::kCosine, 3.0f, {}}; }
  static MetricSpec Hamming() { return {Metric::kHamming, 3.0f, {}}; }
  static MetricSpec Minkowski(float p) { return {Metric::kMinkowski, p, {}}; }
  static MetricSpec Mahalanobis(std::vector<float> l) {
    return {Metric::kMahalanobis, 3.0f, std::move(l)};
  }
};

/// Evaluates a similarity score between two vectors of a fixed dimension.
/// Copyable; `Distance` is thread-safe (no mutable state).
class Scorer {
 public:
  Scorer() = default;

  /// Validates the spec against `dim` and builds the evaluator.
  static Result<Scorer> Create(const MetricSpec& spec, std::size_t dim);

  /// Internal score: distance, lower is better.
  float Distance(const float* a, const float* b) const {
    return fn_(*this, a, b);
  }
  float Distance(VectorView a, VectorView b) const {
    return Distance(a.data(), b.data());
  }

  /// Batched distance: out[i] = Distance(query, base + ids[i]*dim) for the
  /// `n` gathered rows of a row-major matrix, bit for bit. For L2 and
  /// inner product this routes through the one-query-vs-many SIMD kernels
  /// (bit-identical per row to `Distance` on the same machine); other
  /// metrics fall back to a per-row loop. graph::BeamSearch scores every
  /// node, entry points included, through this call and relies on that
  /// identity for its results.
  void DistanceBatch(const float* query, const float* base,
                     const std::uint32_t* ids, std::size_t n,
                     float* out) const;

  /// Maps an internal distance back to the user-facing score of the metric
  /// (e.g. inner product similarity, cosine similarity).
  float ToUserScore(float dist) const;

  /// True for scores satisfying the metric axioms (symmetry, identity,
  /// triangle inequality): L2*, Hamming, Minkowski (p>=1), Mahalanobis.
  /// (*squared L2 satisfies a relaxed triangle inequality; `TriangleSafe`
  /// reports on the rooted form.)
  bool IsTrueMetric() const;

  std::size_t dim() const { return dim_; }
  Metric metric() const { return spec_.metric; }
  const MetricSpec& spec() const { return spec_; }

 private:
  using Fn = float (*)(const Scorer&, const float*, const float*);

  Fn fn_ = nullptr;
  std::size_t dim_ = 0;
  MetricSpec spec_;

  static float L2Fn(const Scorer& s, const float* a, const float* b);
  static float IpFn(const Scorer& s, const float* a, const float* b);
  static float CosineFn(const Scorer& s, const float* a, const float* b);
  static float HammingFn(const Scorer& s, const float* a, const float* b);
  static float MinkowskiFn(const Scorer& s, const float* a, const float* b);
  static float MahalanobisFn(const Scorer& s, const float* a, const float* b);
};

}  // namespace vdb

#endif  // VDB_CORE_DISTANCE_H_
