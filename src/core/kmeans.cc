#include "core/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/simd.h"
#include "core/topk.h"

namespace vdb {

namespace {

// k-means++ seeding: each next seed is drawn proportionally to squared
// distance from the closest already-chosen seed.
FloatMatrix SeedPlusPlus(const FloatMatrix& data, std::size_t k, Rng* rng) {
  const std::size_t n = data.rows(), d = data.cols();
  FloatMatrix centroids(k, d);
  std::size_t first = rng->Next(n);
  std::copy_n(data.row(first), d, centroids.row(0));

  std::vector<double> best_dist(n, std::numeric_limits<double>::max());
  std::vector<float> dist(n);
  for (std::size_t c = 1; c < k; ++c) {
    simd::L2SqBatch(centroids.row(c - 1), data.data(), d, n, dist.data());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      best_dist[i] = std::min(best_dist[i], static_cast<double>(dist[i]));
      total += best_dist[i];
    }
    std::size_t pick = 0;
    if (total > 0.0) {
      double r = rng->NextDouble() * total;
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += best_dist[i];
        if (acc >= r) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng->Next(n);
    }
    std::copy_n(data.row(pick), d, centroids.row(c));
  }
  return centroids;
}

/// Scores `x` against every centroid, one batched call per chunk of 256
/// (a stack buffer, so no per-call allocation), and hands each chunk to
/// `visit(first_centroid, dist, len)` in centroid order.
template <typename Visit>
void ScoreCentroids(const FloatMatrix& centroids, const float* x,
                    Visit visit) {
  constexpr std::size_t kChunk = 256;
  float dist[kChunk];
  for (std::size_t c0 = 0; c0 < centroids.rows(); c0 += kChunk) {
    const std::size_t len = std::min(kChunk, centroids.rows() - c0);
    simd::L2SqBatch(x, centroids.row(c0), centroids.cols(), len, dist);
    visit(c0, dist, len);
  }
}

/// First nearest centroid to `x` as (arg, best): a later chunk wins only
/// when strictly closer, so ties still go to the lowest index.
simd::ArgMinResult Nearest(const FloatMatrix& centroids, const float* x) {
  simd::ArgMinResult nearest;
  ScoreCentroids(centroids, x,
                 [&](std::size_t c0, const float* dist, std::size_t len) {
                   simd::ArgMinResult chunk = simd::ArgMin(dist, len);
                   if (chunk.best < nearest.best) {
                     nearest.arg = static_cast<std::uint32_t>(c0) + chunk.arg;
                     nearest.best = chunk.best;
                   }
                 });
  return nearest;
}

/// Assigns every row to its nearest centroid; returns the total inertia.
double Assign(const FloatMatrix& data, const FloatMatrix& centroids,
              std::vector<std::uint32_t>* assignments) {
  double inertia = 0.0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    simd::ArgMinResult nearest = Nearest(centroids, data.row(i));
    (*assignments)[i] = nearest.arg;
    inertia += nearest.best;
  }
  return inertia;
}

}  // namespace

Result<KMeansResult> KMeans(const FloatMatrix& data,
                            const KMeansOptions& opts) {
  const std::size_t n = data.rows(), d = data.cols();
  if (n == 0) return Status::InvalidArgument("kmeans: empty data");
  if (opts.k == 0) return Status::InvalidArgument("kmeans: k must be > 0");
  const std::size_t k = std::min(opts.k, n);

  Rng rng(opts.seed);
  KMeansResult result;
  result.centroids = SeedPlusPlus(data, k, &rng);
  result.assignments.assign(n, 0);

  std::vector<double> sums(k * d);
  std::vector<std::size_t> counts(k);
  double prev_inertia = std::numeric_limits<double>::max();

  for (int iter = 0; iter < opts.max_iters; ++iter) {
    result.iters_run = iter + 1;
    const double inertia = Assign(data, result.centroids, &result.assignments);
    result.inertia = inertia;

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t c = result.assignments[i];
      const float* x = data.row(i);
      double* s = sums.data() + static_cast<std::size_t>(c) * d;
      for (std::size_t j = 0; j < d; ++j) s[j] += x[j];
      ++counts[c];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        if (opts.reseed_empty) {
          // Re-seed from a random member of the most populated cluster.
          std::size_t big = static_cast<std::size_t>(
              std::max_element(counts.begin(), counts.end()) - counts.begin());
          std::vector<std::size_t> members;
          for (std::size_t i = 0; i < n; ++i)
            if (result.assignments[i] == big) members.push_back(i);
          if (!members.empty()) {
            std::size_t pick = members[rng.Next(members.size())];
            std::copy_n(data.row(pick), d, result.centroids.row(c));
          }
        }
        continue;
      }
      float* cen = result.centroids.row(c);
      double inv = 1.0 / static_cast<double>(counts[c]);
      const double* s = sums.data() + c * d;
      for (std::size_t j = 0; j < d; ++j)
        cen[j] = static_cast<float>(s[j] * inv);
    }

    if (prev_inertia < std::numeric_limits<double>::max()) {
      double rel = prev_inertia > 0.0
                       ? (prev_inertia - inertia) / prev_inertia
                       : 0.0;
      if (rel >= 0.0 && rel < opts.tol) break;
    }
    prev_inertia = inertia;
  }

  // Final assignment so assignments match the returned centroids.
  result.inertia = Assign(data, result.centroids, &result.assignments);
  return result;
}

std::uint32_t NearestCentroid(const FloatMatrix& centroids, const float* x) {
  return Nearest(centroids, x).arg;
}

std::vector<std::uint32_t> NearestCentroids(const FloatMatrix& centroids,
                                            const float* x, std::size_t n) {
  TopK top(std::min(n, centroids.rows()));
  ScoreCentroids(centroids, x,
                 [&](std::size_t c0, const float* dist, std::size_t len) {
                   for (std::size_t c = 0; c < len; ++c) {
                     top.Push(static_cast<VectorId>(c0 + c), dist[c]);
                   }
                 });
  std::vector<std::uint32_t> out;
  for (const auto& nb : top.Take())
    out.push_back(static_cast<std::uint32_t>(nb.id));
  return out;
}

}  // namespace vdb
