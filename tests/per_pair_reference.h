// Reference "point vs all centroids" loops: k-means and PQ exactly as they
// were written before the batched kernel, one dispatched simd::L2Sq call
// per (point, centroid) pair and an inline first-minimum scan. The golden
// tests in core_test and quant_test require the library's batched code to
// reproduce these byte for byte.

#ifndef VDB_TESTS_PER_PAIR_REFERENCE_H_
#define VDB_TESTS_PER_PAIR_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/kmeans.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/types.h"

namespace vdb::per_pair {

inline FloatMatrix SeedPlusPlus(const FloatMatrix& data, std::size_t k,
                                Rng* rng) {
  const std::size_t n = data.rows(), d = data.cols();
  FloatMatrix centroids(k, d);
  std::size_t first = rng->Next(n);
  std::copy_n(data.row(first), d, centroids.row(0));
  std::vector<double> best_dist(n, std::numeric_limits<double>::max());
  for (std::size_t c = 1; c < k; ++c) {
    const float* prev = centroids.row(c - 1);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double dist = simd::L2Sq(data.row(i), prev, d);
      best_dist[i] = std::min(best_dist[i], dist);
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

inline double AssignAll(const FloatMatrix& data, const FloatMatrix& cents,
                        std::vector<std::uint32_t>* assignments) {
  double inertia = 0.0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    double best = std::numeric_limits<double>::max();
    std::uint32_t arg = 0;
    for (std::size_t c = 0; c < cents.rows(); ++c) {
      double dist = simd::L2Sq(data.row(i), cents.row(c), data.cols());
      if (dist < best) {
        best = dist;
        arg = static_cast<std::uint32_t>(c);
      }
    }
    (*assignments)[i] = arg;
    inertia += best;
  }
  return inertia;
}

inline KMeansResult KMeans(const FloatMatrix& data,
                           const KMeansOptions& opts) {
  const std::size_t n = data.rows(), d = data.cols();
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
    double inertia = AssignAll(data, result.centroids, &result.assignments);
    result.inertia = inertia;
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
  result.inertia = AssignAll(data, result.centroids, &result.assignments);
  return result;
}

/// PQ state as the per-pair code trained it: (m*ksub) x dsub codebooks
/// and m x ksub x ksub SDC tables.
struct Pq {
  std::size_t m = 0, ksub = 0, dsub = 0;
  FloatMatrix codebooks;
  std::vector<float> sdc;

  const float* Centroid(std::size_t s, std::size_t c) const {
    return codebooks.row(s * ksub + c);
  }

  void Encode(const float* x, std::uint8_t* code) const {
    for (std::size_t s = 0; s < m; ++s) {
      const float* xs = x + s * dsub;
      float best = std::numeric_limits<float>::max();
      std::size_t arg = 0;
      for (std::size_t c = 0; c < ksub; ++c) {
        float d = simd::L2Sq(xs, Centroid(s, c), dsub);
        if (d < best) {
          best = d;
          arg = c;
        }
      }
      code[s] = static_cast<std::uint8_t>(arg);
    }
  }

  void AdcTables(const float* query, float* tables) const {
    for (std::size_t s = 0; s < m; ++s) {
      for (std::size_t c = 0; c < ksub; ++c) {
        tables[s * ksub + c] = simd::L2Sq(query + s * dsub, Centroid(s, c),
                                          dsub);
      }
    }
  }
};

inline Pq TrainPq(const FloatMatrix& data, std::size_t m, std::size_t nbits,
                  int iters, std::uint64_t seed) {
  Pq pq;
  pq.m = m;
  pq.ksub = std::size_t{1} << nbits;
  pq.dsub = data.cols() / m;
  pq.codebooks = FloatMatrix(m * pq.ksub, pq.dsub);
  FloatMatrix sub(data.rows(), pq.dsub);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < data.rows(); ++i) {
      std::copy_n(data.row(i) + s * pq.dsub, pq.dsub, sub.row(i));
    }
    KMeansOptions km;
    km.k = pq.ksub;
    km.max_iters = iters;
    km.seed = seed + s;
    KMeansResult result = per_pair::KMeans(sub, km);
    for (std::size_t c = 0; c < pq.ksub; ++c) {
      std::copy_n(result.centroids.row(c % result.centroids.rows()), pq.dsub,
                  pq.codebooks.row(s * pq.ksub + c));
    }
  }
  pq.sdc.assign(m * pq.ksub * pq.ksub, 0.0f);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t a = 0; a < pq.ksub; ++a) {
      for (std::size_t b = a + 1; b < pq.ksub; ++b) {
        float d = simd::L2Sq(pq.Centroid(s, a), pq.Centroid(s, b), pq.dsub);
        pq.sdc[(s * pq.ksub + a) * pq.ksub + b] = d;
        pq.sdc[(s * pq.ksub + b) * pq.ksub + a] = d;
      }
    }
  }
  return pq;
}

}  // namespace vdb::per_pair

#endif  // VDB_TESTS_PER_PAIR_REFERENCE_H_
