#ifndef VDB_BENCH_BENCH_UTIL_H_
#define VDB_BENCH_BENCH_UTIL_H_

// Shared plumbing for the experiment harness (one binary per experiment in
// DESIGN.md's E1..E14 index). Each binary prints self-describing aligned
// tables; EXPERIMENTS.md records the measured series next to the paper's
// qualitative claims.

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "core/eval.h"
#include "core/synthetic.h"

namespace vdb::bench {

using Clock = std::chrono::steady_clock;

/// Wall-clock seconds of `fn()`.
template <typename Fn>
double Seconds(Fn&& fn) {
  auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline void Header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s  %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

/// The default E-series workload: clustered "embedding-like" vectors with
/// in-distribution queries and exact ground truth (see DESIGN.md §3 for
/// why this substitutes for SIFT-style real datasets).
struct Workload {
  FloatMatrix data;
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> truth;
  Scorer scorer;
};

inline Workload MakeWorkload(std::size_t n, std::size_t dim,
                             std::size_t num_queries, std::size_t k,
                             std::uint64_t seed = 42,
                             std::size_t clusters = 64) {
  Workload w;
  SyntheticOptions opts;
  opts.n = n;
  opts.dim = dim;
  opts.seed = seed;
  opts.num_clusters = clusters;
  w.data = GaussianClusters(opts);
  w.queries = PerturbedQueries(w.data, num_queries, 0.03f, seed + 1);
  w.scorer = Scorer::Create(MetricSpec::L2(), dim).value();
  w.truth = GroundTruth(w.data, w.queries, w.scorer, k);
  return w;
}

// --------------------------------------------------------- tail latency
//
// The survey's operative production metric is tail latency, not the mean:
// latency-reporting benches print mean + p50/p95/p99 columns.

/// p in [0, 100] over `samples` (copied and sorted); linear interpolation
/// between order statistics. Returns 0 for an empty sample set.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  p = std::min(std::max(p, 0.0), 100.0);
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

struct LatencySummary {
  double mean = 0, p50 = 0, p95 = 0, p99 = 0;
};

inline LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  if (samples.empty()) return s;
  for (double v : samples) s.mean += v;
  s.mean /= static_cast<double>(samples.size());
  s.p50 = Percentile(samples, 50);
  s.p95 = Percentile(samples, 95);
  s.p99 = Percentile(samples, 99);
  return s;
}

}  // namespace vdb::bench

#endif  // VDB_BENCH_BENCH_UTIL_H_
