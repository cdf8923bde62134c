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
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/eval.h"
#include "core/json.h"
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

// ------------------------------------------------- machine-readable output
//
// Every bench binary can emit its result table as JSON (`--json PATH`)
// so BENCH_*.json perf trajectories accumulate across revisions and
// `tools/bench_gate.py` can diff a fresh run against the committed
// baseline.

/// Bump when the report envelope changes shape; bench_gate refuses to
/// compare reports across schema versions.
inline constexpr int kBenchSchemaVersion = 1;

/// Revision stamp for a report: the VDB_GIT_REV environment variable
/// (CI sets it) wins over the compile-time VDB_GIT_REV macro (CMake
/// bakes in `git rev-parse --short HEAD` at configure time); "unknown"
/// when neither is available (e.g. a tarball build).
inline std::string GitRev() {
  if (const char* env = std::getenv("VDB_GIT_REV"); env && *env) return env;
#ifdef VDB_GIT_REV
  return VDB_GIT_REV;
#else
  return "unknown";
#endif
}

/// Minimal row-oriented JSON writer:
/// {"schema_version":1,"git_rev":"abc1234","bench":"E1",
///  "rows":[{"k":v,...},...]}. Rows are built field by field; numeric
/// and string values only, which covers bench tables; a non-finite
/// number is written `null`, which bench_gate skips. String-valued
/// fields double as the row identity bench_gate matches baseline rows
/// by, so keep them stable across runs (configuration, not measurement).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void BeginRow() { rows_.emplace_back(); }

  void Field(const std::string& key, double value) {
    rows_.back().emplace_back(key, json::Number(value));
  }
  void Field(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, json::Quote(value));
  }

  /// Serializes to `path`; returns false (with a stderr note) on failure.
  bool WriteTo(const std::string& path) const {
    std::string out = "{\"schema_version\":" +
                      std::to_string(kBenchSchemaVersion) +
                      ",\"git_rev\":" + json::Quote(GitRev()) +
                      ",\"bench\":" + json::Quote(name_) + ",\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r) out += ",";
      out += "{";
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        if (f) out += ",";
        out += json::Quote(rows_[r][f].first) + ":" + rows_[r][f].second;
      }
      out += "}";
    }
    out += "]}\n";
    std::FILE* fp = std::fopen(path.c_str(), "w");
    if (fp == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(out.data(), 1, out.size(), fp);
    std::fclose(fp);
    return true;
  }

 private:
  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Extracts PATH from a `--json PATH` (or `--json=PATH`) argument; empty
/// string when absent.
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) return argv[i] + 7;
  }
  return "";
}

}  // namespace vdb::bench

#endif  // VDB_BENCH_BENCH_UTIL_H_
