// E1 — Recall/QPS spectrum across index families (paper §2.2).
//
// Claim under test: graph indexes dominate at high recall; IVF sits in the
// middle; LSH/tree methods trail at the same recall; brute force anchors
// the exact end. Each index sweeps its own accuracy knob and reports
// (recall@10, QPS, distance computations) — the ANN-Benchmarks series.
// The families and knobs live in bench/e1_families.h; tests/claims_test.cc
// gates the recall and distance-count columns.

#include "bench/e1_families.h"

namespace vdb {
namespace {

void RunSweep(const bench::Workload& w, const bench::Sweep& sweep) {
  auto index = sweep.make();
  double build_s = bench::Seconds(
      [&] { (void)index->Build(w.data, {}); });
  for (const auto& [label, params] : sweep.points) {
    std::vector<std::vector<Neighbor>> results(w.queries.rows());
    std::vector<double> lat_us(w.queries.rows());
    SearchStats stats;
    double secs = bench::Seconds([&] {
      for (std::size_t q = 0; q < w.queries.rows(); ++q) {
        lat_us[q] = 1e6 * bench::Seconds([&] {
          (void)index->Search(w.queries.row(q), params, &results[q], &stats);
        });
      }
    });
    double recall = MeanRecall(results, w.truth, 10);
    double qps = static_cast<double>(w.queries.rows()) / secs;
    auto lat = bench::Summarize(lat_us);
    bench::Row("%-10s %-12s recall@10=%.3f  qps=%8.0f  "
               "us/q mean=%7.1f p50=%7.1f p95=%7.1f p99=%7.1f  "
               "ndis/q=%7.0f  build=%.2fs",
               sweep.name.c_str(), label.c_str(), recall, qps, lat.mean,
               lat.p50, lat.p95, lat.p99,
               double(stats.distance_comps + stats.code_comps) /
                   double(w.queries.rows()),
               build_s);
  }
}

}  // namespace
}  // namespace vdb

int main() {
  using namespace vdb;
  bench::Header("E1", "recall vs QPS across index families "
                      "(n=20000 d=64 k=10, Gaussian clusters)");
  auto w = bench::MakeE1Workload();
  for (const auto& sweep : bench::E1Sweeps()) RunSweep(w, sweep);
  return 0;
}
