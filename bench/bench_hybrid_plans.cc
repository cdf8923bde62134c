// E4 — Hybrid operators across the selectivity spectrum (paper §2.3).
//
// Claims under test: pre-filtering (block-first) wins at low selectivity
// but online blocking disconnects graph traversal; post-filtering wins at
// high selectivity but a single pass returns < k results when the filter
// is selective (§2.6(3)) — the plan refills such a pass, and the share of
// queries refilled plus the ndis they cost is that deficit's price;
// visit-first (single-stage) holds the middle; brute force over the
// bitmask wins at very low selectivity. The crossover points are the
// reproduced "figure".

#include <memory>

#include "bench/bench_util.h"
#include "core/topk.h"
#include "exec/executor.h"
#include "exec/predicate.h"
#include "index/hnsw.h"
#include "index/ivf.h"

namespace vdb {
namespace {

struct HybridBench {
  FloatMatrix data;
  FloatMatrix queries;
  AttributeStore attrs;
  Segment segment;  ///< one sealed segment over every row
  Scorer scorer;
};

std::vector<Neighbor> Oracle(const HybridBench& b, const float* query,
                             const Bitset& bits, std::size_t k) {
  TopK top(k);
  for (std::size_t i = 0; i < b.data.rows(); ++i) {
    if (!bits.Test(i)) continue;
    top.Push(i, b.scorer.Distance(query, b.data.row(i)));
  }
  return top.Take();
}

void RunIndexSweep(HybridBench& b) {
  CollectionView view{nullptr, &b.attrs, {&b.segment, 1}, &b.scorer, {}};
  HybridExecutor executor(view);

  const HybridPlan plans[] = {
      {PlanKind::kBruteForceHybrid, 3.0f},
      {PlanKind::kPreFilterIndexScan, 3.0f},
      {PlanKind::kPostFilterIndexScan, 3.0f},
      {PlanKind::kVisitFirstIndexScan, 3.0f},
  };

  bench::Row("%-12s %-12s %10s %10s %8s %10s %9s", "selectivity", "plan",
             "recall@10", "us/query", "|result|", "ndis/q", "refilled");
  for (double s : {0.001, 0.01, 0.05, 0.2, 0.5, 0.9}) {
    auto pred = Predicate::Cmp("score", CmpOp::kLe, s);
    auto bits = pred.Evaluate(b.attrs).value();
    SearchParams params;
    params.k = 10;
    params.ef = 64;
    // Oracles precomputed so the timed loop measures only plan execution.
    std::vector<std::vector<Neighbor>> oracles(b.queries.rows());
    for (std::size_t q = 0; q < b.queries.rows(); ++q) {
      oracles[q] = Oracle(b, b.queries.row(q), bits, 10);
    }
    for (const auto& plan : plans) {
      ExecStats stats;
      std::size_t refilled = 0;  // queries whose first pass came back short
      std::vector<std::vector<Neighbor>> got(b.queries.rows());
      double secs = bench::Seconds([&] {
        for (std::size_t q = 0; q < b.queries.rows(); ++q) {
          const std::size_t refills = stats.refills;
          (void)executor.Execute(plan, pred, b.queries.row(q), params,
                                 &got[q], &stats);
          refilled += stats.refills > refills ? 1 : 0;
        }
      });
      double recall_sum = 0, size_sum = 0;
      for (std::size_t q = 0; q < b.queries.rows(); ++q) {
        recall_sum += RecallAt(got[q], oracles[q], 10);
        size_sum += static_cast<double>(got[q].size());
      }
      double nq = static_cast<double>(b.queries.rows());
      bench::Row("%-12.3f %-12s %10.3f %10.1f %8.1f %10.0f %9.2f", s,
                 plan.ToString().substr(0, 12).c_str(), recall_sum / nq,
                 1e6 * secs / nq, size_sum / nq,
                 double(stats.search.distance_comps) / nq,
                 static_cast<double>(refilled) / nq);
    }
    bench::Row("%s", "");
  }
}

}  // namespace
}  // namespace vdb

int main() {
  using namespace vdb;
  bench::Header("E4", "hybrid plans vs predicate selectivity "
                      "(n=20000 d=32, uncorrelated numeric filter)");

  HybridBench b;
  SyntheticOptions opts;
  opts.n = 20000;
  opts.dim = 32;
  opts.num_clusters = 64;
  opts.seed = 17;
  auto workload = MakeHybridWorkload(opts);
  b.data = std::move(workload.vectors);
  b.queries = PerturbedQueries(b.data, 50, 0.03f, 23);
  b.scorer = Scorer::Create(MetricSpec::L2(), opts.dim).value();
  (void)b.attrs.AddColumn("score", AttrType::kDouble);
  for (std::size_t i = 0; i < b.data.rows(); ++i) {
    (void)b.attrs.PutRow(i, {{"score", workload.uniform_attr[i]}});
  }

  // Graph index: pre-filtering (online blocking) disconnects traversal —
  // the §2.3 failure mode — while visit-first stays exact.
  bench::Row("-- HNSW index --");
  HnswOptions ho;
  ho.ef_construction = 80;
  b.segment.index = std::make_unique<HnswIndex>(ho);
  (void)b.segment.index->Build(b.data, {});
  RunIndexSweep(b);

  // Table index: blocking only skips scoring inside scanned buckets, so
  // pre-filtering is safe — the pairing Milvus/AnalyticDB-V use.
  bench::Row("-- IVF-Flat index (nprobe=16/128) --");
  IvfOptions io;
  io.nlist = 128;
  io.default_nprobe = 16;
  b.segment.index = std::make_unique<IvfFlatIndex>(io);
  (void)b.segment.index->Build(b.data, {});
  RunIndexSweep(b);
  return 0;
}
