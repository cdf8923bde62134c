// E10 — Out-of-place updates (paper §2.3(3)).
//
// Claims under test: graph indexes are expensive to keep fresh by
// rebuilding; the LSM pattern (memtable + sealed indexed segments +
// compaction) sustains orders-of-magnitude higher write throughput at
// comparable search quality; a mixed insert/search workload stays
// responsive under LSM. Both strategies are one Collection under a flush
// policy (`lsm_memtable_limit`); they differ in who seals the growing
// rows: a full rebuild, or a flush into a new segment.

#include <limits>
#include <memory>

#include "bench/bench_util.h"
#include "db/collection.h"
#include "index/hnsw.h"

namespace {

vdb::IndexFactory Factory() {
  return [] {
    vdb::HnswOptions o;
    o.m = 12;
    o.ef_construction = 64;
    return std::make_unique<vdb::HnswIndex>(o);
  };
}

}  // namespace

int main() {
  using namespace vdb;
  bench::Header("E10", "out-of-place updates: LSM vs rebuild-in-place "
                       "(d=32, 20000 base + 4000 trickled inserts)");
  auto w = bench::MakeWorkload(24000, 32, 50, 10);
  const std::size_t base = 20000;

  // Strategy A: monolithic index, rebuilt every 1000 inserts (the
  // "hard to update" regime: freshness costs a full rebuild). The growing
  // rows never flush by themselves; they are brute-forced until each
  // BuildIndex seals all rows into one fresh segment.
  {
    CollectionOptions opts;
    opts.dim = 32;
    opts.index_factory = Factory();
    opts.lsm_memtable_limit = std::numeric_limits<std::size_t>::max();
    auto c = Collection::Create(opts);
    for (std::size_t i = 0; i < base; ++i) {
      (void)(*c)->Insert(i, w.data.row_view(i));
    }
    (void)(*c)->BuildIndex();
    double insert_secs = 0, rebuild_secs = 0;
    insert_secs = bench::Seconds([&] {
      for (std::size_t i = base; i < w.data.rows(); ++i) {
        (void)(*c)->Insert(i, w.data.row_view(i));
        if ((i - base + 1) % 1000 == 0) {
          rebuild_secs += bench::Seconds([&] { (void)(*c)->BuildIndex(); });
        }
      }
    });
    std::vector<std::vector<Neighbor>> results(w.queries.rows());
    double search_secs = bench::Seconds([&] {
      for (std::size_t q = 0; q < w.queries.rows(); ++q) {
        (void)(*c)->Knn(w.queries.row_view(q), 10, &results[q]);
      }
    });
    bench::Row("rebuild-in-place: %7.0f inserts/s (%.1fs rebuilding), "
               "search %.1f us/q, recall=%.3f",
               4000.0 / insert_secs, rebuild_secs,
               1e6 * search_secs / w.queries.rows(),
               MeanRecall(results, w.truth, 10));
  }

  // Strategy B: LSM out-of-place updates (flush every 2048 rows).
  {
    CollectionOptions opts;
    opts.dim = 32;
    opts.index_factory = Factory();
    opts.lsm_memtable_limit = 2048;
    auto c = Collection::Create(opts);
    for (std::size_t i = 0; i < base; ++i) {
      (void)(*c)->Insert(i, w.data.row_view(i));
    }
    double insert_secs = bench::Seconds([&] {
      for (std::size_t i = base; i < w.data.rows(); ++i) {
        (void)(*c)->Insert(i, w.data.row_view(i));
      }
    });
    std::vector<std::vector<Neighbor>> results(w.queries.rows());
    SearchParams p;
    p.ef = 48;
    double search_secs = bench::Seconds([&] {
      for (std::size_t q = 0; q < w.queries.rows(); ++q) {
        (void)(*c)->Knn(w.queries.row_view(q), 10, &results[q], nullptr, &p);
      }
    });
    bench::Row("lsm out-of-place: %7.0f inserts/s (amortized flush+compact), "
               "search %.1f us/q, recall=%.3f",
               4000.0 / insert_secs, 1e6 * search_secs / w.queries.rows(),
               MeanRecall(results, w.truth, 10));
  }

  // Mixed workload responsiveness under LSM: interleave 1 search per 10
  // inserts and track the worst search latency (flush/compaction stalls).
  {
    CollectionOptions opts;
    opts.dim = 32;
    opts.index_factory = Factory();
    opts.lsm_memtable_limit = 1024;
    auto c = Collection::Create(opts);
    double worst_insert_ms = 0, worst_search_ms = 0;
    std::vector<Neighbor> out;
    for (std::size_t i = 0; i < base; ++i) {
      double ms =
          1e3 * bench::Seconds([&] { (void)(*c)->Insert(i, w.data.row_view(i)); });
      worst_insert_ms = std::max(worst_insert_ms, ms);
      if (i % 10 == 9) {
        double sms = 1e3 * bench::Seconds([&] {
          (void)(*c)->Knn(w.queries.row_view(i % w.queries.rows()), 10, &out);
        });
        worst_search_ms = std::max(worst_search_ms, sms);
      }
    }
    bench::Row("mixed lsm workload: worst insert %.1f ms (flush+build "
               "stall), worst search %.1f ms",
               worst_insert_ms, worst_search_ms);
  }
  return 0;
}
