// E9 — Distributed scatter-gather search (paper §2.3(2)).
//
// Claims under test: sharding scales query latency down with parallel
// shards; index-guided partitioning lets queries probe a fraction of the
// shards with little recall loss (uniform hashing cannot); replicas serve
// reads but observe out-of-place update staleness until synced.

#include <memory>

#include "bench/bench_util.h"
#include "db/distributed.h"
#include "index/hnsw.h"

int main() {
  using namespace vdb;
  bench::Header("E9", "distributed scatter-gather (n=64000 d=32, HNSW "
                      "shards, 100 queries)");
  auto w = bench::MakeWorkload(64000, 32, 100, 10, 42, 64);

  CollectionOptions per_shard;
  per_shard.dim = 32;
  per_shard.index_factory = [] {
    HnswOptions o;
    o.m = 12;
    o.ef_construction = 64;
    return std::make_unique<HnswIndex>(o);
  };

  bench::Row("%-14s %7s %9s %11s  %9s %9s %9s %9s %10s", "policy", "shards",
             "probed", "recall@10", "mean us", "p50 us", "p95 us", "p99 us",
             "speedup");
  double base_us = 0;
  for (std::size_t shards : {1, 2, 4, 8}) {
    ShardedOptions opts;
    opts.num_shards = shards;
    opts.collection = per_shard;
    auto sharded = ShardedCollection::Create(opts);
    for (std::size_t i = 0; i < w.data.rows(); ++i) {
      (void)(*sharded)->Insert(i, w.data.row_view(i));
    }
    (void)(*sharded)->BuildIndexes();
    std::vector<std::vector<Neighbor>> results(w.queries.rows());
    std::vector<double> lat_us(w.queries.rows());
    for (std::size_t q = 0; q < w.queries.rows(); ++q) {
      lat_us[q] = 1e6 * bench::Seconds([&] {
        (void)(*sharded)->Knn(w.queries.row_view(q), 10, &results[q]);
      });
    }
    auto lat = bench::Summarize(lat_us);
    if (shards == 1) base_us = lat.mean;
    double recall = MeanRecall(results, w.truth, 10);
    bench::Row("%-14s %7zu %9zu %11.3f  %9.1f %9.1f %9.1f %9.1f %9.2fx",
               "hash", shards, shards, recall, lat.mean, lat.p50, lat.p95,
               lat.p99, base_us / lat.mean);
  }

  // Index-guided: probe only the nearest m of 8 shards.
  {
    ShardedOptions opts;
    opts.num_shards = 8;
    opts.policy = ShardingPolicy::kIndexGuided;
    opts.collection = per_shard;
    auto sharded = ShardedCollection::Create(opts);
    (void)(*sharded)->TrainRouter(w.data);
    for (std::size_t i = 0; i < w.data.rows(); ++i) {
      (void)(*sharded)->Insert(i, w.data.row_view(i));
    }
    (void)(*sharded)->BuildIndexes();
    for (std::size_t probe : {8, 2, 1}) {
      std::vector<std::vector<Neighbor>> results(w.queries.rows());
      std::vector<double> lat_us(w.queries.rows());
      for (std::size_t q = 0; q < w.queries.rows(); ++q) {
        lat_us[q] = 1e6 * bench::Seconds([&] {
          (void)(*sharded)->Knn(w.queries.row_view(q), 10, &results[q],
                                nullptr, true, false, probe);
        });
      }
      auto lat = bench::Summarize(lat_us);
      double recall = MeanRecall(results, w.truth, 10);
      bench::Row("%-14s %7d %9zu %11.3f  %9.1f %9.1f %9.1f %9.1f %10s",
                 "index-guided", 8, probe, recall, lat.mean, lat.p50,
                 lat.p95, lat.p99, "-");
    }
  }
  return 0;
}
