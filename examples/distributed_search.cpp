// Distributed vector search (paper §2.3(2)): a sharded, replicated
// collection with scatter-gather k-NN. Contrasts uniform hash partitioning
// (every shard answers every query) with index-guided partitioning (a
// k-means router co-locates similar vectors, so queries probe only the
// nearest shards), and demonstrates asynchronous out-of-place replica
// updates (§2.3(3)).
//
//   ./build/examples/distributed_search

#include <chrono>
#include <cstdio>
#include <memory>

#include "core/eval.h"
#include "core/synthetic.h"
#include "db/distributed.h"
#include "index/hnsw.h"

#include "example_util.h"

int main() {
  using namespace vdb;
  using Clock = std::chrono::steady_clock;

  SyntheticOptions synth;
  synth.n = 8000;
  synth.dim = 32;
  synth.num_clusters = 32;
  FloatMatrix data = GaussianClusters(synth);
  FloatMatrix queries = PerturbedQueries(data, 50, 0.02f, 9);

  CollectionOptions per_shard;
  per_shard.dim = synth.dim;
  per_shard.index_factory = [] {
    HnswOptions hnsw;
    hnsw.m = 12;
    hnsw.ef_construction = 80;
    return std::make_unique<HnswIndex>(hnsw);
  };

  auto scorer = Scorer::Create(MetricSpec::L2(), synth.dim).value();
  auto truth = GroundTruth(data, queries, scorer, 10);

  for (ShardingPolicy policy :
       {ShardingPolicy::kHash, ShardingPolicy::kIndexGuided}) {
    ShardedOptions options;
    options.num_shards = 4;
    options.replicas = 2;  // primary + 1 async replica per shard
    options.policy = policy;
    options.collection = per_shard;
    auto sharded = ShardedCollection::Create(options);
    if (!sharded.ok()) {
      std::fprintf(stderr, "%s\n", sharded.status().ToString().c_str());
      return 1;
    }
    if (policy == ShardingPolicy::kIndexGuided) {
      OrDie((*sharded)->TrainRouter(data));
    }
    for (std::size_t i = 0; i < data.rows(); ++i) {
      OrDie((*sharded)->Insert(i, data.row_view(i)));
    }
    OrDie((*sharded)->BuildIndexes());

    const char* name =
        policy == ShardingPolicy::kHash ? "hash" : "index-guided";
    std::printf("\n=== %s partitioning, %zu shards ===\n", name,
                (*sharded)->num_shards());

    // Full scatter-gather.
    std::vector<std::vector<Neighbor>> results(queries.rows());
    auto start = Clock::now();
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      OrDie((*sharded)->Knn(queries.row_view(q), 10, &results[q]));
    }
    double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count();
    std::printf("  all shards : recall@10=%.3f  %.2f ms/query\n",
                MeanRecall(results, truth, 10), ms / queries.rows());

    // Index-guided shard pruning: probe only the nearest shard.
    if (policy == ShardingPolicy::kIndexGuided) {
      start = Clock::now();
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        OrDie((*sharded)->Knn(queries.row_view(q), 10, &results[q], nullptr,
                              true, false, /*shards_to_probe=*/1));
      }
      ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
               .count();
      std::printf("  1/4 shards : recall@10=%.3f  %.2f ms/query "
                  "(pruned scatter)\n",
                  MeanRecall(results, truth, 10), ms / queries.rows());
    }

    // Replica staleness: reads hit replicas before and after sync.
    std::printf("  pending replica ops before sync: %zu\n",
                (*sharded)->PendingReplicaOps());
    std::vector<Neighbor> replica_hits;
    OrDie((*sharded)->Knn(queries.row_view(0), 10, &replica_hits, nullptr,
                          true, /*read_replicas=*/true));
    std::printf("  replica read before sync: %zu results (stale)\n",
                replica_hits.size());
    OrDie((*sharded)->SyncReplicas());
    OrDie((*sharded)->BuildIndexes());
    OrDie((*sharded)->Knn(queries.row_view(0), 10, &replica_hits, nullptr,
                          true, true));
    std::printf("  replica read after sync : %zu results\n",
                replica_hits.size());
  }
  return 0;
}
