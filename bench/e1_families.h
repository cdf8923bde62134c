#ifndef VDB_BENCH_E1_FAMILIES_H_
#define VDB_BENCH_E1_FAMILIES_H_

// E1's index families, their options and their knob sweeps (paper §2.2),
// defined once. bench_recall_qps times every sweep; tests/claims_test.cc
// checks the recall and distance counts of a subset against the paper's
// ordering, so both read the same configuration.

#include <unistd.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "index/diskann.h"
#include "index/fanng.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/ivf_pq.h"
#include "index/kd_tree.h"
#include "index/knn_graph.h"
#include "index/lsh.h"
#include "index/nsw.h"
#include "index/pca_tree.h"
#include "index/rp_forest.h"
#include "index/spectral_hash.h"
#include "index/vamana.h"

namespace vdb::bench {

inline constexpr std::size_t kE1Rows = 20000;
inline constexpr std::size_t kE1K = 10;

/// E1's shape: n = 20,000, d = 64, 64 Gaussian clusters, 100 queries,
/// seed 42, exact top-10 ground truth.
inline Workload MakeE1Workload() {
  return MakeWorkload(kE1Rows, 64, 100, kE1K, 42, 64);
}

struct Sweep {
  std::string name;
  std::function<std::unique_ptr<VectorIndex>()> make;
  /// (knob label, params) pairs, cheap to expensive.
  std::vector<std::pair<std::string, SearchParams>> points;
};

inline SearchParams E1Params(int ef, int nprobe, int leaves, int probes) {
  SearchParams p;
  p.k = kE1K;
  p.ef = ef;
  p.nprobe = nprobe;
  p.max_leaf_visits = leaves;
  p.lsh_probes = probes;
  return p;
}

inline std::vector<Sweep> E1Sweeps() {
  const auto P = E1Params;
  std::vector<Sweep> sweeps;
  sweeps.push_back({"flat",
                    [] { return std::make_unique<FlatIndex>(); },
                    {{"exact", P(-1, -1, -1, -1)}}});
  {
    LshOptions o;
    o.num_tables = 10;
    o.hashes_per_table = 10;
    o.bucket_width = 3.0f;
    sweeps.push_back({"lsh-e2",
                      [o] { return std::make_unique<LshIndex>(o); },
                      {{"probes=0", P(-1, -1, -1, 0)},
                       {"probes=4", P(-1, -1, -1, 4)},
                       {"probes=16", P(-1, -1, -1, 16)}}});
  }
  {
    IvfOptions o;
    o.nlist = 128;
    sweeps.push_back({"ivf-flat",
                      [o] { return std::make_unique<IvfFlatIndex>(o); },
                      {{"nprobe=1", P(-1, 1, -1, -1)},
                       {"nprobe=4", P(-1, 4, -1, -1)},
                       {"nprobe=16", P(-1, 16, -1, -1)},
                       {"nprobe=64", P(-1, 64, -1, -1)}}});
  }
  {
    IvfPqOptions o;
    o.ivf.nlist = 128;
    o.pq.m = 8;
    sweeps.push_back({"ivf-pq",
                      [o] { return std::make_unique<IvfPqIndex>(o); },
                      {{"nprobe=4", P(-1, 4, -1, -1)},
                       {"nprobe=16", P(-1, 16, -1, -1)},
                       {"nprobe=64", P(-1, 64, -1, -1)}}});
  }
  {
    KdTreeOptions o;
    sweeps.push_back({"kd-tree",
                      [o] { return std::make_unique<KdTreeIndex>(o); },
                      {{"leaves=8", P(-1, -1, 8, -1)},
                       {"leaves=64", P(-1, -1, 64, -1)},
                       {"leaves=256", P(-1, -1, 256, -1)}}});
  }
  {
    RpForestOptions o;
    o.num_trees = 12;
    sweeps.push_back({"rp-forest",
                      [o] { return std::make_unique<RpForestIndex>(o); },
                      {{"leaves=16", P(-1, -1, 16, -1)},
                       {"leaves=64", P(-1, -1, 64, -1)},
                       {"leaves=256", P(-1, -1, 256, -1)}}});
  }
  {
    PcaTreeOptions o;
    sweeps.push_back({"pca-tree",
                      [o] { return std::make_unique<PcaTreeIndex>(o); },
                      {{"leaves=8", P(-1, -1, 8, -1)},
                       {"leaves=64", P(-1, -1, 64, -1)},
                       {"leaves=256", P(-1, -1, 256, -1)}}});
  }
  {
    KnnGraphOptions o;
    o.graph_degree = 16;
    sweeps.push_back({"kgraph",
                      [o] { return std::make_unique<KnnGraphIndex>(o); },
                      {{"ef=16", P(16, -1, -1, -1)},
                       {"ef=64", P(64, -1, -1, -1)},
                       {"ef=128", P(128, -1, -1, -1)}}});
  }
  {
    NswOptions o;
    sweeps.push_back({"nsw",
                      [o] { return std::make_unique<NswIndex>(o); },
                      {{"ef=16", P(16, -1, -1, -1)},
                       {"ef=64", P(64, -1, -1, -1)},
                       {"ef=128", P(128, -1, -1, -1)}}});
  }
  {
    HnswOptions o;
    sweeps.push_back({"hnsw",
                      [o] { return std::make_unique<HnswIndex>(o); },
                      {{"ef=16", P(16, -1, -1, -1)},
                       {"ef=32", P(32, -1, -1, -1)},
                       {"ef=64", P(64, -1, -1, -1)},
                       {"ef=128", P(128, -1, -1, -1)}}});
  }
  {
    VamanaOptions o;
    sweeps.push_back({"vamana",
                      [o] { return std::make_unique<VamanaIndex>(o); },
                      {{"ef=16", P(16, -1, -1, -1)},
                       {"ef=64", P(64, -1, -1, -1)},
                       {"ef=128", P(128, -1, -1, -1)}}});
  }
  {
    FanngOptions o;
    sweeps.push_back({"fanng",
                      [o] { return std::make_unique<FanngIndex>(o); },
                      {{"ef=16", P(16, -1, -1, -1)},
                       {"ef=64", P(64, -1, -1, -1)},
                       {"ef=128", P(128, -1, -1, -1)}}});
  }
  {
    // Disk-resident rows ride the same sweep so E1 also covers the
    // batched-beam-I/O search path (cache off: honest page reads).
    DiskAnnOptions o;
    o.pq.m = 8;
    sweeps.push_back(
        {"diskann",
         [o] {
           return std::make_unique<DiskAnnIndex>(
               "/tmp/vdb_bench_diskann_" + std::to_string(::getpid()), o);
         },
         {{"ef=32", P(32, -1, -1, -1)},
          {"ef=64", P(64, -1, -1, -1)},
          {"ef=128", P(128, -1, -1, -1)}}});
  }
  {
    SpectralHashOptions o;
    o.bits = 48;
    sweeps.push_back(
        {"spectral",
         [o] { return std::make_unique<SpectralHashIndex>(o); },
         {{"bits=48", P(-1, -1, -1, -1)}}});
  }
  return sweeps;
}

}  // namespace vdb::bench

#endif  // VDB_BENCH_E1_FAMILIES_H_
