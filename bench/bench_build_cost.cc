// E3 — Build cost, memory, and updatability across index families
// (paper §2.2: "table-based indexes are easy to maintain ... graphs are
// highly data dependent, they tend to be hard to update").
//
// For every family: build time, resident bytes, whether incremental add /
// delete is supported, and the latency of 100 incremental adds when
// supported (hard-to-update indexes show "rebuild" instead).

#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/ivf_pq.h"
#include "index/kd_tree.h"
#include "index/knn_graph.h"
#include "index/lsh.h"
#include "index/nsw.h"
#include "index/rp_forest.h"
#include "index/vamana.h"

int main() {
  using namespace vdb;
  bench::Header("E3", "build cost / memory / updatability per family "
                      "(n=20000 d=64)");
  auto w = bench::MakeWorkload(20000, 64, 1, 10);

  struct Entry {
    std::string name;
    std::function<std::unique_ptr<VectorIndex>()> make;
  };
  std::vector<Entry> entries;
  entries.push_back({"flat", [] { return std::make_unique<FlatIndex>(); }});
  {
    LshOptions o;
    o.num_tables = 10;
    o.hashes_per_table = 10;
    o.bucket_width = 3.0f;
    entries.push_back({"lsh-e2", [o] { return std::make_unique<LshIndex>(o); }});
  }
  {
    IvfOptions o;
    o.nlist = 128;
    entries.push_back(
        {"ivf-flat", [o] { return std::make_unique<IvfFlatIndex>(o); }});
  }
  {
    IvfPqOptions o;
    o.ivf.nlist = 128;
    o.pq.m = 8;
    entries.push_back(
        {"ivf-pq", [o] { return std::make_unique<IvfPqIndex>(o); }});
  }
  {
    KdTreeOptions o;
    entries.push_back(
        {"kd-tree", [o] { return std::make_unique<KdTreeIndex>(o); }});
  }
  {
    RpForestOptions o;
    o.num_trees = 12;
    entries.push_back(
        {"rp-forest", [o] { return std::make_unique<RpForestIndex>(o); }});
  }
  {
    KnnGraphOptions o;
    o.graph_degree = 16;
    entries.push_back(
        {"kgraph", [o] { return std::make_unique<KnnGraphIndex>(o); }});
  }
  {
    NswOptions o;
    entries.push_back({"nsw", [o] { return std::make_unique<NswIndex>(o); }});
  }
  {
    HnswOptions o;
    entries.push_back({"hnsw", [o] { return std::make_unique<HnswIndex>(o); }});
  }
  {
    VamanaOptions o;
    entries.push_back(
        {"vamana", [o] { return std::make_unique<VamanaIndex>(o); }});
  }

  // Hold out 100 rows for the incremental-add probe.
  const std::size_t held_out = 100;
  const std::size_t n_build = w.data.rows() - held_out;
  FloatMatrix build_data(n_build, w.data.cols());
  for (std::size_t i = 0; i < n_build; ++i) {
    std::copy_n(w.data.row(i), w.data.cols(), build_data.row(i));
  }

  bench::Row("%-10s %9s %10s %7s %14s", "index", "build(s)", "mem(MB)",
             "add?", "100 adds (ms)");
  for (const auto& entry : entries) {
    auto index = entry.make();
    double build_s =
        bench::Seconds([&] { (void)index->Build(build_data, {}); });
    double add_ms = -1.0;
    if (index->SupportsAdd()) {
      add_ms = 1000.0 * bench::Seconds([&] {
        for (std::size_t i = n_build; i < w.data.rows(); ++i) {
          (void)index->Add(w.data.row(i), i);
        }
      });
    }
    char add_buf[32];
    if (add_ms >= 0) {
      std::snprintf(add_buf, sizeof(add_buf), "%.2f", add_ms);
    } else {
      std::snprintf(add_buf, sizeof(add_buf), "rebuild");
    }
    bench::Row("%-10s %9.2f %10.1f %7s %14s", entry.name.c_str(), build_s,
               double(index->MemoryBytes()) / (1024.0 * 1024.0),
               index->SupportsAdd() ? "yes" : "no", add_buf);
  }
  return 0;
}
