// E11 — Disk-resident indexes (paper §2.2: DiskANN, SPANN).
//
// Claims under test: both answer queries with a handful of page reads
// while keeping a small in-memory footprint; DiskANN trades reads for
// recall along its beam/candidate-list knob; SPANN along its
// centroid-pruning eps; SPANN's closure (overlapping) assignment buys
// recall at a bounded replication factor.
//
// µs/query is the median of kPasses timed passes over the query set, with
// [min, max]: one pass of 100 queries spreads too widely to compare runs.
// There is no page cache, so every pass reads the same pages and returns
// the same answers; recall and reads/query are those of one pass. DiskANN
// rows add the reads/query of a second index, built alike but with a page
// cache of 10% of its pages, over a pass after a warming one.

#include <algorithm>
#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.h"
#include "index/diskann.h"
#include "index/spann.h"

namespace {

constexpr int kPasses = 5;
constexpr const char* kColumns = "%-18s %10s %12s %12s %s";

std::string TempPath(const std::string& tag) {
  return "/tmp/vdb_bench_" + tag + "_" + std::to_string(::getpid());
}

/// Reads/query of a pass over the query set after a warming pass.
double WarmReads(const vdb::VectorIndex& index, const vdb::bench::Workload& w,
                 const vdb::SearchParams& p) {
  using namespace vdb;
  std::vector<Neighbor> got;
  SearchStats stats[2];
  for (SearchStats& st : stats) {
    for (std::size_t q = 0; q < w.queries.rows(); ++q) {
      (void)index.Search(w.queries.row(q), p, &got, &st);
    }
  }
  return static_cast<double>(stats[1].io_reads) /
         static_cast<double>(w.queries.rows());
}

/// Runs the query set kPasses times and prints one row: `knob`, recall@10
/// and reads/query of one pass, reads/query of `cached` when given, then
/// the median [min, max] µs/query.
void QueryRow(const vdb::VectorIndex& index, const vdb::bench::Workload& w,
              const vdb::SearchParams& p, const std::string& knob,
              const vdb::VectorIndex* cached = nullptr) {
  using namespace vdb;
  const double nq = static_cast<double>(w.queries.rows());
  std::vector<std::vector<Neighbor>> results(w.queries.rows());
  std::vector<SearchStats> stats(kPasses);
  std::vector<double> us(kPasses);
  for (int pass = 0; pass < kPasses; ++pass) {
    us[pass] = 1e6 / nq * bench::Seconds([&] {
      for (std::size_t q = 0; q < w.queries.rows(); ++q) {
        (void)index.Search(w.queries.row(q), p, &results[q], &stats[pass]);
      }
    });
  }
  std::sort(us.begin(), us.end());
  char warm[16] = "-";
  if (cached != nullptr) {
    std::snprintf(warm, sizeof(warm), "%.1f", WarmReads(*cached, w, p));
  }
  bench::Row("  %-16s %10.3f %12.1f %12s %9.1f [%.1f, %.1f]", knob.c_str(),
             MeanRecall(results, w.truth, 10), stats[0].io_reads / nq, warm,
             us[kPasses / 2], us.front(), us.back());
}

}  // namespace

int main() {
  using namespace vdb;
  bench::Header("E11", "disk-resident indexes: recall vs page reads "
                       "(n=20000 d=64, 4KiB pages, no cache "
                       "unless stated)");
  auto w = bench::MakeWorkload(20000, 64, 100, 10);

  {
    DiskAnnOptions opts;
    opts.pq.m = 8;
    DiskAnnIndex index(TempPath("diskann"), opts);
    double build_s = bench::Seconds([&] { (void)index.Build(w.data, {}); });
    bench::Row("diskann: build=%.1fs disk=%.1fMB memory=%.1fMB "
               "(raw data %.1fMB)",
               build_s, index.DiskBytes() / 1048576.0,
               index.MemoryBytes() / 1048576.0,
               w.data.ByteSize() / 1048576.0);
    opts.file.cache_pages = index.DiskBytes() / opts.file.page_size / 10;
    DiskAnnIndex cached(TempPath("diskann_cached"), opts);
    (void)cached.Build(w.data, {});
    bench::Row(kColumns, "  knob", "recall@10", "reads/query",
               "@10% cache", "us/query [min, max]");
    for (int ef : {16, 32, 64, 128}) {
      SearchParams p;
      p.k = 10;
      p.ef = ef;
      p.beam_width = 4;
      QueryRow(index, w, p, "L=" + std::to_string(ef), &cached);
    }
  }

  for (float closure : {0.0f, 0.2f}) {
    SpannOptions opts;
    opts.nlist = 256;
    opts.closure_eps = closure;
    SpannIndex index(TempPath("spann" + std::to_string(closure)), opts);
    double build_s = bench::Seconds([&] { (void)index.Build(w.data, {}); });
    bench::Row("\nspann(closure=%.1f): build=%.1fs disk=%.1fMB "
               "memory=%.1fMB replication=%.2fx",
               closure, build_s, index.DiskBytes() / 1048576.0,
               index.MemoryBytes() / 1048576.0, index.ReplicationFactor());
    bench::Row(kColumns, "  knob", "recall@10", "reads/query",
               "@10% cache", "us/query [min, max]");
    for (float eps : {0.0f, 0.2f, 0.4f}) {
      SearchParams p;
      p.k = 10;
      p.nprobe = 16;
      p.spann_eps = eps;
      char knob[32];
      std::snprintf(knob, sizeof(knob), "eps=%.1f", eps);
      QueryRow(index, w, p, knob);
    }
  }
  return 0;
}
