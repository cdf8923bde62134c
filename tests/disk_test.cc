// Tests for the disk substrate (PagedFile) and the disk-resident indexes
// (DiskANN, SPANN): round-trips, I/O accounting, cache behaviour, fault
// injection, recall floors, and closure replication.

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rng.h"
#include "core/synthetic.h"
#include "core/telemetry.h"
#include "index/diskann.h"
#include "index/spann.h"
#include "storage/paged_file.h"

namespace vdb {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_" + tag + "_" +
         std::to_string(::getpid());
}

// -------------------------------------------------------------- PagedFile

TEST(PagedFileTest, WriteReadRoundTrip) {
  auto file = PagedFile::Create(TempPath("pf_rw"));
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> out(4096), in(4096);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::uint8_t>(i * 7);
  ASSERT_TRUE((*file)->WritePage(3, out.data()).ok());  // sparse write
  EXPECT_EQ((*file)->num_pages(), 4u);
  ASSERT_TRUE((*file)->ReadPage(3, in.data()).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ((*file)->reads(), 1u);
  EXPECT_EQ((*file)->writes(), 1u);
}

TEST(PagedFileTest, ReadBeyondEndFails) {
  auto file = PagedFile::Create(TempPath("pf_oob"));
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> buf(4096);
  EXPECT_EQ((*file)->ReadPage(0, buf.data()).code(), StatusCode::kOutOfRange);
}

TEST(PagedFileTest, RejectsBadPageSize) {
  PagedFileOptions opts;
  opts.page_size = 1000;  // not a multiple of 512
  EXPECT_FALSE(PagedFile::Create(TempPath("pf_bad"), opts).ok());
}

TEST(PagedFileTest, CacheSuppressesPhysicalReads) {
  PagedFileOptions opts;
  opts.cache_pages = 2;
  auto file = PagedFile::Create(TempPath("pf_cache"), opts);
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> buf(4096, 1);
  for (std::uint64_t p = 0; p < 3; ++p) {
    ASSERT_TRUE((*file)->WritePage(p, buf.data()).ok());
  }
  (*file)->ResetCounters();
  // Page 0 was evicted by writes of 1,2 (cache holds 2 pages).
  ASSERT_TRUE((*file)->ReadPage(0, buf.data()).ok());
  EXPECT_EQ((*file)->reads(), 1u);
  // Immediately re-reading hits the cache.
  ASSERT_TRUE((*file)->ReadPage(0, buf.data()).ok());
  EXPECT_EQ((*file)->reads(), 1u);
  EXPECT_EQ((*file)->cache_hits(), 1u);
}

TEST(PagedFileTest, PersistsAcrossReopen) {
  std::string path = TempPath("pf_reopen");
  std::vector<std::uint8_t> out(4096, 0xAB), in(4096);
  {
    auto file = PagedFile::Create(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WritePage(0, out.data()).ok());
  }
  auto reopened = PagedFile::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_pages(), 1u);
  ASSERT_TRUE((*reopened)->ReadPage(0, in.data()).ok());
  EXPECT_EQ(in, out);
}

TEST(PagedFileTest, ReadPagesCoalescesRunsIntoFewSyscalls) {
  auto file = PagedFile::Create(TempPath("pf_batch"));
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  std::vector<std::uint8_t> page(ps);
  for (std::uint64_t p = 0; p < 10; ++p) {
    std::fill(page.begin(), page.end(), static_cast<std::uint8_t>(p + 1));
    ASSERT_TRUE((*file)->WritePage(p, page.data()).ok());
  }
  (*file)->ResetCounters();

  // Out-of-order request with three consecutive runs: [0..2], [5,6], [9].
  std::vector<std::uint64_t> ids = {6, 0, 9, 1, 5, 2};
  std::vector<std::uint8_t> out(ids.size() * ps);
  ASSERT_TRUE((*file)->ReadPages(ids, out.data()).ok());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(out[i * ps], static_cast<std::uint8_t>(ids[i] + 1))
        << "slot " << i;
  }
  EXPECT_EQ((*file)->reads(), 6u);          // physical pages
  EXPECT_EQ((*file)->batch_syscalls(), 3u)  // one pread per run
      << "runs were not coalesced";
  EXPECT_EQ((*file)->batch_reads(), 1u);
}

TEST(PagedFileTest, ReadPagesDuplicatesReadOnce) {
  auto file = PagedFile::Create(TempPath("pf_dup"));
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  std::vector<std::uint8_t> page(ps, 0x5C);
  ASSERT_TRUE((*file)->WritePage(0, page.data()).ok());
  ASSERT_TRUE((*file)->WritePage(1, page.data()).ok());
  (*file)->ResetCounters();

  std::vector<std::uint64_t> ids = {1, 0, 1, 1, 0};
  std::vector<std::uint8_t> out(ids.size() * ps);
  ASSERT_TRUE((*file)->ReadPages(ids, out.data()).ok());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(out[i * ps], 0x5C);
  EXPECT_EQ((*file)->reads(), 2u);  // every duplicate filled from one read
  EXPECT_EQ((*file)->batch_syscalls(), 1u);  // {0,1} is a single run
}

TEST(PagedFileTest, ReadPagesServesCacheHitsWithoutIo) {
  PagedFileOptions opts;
  opts.cache_pages = 8;
  auto file = PagedFile::Create(TempPath("pf_batch_cache"), opts);
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  std::vector<std::uint8_t> page(ps, 0x42);
  for (std::uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE((*file)->WritePage(p, page.data()).ok());
  }
  (*file)->ResetCounters();

  std::vector<std::uint64_t> ids = {0, 1, 2, 3};
  std::vector<std::uint8_t> out(ids.size() * ps);
  ASSERT_TRUE((*file)->ReadPages(ids, out.data()).ok());
  EXPECT_EQ((*file)->cache_hits(), 4u);  // writes populated the cache
  EXPECT_EQ((*file)->reads(), 0u);
  EXPECT_EQ((*file)->batch_syscalls(), 0u);
}

TEST(PagedFileTest, ReadPagesBoundsCheckedBeforeAnyIo) {
  auto file = PagedFile::Create(TempPath("pf_batch_oob"));
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  std::vector<std::uint8_t> page(ps, 1);
  ASSERT_TRUE((*file)->WritePage(0, page.data()).ok());
  (*file)->ResetCounters();

  std::vector<std::uint64_t> ids = {0, 7};
  std::vector<std::uint8_t> out(ids.size() * ps);
  EXPECT_EQ((*file)->ReadPages(ids, out.data()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*file)->reads(), 0u);  // rejected before the first pread

  ASSERT_TRUE((*file)->ReadPages({}, nullptr).ok());  // empty batch is a no-op
}

TEST(PagedFileTest, ReadPagesFaultCountdownIsPerPhysicalPage) {
  auto file = PagedFile::Create(TempPath("pf_batch_fault"));
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  std::vector<std::uint8_t> page(ps, 1);
  for (std::uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE((*file)->WritePage(p, page.data()).ok());
  }

  // Runs [0,1] then [3]: a budget of 2 survives the first run's two pages
  // and fails the second run, exactly like two ReadPage calls would.
  std::vector<std::uint64_t> ids = {0, 1, 3};
  std::vector<std::uint8_t> out(ids.size() * ps);
  (*file)->InjectReadFaultAfter(2);
  EXPECT_EQ((*file)->ReadPages(ids, out.data()).code(), StatusCode::kIoError);
  (*file)->InjectReadFaultAfter(-1);
  EXPECT_TRUE((*file)->ReadPages(ids, out.data()).ok());
}

// Sub-page blocks: each slot receives exactly its `len` bytes, whether
// its page was a cache hit, a miss, a duplicate, or sits at either end of
// a coalesced run.
TEST(PagedFileTest, ReadBlocksCopiesSubPageBlocks) {
  PagedFileOptions opts;
  opts.cache_pages = 2;
  auto file = PagedFile::Create(TempPath("pf_blocks"), opts);
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  auto byte_at = [](std::uint64_t off) {
    return static_cast<std::uint8_t>(off * 131 + off / 4096);
  };
  std::vector<std::uint8_t> page(ps);
  for (std::uint64_t p = 0; p < 8; ++p) {
    for (std::size_t b = 0; b < ps; ++b) page[b] = byte_at(p * ps + b);
    ASSERT_TRUE((*file)->WritePage(p, page.data()).ok());
  }
  (*file)->ResetCounters();  // the writes left pages 6 and 7 cached

  const std::size_t len = 196;
  // Hits on 7 and 6; misses coalesce into runs [1..3] and [5]; page 2 is
  // requested twice, once at each end of the page.
  std::vector<std::uint64_t> offsets = {
      7 * ps + 100, 1 * ps,       2 * ps + ps - len, 6 * ps + 8,
      3 * ps + 33,  2 * ps + 0,   5 * ps + 4000 - len};
  std::vector<std::uint8_t> out(offsets.size() * len, 0xEE);
  ASSERT_TRUE((*file)->ReadBlocks(offsets, len, out.data()).ok());
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    for (std::size_t b = 0; b < len; ++b) {
      ASSERT_EQ(out[i * len + b], byte_at(offsets[i] + b))
          << "slot " << i << " byte " << b;
    }
  }
  EXPECT_EQ((*file)->cache_hits(), 2u);
  EXPECT_EQ((*file)->reads(), 4u);           // pages 1, 2, 3, 5 once each
  EXPECT_EQ((*file)->batch_syscalls(), 2u);  // runs [1..3] and [5]
  EXPECT_EQ((*file)->batch_reads(), 1u);

  // The cache kept the last two pages filled (3, then 5): both hit now.
  std::vector<std::uint64_t> again = {5 * ps + 1, 3 * ps + 2};
  ASSERT_TRUE((*file)->ReadBlocks(again, len, out.data()).ok());
  EXPECT_EQ(out[0], byte_at(again[0]));
  EXPECT_EQ(out[len], byte_at(again[1]));
  EXPECT_EQ((*file)->cache_hits(), 4u);
  EXPECT_EQ((*file)->reads(), 4u);
}

TEST(PagedFileTest, ReadBlocksRejectsBadBlocksBeforeAnyIo) {
  auto file = PagedFile::Create(TempPath("pf_blocks_oob"));
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  std::vector<std::uint8_t> page(ps, 1);
  ASSERT_TRUE((*file)->WritePage(0, page.data()).ok());
  ASSERT_TRUE((*file)->WritePage(1, page.data()).ok());
  (*file)->ResetCounters();

  std::vector<std::uint8_t> out(2 * ps);
  // The second block crosses from page 0 into page 1.
  std::vector<std::uint64_t> crossing = {0, ps - 10};
  EXPECT_EQ((*file)->ReadBlocks(crossing, 64, out.data()).code(),
            StatusCode::kOutOfRange);
  std::vector<std::uint64_t> beyond = {0, 2 * ps};
  EXPECT_EQ((*file)->ReadBlocks(beyond, 64, out.data()).code(),
            StatusCode::kOutOfRange);
  std::vector<std::uint64_t> one = {0};
  EXPECT_EQ((*file)->ReadBlocks(one, 0, out.data()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*file)->ReadBlocks(one, ps + 1, out.data()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*file)->reads(), 0u);  // rejected before the first pread
  EXPECT_EQ((*file)->batch_reads(), 0u);
  EXPECT_TRUE((*file)->ReadBlocks({}, 64, nullptr).ok());
}

TEST(PagedFileTest, ReadBlocksFaultCountdownIsPerPhysicalPage) {
  auto file = PagedFile::Create(TempPath("pf_blocks_fault"));
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  std::vector<std::uint8_t> page(ps, 1);
  for (std::uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE((*file)->WritePage(p, page.data()).ok());
  }
  // Blocks on pages 0, 1 and 3: runs [0,1] then [3], three physical pages
  // however small the blocks are.
  std::vector<std::uint64_t> offsets = {8, ps + 8, 3 * ps + 8};
  std::vector<std::uint8_t> out(offsets.size() * 16);
  (*file)->InjectReadFaultAfter(2);
  EXPECT_EQ((*file)->ReadBlocks(offsets, 16, out.data()).code(),
            StatusCode::kIoError);
  (*file)->InjectReadFaultAfter(3);
  EXPECT_TRUE((*file)->ReadBlocks(offsets, 16, out.data()).ok());
}

TEST(PagedFileTest, FaultInjectionSurfacesIoError) {
  Counter& read_failures =
      Registry::Global().GetCounter("vdb_paged_file_read_failures_total");
  const std::uint64_t failures_before = read_failures.Value();
  auto file = PagedFile::Create(TempPath("pf_fault"));
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> buf(4096, 5);
  ASSERT_TRUE((*file)->WritePage(0, buf.data()).ok());
  ASSERT_TRUE((*file)->WritePage(1, buf.data()).ok());
  (*file)->InjectReadFaultAfter(1);
  EXPECT_TRUE((*file)->ReadPage(0, buf.data()).ok());
  EXPECT_EQ((*file)->ReadPage(1, buf.data()).code(), StatusCode::kIoError);
  EXPECT_EQ(read_failures.Value(), failures_before + 1);
}

// ------------------------------------------------------------ disk indexes

struct DiskFixture {
  FloatMatrix data;
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> truth;
};

const DiskFixture& SharedDiskFixture() {
  static const DiskFixture* fx = [] {
    auto* f = new DiskFixture();
    SyntheticOptions opts;
    opts.n = 3000;
    opts.dim = 24;
    opts.num_clusters = 16;
    opts.seed = 11;
    f->data = GaussianClusters(opts);
    f->queries = PerturbedQueries(f->data, 30, 0.02f, 5);
    auto scorer = Scorer::Create(MetricSpec::L2(), opts.dim).value();
    f->truth = GroundTruth(f->data, f->queries, scorer, 10);
    return f;
  }();
  return *fx;
}

TEST(DiskAnnTest, RecallWithBoundedIo) {
  const auto& fx = SharedDiskFixture();
  DiskAnnOptions opts;
  opts.pq.m = 4;
  DiskAnnIndex index(TempPath("diskann"), opts);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  EXPECT_EQ(index.Size(), fx.data.rows());
  EXPECT_GT(index.DiskBytes(), 0u);
  // In-memory footprint far below the raw data (the point of DiskANN).
  EXPECT_LT(index.MemoryBytes(), fx.data.ByteSize() / 2);

  SearchParams p;
  p.k = 10;
  p.ef = 32;
  p.beam_width = 4;
  std::vector<std::vector<Neighbor>> results(fx.queries.rows());
  SearchStats stats;
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q], &stats).ok());
  }
  EXPECT_GE(MeanRecall(results, fx.truth, 10), 0.75);
  EXPECT_GT(stats.io_reads, 0u);
  // Beam search reads far fewer pages than scanning the file per query.
  std::uint64_t full_scan_pages =
      index.DiskBytes() / 4096 * fx.queries.rows();
  EXPECT_LT(stats.io_reads, full_scan_pages / 2);
}

TEST(DiskAnnTest, WiderBeamMoreIoMoreRecall) {
  const auto& fx = SharedDiskFixture();
  DiskAnnOptions opts;
  opts.pq.m = 4;
  DiskAnnIndex index(TempPath("diskann_beam"), opts);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  double recalls[2];
  std::uint64_t ios[2];
  int efs[2] = {16, 128};
  for (int t = 0; t < 2; ++t) {
    SearchParams p;
    p.k = 10;
    p.ef = efs[t];
    SearchStats stats;
    std::vector<std::vector<Neighbor>> results(fx.queries.rows());
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      ASSERT_TRUE(
          index.Search(fx.queries.row(q), p, &results[q], &stats).ok());
    }
    recalls[t] = MeanRecall(results, fx.truth, 10);
    ios[t] = stats.io_reads;
  }
  EXPECT_GT(recalls[1], recalls[0] - 1e-9);
  EXPECT_GT(ios[1], ios[0]);
}

TEST(DiskAnnTest, RemoveExcludesFromResults) {
  const auto& fx = SharedDiskFixture();
  DiskAnnOptions opts;
  opts.pq.m = 4;
  DiskAnnIndex index(TempPath("diskann_rm"), opts);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  VectorId victim = fx.truth[0][0].id;
  ASSERT_TRUE(index.Remove(victim).ok());
  SearchParams p;
  p.k = 10;
  p.ef = 64;
  std::vector<Neighbor> results;
  ASSERT_TRUE(index.Search(fx.queries.row(0), p, &results).ok());
  for (const auto& nb : results) EXPECT_NE(nb.id, victim);
}

// The page cache changes only how many reads reach the disk: answers and
// every other work counter are the same for no cache, 10% of the pages
// and all of them, and physical reads never rise as the cache grows.
TEST(DiskAnnTest, PageCacheIsTransparent) {
  const auto& fx = SharedDiskFixture();
  std::size_t num_pages = 0;
  std::vector<std::vector<Neighbor>> first_results;
  std::vector<SearchStats> first_stats;
  std::uint64_t last_io = std::numeric_limits<std::uint64_t>::max();
  for (int share : {0, 10, 100}) {
    DiskAnnOptions opts;
    opts.pq.m = 4;
    opts.file.cache_pages = num_pages * share / 100;
    DiskAnnIndex index(TempPath("diskann_cache" + std::to_string(share)),
                       opts);
    ASSERT_TRUE(index.Build(fx.data, {}).ok());
    if (share == 0) num_pages = index.DiskBytes() / opts.file.page_size;
    SearchParams p;
    p.k = 10;
    p.ef = 32;
    std::uint64_t io = 0;
    // Two passes over the queries, so the second meets a warm cache.
    for (std::size_t i = 0; i < 2 * fx.queries.rows(); ++i) {
      std::vector<Neighbor> got;
      SearchStats st;
      ASSERT_TRUE(
          index.Search(fx.queries.row(i % fx.queries.rows()), p, &got, &st)
              .ok());
      io += st.io_reads;
      if (share == 0) {
        first_results.push_back(got);
        first_stats.push_back(st);
        continue;
      }
      ASSERT_EQ(got.size(), first_results[i].size()) << share;
      for (std::size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].id, first_results[i][j].id) << share;
        EXPECT_EQ(got[j].dist, first_results[i][j].dist) << share;
      }
      const SearchStats& ref = first_stats[i];
      EXPECT_EQ(st.distance_comps, ref.distance_comps) << share;
      EXPECT_EQ(st.code_comps, ref.code_comps) << share;
      EXPECT_EQ(st.nodes_visited, ref.nodes_visited) << share;
      EXPECT_EQ(st.hops, ref.hops) << share;
      EXPECT_EQ(st.filter_checks, ref.filter_checks) << share;
    }
    EXPECT_LE(io, last_io) << share;
    last_io = io;
    if (share == 100) {
      EXPECT_EQ(io, 0u);  // every page stayed cached
    }
  }
}

TEST(DiskAnnTest, RejectsOversizedNodeBlock) {
  DiskAnnOptions opts;
  opts.vamana.r = 2000;  // adjacency alone exceeds a 4K page
  DiskAnnIndex index(TempPath("diskann_big"), opts);
  FloatMatrix data(10, 8);
  EXPECT_FALSE(index.Build(data, {}).ok());
}

// The page layout places graph neighbours on shared pages. At the
// perfbench `disk-ann` shape (2,000 × d32, R 16, PQ 8×8, beam 4, L 64,
// 10 of 100 pages cached), a beam's blocks then mostly hit cached or
// shared pages: fewer page reads than half the expanded nodes. Laid out
// in build order, the same queries read about 0.89 pages per node.
TEST(DiskAnnTest, LayoutSharesPages) {
  SyntheticOptions so;
  so.n = 2000;
  so.dim = 32;
  so.num_clusters = 32;
  so.seed = 1;
  FloatMatrix data = GaussianClusters(so);
  FloatMatrix queries = PerturbedQueries(data, 200, 0.03f, 2);
  DiskAnnOptions opts;
  opts.vamana.r = 16;
  opts.vamana.l = 32;
  opts.vamana.passes = 1;
  opts.pq.m = 8;
  opts.pq.nbits = 8;
  opts.pq.train_iters = 10;
  opts.default_beam_width = 4;
  opts.default_ef = 64;
  opts.file.cache_pages = 10;
  DiskAnnIndex index(TempPath("diskann_layout"), opts);
  ASSERT_TRUE(index.Build(data, {}).ok());
  ASSERT_EQ(index.DiskBytes() / opts.file.page_size, 100u);
  SearchParams p;
  p.k = 10;
  SearchStats stats;
  for (std::size_t i = 0; i < 2 * queries.rows(); ++i) {
    std::vector<Neighbor> got;
    ASSERT_TRUE(
        index.Search(queries.row(i % queries.rows()), p, &got, &stats).ok());
  }
  EXPECT_LE(2 * stats.io_reads, stats.nodes_visited)
      << stats.io_reads << " page reads for " << stats.nodes_visited
      << " expanded nodes";
}

// Nodes sit in the file in layout order, but the row surface keeps build
// order: ScanRows emits the build input's live rows in its order with
// bit-equal vectors, ReadRows finds each id's own vector, and neither they
// nor Search return a removed label.
TEST(DiskAnnTest, RowSurfaceKeepsBuildOrder) {
  const auto& fx = SharedDiskFixture();
  const std::size_t n = fx.data.rows();
  const std::size_t dim = fx.data.cols();
  std::vector<VectorId> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = (i * 7919 + 13) % 100003;
  DiskAnnOptions opts;
  opts.pq.m = 4;
  DiskAnnIndex index(TempPath("diskann_rows"), opts);
  ASSERT_TRUE(index.Build(fx.data, labels).ok());
  // Remove spread rows and the nearest row of some queries, so Search
  // meets removed rows.
  std::vector<bool> removed(n, false);
  for (std::size_t i = 3; i < n; i += 211) removed[i] = true;
  for (std::size_t q = 0; q < fx.queries.rows(); q += 3) {
    removed[fx.truth[q][0].id] = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (removed[i]) {
      ASSERT_TRUE(index.Remove(labels[i]).ok());
    }
  }

  std::vector<std::size_t> live_rows;
  for (std::size_t i = 0; i < n; ++i) {
    if (!removed[i]) live_rows.push_back(i);
  }
  auto same_vector = [&](std::size_t row, const float* vec) {
    return std::memcmp(vec, fx.data.row(row), dim * sizeof(float)) == 0;
  };
  std::size_t next = 0;
  ASSERT_TRUE(index
                  .ScanRows(
                      [&](VectorId id, const float* vec) {
                        ASSERT_LT(next, live_rows.size());
                        const std::size_t row = live_rows[next++];
                        EXPECT_EQ(id, labels[row]);
                        EXPECT_TRUE(same_vector(row, vec)) << row;
                      },
                      nullptr)
                  .ok());
  EXPECT_EQ(next, live_rows.size());

  std::vector<VectorId> wanted;
  std::unordered_map<VectorId, std::size_t> row_of;
  for (std::size_t i = 0; i < n; i += 7) {
    wanted.push_back(labels[i]);
    row_of[labels[i]] = i;
  }
  std::size_t read = 0, expected = 0;
  for (VectorId id : wanted) expected += removed[row_of[id]] ? 0 : 1;
  ASSERT_TRUE(index
                  .ReadRows(
                      wanted,
                      [&](VectorId id, const float* vec) {
                        ++read;
                        ASSERT_TRUE(row_of.contains(id));
                        EXPECT_FALSE(removed[row_of[id]]) << id;
                        EXPECT_TRUE(same_vector(row_of[id], vec)) << id;
                      },
                      nullptr)
                  .ok());
  EXPECT_EQ(read, expected);

  std::unordered_set<VectorId> gone;
  for (std::size_t i = 0; i < n; ++i) {
    if (removed[i]) gone.insert(labels[i]);
  }
  SearchParams p;
  p.k = 10;
  p.ef = 64;
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    std::vector<Neighbor> got;
    ASSERT_TRUE(index.Search(fx.queries.row(q), p, &got).ok());
    EXPECT_EQ(got.size(), 10u);
    for (const auto& nb : got) EXPECT_FALSE(gone.contains(nb.id)) << nb.id;
  }
}

// A label given twice has no single build row to stand for, so Build
// rejects it.
TEST(DiskAnnTest, RejectsRepeatedLabels) {
  const auto& fx = SharedDiskFixture();
  std::vector<VectorId> labels(fx.data.rows());
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i;
  labels[labels.size() - 1] = 5;
  DiskAnnOptions opts;
  opts.pq.m = 4;
  DiskAnnIndex index(TempPath("diskann_dup"), opts);
  EXPECT_EQ(index.Build(fx.data, labels).code(),
            StatusCode::kInvalidArgument);
}

// Claim (EXPERIMENTS E1): DiskANN's recall gap to Vamana is its PQ
// navigation codes' quantization ceiling, not a search defect. With
// near-lossless codes (m = d, one dimension per sub-quantizer) DiskANN
// matches Vamana on the same data and graph options at equal ef; with
// m = 8 it falls behind where ef is too small to re-rank the code error
// away.
TEST(DiskAnnTest, NearLosslessPqMatchesVamana) {
  SyntheticOptions so;
  so.n = 2000;
  so.dim = 32;
  so.num_clusters = 32;
  so.seed = 7;
  FloatMatrix data = GaussianClusters(so);
  FloatMatrix queries = PerturbedQueries(data, 100, 0.03f, 8);
  auto scorer = Scorer::Create(MetricSpec::L2(), so.dim).value();
  auto truth = GroundTruth(data, queries, scorer, 10);

  DiskAnnOptions opts;
  VamanaIndex vamana(opts.vamana);
  ASSERT_TRUE(vamana.Build(data, {}).ok());
  opts.pq.m = so.dim;
  DiskAnnIndex lossless(TempPath("diskann_lossless"), opts);
  ASSERT_TRUE(lossless.Build(data, {}).ok());
  opts.pq.m = 8;
  DiskAnnIndex coarse(TempPath("diskann_coarse"), opts);
  ASSERT_TRUE(coarse.Build(data, {}).ok());

  auto recall = [&](const VectorIndex& index, int ef) {
    SearchParams p;
    p.k = 10;
    p.ef = ef;
    std::vector<std::vector<Neighbor>> got(queries.rows());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      EXPECT_TRUE(index.Search(queries.row(q), p, &got[q]).ok());
    }
    return MeanRecall(got, truth, 10);
  };
  for (int ef : {16, 64}) {
    EXPECT_GE(recall(lossless, ef), recall(vamana, ef) - 0.02) << ef;
  }
  EXPECT_LT(recall(coarse, 16), recall(vamana, 16) - 0.05);
}

TEST(SpannTest, RecallAndReplication) {
  const auto& fx = SharedDiskFixture();
  SpannOptions opts;
  opts.nlist = 64;
  SpannIndex index(TempPath("spann"), opts);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  EXPECT_GE(index.ReplicationFactor(), 1.0);
  EXPECT_LE(index.ReplicationFactor(), opts.max_replicas);
  // Memory holds centroids only — far below the raw data.
  EXPECT_LT(index.MemoryBytes(), fx.data.ByteSize() / 4);

  SearchParams p;
  p.k = 10;
  p.nprobe = 8;
  SearchStats stats;
  std::vector<std::vector<Neighbor>> results(fx.queries.rows());
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q], &stats).ok());
  }
  EXPECT_GE(MeanRecall(results, fx.truth, 10), 0.85);
  EXPECT_GT(stats.io_reads, 0u);
}

TEST(SpannTest, QueryEpsTradesIoForRecall) {
  const auto& fx = SharedDiskFixture();
  SpannOptions opts;
  opts.nlist = 64;
  SpannIndex index(TempPath("spann_eps"), opts);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  double recalls[2];
  std::uint64_t ios[2];
  float epses[2] = {0.0f, 0.6f};
  for (int t = 0; t < 2; ++t) {
    SearchParams p;
    p.k = 10;
    p.nprobe = 16;
    p.spann_eps = epses[t];
    SearchStats stats;
    std::vector<std::vector<Neighbor>> results(fx.queries.rows());
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      ASSERT_TRUE(
          index.Search(fx.queries.row(q), p, &results[q], &stats).ok());
    }
    recalls[t] = MeanRecall(results, fx.truth, 10);
    ios[t] = stats.io_reads;
  }
  EXPECT_GE(recalls[1], recalls[0] - 1e-9);
  EXPECT_GT(ios[1], ios[0]);
}

TEST(SpannTest, ClosureBeatsNoClosureAtSameProbes) {
  const auto& fx = SharedDiskFixture();
  double recalls[2];
  float closures[2] = {0.0f, 0.25f};
  for (int t = 0; t < 2; ++t) {
    SpannOptions opts;
    opts.nlist = 64;
    opts.closure_eps = closures[t];
    SpannIndex index(TempPath("spann_cl" + std::to_string(t)), opts);
    ASSERT_TRUE(index.Build(fx.data, {}).ok());
    SearchParams p;
    p.k = 10;
    p.nprobe = 2;  // tight probe budget: boundary misses dominate
    p.spann_eps = 10.0f;
    std::vector<std::vector<Neighbor>> results(fx.queries.rows());
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q]).ok());
    }
    recalls[t] = MeanRecall(results, fx.truth, 10);
  }
  EXPECT_GE(recalls[1], recalls[0]);
}

TEST(SpannTest, FilteredSearchHonorsPredicate) {
  const auto& fx = SharedDiskFixture();
  SpannOptions opts;
  SpannIndex index(TempPath("spann_filter"), opts);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  Bitset allowed(fx.data.rows());
  for (std::size_t i = 0; i < fx.data.rows(); i += 3) allowed.Set(i);
  BitsetIdFilter filter(&allowed);
  SearchParams p;
  p.k = 10;
  p.filter = &filter;
  std::vector<Neighbor> results;
  ASSERT_TRUE(index.Search(fx.queries.row(0), p, &results).ok());
  for (const auto& nb : results) EXPECT_TRUE(allowed.Test(nb.id));
}

}  // namespace
}  // namespace vdb
