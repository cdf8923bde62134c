// Concurrency stress suite — the ThreadSanitizer tier (DESIGN.md §9).
//
// Each test hammers one real shared-state surface of the system with
// enough threads and iterations that TSan (cmake -B build-tsan
// -DVDB_SANITIZE=thread; ctest -L stress) sees every lock/atomic pairing,
// while staying small enough to finish in seconds on one core at TSan's
// ~10x slowdown. Most functional assertions are deliberately weak
// (counts, statuses) — the sanitizer is the oracle there; the shared
// Collection suites also check every answer against a sequential pass.
//
// VDB_STRESS_SCALE (default 1) multiplies iteration counts for longer
// local soaks.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/synthetic.h"
#include "core/telemetry.h"
#include "core/telemetry_window.h"
#include "exec/flight_recorder.h"
#include "db/collection.h"
#include "db/distributed.h"
#include "index/diskann.h"
#include "index/hnsw.h"
#include "net/admission.h"
#include "storage/paged_file.h"

namespace vdb {
namespace {

std::size_t StressScale() {
  if (const char* env = std::getenv("VDB_STRESS_SCALE")) {
    long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  // At scale 1 the registry/failpoint churn suites finish in under a
  // millisecond — threads barely overlap and the race detector sees few
  // interleavings. 4 keeps the native run under a second while giving
  // every suite real contention; raise via VDB_STRESS_SCALE for soaks.
  return 4;
}

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_stress_" + tag + "_" +
         std::to_string(::getpid());
}

IndexFactory HnswFactory() {
  return [] {
    HnswOptions o;
    o.m = 8;
    o.ef_construction = 32;
    return std::make_unique<HnswIndex>(o);
  };
}

FloatMatrix TestData(std::size_t n, std::size_t dim, std::uint64_t seed = 7) {
  SyntheticOptions opts;
  opts.n = n;
  opts.dim = dim;
  opts.num_clusters = 4;
  opts.seed = seed;
  return GaussianClusters(opts);
}

/// Launches `n` copies of `fn(thread_index)` and joins them all.
template <typename Fn>
void RunThreads(std::size_t n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

// ------------------------------------------------- shared Collection
//
// The server-worker pattern (collection.h): `const` queries share one
// unlocked collection, and writes run single-threaded between rounds.
// Each reader writes a transcript of its answers; the oracle is a
// sequential pass over the same round, so a race that changes an answer
// fails the test even when TSan does not see it.

/// Appends a status (which must be OK) and result rows (ids + distance
/// bits) to a transcript.
void Record(std::string* t, const Status& st,
            const std::vector<Neighbor>& rows = {}) {
  EXPECT_TRUE(st.ok()) << st.ToString();
  *t += st.ToString();
  for (const Neighbor& n : rows) {
    *t += " " + std::to_string(n.id) + ":" +
          std::to_string(std::bit_cast<std::uint32_t>(n.dist));
  }
  *t += "\n";
}

/// Checkpoints `coll` to a scratch file and records the file's bytes.
void RecordCheckpoint(std::string* t, const Collection& coll,
                      const std::string& tag) {
  std::string path = TempPath("ckpt_" + tag);
  Status st = coll.Checkpoint(path);
  Record(t, st);
  std::ifstream in(path, std::ios::binary);
  *t += std::string(std::istreambuf_iterator<char>(in), {});
  std::remove(path.c_str());
}

/// `rounds` times: run `reader(t, tag)` once per reader sequentially, then
/// on `readers` threads at once, and require equal transcripts; then run
/// `write(round)` alone. `tag` keeps the passes' scratch files apart.
void RunServerRounds(
    std::size_t rounds, std::size_t readers,
    const std::function<std::string(std::size_t, const std::string&)>&
        reader,
    const std::function<void(std::size_t)>& write) {
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<std::string> want(readers), got(readers);
    for (std::size_t t = 0; t < readers; ++t) {
      want[t] = reader(t, "seq" + std::to_string(t));
    }
    RunThreads(readers, [&](std::size_t t) {
      got[t] = reader(t, "par" + std::to_string(t));
    });
    for (std::size_t t = 0; t < readers; ++t) {
      EXPECT_TRUE(got[t] == want[t]) << "round " << round << " reader " << t;
    }
    write(round);
  }
}

// Readers run knn, range, hybrid, batched knn and checkpoints while the
// writer phase inserts, upserts, deletes and (every other round)
// rebuilds the index, so rounds alternate between a clean index and one
// with an unindexed delta and tombstones.
TEST(ConcurrencyStressTest, CollectionInsertSearchChurn) {
  const std::size_t kDim = 16, kReaders = 4, kQueries = 6;
  const std::size_t kRounds = 2 * StressScale(), kWrites = 40;

  CollectionOptions opts;
  opts.dim = kDim;
  opts.attributes = {{"category", AttrType::kInt64}};
  opts.index_factory = HnswFactory();
  auto created = Collection::Create(opts);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Collection> coll = std::move(created).value();

  FloatMatrix seedrows = TestData(64, kDim);
  for (std::size_t i = 0; i < seedrows.rows(); ++i) {
    ASSERT_TRUE(coll->Insert(static_cast<VectorId>(i),
                             {seedrows.row(i), kDim},
                             {{"category", std::int64_t(i % 4)}})
                    .ok());
  }
  ASSERT_TRUE(coll->BuildIndex().ok());

  FloatMatrix pool = TestData(256, kDim, /*seed=*/11);
  const Predicate pred =
      Predicate::Cmp("category", CmpOp::kEq, AttrValue(std::int64_t(1)));
  std::size_t round = 0;
  std::size_t live = seedrows.rows();
  RunServerRounds(
      kRounds, kReaders,
      [&](std::size_t t, const std::string& tag) {
        std::string transcript;
        FloatMatrix batch(kQueries, kDim);
        for (std::size_t i = 0; i < kQueries; ++i) {
          const float* q = pool.row((round * 37 + t * kQueries + i) %
                                    pool.rows());
          std::copy_n(q, kDim, batch.row(i));
          std::vector<Neighbor> out;
          Status st = coll->Knn({q, kDim}, 5, &out);
          Record(&transcript, st, out);
          float radius = out.empty() ? 1.0f : out.back().dist;
          st = coll->RangeSearch({q, kDim}, radius, &out);
          Record(&transcript, st, out);
          st = coll->Hybrid({q, kDim}, pred, 5, &out);
          Record(&transcript, st, out);
        }
        std::vector<std::vector<Neighbor>> rows;
        Status st = coll->BatchKnn(batch, 5, &rows);
        Record(&transcript, st);
        for (const auto& r : rows) Record(&transcript, st, r);
        RecordCheckpoint(&transcript, *coll, tag);
        return transcript;
      },
      [&](std::size_t r) {
        for (std::size_t i = 0; i < kWrites; ++i) {
          VectorId id = static_cast<VectorId>(1000 + r * kWrites + i);
          std::size_t row = (r * kWrites + i) % pool.rows();
          ASSERT_TRUE(coll->Insert(id, {pool.row(row), kDim},
                                   {{"category", std::int64_t(i % 4)}})
                          .ok());
          ++live;
          if (i % 3 == 0) {
            ASSERT_TRUE(
                coll->Upsert(id, {pool.row((row + 1) % pool.rows()), kDim},
                             {{"category", std::int64_t(i % 4)}})
                    .ok());
          }
          if (i % 5 == 0) {
            ASSERT_TRUE(coll->Delete(id).ok());
            --live;
          }
        }
        if (r % 2 == 1) {
          ASSERT_TRUE(coll->BuildIndex().ok());
        }
        ++round;
      });
  EXPECT_EQ(coll->Size(), live);
}

// The server-worker pattern: readers plan and run filtered queries on one
// shared, unlocked collection, each round starting from a cold stats
// cache (a single-threaded insert between rounds invalidates it). The
// cache fill is the only write on this path; its mutex must keep every
// column to one scan per round.
TEST(ConcurrencyStressTest, SharedCollectionColdStatsCache) {
  const std::size_t kDim = 8, kReaders = 4;
  const std::size_t kRounds = 3 * StressScale(), kQueries = 20;

  CollectionOptions opts;
  opts.dim = kDim;
  opts.attributes = {{"category", AttrType::kInt64},
                     {"price", AttrType::kDouble}};
  opts.index_factory = HnswFactory();
  auto created = Collection::Create(opts);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Collection> coll = std::move(created).value();
  FloatMatrix rows = TestData(300, kDim);
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    ASSERT_TRUE(coll->Insert(static_cast<VectorId>(i), {rows.row(i), kDim},
                             {{"category", std::int64_t(i % 5)},
                              {"price", double(i % 97)}})
                    .ok());
  }
  ASSERT_TRUE(coll->BuildIndex().ok());

  const Predicate preds[] = {
      Predicate::Cmp("category", CmpOp::kEq, AttrValue(std::int64_t(2))),
      Predicate::Cmp("price", CmpOp::kLt, AttrValue(30.0)),
      Predicate::And(
          Predicate::Between("price", AttrValue(10.0), AttrValue(80.0)),
          Predicate::In("category", {AttrValue(std::int64_t(1)),
                                     AttrValue(std::int64_t(3))}))};
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t scans = coll->attributes().StatsScans();
    std::atomic<std::size_t> ready{0};
    RunThreads(kReaders, [&](std::size_t t) {
      // Line the readers up so the first estimates race on a cold cache.
      ready.fetch_add(1);
      while (ready.load() < kReaders) std::this_thread::yield();
      for (std::size_t i = 0; i < kQueries; ++i) {
        const Predicate& pred = preds[(t + i) % 3];
        EXPECT_TRUE(coll->ExplainHybrid(pred).ok());
        std::vector<Neighbor> out;
        ExecStats stats;
        EXPECT_TRUE(coll->Hybrid({rows.row((t * 7 + i) % rows.rows()), kDim},
                                 pred, 5, &out, &stats)
                        .ok());
        EXPECT_TRUE(stats.plan.has_value());
        EXPECT_GE(stats.est_selectivity, 0.0);
      }
    });
    EXPECT_EQ(coll->attributes().StatsScans(), scans + 2);  // two columns
    VectorId id = static_cast<VectorId>(rows.rows() + round);
    ASSERT_TRUE(coll->Insert(id, {rows.row(round), kDim},
                             {{"category", std::int64_t(1)}, {"price", 5.0}})
                    .ok());
  }
}

// Checkpoints racing readers on the shared collection: every snapshot
// taken during a round must be byte-identical to the sequential one, and
// a collection restored from it must hold the round's rows.
TEST(ConcurrencyStressTest, CheckpointVsWriters) {
  const std::size_t kDim = 8, kReaders = 4;
  const std::size_t kRounds = 2 * StressScale(), kWrites = 50;
  CollectionOptions opts;
  opts.dim = kDim;
  opts.index_factory = HnswFactory();
  auto created = Collection::Create(opts);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Collection> coll = std::move(created).value();

  FloatMatrix pool = TestData(128, kDim);
  std::size_t round = 0;
  RunServerRounds(
      kRounds, kReaders,
      [&](std::size_t t, const std::string& tag) {
        std::string transcript;
        if (t % 2 == 0) {  // checkpointer
          for (int i = 0; i < 2; ++i) {
            RecordCheckpoint(&transcript, *coll,
                             tag + "_" + std::to_string(i));
          }
        } else {  // reader
          for (std::size_t i = 0; i < 8; ++i) {
            std::vector<Neighbor> out;
            Status st =
                coll->Knn({pool.row((round + t * 8 + i) % pool.rows()), kDim},
                          3, &out);
            Record(&transcript, st, out);
          }
        }
        return transcript;
      },
      [&](std::size_t r) {
        for (std::size_t i = 0; i < kWrites; ++i) {
          VectorId id = static_cast<VectorId>(r * kWrites + i);
          ASSERT_TRUE(
              coll->Insert(id, {pool.row(id % pool.rows()), kDim}).ok());
        }
        if (r % 2 == 1) {
          ASSERT_TRUE(coll->BuildIndex().ok());
        }
        ++round;
      });

  std::string path = TempPath("ckpt_final");
  ASSERT_TRUE(coll->Checkpoint(path).ok());
  auto restored = Collection::Restore(opts, path);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->Size(), kRounds * kWrites);
  EXPECT_EQ(coll->Size(), kRounds * kWrites);
}

// --------------------------------------------------- ShardedCollection

struct ShardedFixture {
  std::unique_ptr<ShardedCollection> sharded;
  FloatMatrix pool;

  explicit ShardedFixture(ShardedOptions opts, std::size_t n = 160,
                          std::size_t dim = 8) {
    opts.collection.dim = dim;
    opts.collection.index_factory = HnswFactory();
    auto created = ShardedCollection::Create(std::move(opts));
    EXPECT_TRUE(created.ok());
    sharded = std::move(created).value();
    pool = TestData(n, dim);
    for (std::size_t i = 0; i < pool.rows(); ++i) {
      EXPECT_TRUE(
          sharded->Insert(static_cast<VectorId>(i), {pool.row(i), dim}).ok());
    }
    EXPECT_TRUE(sharded->BuildIndexes().ok());
  }
};

// Parallel scatter-gather from many query threads while a failpoint
// randomly kills shard probes: breaker trips (CAS loops), cooldown
// gauges, and degradation accounting all churn concurrently.
TEST(ConcurrencyStressTest, ScatterGatherBreakerChurn) {
  ShardedOptions opts;
  opts.num_shards = 4;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_probes = 3;
  ShardedFixture fx(opts);

  ScopedFailpoint fail("shard.knn.fail", "prob:0.3");
  const std::size_t kQueries = 60 * StressScale();
  std::atomic<std::size_t> degraded{0}, hard_failures{0};

  RunThreads(4, [&](std::size_t t) {
    for (std::size_t i = 0; i < kQueries; ++i) {
      std::vector<Neighbor> out;
      SearchStats stats;
      Status st = fx.sharded->Knn({fx.pool.row((t * kQueries + i) %
                                               fx.pool.rows()),
                                   fx.pool.cols()},
                                  5, &out, &stats);
      if (!st.ok()) {
        hard_failures.fetch_add(1, std::memory_order_relaxed);
      } else if (stats.partial) {
        degraded.fetch_add(1, std::memory_order_relaxed);
      }
      if (i % 16 == 0) {
        for (std::size_t s = 0; s < fx.sharded->num_shards(); ++s) {
          (void)fx.sharded->BreakerCooldownRemaining(s);
          if (i % 32 == 0) fx.sharded->ResetBreaker(s);
        }
      }
    }
  });
  // prob:0.3 over hundreds of probes must have degraded something; a
  // totally quiet run means the failpoint never fired (test is vacuous).
  EXPECT_GT(degraded.load() + hard_failures.load(), 0u);
}

// Deadline expiry abandons workers mid-probe; stragglers keep writing
// into the heap-shared gather context after Knn returned and are joined
// by the destructor while new queries still run.
TEST(ConcurrencyStressTest, DeadlineStragglers) {
  ShardedOptions opts;
  opts.num_shards = 4;
  opts.shard_deadline_ms = 2;
  opts.breaker_threshold = 0;  // keep every shard probed despite timeouts
  ShardedFixture fx(opts);

  ScopedFailpoint delay("shard.knn.delay", "prob:0.25+delay:10");
  const std::size_t kQueries = 30 * StressScale();

  RunThreads(3, [&](std::size_t t) {
    for (std::size_t i = 0; i < kQueries; ++i) {
      std::vector<Neighbor> out;
      SearchStats stats;
      Status st = fx.sharded->Knn({fx.pool.row((t + i) % fx.pool.rows()),
                                   fx.pool.cols()},
                                  5, &out, &stats);
      // Partial results or full failure are both legal under the
      // deadline; racing on the gather context is what TSan checks.
      (void)st;
    }
  });
  // Destructor joins any stragglers; TSan verifies the handoff.
}

// Replica round-robin reads racing primary-retry fallback.
TEST(ConcurrencyStressTest, ReplicaReadChurn) {
  ShardedOptions opts;
  opts.num_shards = 2;
  opts.replicas = 2;
  ShardedFixture fx(opts);
  ASSERT_TRUE(fx.sharded->SyncReplicas().ok());

  ScopedFailpoint fail("shard.replica.fail", "prob:0.2");
  const std::size_t kQueries = 60 * StressScale();

  RunThreads(4, [&](std::size_t t) {
    for (std::size_t i = 0; i < kQueries; ++i) {
      std::vector<Neighbor> out;
      SearchStats stats;
      EXPECT_TRUE(fx.sharded->Knn({fx.pool.row((t + i) % fx.pool.rows()),
                                   fx.pool.cols()},
                                  5, &out, &stats, /*parallel=*/true,
                                  /*read_replicas=*/true)
                      .ok());
    }
  });
}

// ------------------------------------------------------- disk substrate

// Concurrent const Searches on a disk-resident index share the PagedFile
// LRU page cache — the read path mutates it, so this is a real writer-
// writer race unless the file locks internally.
TEST(ConcurrencyStressTest, DiskIndexSharedPageCache) {
  const std::size_t kDim = 8;
  FloatMatrix data = TestData(200, kDim);
  DiskAnnOptions opts;
  opts.pq.m = 4;
  DiskAnnIndex index(TempPath("diskann"), opts);
  ASSERT_TRUE(index.Build(data, {}).ok());

  SearchParams p;
  p.k = 5;
  p.ef = 16;
  p.beam_width = 2;
  const std::size_t kQueries = 40 * StressScale();
  RunThreads(4, [&](std::size_t t) {
    for (std::size_t i = 0; i < kQueries; ++i) {
      std::vector<Neighbor> out;
      SearchStats stats;
      EXPECT_TRUE(
          index.Search(data.row((t * kQueries + i) % data.rows()), p, &out,
                       &stats)
              .ok());
    }
  });
}

// Batched and single-page reads race on the same LRU cache: ReadPages and
// ReadBlocks fill several frames per lock hold (block reads copy sub-page
// slices out of shared frames) while ReadPage churns lookups and
// evictions. Content stamps verify no slot is filled from the wrong page.
TEST(ConcurrencyStressTest, PagedFileBatchVsSingleReadChurn) {
  PagedFileOptions opts;
  opts.cache_pages = 8;  // small: forces constant eviction under churn
  auto file = PagedFile::Create(TempPath("pf_batch"), opts);
  ASSERT_TRUE(file.ok());
  const std::size_t ps = (*file)->page_size();
  const std::uint64_t kPages = 32;
  std::vector<std::uint8_t> page(ps);
  for (std::uint64_t p = 0; p < kPages; ++p) {
    std::fill(page.begin(), page.end(), static_cast<std::uint8_t>(p));
    ASSERT_TRUE((*file)->WritePage(p, page.data()).ok());
  }

  const std::size_t kIters = 60 * StressScale();
  const std::size_t kBlock = 196;
  RunThreads(6, [&](std::size_t t) {
    std::vector<std::uint8_t> buf(8 * ps);
    std::vector<std::uint64_t> ids(8);
    for (std::size_t i = 0; i < kIters; ++i) {
      for (std::size_t j = 0; j < ids.size(); ++j) {
        ids[j] = (t * 7 + i * 3 + j) % kPages;  // overlapping runs + dups
      }
      if (t % 3 == 0) {
        ASSERT_TRUE((*file)->ReadPages(ids, buf.data()).ok());
        for (std::size_t j = 0; j < ids.size(); ++j) {
          ASSERT_EQ(buf[j * ps], static_cast<std::uint8_t>(ids[j]));
        }
      } else if (t % 3 == 1) {
        std::vector<std::uint64_t> offsets(ids.size());
        for (std::size_t j = 0; j < ids.size(); ++j) {
          offsets[j] = ids[j] * ps + (i * 97 + j * 389) % (ps - kBlock);
        }
        ASSERT_TRUE((*file)->ReadBlocks(offsets, kBlock, buf.data()).ok());
        for (std::size_t j = 0; j < ids.size(); ++j) {
          ASSERT_EQ(buf[j * kBlock], static_cast<std::uint8_t>(ids[j]));
          ASSERT_EQ(buf[j * kBlock + kBlock - 1],
                    static_cast<std::uint8_t>(ids[j]));
        }
      } else {
        std::uint64_t p = (t * 11 + i) % kPages;
        ASSERT_TRUE((*file)->ReadPage(p, buf.data()).ok());
        ASSERT_EQ(buf[0], static_cast<std::uint8_t>(p));
      }
    }
  });
}

// ------------------------------------------------------------ telemetry

// Registry churn: lookups (mutex), increments (striped relaxed atomics)
// and renders all interleave; the counts come out exact.
TEST(ConcurrencyStressTest, TelemetryRegistryChurn) {
  Registry reg;
  const std::size_t kNames = 8;
  const std::size_t kOps = 300 * StressScale();

  RunThreads(5, [&](std::size_t t) {
    if (t < 4) {  // incrementers: name churn + striped adds
      for (std::size_t i = 0; i < kOps; ++i) {
        std::string name =
            "vdb_stress_total_" + std::to_string(i % kNames);
        reg.GetCounter(name).Inc();
        reg.GetGauge("vdb_stress_level_" + std::to_string(i % kNames))
            .Set(static_cast<std::int64_t>(i));
        if (i % 4 == 0) {
          reg.GetHistogram("vdb_stress_seconds").Observe(1e-6 * double(i));
        }
      }
    } else {  // renderer
      for (std::size_t i = 0; i < 20 * StressScale(); ++i) {
        (void)reg.RenderPrometheus();
        (void)reg.RenderJson();
      }
    }
  });

  std::uint64_t total = 0;
  for (std::size_t n = 0; n < kNames; ++n) {
    total += reg.GetCounter("vdb_stress_total_" + std::to_string(n)).Value();
  }
  EXPECT_EQ(total, 4 * kOps);
}

// Concurrent Inc/Observe while readers take per-metric snapshots: every
// snapshot a reader takes is internally consistent (per-bucket counts
// and sum come from one pass, percentiles stay inside the bucket range)
// and never behind the one it took before, and the totals come out
// exact.
TEST(ConcurrencyStressTest, TelemetryWritersVsSnapshotReaders) {
  Registry reg;
  std::vector<double> bounds = {0.001, 0.01, 0.1, 1.0};
  reg.GetHistogram("vdb_stress_snap_seconds", bounds);
  const std::size_t kOps = 400 * StressScale();

  RunThreads(5, [&](std::size_t t) {
    if (t < 3) {  // writers
      auto& h = reg.GetHistogram("vdb_stress_snap_seconds", bounds);
      auto& c = reg.GetCounter("vdb_stress_snap_total");
      for (std::size_t i = 0; i < kOps; ++i) {
        c.Inc();
        h.Observe(0.0005 * double(i % 40));
      }
    } else {  // snapshot readers
      auto& h = reg.GetHistogram("vdb_stress_snap_seconds", bounds);
      HistogramSnapshot prev = h.Snapshot();
      for (std::size_t i = 0; i < kOps / 4; ++i) {
        HistogramSnapshot cur = h.Snapshot();
        HistogramSnapshot delta = cur.DeltaSince(prev);
        EXPECT_GE(cur.TotalCount(), prev.TotalCount());
        // The delta is never torn across buckets.
        std::uint64_t bucket_sum = 0;
        for (std::uint64_t n : delta.counts) bucket_sum += n;
        EXPECT_EQ(delta.TotalCount(), bucket_sum);
        double p99 = cur.Percentile(99.0);
        EXPECT_GE(p99, 0.0);
        EXPECT_LE(p99, bounds.back());
        (void)reg.RenderPrometheus();
        prev = cur;
      }
    }
  });

  EXPECT_EQ(reg.GetCounter("vdb_stress_snap_total").Value(), 3 * kOps);
  EXPECT_EQ(
      reg.GetHistogram("vdb_stress_snap_seconds", bounds).Snapshot()
          .TotalCount(),
      3 * kOps);
}

// ------------------------------------------------------ windowed views

// Writers drive counters/histograms while one thread rotates the
// boundary ring and others read windowed views and renders. Windowed
// deltas may legitimately lag the live total (traffic before a boundary
// belongs behind it) but must never exceed it, and the underlying
// registry must stay exact.
TEST(ConcurrencyStressTest, WindowedRegistryTickReadChurn) {
  Registry reg;
  WindowedRegistry::Options opts;
  opts.width = std::chrono::milliseconds(1);
  opts.slots = 64;
  WindowedRegistry win(reg, opts);
  const std::size_t kOps = 300 * StressScale();
  const double kWindows[] = {0.004, 0.016};
  std::atomic<bool> done{false};

  RunThreads(6, [&](std::size_t t) {
    if (t < 3) {  // writers
      for (std::size_t i = 0; i < kOps; ++i) {
        reg.GetCounter("vdb_stress_win_total").Inc();
        reg.GetHistogram("vdb_stress_win_seconds")
            .Observe(1e-5 * double(i % 100));
      }
      if (t == 0) done.store(true);
    } else if (t == 3) {  // ticker (real clock, 1ms slots rotate fast)
      while (!done.load()) win.Tick();
    } else {  // windowed readers
      while (!done.load()) {
        auto view = win.CounterOver("vdb_stress_win_total", kWindows[0]);
        EXPECT_LE(view.delta, reg.GetCounter("vdb_stress_win_total").Value());
        auto hist = win.HistogramOver("vdb_stress_win_seconds", kWindows[1]);
        EXPECT_GE(hist.seconds, 0.0);
        (void)win.RenderPrometheus(kWindows);
        (void)win.RenderJson(kWindows);
      }
    }
  });

  // The registry under the ring stayed exact.
  EXPECT_EQ(reg.GetCounter("vdb_stress_win_total").Value(), 3 * kOps);
  EXPECT_EQ(
      reg.GetHistogram("vdb_stress_win_seconds").Snapshot().TotalCount(),
      3 * kOps);
  // A fresh, never-ticked ring sees everything (empty baseline).
  WindowedRegistry fresh(reg, opts);
  EXPECT_EQ(fresh.CounterOver("vdb_stress_win_total", 10.0).delta, 3 * kOps);
}

// ------------------------------------------------------ flight recorder

// Concurrent two-phase admissions racing board readers: capacity and
// the seq contract must hold no matter how NoteCompletion/Record pairs
// interleave with WorstFirst/RenderJson/Clear.
TEST(ConcurrencyStressTest, FlightRecorderAdmissionVsReaders) {
  FlightRecorder fr(/*capacity=*/4, /*stale_horizon=*/64);
  const std::size_t kOps = 200 * StressScale();

  RunThreads(6, [&](std::size_t t) {
    if (t < 4) {  // completing queries
      for (std::size_t i = 0; i < kOps; ++i) {
        bool failed = (i % 17) == 0;
        double ms = 0.1 * double((i * 7 + t) % 50);
        std::uint64_t seq = fr.NoteCompletion(failed, ms);
        if (seq != 0) {
          FlightRecord rec;
          rec.seq = seq;
          rec.query = "SELECT stress " + std::to_string(i);
          rec.tenant = "t" + std::to_string(t);
          rec.verdict = failed ? "DEADLINE_EXCEEDED" : "OK";
          rec.failed = failed;
          rec.total_ms = ms;
          fr.Record(std::move(rec));
        }
      }
    } else if (t == 4) {  // readers
      for (std::size_t i = 0; i < kOps / 2; ++i) {
        auto worst = fr.WorstFirst();
        EXPECT_LE(worst.size(), 4u);
        // Worst-first order: failures strictly before successes.
        bool seen_success = false;
        for (const auto& r : worst) {
          if (!r.failed) seen_success = true;
          else EXPECT_FALSE(seen_success);
        }
        std::string json = fr.RenderJson();
        ASSERT_FALSE(json.empty());
        EXPECT_EQ(json.front(), '[');
        EXPECT_EQ(json.back(), ']');
      }
    } else {  // occasional operator Clear
      for (std::size_t i = 0; i < 5; ++i) {
        std::this_thread::yield();
        fr.Clear();
      }
    }
  });

  EXPECT_LE(fr.WorstFirst().size(), 4u);
  fr.Clear();
  EXPECT_EQ(fr.RenderJson(), "[]");
}

// ------------------------------------------------------------ failpoints

// Arm/disarm/fire churn across threads: the armed-count fast path is a
// relaxed atomic read that races (benignly, by design) with the mutexed
// registry — TSan confirms the fast path never touches unguarded state.
TEST(ConcurrencyStressTest, FailpointArmFireChurn) {
  auto& fps = Failpoints::Instance();
  const std::size_t kOps = 200 * StressScale();
  const char* kNames[] = {"stress.fp.a", "stress.fp.b", "stress.fp.c"};

  RunThreads(6, [&](std::size_t t) {
    if (t < 2) {  // armers: rotate specs, occasionally via text
      for (std::size_t i = 0; i < kOps; ++i) {
        const char* name = kNames[i % 3];
        if (i % 5 == 0) {
          EXPECT_TRUE(fps.Arm(name, "every:2+times:4").ok());
        } else {
          fps.Arm(name, FailpointSpec{.probability = 0.5});
        }
        if (i % 7 == 0) (void)fps.Disarm(name);
      }
    } else if (t < 5) {  // firers: the production fast path
      for (std::size_t i = 0; i < kOps; ++i) {
        (void)FailpointFires(kNames[i % 3]);
        (void)FailpointFires("stress.fp.indexed", i % 4);
        (void)FailpointDelayMs("stress.fp.delay", i % 4);
      }
    } else {  // introspector
      for (std::size_t i = 0; i < kOps / 4; ++i) {
        (void)fps.ArmedNames();
        (void)fps.Evaluations("stress.fp.a");
        (void)fps.Triggers("stress.fp.b");
        (void)Failpoints::AnyArmed();
      }
    }
  });

  for (const char* name : kNames) (void)fps.Disarm(name);
  (void)fps.Disarm("stress.fp.indexed");
  (void)fps.Disarm("stress.fp.delay");
  EXPECT_FALSE(FailpointFires("stress.fp.a"));
}

// ------------------------------------------------- admission controller

// Tenant-map churn: workers admit/complete across a rotating tenant set
// while an evictor drops idle tenants out from under them and readers
// walk TenantStatsSnapshot — the create/evict/re-create lifecycle the
// server's housekeeping runs against live admission traffic. The net
// suites drive steady tenant sets only; this is the map-shape churn.
TEST(ConcurrencyStressTest, AdmissionTenantMapChurn) {
  net::AdmissionOptions opts;
  opts.default_quota.tokens_per_sec = 1e6;  // rate never the limiter here
  opts.default_quota.burst = 1e6;
  opts.default_quota.max_in_flight = 8;
  opts.max_queue_depth = 1 << 20;
  opts.breaker_threshold = 0;
  net::AdmissionController ac(opts);
  using Clock = net::AdmissionController::Clock;
  const auto t0 = Clock::now();
  const std::size_t kOps = 200 * StressScale();
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> evicted{0};

  RunThreads(8, [&](std::size_t t) {
    if (t < 5) {  // admitting workers over a rotating tenant-name set
      for (std::size_t i = 0; i < kOps; ++i) {
        std::string tenant = "churn-" + std::to_string((i * 3 + t) % 16);
        auto now = t0 + std::chrono::microseconds(i);
        if (ac.TryAdmit(tenant, now).verdict == net::AdmitVerdict::kAdmit) {
          admitted.fetch_add(1, std::memory_order_relaxed);
          ac.OnStart();
          ac.OnComplete(tenant, true, now);
        }
      }
    } else if (t < 7) {  // evictors: idle_for=0 drops any quiescent tenant
      for (std::size_t i = 0; i < kOps / 4; ++i) {
        evicted.fetch_add(
            ac.EvictIdleTenants(t0 + std::chrono::seconds(1),
                                std::chrono::milliseconds(0)),
            std::memory_order_relaxed);
        std::this_thread::yield();
      }
    } else {  // stats readers
      for (std::size_t i = 0; i < kOps / 4; ++i) {
        for (const auto& ts : ac.TenantStatsSnapshot()) {
          // in_flight never exceeds the quota, evictions notwithstanding.
          EXPECT_LE(ts.in_flight, opts.default_quota.max_in_flight);
        }
        (void)ac.InFlight();
        (void)ac.QueueDepth();
      }
    }
  });

  // Every admit was completed, so accounting must balance whatever the
  // eviction interleaving was: nothing in flight, nothing queued.
  EXPECT_EQ(ac.InFlight(), 0u);
  EXPECT_EQ(ac.QueueDepth(), 0u);
  EXPECT_GT(admitted.load(), 0u);
  // A final sweep empties the map: no tenant has in-flight work left.
  (void)ac.EvictIdleTenants(t0 + std::chrono::seconds(2),
                            std::chrono::milliseconds(0));
  EXPECT_TRUE(ac.TenantStatsSnapshot().empty());
}

}  // namespace
}  // namespace vdb
