// Tests for the telemetry plane: metric primitives (counter/gauge/
// histogram stripes), registry renders (Prometheus text + JSON), the
// per-query trace span tree, and the fault-injection
// integration (failpoint fires and breaker trips must move counters).

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/synthetic.h"
#include "core/telemetry.h"
#include "db/distributed.h"
#include "exec/trace.h"
#include "index/flat.h"
#include "storage/wal.h"

namespace vdb {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_tel_" + tag + "_" +
         std::to_string(::getpid());
}

// ------------------------------------------------------------- primitives

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), std::uint64_t(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(5);
  g.Add(-8);
  EXPECT_EQ(g.Value(), -3);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  const double bounds[] = {1.0, 2.0, 4.0};
  Histogram h(bounds);
  h.Observe(1.0);  // on the edge: belongs to bucket le="1"
  h.Observe(1.5);
  h.Observe(2.0);  // on the edge: le="2"
  h.Observe(9.0);  // +Inf overflow
  auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 13.5);
}

TEST(HistogramTest, PercentileInterpolatesInsideBucket) {
  const double bounds[] = {10.0, 20.0, 30.0, 40.0};
  Histogram h(bounds);
  EXPECT_EQ(h.Percentile(50), 0.0);  // empty
  for (int i = 0; i < 10; ++i) h.Observe(5.0);  // all in (0, 10]
  EXPECT_DOUBLE_EQ(h.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 10.0);
  // Overflow bucket has no upper edge: percentile reports its lower edge.
  Histogram overflow(bounds);
  for (int i = 0; i < 4; ++i) overflow.Observe(100.0);
  EXPECT_DOUBLE_EQ(overflow.Percentile(99), 40.0);
}

TEST(HistogramTest, ConcurrentObservationsKeepExactCount) {
  Histogram h(Histogram::LatencyBoundsSeconds());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(1e-3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), std::uint64_t(kThreads) * kPerThread);
  EXPECT_NEAR(h.Sum(), kThreads * kPerThread * 1e-3, 1e-6);
}

// ---------------------------------------------------------------- renders

TEST(RegistryTest, PrometheusGoldenRender) {
  Registry reg;
  reg.GetCounter("events_total").Inc(2);
  reg.GetCounter("fp_total{name=\"x\"}").Inc();
  reg.GetGauge("lvl").Set(-3);
  const double bounds[] = {0.5, 1.0};
  Histogram& h = reg.GetHistogram("lat_seconds", bounds);
  h.Observe(0.25);
  h.Observe(0.75);
  EXPECT_EQ(reg.RenderPrometheus(),
            "# TYPE events_total counter\n"
            "events_total 2\n"
            "# TYPE fp_total counter\n"
            "fp_total{name=\"x\"} 1\n"
            "# TYPE lvl gauge\n"
            "lvl -3\n"
            "# TYPE lat_seconds histogram\n"
            "lat_seconds_bucket{le=\"0.5\"} 1\n"
            "lat_seconds_bucket{le=\"1\"} 2\n"
            "lat_seconds_bucket{le=\"+Inf\"} 2\n"
            "lat_seconds_sum 1\n"
            "lat_seconds_count 2\n");
}

TEST(RegistryTest, JsonGoldenRender) {
  Registry reg;
  reg.GetCounter("events_total").Inc(2);
  reg.GetGauge("lvl").Set(-3);
  const double bounds[] = {0.5, 1.0};
  Histogram& h = reg.GetHistogram("lat_seconds", bounds);
  h.Observe(0.25);
  h.Observe(0.75);
  EXPECT_EQ(reg.RenderJson(),
            "{\"counters\":{\"events_total\":2},"
            "\"gauges\":{\"lvl\":-3},"
            "\"histograms\":{\"lat_seconds\":{\"count\":2,\"sum\":1,"
            "\"p50\":0.5,\"p95\":0.95,\"p99\":0.99}}}");
}

TEST(RegistryTest, SameNameReturnsSameMetric) {
  Registry reg;
  Counter& a = reg.GetCounter("c");
  Counter& b = reg.GetCounter("c");
  EXPECT_EQ(&a, &b);
  a.Inc(7);
  EXPECT_EQ(b.Value(), 7u);
}

// ------------------------------------------------------------- span trees

TEST(QueryTraceTest, SpansNestByOpenOrder) {
  QueryTrace trace;
  std::size_t root = trace.BeginSpan("query");
  std::size_t child = trace.BeginSpan("parse");
  trace.Note(child, "tokens", "12");
  trace.EndSpan(child);
  std::size_t search = trace.BeginSpan("index_search");
  SearchStats stats;
  stats.distance_comps = 99;
  trace.RecordStats(search, stats);
  trace.EndSpan(search);
  trace.EndSpan(root);

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].depth, 0);
  EXPECT_EQ(trace.spans()[1].depth, 1);
  EXPECT_EQ(trace.spans()[2].depth, 1);
  EXPECT_FALSE(trace.spans()[0].open);
  EXPECT_TRUE(trace.spans()[2].has_stats);
  EXPECT_EQ(trace.spans()[2].stats.distance_comps, 99u);

  std::string render = trace.Render();
  EXPECT_NE(render.find("query"), std::string::npos);
  EXPECT_NE(render.find("parse"), std::string::npos);
  EXPECT_NE(render.find("tokens=12"), std::string::npos);
  EXPECT_NE(render.find("dist=99"), std::string::npos);
  EXPECT_NE(render.find("ms"), std::string::npos);
}

TEST(QueryTraceTest, EndSpanClosesForgottenChildren) {
  QueryTrace trace;
  std::size_t root = trace.BeginSpan("root");
  trace.BeginSpan("leaked");
  trace.EndSpan(root);  // must close "leaked" too
  for (const auto& span : trace.spans()) EXPECT_FALSE(span.open);
}

TEST(QueryTraceTest, NullTraceScopeIsNoOp) {
  TraceScope scope(nullptr, "nothing");
  scope.Note("k", "v");
  scope.RecordStats(SearchStats{});
  scope.End();  // must not crash
}

// ------------------------------------------- instrumented-subsystem moves

TEST(InstrumentationTest, IndexSearchObservesLatencyAndAddsStats) {
  auto data = GaussianClusters({500, 8, 11, 8});
  FlatIndex index;
  ASSERT_TRUE(index.Build(data, {}).ok());

  Registry& reg = Registry::Global();
  const std::uint64_t lat_before =
      reg.GetHistogram("vdb_index_search_seconds").Count();

  SearchParams p;
  p.k = 5;
  std::vector<Neighbor> out;
  SearchStats stats;
  ASSERT_TRUE(index.Search(data.row(0), p, &out, &stats).ok());
  EXPECT_EQ(reg.GetHistogram("vdb_index_search_seconds").Count(),
            lat_before + 1);
  EXPECT_GT(stats.distance_comps, 0u);

  // A caller's stats accumulate across searches; the span records only
  // the search it wraps.
  const SearchStats first = stats;
  QueryTrace trace;
  p.trace = &trace;
  ASSERT_TRUE(index.Search(data.row(1), p, &out, &stats).ok());
  EXPECT_EQ(stats.distance_comps, 2 * first.distance_comps);
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].stats.distance_comps, first.distance_comps);
}

TEST(InstrumentationTest, WalFailpointMovesFailureCounters) {
  Failpoints::Instance().DisarmAll();
  Registry& reg = Registry::Global();
  const std::uint64_t arms_before =
      reg.GetCounter("vdb_failpoint_arms_total").Value();
  const std::uint64_t wal_fail_before =
      reg.GetCounter("vdb_wal_append_failures_total").Value();
  const std::uint64_t labeled_before =
      reg.GetCounter("vdb_failpoint_fires_total{name=\"wal.append.fail\"}")
          .Value();

  std::string path = TempPath("wal");
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  Failpoints::Instance().Arm("wal.append.fail", FailpointSpec{.times = 1});
  EXPECT_FALSE((*wal)->AppendDelete(1).ok());
  Failpoints::Instance().DisarmAll();

  EXPECT_GE(reg.GetCounter("vdb_failpoint_arms_total").Value(),
            arms_before + 1);
  EXPECT_EQ(reg.GetCounter("vdb_wal_append_failures_total").Value(),
            wal_fail_before + 1);
  EXPECT_EQ(
      reg.GetCounter("vdb_failpoint_fires_total{name=\"wal.append.fail\"}")
          .Value(),
      labeled_before + 1);
  std::remove(path.c_str());
}

TEST(InstrumentationTest, WalCountsAppendsAndFsyncs) {
  Failpoints::Instance().DisarmAll();
  Registry& reg = Registry::Global();
  Counter& appends = reg.GetCounter("vdb_wal_appends_total");
  Histogram& append_latency = reg.GetHistogram("vdb_wal_append_seconds");
  Counter& fsyncs = reg.GetCounter("vdb_wal_fsyncs_total");
  Counter& fsync_failures = reg.GetCounter("vdb_wal_fsync_failures_total");
  Histogram& fsync_latency = reg.GetHistogram("vdb_wal_fsync_seconds");

  std::string path = TempPath("wal_counts");
  std::remove(path.c_str());
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  const std::uint64_t appends_before = appends.Value();
  const std::uint64_t append_lat_before = append_latency.Count();
  const std::uint64_t fsyncs_before = fsyncs.Value();
  const std::uint64_t fsync_fail_before = fsync_failures.Value();
  const std::uint64_t fsync_lat_before = fsync_latency.Count();

  for (VectorId id = 1; id <= 3; ++id) {
    ASSERT_TRUE((*wal)->AppendDelete(id).ok());
  }
  ASSERT_TRUE((*wal)->Sync().ok());
  Failpoints::Instance().Arm("wal.sync.fail", FailpointSpec{.times = 1});
  EXPECT_FALSE((*wal)->Sync().ok());
  Failpoints::Instance().DisarmAll();

  EXPECT_EQ(appends.Value(), appends_before + 3);
  EXPECT_EQ(append_latency.Count(), append_lat_before + 3);
  EXPECT_EQ(fsyncs.Value(), fsyncs_before + 2);
  EXPECT_EQ(fsync_failures.Value(), fsync_fail_before + 1);
  EXPECT_EQ(fsync_latency.Count(), fsync_lat_before + 2);
  std::remove(path.c_str());
}

TEST(InstrumentationTest, ShardFailuresFillStatsAndTripTheBreaker) {
  Failpoints::Instance().DisarmAll();
  Registry& reg = Registry::Global();
  const std::uint64_t trips_before =
      reg.GetCounter("vdb_shard_breaker_trips_total").Value();
  const std::uint64_t probes_before =
      reg.GetHistogram("vdb_shard_probe_seconds").Count();

  ShardedOptions opts;
  opts.num_shards = 2;
  opts.collection.dim = 8;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_probes = 4;
  auto sharded = ShardedCollection::Create(opts);
  ASSERT_TRUE(sharded.ok());
  auto data = GaussianClusters({100, 8, 13, 4});
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE((*sharded)->Insert(i, data.row_view(i)).ok());
  }

  // Shard 0 fails twice (tripping the breaker), then sits the third
  // query out; shard 1 answers all three.
  Failpoints::Instance().Arm("shard.knn.fail.0");
  std::vector<Neighbor> out;
  SearchStats stats;
  for (int q = 0; q < 3; ++q) {
    ASSERT_TRUE(
        (*sharded)->Knn(data.row_view(0), 5, &out, &stats).ok());
  }
  Failpoints::Instance().DisarmAll();

  EXPECT_GE(stats.shards_failed, 2u);
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(reg.GetCounter("vdb_shard_breaker_trips_total").Value(),
            trips_before + 1);
  // Five probes ran: two failed ones on shard 0, three on shard 1.
  EXPECT_EQ(reg.GetHistogram("vdb_shard_probe_seconds").Count(),
            probes_before + 5);
  EXPECT_GT((*sharded)->BreakerCooldownRemaining(0), 0u);
  (*sharded)->ResetBreaker(0);
  EXPECT_EQ((*sharded)->BreakerCooldownRemaining(0), 0u);
}

}  // namespace
}  // namespace vdb
