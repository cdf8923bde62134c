// Tests for the flight-recorder observability plane: histogram
// snapshots and their deltas, windowed registry views (rotation,
// idle decay, clock steps, young registries), golden windowed renders
// with window label suffixes, and the flight recorder's two-phase
// badness gate, eviction, and JSON dump.

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/telemetry.h"
#include "core/telemetry_window.h"
#include "exec/flight_recorder.h"

namespace vdb {
namespace {

using Clock = WindowedRegistry::Clock;
using std::chrono::milliseconds;
using std::chrono::seconds;

// A nonzero epoch: Clock::time_point{} is the WindowedRegistry's
// "never ticked" sentinel, so tests inject times well away from it.
Clock::time_point T0() { return Clock::time_point{} + std::chrono::hours(1); }

// --------------------------------------------------- histogram snapshots

TEST(HistogramSnapshotTest, DeltaSinceSubtractsPerBucket) {
  const double bounds[] = {1.0, 2.0};
  Histogram h(bounds);
  h.Observe(0.5);
  h.Observe(1.5);
  HistogramSnapshot before = h.Snapshot();
  h.Observe(0.5);
  h.Observe(9.0);
  HistogramSnapshot delta = h.Snapshot().DeltaSince(before);
  ASSERT_EQ(delta.counts.size(), 3u);
  EXPECT_EQ(delta.counts[0], 1u);  // the second 0.5
  EXPECT_EQ(delta.counts[1], 0u);
  EXPECT_EQ(delta.counts[2], 1u);  // the overflow 9.0
  EXPECT_EQ(delta.TotalCount(), 2u);
  EXPECT_DOUBLE_EQ(delta.sum, 9.5);
}

TEST(HistogramSnapshotTest, DeltaSinceClampsWhenBaselineIsAhead) {
  // A baseline taken after the live snapshot has more counts than it;
  // deltas clamp to zero instead of wrapping.
  const double bounds[] = {1.0};
  Histogram h(bounds);
  HistogramSnapshot live = h.Snapshot();
  h.Observe(0.5);
  HistogramSnapshot delta = live.DeltaSince(h.Snapshot());
  EXPECT_EQ(delta.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(delta.sum, 0.0);
}

TEST(HistogramSnapshotTest, PercentileMatchesLiveHistogram) {
  Histogram h(Histogram::LatencyBoundsSeconds());
  for (int i = 0; i < 100; ++i) h.Observe(1e-3);
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(50), h.Percentile(50));
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(99), h.Percentile(99));
}

TEST(RegistrySnapTest, OneCallReturnsEverything) {
  Registry reg;
  reg.GetCounter("a_total").Inc(3);
  reg.GetGauge("g").Set(-2);
  const double bounds[] = {1.0};
  reg.GetHistogram("l_seconds", bounds).Observe(0.5);
  Registry::Snapshot snap = reg.Snap();
  EXPECT_EQ(snap.counters.at("a_total"), 3u);
  EXPECT_EQ(snap.gauges.at("g"), -2);
  EXPECT_EQ(snap.histograms.at("l_seconds").TotalCount(), 1u);
}

// ----------------------------------------------------- windowed counters

TEST(WindowedRegistryTest, CounterDeltaExcludesPreBoundaryTraffic) {
  Registry reg;
  WindowedRegistry win(reg);
  auto t0 = T0();
  win.Tick(t0);  // seed
  reg.GetCounter("events_total").Inc(5);
  win.Tick(t0 + seconds(1));  // boundary captures 5
  reg.GetCounter("events_total").Inc(3);
  auto view = win.CounterOver("events_total", 10.0, t0 + seconds(2));
  EXPECT_EQ(view.delta, 3u);
  // Registry younger than the window: the actual covered span is
  // reported, keeping the rate honest.
  EXPECT_DOUBLE_EQ(view.seconds, 1.0);
  EXPECT_DOUBLE_EQ(view.RatePerSec(), 3.0);
}

TEST(WindowedRegistryTest, IdleWindowsDecayToZero) {
  Registry reg;
  WindowedRegistry win(reg);
  auto t0 = T0();
  win.Tick(t0);
  reg.GetCounter("events_total").Inc(100);
  for (int s = 1; s <= 15; ++s) win.Tick(t0 + seconds(s));
  auto view = win.CounterOver("events_total", 10.0, t0 + seconds(15));
  EXPECT_EQ(view.delta, 0u);
  EXPECT_DOUBLE_EQ(view.RatePerSec(), 0.0);
}

TEST(WindowedRegistryTest, UnknownNameYieldsEmptyView) {
  Registry reg;
  WindowedRegistry win(reg);
  win.Tick(T0());
  auto view = win.CounterOver("never_registered_total", 10.0, T0());
  EXPECT_EQ(view.delta, 0u);
  EXPECT_DOUBLE_EQ(view.RatePerSec(), 0.0);
}

TEST(WindowedRegistryTest, MetricFirstSeenMidRingAttributesToNow) {
  Registry reg;
  WindowedRegistry win(reg);
  auto t0 = T0();
  for (int s = 0; s <= 20; ++s) win.Tick(t0 + seconds(s));
  // Metric born after 20 boundaries exist: absent from the baseline, so
  // its whole lifetime lands in the current window.
  reg.GetCounter("late_total").Inc(7);
  auto view = win.CounterOver("late_total", 10.0, t0 + seconds(20));
  EXPECT_EQ(view.delta, 7u);
}

TEST(WindowedRegistryTest, ClockStepBackwardResetsRing) {
  Registry reg;
  WindowedRegistry win(reg);
  auto t0 = T0();
  reg.GetCounter("events_total").Inc(50);
  for (int s = 0; s <= 5; ++s) win.Tick(t0 + seconds(s));
  // Step the injected clock 3s backward (more than one width): history
  // is no longer comparable, so the ring drops and re-seeds.
  win.Tick(t0 + seconds(2));
  auto view = win.CounterOver("events_total", 10.0,
                              t0 + seconds(2) + milliseconds(500));
  // Empty ring: baseline is the reset origin with an empty snapshot, so
  // the full lifetime shows, over the short span since the reset.
  EXPECT_EQ(view.delta, 50u);
  EXPECT_DOUBLE_EQ(view.seconds, 0.5);
}

TEST(WindowedRegistryTest, LongIdleGapSkipsAheadInsteadOfLooping) {
  Registry reg;
  WindowedRegistry win(reg, WindowedRegistry::Options{milliseconds(1000), 10});
  auto t0 = T0();
  win.Tick(t0);
  reg.GetCounter("events_total").Inc(9);
  win.Tick(t0 + seconds(1));
  // An hour-long gap with 10 slots: Tick materializes at most ~slots
  // boundaries (this would hang long before failing if it looped
  // per-missed-edge). Old traffic has aged out afterwards.
  win.Tick(t0 + seconds(3600));
  auto view = win.CounterOver("events_total", 5.0, t0 + seconds(3600));
  EXPECT_EQ(view.delta, 0u);
}

TEST(WindowedRegistryTest, HistogramWindowIsolatesRecentDistribution) {
  Registry reg;
  WindowedRegistry win(reg);
  const double bounds[] = {0.01, 1.0};
  Histogram& h = reg.GetHistogram("lat_seconds", bounds);
  auto t0 = T0();
  win.Tick(t0);
  for (int i = 0; i < 10; ++i) h.Observe(0.001);  // old, fast
  win.Tick(t0 + seconds(1));
  for (int i = 0; i < 10; ++i) h.Observe(0.1);  // recent, slow
  auto view = win.HistogramOver("lat_seconds", 10.0, t0 + seconds(2));
  EXPECT_EQ(view.Count(), 10u);  // the fast batch aged behind the boundary
  // All in-window observations sit in the (0.01, 1.0] bucket, so the
  // windowed p50 interpolates inside it — above the lifetime p50, which
  // still sees the ten 1ms observations (half the population, pinning
  // lifetime p50 at the first bucket's 0.01 edge).
  EXPECT_GT(view.delta.Percentile(50), 0.01);
  EXPECT_LE(h.Percentile(50), 0.01);
  EXPECT_GT(view.delta.Percentile(50), h.Percentile(50));
}

// --------------------------------------------------------- golden renders

// One deterministic scenario shared by both render goldens: 5 (then 2)
// events, one pre-boundary labeled fire, one in-window observation.
struct RenderFixture {
  Registry reg;
  WindowedRegistry win{reg};
  Clock::time_point now;

  RenderFixture() {
    auto t0 = T0();
    win.Tick(t0);
    reg.GetCounter("events_total").Inc(5);
    reg.GetCounter("fp_total{name=\"x\"}").Inc();
    const double bounds[] = {0.5, 1.0};
    win.Tick(t0 + seconds(1));
    reg.GetCounter("events_total").Inc(2);
    reg.GetHistogram("lat_seconds", bounds).Observe(0.25);
    now = t0 + seconds(11);  // baseline = the t0+1s boundary, span 10s
  }
};

TEST(WindowedRenderTest, PrometheusGoldenWithWindowLabels) {
  RenderFixture f;
  const double windows[] = {10.0};
  EXPECT_EQ(f.win.RenderPrometheus(windows, f.now),
            "events_total:rate{window=\"10s\"} 0.2\n"
            "fp_total:rate{name=\"x\",window=\"10s\"} 0\n"
            "lat_seconds:rate{window=\"10s\"} 0.1\n"
            "lat_seconds:p50{window=\"10s\"} 0.25\n"
            "lat_seconds:p95{window=\"10s\"} 0.475\n"
            "lat_seconds:p99{window=\"10s\"} 0.495\n");
}

TEST(WindowedRenderTest, JsonGoldenWithWindowKeys) {
  RenderFixture f;
  const double windows[] = {10.0};
  EXPECT_EQ(f.win.RenderJson(windows, f.now),
            "{\"windows\":{\"10s\":{\"counters\":{"
            "\"events_total\":{\"delta\":2,\"rate\":0.2},"
            "\"fp_total{name=\\\"x\\\"}\":{\"delta\":0,\"rate\":0}},"
            "\"histograms\":{\"lat_seconds\":{\"count\":1,\"rate\":0.1,"
            "\"p50\":0.25,\"p95\":0.475,\"p99\":0.495}}}}}");
}

TEST(WindowedRenderTest, MultipleWindowsRenderInOrder) {
  RenderFixture f;
  const double windows[] = {10.0, 60.0};
  std::string out = f.win.RenderPrometheus(windows, f.now);
  std::size_t w10 = out.find("events_total:rate{window=\"10s\"}");
  std::size_t w60 = out.find("events_total:rate{window=\"60s\"}");
  ASSERT_NE(w10, std::string::npos);
  ASSERT_NE(w60, std::string::npos);
  EXPECT_LT(w10, w60);
}

// -------------------------------------------------- concurrency smoke
//
// Writers hammer a counter and histogram while a reader ticks and
// renders; TSan (stress tier) proves the lock pairing, and the final
// quiesced read proves nothing was lost.

TEST(WindowedRegistryTest, ConcurrentTickAndReadKeepExactTotals) {
  Registry reg;
  WindowedRegistry win(reg);
  Counter& c = reg.GetCounter("hammer_total");
  Histogram& h =
      reg.GetHistogram("hammer_seconds", Histogram::LatencyBoundsSeconds());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Inc();
        h.Observe(1e-4);
      }
    });
  }
  auto t0 = T0();
  for (int s = 0; s < 50; ++s) {
    win.Tick(t0 + milliseconds(100 * s));
    const double windows[] = {1.0};
    (void)win.RenderJson(windows, t0 + milliseconds(100 * s));
  }
  for (auto& t : threads) t.join();
  const std::uint64_t total = std::uint64_t(kThreads) * kPerThread;
  // The racing ring's boundaries captured partial counts (by design:
  // traffic before a boundary belongs behind it), so its widest view is
  // bounded by the true total…
  auto raced = win.CounterOver("hammer_total", 3600.0,
                               t0 + milliseconds(5000));
  EXPECT_LE(raced.delta, total);
  // …while exactness shows through the snapshot path and through a
  // fresh windowed view whose (empty) baseline predates all traffic.
  Registry::Snapshot snap = reg.Snap();
  EXPECT_EQ(snap.counters.at("hammer_total"), total);
  EXPECT_EQ(snap.histograms.at("hammer_seconds").TotalCount(), total);
  WindowedRegistry fresh(reg);
  EXPECT_EQ(fresh.CounterOver("hammer_total", 3600.0, t0).delta, total);
}

// --------------------------------------------------------- flight recorder

FlightRecord MakeRecord(std::uint64_t seq, double total_ms, bool failed,
                        const std::string& query = "SELECT knn(3)") {
  FlightRecord r;
  r.seq = seq;
  r.query = query;
  r.verdict = failed ? "DEADLINE_EXCEEDED" : "OK";
  r.failed = failed;
  r.total_ms = total_ms;
  return r;
}

TEST(FlightRecorderTest, TwoPhaseGateAdmitsUntilFullThenByBadness) {
  FlightRecorder fr(/*capacity=*/2, /*stale_horizon=*/1000);
  std::uint64_t s1 = fr.NoteCompletion(false, 10.0);
  ASSERT_NE(s1, 0u);
  fr.Record(MakeRecord(s1, 10.0, false));
  std::uint64_t s2 = fr.NoteCompletion(false, 20.0);
  ASSERT_NE(s2, 0u);
  fr.Record(MakeRecord(s2, 20.0, false));
  // Board full at {10ms, 20ms}: a 5ms success is not board-worthy.
  EXPECT_EQ(fr.NoteCompletion(false, 5.0), 0u);
  // A 15ms success beats the 10ms entry.
  std::uint64_t s4 = fr.NoteCompletion(false, 15.0);
  ASSERT_NE(s4, 0u);
  fr.Record(MakeRecord(s4, 15.0, false));
  auto worst = fr.WorstFirst();
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_DOUBLE_EQ(worst[0].total_ms, 20.0);
  EXPECT_DOUBLE_EQ(worst[1].total_ms, 15.0);
}

TEST(FlightRecorderTest, FailuresOutrankSlowSuccesses) {
  FlightRecorder fr(/*capacity=*/2, /*stale_horizon=*/1000);
  std::uint64_t s1 = fr.NoteCompletion(false, 500.0);
  fr.Record(MakeRecord(s1, 500.0, false));
  std::uint64_t s2 = fr.NoteCompletion(true, 1.0);
  ASSERT_NE(s2, 0u);
  fr.Record(MakeRecord(s2, 1.0, true));
  auto worst = fr.WorstFirst();
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_TRUE(worst[0].failed);  // a fast failure beats a slow success
  EXPECT_DOUBLE_EQ(worst[0].total_ms, 1.0);
}

TEST(FlightRecorderTest, EntriesAgeOutAfterStaleHorizon) {
  FlightRecorder fr(/*capacity=*/4, /*stale_horizon=*/10);
  std::uint64_t s1 = fr.NoteCompletion(true, 99.0);
  fr.Record(MakeRecord(s1, 99.0, true));
  // Ten fast completions later the disaster is stale and evicted, so a
  // modest query makes the board again.
  for (int i = 0; i < 10; ++i) (void)fr.NoteCompletion(false, 0.1);
  std::uint64_t s2 = fr.NoteCompletion(false, 1.0);
  ASSERT_NE(s2, 0u);
  fr.Record(MakeRecord(s2, 1.0, false));
  auto worst = fr.WorstFirst();
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_DOUBLE_EQ(worst[0].total_ms, 1.0);
}

TEST(FlightRecorderTest, QueryTextIsTruncated) {
  FlightRecorder fr;
  std::string huge(4096, 'q');
  std::uint64_t s = fr.NoteCompletion(true, 1.0);
  fr.Record(MakeRecord(s, 1.0, true, huge));
  auto worst = fr.WorstFirst();
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_LE(worst[0].query.size(), FlightRecorder::kMaxQueryBytes + 3);
  EXPECT_EQ(worst[0].query.substr(worst[0].query.size() - 3), "...");
}

TEST(FlightRecorderTest, RenderJsonEscapesAndOrdersWorstFirst) {
  FlightRecorder fr(/*capacity=*/2, /*stale_horizon=*/1000);
  std::uint64_t s1 = fr.NoteCompletion(false, 3.0);
  FlightRecord r1 = MakeRecord(s1, 3.0, false, "SELECT \"quoted\"\nline2");
  r1.tenant = "acme";
  r1.stages = "parse=0.004ms";
  fr.Record(r1);
  std::uint64_t s2 = fr.NoteCompletion(true, 1.0);
  FlightRecord r2 = MakeRecord(s2, 1.0, true);
  r2.has_deadline = true;
  r2.deadline_slack_ms = -4.5;
  fr.Record(r2);
  std::string json = fr.RenderJson();
  // Worst (the failure) renders first.
  EXPECT_LT(json.find("DEADLINE_EXCEEDED"), json.find("\"OK\""));
  EXPECT_NE(json.find("\\\"quoted\\\"\\nline2"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_slack_ms\":-4.5"), std::string::npos);
  // Untimed queries render null slack, not a bogus number.
  EXPECT_NE(json.find("\"deadline_slack_ms\":null"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"acme\""), std::string::npos);
  fr.Clear();
  EXPECT_EQ(fr.RenderJson(), "[]");
}

// Regression for the two-phase handoff audit (the board thresholds —
// capacity and stale horizon — are read on both sides of the lock):
// they are `const` members set once at construction, so there is no
// re-read window to close; what *can* go stale between NoteCompletion
// and Record is the board itself, and Record must re-judge under the
// lock. A candidate admitted against an old board is dropped when the
// board improved past it in the meantime.
TEST(FlightRecorderTest, RecordRejudgesStaleAdmissionUnderTheLock) {
  FlightRecorder fr(/*capacity=*/1, /*stale_horizon=*/1000);
  // Phase 1 for a 10ms query: board empty, admitted.
  std::uint64_t slow_seq = fr.NoteCompletion(false, 10.0);
  ASSERT_NE(slow_seq, 0u);
  // Before its Record lands, a 50ms query takes the only slot.
  std::uint64_t worse_seq = fr.NoteCompletion(false, 50.0);
  ASSERT_NE(worse_seq, 0u);
  fr.Record(MakeRecord(worse_seq, 50.0, false));
  // Phase 2 of the stale admission: 10ms no longer beats the board.
  fr.Record(MakeRecord(slow_seq, 10.0, false));
  auto worst = fr.WorstFirst();
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_DOUBLE_EQ(worst[0].total_ms, 50.0);
}

// The capacity threshold holds under concurrent two-phase handoffs:
// however the NoteCompletion/Record pairs interleave, the board never
// exceeds capacity and every retained entry came through phase 1.
TEST(FlightRecorderTest, BoardNeverExceedsCapacityUnderConcurrentHandoffs) {
  constexpr std::size_t kCapacity = 3;
  FlightRecorder fr(kCapacity, /*stale_horizon=*/10000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&fr, t, kCapacity] {
      for (int i = 0; i < 200; ++i) {
        double ms = double((i * 13 + t * 7) % 97);
        std::uint64_t seq = fr.NoteCompletion(false, ms);
        if (seq != 0) fr.Record(MakeRecord(seq, ms, false));
        if (i % 16 == 0) {
          EXPECT_LE(fr.WorstFirst().size(), kCapacity);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto worst = fr.WorstFirst();
  EXPECT_LE(worst.size(), kCapacity);
  for (const auto& r : worst) EXPECT_NE(r.seq, 0u);
}

}  // namespace
}  // namespace vdb
