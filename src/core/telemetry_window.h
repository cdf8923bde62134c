#ifndef VDB_CORE_TELEMETRY_WINDOW_H_
#define VDB_CORE_TELEMETRY_WINDOW_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <string>

#include "core/sync.h"
#include "core/telemetry.h"

namespace vdb {

/// Rolling time-windowed views over a Registry (the flight-recorder
/// observability plane's rate source). Lifetime metrics answer "how much
/// ever"; operations needs "how much in the last 10s/60s" — qps and tail
/// latency that *move* when the workload does.
///
/// Mechanism: a ring of boundary snapshots. `Tick(now)` is called from
/// any convenient periodic point (the server's housekeeping ticks every
/// ~20ms); whenever a window boundary has passed it records one
/// `Registry::Snap()` stamped with the boundary time. A read over the
/// last W seconds takes one live snapshot and subtracts the newest
/// boundary snapshot that is at least W old (`HistogramSnapshot::
/// DeltaSince` per histogram, clamped subtraction per counter) — which
/// is exactly the merge of every fixed-width window the ring closed in
/// [now-W, now] plus the live partial window, without per-slot delta
/// bookkeeping.
///
/// Edge semantics (tested in tests/windowed_metrics_test.cc):
///  - Idle windows: boundaries keep rotating with unchanged snapshots,
///    so deltas — and rates — decay to zero as traffic ages out.
///  - Clock step backward (suspend/settimeofday on a non-steady clock
///    injected in tests): the ring resets and re-seeds from `now`;
///    views report over the short history they have.
///  - Metric first seen mid-ring: absent from the baseline snapshot, so
///    its entire lifetime attributes to the current window until a
///    boundary containing it ages past W.
///  - Registry younger than W: the delta is taken against the oldest
///    boundary available and `seconds` reports the actual span covered,
///    so rates stay honest instead of diluted.
///
/// Locking: one mutex around the ring; `Tick` acquires it, then
/// `Registry::mu_` inside `Snap()`. Lock order (DESIGN.md §9):
/// WindowedRegistry::mu_ -> Registry::mu_. Reads copy snapshots out
/// under the mutex and do percentile math outside it.
class WindowedRegistry {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    /// Width of one ring slot; boundaries land on multiples of this.
    std::chrono::milliseconds width{1000};
    /// Retained boundary count; history covers width * slots (120s
    /// default — enough for the 10s and 60s views plus slack).
    std::size_t slots = 120;
  };

  explicit WindowedRegistry(Registry& registry);
  WindowedRegistry(Registry& registry, Options opts);
  WindowedRegistry(const WindowedRegistry&) = delete;
  WindowedRegistry& operator=(const WindowedRegistry&) = delete;

  /// Process-wide instance over Registry::Global().
  static WindowedRegistry& Global();

  /// Rotate: record boundary snapshots for every window edge crossed
  /// since the last call. Cheap no-op when no edge has passed. Safe to
  /// call concurrently; callers race only for who records the boundary.
  void Tick(Clock::time_point now = Clock::now());

  /// Windowed counter view: events in the last `seconds` seconds.
  struct CounterWindow {
    std::uint64_t delta = 0;  ///< events inside the window
    /// Actual span covered: up to one slot width more than requested
    /// (the baseline lands on a boundary), or less when the registry is
    /// younger than the window.
    double seconds = 0.0;
    double RatePerSec() const { return seconds > 0.0 ? delta / seconds : 0.0; }
  };

  /// Windowed histogram view: distribution of the last `seconds` only.
  struct HistogramWindow {
    HistogramSnapshot delta;  ///< in-window buckets + sum
    double seconds = 0.0;
    std::uint64_t Count() const { return delta.TotalCount(); }
    double RatePerSec() const {
      return seconds > 0.0 ? static_cast<double>(Count()) / seconds : 0.0;
    }
  };

  /// View of one counter over the trailing `window_seconds`. Unknown
  /// names yield an empty view (delta 0), never a registration.
  CounterWindow CounterOver(const std::string& name, double window_seconds,
                            Clock::time_point now = Clock::now()) const;
  /// Same, against a live snapshot the caller already took (one
  /// Registry::Snap() amortized across many metric reads).
  CounterWindow CounterOver(const Registry::Snapshot& live,
                            const std::string& name, double window_seconds,
                            Clock::time_point now = Clock::now()) const;

  HistogramWindow HistogramOver(const std::string& name, double window_seconds,
                                Clock::time_point now = Clock::now()) const;
  HistogramWindow HistogramOver(const Registry::Snapshot& live,
                                const std::string& name, double window_seconds,
                                Clock::time_point now = Clock::now()) const;

  /// Prometheus recording-rule-style render for every registered metric
  /// over each requested window, e.g. for windows {10, 60}:
  ///   vdb_query_seconds:rate{window="10s"} 12.5
  ///   vdb_query_seconds:p95{window="60s"} 0.0042
  /// Labeled metrics merge the window label into their existing label
  /// set. Counter -> :rate; histogram -> :rate, :p50, :p95, :p99.
  /// Gauges are instantaneous and have no windowed form.
  std::string RenderPrometheus(std::span<const double> windows_seconds,
                               Clock::time_point now = Clock::now()) const;

  /// {"windows":{"10s":{"counters":{name:{"delta":..,"rate":..}},
  ///  "histograms":{name:{"count":..,"rate":..,"p50":..,"p95":..,
  ///  "p99":..}}},...}} — deterministic key order.
  std::string RenderJson(std::span<const double> windows_seconds,
                         Clock::time_point now = Clock::now()) const;

  /// Drop all history and re-seed from `now` (tests; also the clock-step
  /// recovery path).
  void ResetForTest(Clock::time_point now = Clock::now());

 private:
  struct Boundary {
    Clock::time_point at;
    Registry::Snapshot snap;
  };

  /// Newest boundary at least `window_seconds` older than `now`, or the
  /// oldest available. Returns false when the ring is empty.
  bool BaselineFor(double window_seconds, Clock::time_point now,
                   Boundary* out) const;

  Registry& registry_;
  Options opts_;
  /// §9.1 edge: held across registry_.Snap(), which takes
  /// Registry::mu_ — so this mutex is always the outer of the pair.
  mutable Mutex mu_ VDB_ACQUIRED_BEFORE(registry_.mu_);
  std::deque<Boundary> ring_ VDB_GUARDED_BY(mu_);  ///< oldest front
  /// First edge not yet recorded.
  Clock::time_point next_boundary_ VDB_GUARDED_BY(mu_);
  /// Construction / last reset time.
  Clock::time_point origin_ VDB_GUARDED_BY(mu_);
};

}  // namespace vdb

#endif  // VDB_CORE_TELEMETRY_WINDOW_H_
