#ifndef VDB_CORE_TELEMETRY_H_
#define VDB_CORE_TELEMETRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/sync.h"

namespace vdb {

/// Process-wide metrics plane (the survey's operational-visibility
/// requirement: production VDBMSs "live or die" on being able to see
/// per-query costs in the aggregate). Three metric kinds:
///
///   Counter   — monotonic event count (searches, fsyncs, failures)
///   Gauge     — instantaneous level (queue depth, armed failpoints)
///   Histogram — fixed-bucket latency distribution with p50/p95/p99
///
/// Hot-path cost model: every increment is a *relaxed atomic add* on a
/// per-thread stripe (no mutex, no CAS loop for counters); reads merge
/// the stripes. Registration (name -> metric) takes a mutex, so call
/// sites cache the returned reference in a function-local static.
///
/// Naming scheme (DESIGN.md §7): `vdb_<subsystem>_<what>[_total|_seconds]`
/// with optional Prometheus-style labels embedded in the name, e.g.
/// `vdb_failpoint_fires_total{name="wal.append.fail"}`.

/// Cache-line stripes shared by counters and histograms. A thread is
/// assigned one stripe for its lifetime (round-robin), so concurrent
/// increments from different threads usually touch different lines.
inline constexpr std::size_t kTelemetryStripes = 16;

/// This thread's stripe index in [0, kTelemetryStripes).
std::size_t TelemetryStripe();

/// Monotonic event counter. Metrics are cumulative and never reset:
/// rates come from windowed deltas (core/telemetry_window.h).
class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    stripes_[TelemetryStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Stripe, kTelemetryStripes> stripes_;
};

/// Instantaneous signed level.
class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// One merged read of a histogram: bucket counts, sum, and the
/// percentile math over them. Taking a single Snapshot and deriving
/// count/sum/p50/p95/p99 from it is what keeps a render internally
/// consistent — separate Count()/Percentile() calls each re-merge the
/// stripes and can disagree under concurrent writers.
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< inclusive upper edges
  std::vector<std::uint64_t> counts;   ///< size bounds.size() + 1 (+Inf last)
  double sum = 0.0;

  std::uint64_t TotalCount() const;
  /// p in [0, 100]; linear interpolation inside the winning bucket.
  /// Returns 0 for an empty snapshot.
  double Percentile(double p) const;

  /// Per-bucket difference vs an `earlier` snapshot of the same
  /// histogram (the windowed-view primitive). Buckets where the earlier
  /// count exceeds this one (a baseline that is ahead) clamp to zero.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bucket edges in
/// ascending order; one implicit +Inf bucket catches the overflow.
/// Percentiles interpolate linearly inside the winning bucket, which is
/// exact enough for tail-latency reporting at 2x-spaced bounds.
class Histogram {
 public:
  /// At most this many finite bucket edges.
  static constexpr std::size_t kMaxBounds = 48;

  explicit Histogram(std::span<const double> bounds);

  void Observe(double value);

  std::uint64_t Count() const;
  double Sum() const;
  /// p in [0, 100]. Returns 0 for an empty histogram. One merged read;
  /// callers needing count+sum+percentiles together should take one
  /// Snapshot() instead of separate calls.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Merged per-bucket counts, size bounds().size() + 1 (last = +Inf).
  std::vector<std::uint64_t> BucketCounts() const;

  /// One merged read of buckets + sum (see HistogramSnapshot).
  HistogramSnapshot Snapshot() const;

  /// Default latency edges: 1us doubling up to ~67s (27 finite buckets).
  static std::span<const double> LatencyBoundsSeconds();

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kMaxBounds + 1> counts{};
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::array<Stripe, kTelemetryStripes> stripes_;
};

/// Named-metric registry. `Global()` is the process-wide instance every
/// instrumented subsystem reports into; tests may construct private
/// registries for golden renders. Metrics are created on first Get and
/// never destroyed, so returned references stay valid for the registry's
/// lifetime (the Global one leaks by design, like Failpoints).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `bounds` is consulted only on first creation; empty selects
  /// Histogram::LatencyBoundsSeconds().
  Histogram& GetHistogram(const std::string& name,
                          std::span<const double> bounds = {});

  /// Point-in-time view of every registered metric, one merged read per
  /// metric. Renders and the windowed plane are built from this, so a
  /// histogram's count/sum/percentiles in one render always describe the
  /// same merged state.
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot Snap() const;

  /// Prometheus text exposition format, metrics sorted by name.
  std::string RenderPrometheus() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  ///  p50,p95,p99}}} — deterministic key order.
  std::string RenderJson() const;

 private:
  // WindowedRegistry names mu_ in its acquired-before edge (§9.1:
  // WindowedRegistry::mu_ -> Registry::mu_).
  friend class WindowedRegistry;

  /// Leaf mutex (§9.1): registration only — never held while acquiring
  /// any other lock. Increments/reads of the metrics themselves are
  /// striped relaxed atomics and take no lock at all.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      VDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ VDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      VDB_GUARDED_BY(mu_);
};

// Prometheus text helpers shared by the Registry and WindowedRegistry
// renders (JSON renders use core/json.h).

/// `%.9g`, the Prometheus sample-value spelling.
std::string PrometheusValue(double v);

/// A metric name split into its base and raw label list ("" when none).
struct LabeledName {
  std::string base;
  std::string labels;
};
LabeledName SplitLabels(const std::string& name);

/// RAII wall-clock timer feeding a latency histogram on destruction.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram& hist)
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatencyTimer() {
    hist_->Observe(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vdb

#endif  // VDB_CORE_TELEMETRY_H_
