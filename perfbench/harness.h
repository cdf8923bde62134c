// Shared plumbing of the repository benchmark: the run's arguments and
// report, clocks, percentiles and windowed medians, brute-force ground
// truth, answer checks, CPU rotation, and the in-memory span log of traced
// runs.
#ifndef VDB_PERFBENCH_HARNESS_H_
#define VDB_PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Neighbors every query asks for; recall is measured at the same depth.
inline constexpr std::size_t kK = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the build tree (index files).
  std::string work_dir;
  /// Where a traced run writes its spans (empty: not written).
  std::string spans_path;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main: the contract's result line
/// plus human-readable notes printed above it.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Marks the run incorrect and says why.
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Linear-interpolated percentile (p in [0,100]) of unsorted samples; 0
/// for an empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// Samples of timed phases, cut into short windows by time. A run's
/// timings are read from per-window statistics (see FastWindow), so a
/// stretch of contention from outside the process moves some windows, not
/// the result.
class Windowed {
 public:
  /// Windows of about `window_s` seconds.
  explicit Windowed(double window_s) : window_s_(window_s) {}

  /// Starts a timed phase of `phase_s` seconds, cut into windows of about
  /// `window_s` (at least one). Later samples belong to this phase.
  void BeginPhase(double phase_s);
  /// Adds a sample taken `t_s` seconds into the current phase; samples
  /// past the phase's end are dropped.
  void Add(double t_s, double value);
  /// The window of the current phase that `t_s` seconds into it falls in.
  std::size_t WindowOf(double t_s) const {
    return static_cast<std::size_t>(t_s / phase_window_s_);
  }

  /// Per window with samples: the p-th percentile of its samples.
  std::vector<double> Percentiles(double p) const;
  /// Per window: samples per second.
  std::vector<double> Rates() const;
  /// Per window with samples: operations per second of busy time, for
  /// samples that are operation durations in milliseconds.
  std::vector<double> Throughputs() const;
  std::size_t count() const;

 private:
  struct Window {
    double seconds;
    std::vector<double> samples;
  };
  double window_s_;
  double phase_window_s_ = 1.0;
  std::size_t phase_first_ = 0;  ///< index of the current phase's window 0
  std::vector<Window> windows_;
};

/// Share of windows that may beat the value FastWindow reports.
inline constexpr double kFastShare = 0.02;

/// The run's value of a timing from its per-window values: the window
/// that only kFastShare of the windows beat (the 2nd percentile when
/// lower is better, the 98th when higher is better). The VM's cores run
/// at a clock set by other tenants' load, up to 1.7x apart for seconds
/// to minutes at a time; the fast end of the windows is the program's
/// cost at the full clock, which a run reaches in most of its seconds.
double FastWindow(const std::vector<double>& per_window,
                  bool lower_is_better);

/// Moves thread `tid` (0: the calling thread) onto the `slot`-th of the
/// CPUs the process may use, modulo their number. Best effort: without
/// the move a run is only less steady. Calling it with a window or round
/// number rotates a thread over every core, so a run does not depend on
/// the core the scheduler picked; cores of a shared VM differ in speed for
/// minutes at a time.
void PinThread(pid_t tid, std::size_t slot);

/// Ids of the calling process's threads, ascending.
std::vector<pid_t> ThreadIds();

/// Exact k-NN by squared L2 over `rows` of `data` (every row when `rows`
/// is empty), written independently of the library's kernels.
std::vector<vdb::VectorId> ExactTopK(const vdb::FloatMatrix& data,
                                     const std::vector<vdb::VectorId>& rows,
                                     const float* query, std::size_t k);

/// Answer checks applied to every reply: exactly `want` rows, unique ids,
/// non-decreasing distances, and every id accepted by `is_valid` (live and,
/// for predicated queries, matching). Returns an empty string when the
/// reply passes, else what failed.
std::string CheckReply(const std::vector<vdb::Neighbor>& rows,
                       std::size_t want,
                       const std::function<bool(vdb::VectorId)>& is_valid);

/// |reply ∩ truth| / |truth|.
double Recall(const std::vector<vdb::Neighbor>& rows,
              const std::vector<vdb::VectorId>& truth);

/// Renders a query vector so that parsing it back yields the same floats.
std::string VectorLiteral(const float* v, std::size_t dim);

/// In-memory span recorder of traced runs. Spans are recorded around the
/// benchmark's own calls into each module's public functions; no span is
/// recorded inside the library. Spans of one query share `query`; a
/// span's `parent` is the call that performs its work in production
/// (the calls themselves run one after another on the same input).
class SpanLog {
 public:
  struct Span {
    const char* name;  ///< "<layer>.<call>"
    double start_us;
    double end_us;
    int parent;  ///< index into spans(), -1 for a root
    std::uint32_t query;
  };

  SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  /// Times `fn()` as one span and returns its index.
  template <typename Fn>
  int Record(const char* name, int parent, std::uint32_t query, Fn&& fn) {
    double start = Now();
    fn();
    double end = Now();
    spans_.push_back({name, start, end, parent, query});
    return static_cast<int>(spans_.size()) - 1;
  }

  double Duration(int span) const {
    return spans_[span].end_us - spans_[span].start_us;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end_us - s.start_us);
    }
    return out;
  }

  /// Per query: each layer's self time (span duration minus its child
  /// spans), summed over the layer's spans. Returns, per layer name, the
  /// median over queries, and in `*root_p50_us` the median root duration.
  std::vector<std::pair<std::string, double>> LayerSelfP50(
      double* root_p50_us) const;

  /// Writes every span as tab-separated text (name, start, end, parent,
  /// query).
  bool WriteTsv(const std::string& path) const;

 private:
  double Now() const { return Micros(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Adds the span-derived metrics of a traced run: each layer's self time,
/// the client p50 they should add up to, the residual, and the cost of
/// recording spans against `untraced_us` calls of the same queries. Writes
/// the spans to `args.spans_path`.
void AddTraceMetrics(const SpanLog& log, const std::vector<double>& untraced_us,
                     const Args& args, Report* r);

/// Adds index.* metrics from the SearchStats of `calls` searches whose
/// median took `search_us`; `l2_ns` is the measured cost of one distance.
void AddIndexStats(const vdb::SearchStats& stats, std::uint64_t calls,
                   double search_us, double l2_ns, Report* r);

/// Seeded generator for op streams and sampling; independent of the
/// library's own RNG so a library change never changes the inputs.
using Rng = std::mt19937_64;

}  // namespace perfbench

#endif  // VDB_PERFBENCH_HARNESS_H_
