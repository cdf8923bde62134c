#ifndef VDB_EXEC_FLIGHT_RECORDER_H_
#define VDB_EXEC_FLIGHT_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/sync.h"

namespace vdb {

/// One retained bad query: everything an operator needs to answer "what
/// were the worst things this server just did" without re-running them.
struct FlightRecord {
  std::uint64_t seq = 0;       ///< completion sequence number (recency)
  std::string query;           ///< query text (truncated, see kMaxQueryBytes)
  std::string tenant;          ///< "" when the query had no tenant
  std::string verdict;         ///< Status::CodeName of the outcome ("OK",
                               ///< "DEADLINE_EXCEEDED", ...) — matches the
                               ///< wire verdict names
  bool failed = false;         ///< verdict != OK
  double total_ms = 0.0;       ///< end-to-end wall time
  bool has_deadline = false;
  double deadline_slack_ms = 0.0;  ///< deadline - completion (negative =
                                   ///< finished past its deadline)
  std::string stages;          ///< QueryTrace::StageSummary() attribution
  std::string trace;           ///< full rendered span tree ("" if untraced)
};

/// Lock-protected ring of the N *worst* recent queries (the tentpole's
/// flight recorder). "Worst" orders failures before slow successes, then
/// by total latency; "recent" means entries age out after a horizon of
/// subsequent completions so a one-off disaster from an hour ago doesn't
/// pin the board forever.
///
/// Capture is two-phase so the hot path stays cheap (Complete runs both):
/// NoteCompletion counts the query and answers "would it make the
/// board?" with one mutex acquisition and no allocation; only then does
/// Record take the expensive capture (span tree, query text).
class FlightRecorder {
 public:
  /// Retained entries ("worst N").
  static constexpr std::size_t kDefaultCapacity = 8;
  /// An entry is stale once this many completions happened after it.
  static constexpr std::uint64_t kDefaultStaleHorizon = 512;
  /// Query text is truncated to this many bytes in a record.
  static constexpr std::size_t kMaxQueryBytes = 512;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity,
                          std::uint64_t stale_horizon = kDefaultStaleHorizon);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide instance (the one ExecuteQueryTraced and the serving
  /// worker report into).
  static FlightRecorder& Global();

  /// Counts one completed query and decides whether it deserves capture.
  /// Returns its sequence number if the caller should follow up with
  /// Record(), 0 if the query is not board-worthy (faster than every
  /// retained entry on a full, fresh board).
  std::uint64_t NoteCompletion(bool failed, double total_ms);

  /// Captures `record` (record.seq must come from NoteCompletion).
  /// Evicts stale entries first, then the least-bad entry.
  void Record(FlightRecord record);

  /// The one path a finished query takes to the board: when
  /// NoteCompletion admits it, records its outcome and deadline slack
  /// (none for an epoch-zero `deadline`), then what `render(&record)`
  /// adds. A query that does not make the board allocates nothing.
  template <typename Render>
  void Complete(StatusCode code, double total_ms, const std::string& query,
                const std::string& tenant,
                std::chrono::steady_clock::time_point deadline,
                Render&& render) {
    const bool failed = code != StatusCode::kOk;
    const std::uint64_t seq = NoteCompletion(failed, total_ms);
    if (seq == 0) return;
    FlightRecord rec;
    rec.seq = seq;
    rec.query = query;
    rec.tenant = tenant;
    rec.verdict = std::string(Status::CodeName(code));
    rec.failed = failed;
    rec.total_ms = total_ms;
    if (deadline != std::chrono::steady_clock::time_point{}) {
      rec.has_deadline = true;
      rec.deadline_slack_ms = std::chrono::duration<double, std::milli>(
                                  deadline - std::chrono::steady_clock::now())
                                  .count();
    }
    render(&rec);
    Record(std::move(rec));
  }

  /// Retained entries, worst first.
  std::vector<FlightRecord> WorstFirst() const;

  /// [{"seq":..,"query":"..","tenant":"..","verdict":"..","failed":..,
  ///   "total_ms":..,"deadline_slack_ms":..|null,"stages":"..",
  ///   "trace":".."}] — worst first, full JSON string escaping.
  std::string RenderJson() const;

  void Clear();

 private:
  /// True when a beats b in badness order (failures first, then slower).
  static bool Worse(const FlightRecord& a, const FlightRecord& b);

  mutable Mutex mu_;  ///< §9.1 leaf
  /// Board thresholds: immutable after construction, so the two-phase
  /// NoteCompletion/Record handoff may read them on either side of the
  /// lock without a window (regression-tested in windowed_metrics_test).
  const std::size_t capacity_;
  const std::uint64_t stale_horizon_;
  std::uint64_t completions_ VDB_GUARDED_BY(mu_) = 0;  ///< queries seen
  /// Unsorted; sorted on read.
  std::vector<FlightRecord> entries_ VDB_GUARDED_BY(mu_);
};

}  // namespace vdb

#endif  // VDB_EXEC_FLIGHT_RECORDER_H_
