#ifndef VDB_EXEC_TRACE_H_
#define VDB_EXEC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"

namespace vdb {

/// One timed stage of a query pipeline. Spans form a tree via `depth`
/// (children are the spans begun while a parent is open); render order is
/// begin order, which is also execution order for our single-threaded
/// per-query pipelines.
struct TraceSpan {
  std::string name;
  int depth = 0;
  std::uint64_t start_ns = 0;  ///< relative to the trace epoch
  std::uint64_t dur_ns = 0;    ///< 0 while the span is open
  bool open = true;

  /// Optional per-span cost annotation (the SearchStats the stage
  /// accumulated), plus free-form key=value notes (chosen plan, row
  /// counts, selectivity estimates).
  SearchStats stats;
  bool has_stats = false;
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Per-query trace: records timed spans for each pipeline stage
/// (parse -> plan -> per-index search -> rerank -> filter -> gather).
/// Not thread-safe — one trace belongs to one query on one thread; the
/// distributed scatter path strips the trace from worker params and
/// annotates a single scatter_gather span instead.
class QueryTrace {
 public:
  QueryTrace();

  /// Opens a span nested under the innermost open span.
  std::size_t BeginSpan(std::string name);
  void EndSpan(std::size_t id);

  void Note(std::size_t id, std::string key, std::string value);
  /// Accumulates `stats` into the span's cost annotation.
  void RecordStats(std::size_t id, const SearchStats& stats);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  /// Wall time of the root span (or epoch->now while still open).
  double TotalMillis() const;

  /// Human-readable indented span tree with per-stage wall times, stats,
  /// and notes — the body of EXPLAIN ANALYZE and of flight records.
  std::string Render() const;

  /// Compact one-line per-stage latency attribution for wire transport
  /// and the flight recorder: "parse=0.004ms plan=0.040ms
  /// index_search:hnsw=0.006ms". Top-level child spans only (depth 1 —
  /// the pipeline stages under the root query span); root-only traces
  /// fall back to the root.
  std::string StageSummary() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> spans_;
  std::vector<std::size_t> stack_;  ///< open span ids, innermost last
};

/// RAII span: no-op when `trace` is null, so call sites need no branches.
class TraceScope {
 public:
  TraceScope(QueryTrace* trace, std::string name) : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->BeginSpan(std::move(name));
  }
  ~TraceScope() { End(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void End() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
    trace_ = nullptr;
  }
  void RecordStats(const SearchStats& stats) {
    if (trace_ != nullptr) trace_->RecordStats(id_, stats);
  }
  void Note(std::string key, std::string value) {
    if (trace_ != nullptr) trace_->Note(id_, std::move(key), std::move(value));
  }

 private:
  QueryTrace* trace_;
  std::size_t id_ = 0;
};

}  // namespace vdb

#endif  // VDB_EXEC_TRACE_H_
