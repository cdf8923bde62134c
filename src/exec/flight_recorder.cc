#include "exec/flight_recorder.h"

#include <algorithm>

#include "core/json.h"

namespace vdb {

FlightRecorder::FlightRecorder(std::size_t capacity,
                               std::uint64_t stale_horizon)
    : capacity_(capacity == 0 ? 1 : capacity), stale_horizon_(stale_horizon) {
  entries_.reserve(capacity_);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* instance =
      new FlightRecorder();  // leaked: process lifetime, like Registry
  return *instance;
}

bool FlightRecorder::Worse(const FlightRecord& a, const FlightRecord& b) {
  if (a.failed != b.failed) return a.failed;
  return a.total_ms > b.total_ms;
}

std::uint64_t FlightRecorder::NoteCompletion(bool failed, double total_ms) {
  MutexLock lock(mu_);
  ++completions_;
  // Age out first so board-worthiness is judged against a fresh board.
  // The guarded reads are hoisted out of the predicate: TSA analyzes a
  // lambda as a separate function with no view of this hold.
  const std::uint64_t stale_before =
      completions_ > stale_horizon_ ? completions_ - stale_horizon_ : 0;
  std::erase_if(entries_, [stale_before](const FlightRecord& e) {
    return e.seq < stale_before;
  });
  if (entries_.size() < capacity_) return completions_;
  FlightRecord candidate;
  candidate.failed = failed;
  candidate.total_ms = total_ms;
  const FlightRecord* least = &entries_.front();
  for (const FlightRecord& e : entries_) {
    if (!Worse(e, *least)) least = &e;
  }
  return Worse(candidate, *least) ? completions_ : 0;
}

void FlightRecorder::Record(FlightRecord record) {
  if (record.query.size() > kMaxQueryBytes) {
    record.query.resize(kMaxQueryBytes);
    record.query += "...";
  }
  MutexLock lock(mu_);
  const std::uint64_t stale_before =
      completions_ > stale_horizon_ ? completions_ - stale_horizon_ : 0;
  std::erase_if(entries_, [stale_before](const FlightRecord& e) {
    return e.seq < stale_before;
  });
  if (entries_.size() >= capacity_) {
    // Replace the least-bad entry — re-checked under the lock because
    // the board may have changed since NoteCompletion admitted us.
    auto least = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!Worse(*it, *least)) least = it;
    }
    if (!Worse(record, *least)) return;
    *least = std::move(record);
  } else {
    entries_.push_back(std::move(record));
  }
}

std::vector<FlightRecord> FlightRecorder::WorstFirst() const {
  std::vector<FlightRecord> out;
  {
    MutexLock lock(mu_);
    out = entries_;
  }
  std::sort(out.begin(), out.end(), [](const FlightRecord& a,
                                       const FlightRecord& b) {
    if (a.failed != b.failed || a.total_ms != b.total_ms) return Worse(a, b);
    return a.seq > b.seq;  // tie-break: newer first, deterministic
  });
  return out;
}

std::string FlightRecorder::RenderJson() const {
  std::vector<FlightRecord> worst = WorstFirst();
  std::string out = "[";
  bool first = true;
  for (const FlightRecord& r : worst) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":" + std::to_string(r.seq);
    out += ",\"query\":" + json::Quote(r.query);
    out += ",\"tenant\":" + json::Quote(r.tenant);
    out += ",\"verdict\":" + json::Quote(r.verdict);
    out += ",\"failed\":";
    out += r.failed ? "true" : "false";
    out += ",\"total_ms\":" + json::Number(r.total_ms);
    out += ",\"deadline_slack_ms\":";
    out += r.has_deadline ? json::Number(r.deadline_slack_ms) : "null";
    out += ",\"stages\":" + json::Quote(r.stages);
    out += ",\"trace\":" + json::Quote(r.trace) + "}";
  }
  out += "]";
  return out;
}

void FlightRecorder::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  completions_ = 0;
}

}  // namespace vdb
