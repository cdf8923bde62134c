#include "exec/trace.h"

#include <cstdio>

namespace vdb {

namespace {

std::uint64_t NsSince(std::chrono::steady_clock::time_point epoch) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

/// Appends "key=value" fragments for every nonzero SearchStats field.
void AppendStats(const SearchStats& s, std::string* out) {
  bool first = true;
  auto field = [&](const char* key, std::uint64_t v) {
    if (v == 0) return;
    if (!first) *out += " ";
    first = false;
    *out += key;
    *out += "=";
    *out += std::to_string(v);
  };
  field("dist", s.distance_comps);
  field("code", s.code_comps);
  field("nodes", s.nodes_visited);
  field("hops", s.hops);
  field("io", s.io_reads);
  field("filt", s.filter_checks);
  field("shards_failed", s.shards_failed);
  field("retries", s.shard_retries);
  if (s.partial) {
    if (!first) *out += " ";
    first = false;
    *out += "partial=1";
  }
}

}  // namespace

QueryTrace::QueryTrace() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(16);
}

std::size_t QueryTrace::BeginSpan(std::string name) {
  TraceSpan span;
  span.name = std::move(name);
  span.depth = static_cast<int>(stack_.size());
  span.start_ns = NsSince(epoch_);
  std::size_t id = spans_.size();
  spans_.push_back(std::move(span));
  stack_.push_back(id);
  return id;
}

void QueryTrace::EndSpan(std::size_t id) {
  if (id >= spans_.size() || !spans_[id].open) return;
  TraceSpan& span = spans_[id];
  span.dur_ns = NsSince(epoch_) - span.start_ns;
  span.open = false;
  // Close any children the caller forgot (exception paths): pop down to
  // and including this id.
  while (!stack_.empty()) {
    std::size_t top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
    if (spans_[top].open) {
      spans_[top].dur_ns = NsSince(epoch_) - spans_[top].start_ns;
      spans_[top].open = false;
    }
  }
}

void QueryTrace::Note(std::size_t id, std::string key, std::string value) {
  if (id >= spans_.size()) return;
  spans_[id].notes.emplace_back(std::move(key), std::move(value));
}

void QueryTrace::RecordStats(std::size_t id, const SearchStats& stats) {
  if (id >= spans_.size()) return;
  spans_[id].stats += stats;
  spans_[id].has_stats = true;
}

double QueryTrace::TotalMillis() const {
  if (spans_.empty()) return 0.0;
  const TraceSpan& root = spans_.front();
  std::uint64_t dur = root.open ? NsSince(epoch_) - root.start_ns : root.dur_ns;
  return static_cast<double>(dur) / 1e6;
}

std::string QueryTrace::Render() const {
  std::string out;
  char buf[64];
  for (const TraceSpan& span : spans_) {
    for (int i = 0; i < span.depth; ++i) out += "  ";
    out += span.name;
    std::uint64_t dur =
        span.open ? NsSince(epoch_) - span.start_ns : span.dur_ns;
    std::snprintf(buf, sizeof(buf), "  %.3f ms", static_cast<double>(dur) / 1e6);
    out += buf;
    if (span.has_stats) {
      out += "  [";
      AppendStats(span.stats, &out);
      out += "]";
    }
    for (const auto& [key, value] : span.notes) {
      out += "  ";
      out += key;
      out += "=";
      out += value;
    }
    out += "\n";
  }
  return out;
}

std::string QueryTrace::StageSummary() const {
  std::string out;
  char buf[64];
  auto append = [&](const TraceSpan& span) {
    if (!out.empty()) out += " ";
    out += span.name;
    std::uint64_t dur =
        span.open ? NsSince(epoch_) - span.start_ns : span.dur_ns;
    std::snprintf(buf, sizeof(buf), "=%.3fms",
                  static_cast<double>(dur) / 1e6);
    out += buf;
  };
  for (const TraceSpan& span : spans_) {
    if (span.depth == 1) append(span);
  }
  if (out.empty() && !spans_.empty()) append(spans_.front());
  return out;
}

}  // namespace vdb
