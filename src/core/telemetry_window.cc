#include "core/telemetry_window.h"

#include <algorithm>
#include <cstdio>

#include "core/json.h"

namespace vdb {

namespace {

/// "10s", "0.5s" — the window label value.
std::string FormatWindow(double seconds) {
  char buf[32];
  if (seconds == static_cast<double>(static_cast<long long>(seconds))) {
    std::snprintf(buf, sizeof(buf), "%llds",
                  static_cast<long long>(seconds));
  } else {
    std::snprintf(buf, sizeof(buf), "%gs", seconds);
  }
  return buf;
}

}  // namespace

WindowedRegistry::WindowedRegistry(Registry& registry)
    : WindowedRegistry(registry, Options{}) {}

WindowedRegistry::WindowedRegistry(Registry& registry, Options opts)
    : registry_(registry), opts_(opts) {}

WindowedRegistry& WindowedRegistry::Global() {
  static WindowedRegistry* instance =
      new WindowedRegistry(Registry::Global());  // leaked: process lifetime
  return *instance;
}

void WindowedRegistry::Tick(Clock::time_point now) {
  MutexLock lock(mu_);
  if (ring_.empty() && next_boundary_ == Clock::time_point{}) {
    // First tick seeds the ring origin (lazy so tests can inject time).
    origin_ = now;
    next_boundary_ = now + opts_.width;
    return;
  }
  if (now + opts_.width < next_boundary_) {
    // Clock stepped backward (tests inject this; a steady clock cannot):
    // history timestamps are no longer comparable — drop and re-seed.
    ring_.clear();
    origin_ = now;
    next_boundary_ = now + opts_.width;
    return;
  }
  if (now < next_boundary_) return;
  // Long idle gap: recording one identical boundary per missed edge is
  // pointless past ring capacity — skip ahead so at most `slots` edges
  // are materialized.
  const auto max_span = opts_.width * static_cast<std::int64_t>(opts_.slots);
  if (now - next_boundary_ > max_span) next_boundary_ = now - max_span;
  Registry::Snapshot snap = registry_.Snap();
  while (next_boundary_ <= now) {
    ring_.push_back(Boundary{next_boundary_, snap});
    if (ring_.size() > opts_.slots) ring_.pop_front();
    next_boundary_ += opts_.width;
  }
}

bool WindowedRegistry::BaselineFor(double window_seconds,
                                   Clock::time_point now,
                                   Boundary* out) const {
  MutexLock lock(mu_);
  if (ring_.empty()) {
    out->at = next_boundary_ == Clock::time_point{} ? now : origin_;
    out->snap = Registry::Snapshot{};
    return false;
  }
  const auto cutoff =
      now - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(window_seconds));
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->at <= cutoff) {
      *out = *it;
      return true;
    }
  }
  *out = ring_.front();  // registry younger than the window
  return true;
}

WindowedRegistry::CounterWindow WindowedRegistry::CounterOver(
    const std::string& name, double window_seconds,
    Clock::time_point now) const {
  return CounterOver(registry_.Snap(), name, window_seconds, now);
}

WindowedRegistry::CounterWindow WindowedRegistry::CounterOver(
    const Registry::Snapshot& live, const std::string& name,
    double window_seconds, Clock::time_point now) const {
  Boundary base;
  BaselineFor(window_seconds, now, &base);
  CounterWindow view;
  view.seconds =
      std::max(0.0, std::chrono::duration<double>(now - base.at).count());
  auto it = live.counters.find(name);
  std::uint64_t cur = it != live.counters.end() ? it->second : 0;
  auto bit = base.snap.counters.find(name);
  std::uint64_t prev = bit != base.snap.counters.end() ? bit->second : 0;
  view.delta = cur >= prev ? cur - prev : 0;  // a baseline ahead clamps
  return view;
}

WindowedRegistry::HistogramWindow WindowedRegistry::HistogramOver(
    const std::string& name, double window_seconds,
    Clock::time_point now) const {
  return HistogramOver(registry_.Snap(), name, window_seconds, now);
}

WindowedRegistry::HistogramWindow WindowedRegistry::HistogramOver(
    const Registry::Snapshot& live, const std::string& name,
    double window_seconds, Clock::time_point now) const {
  Boundary base;
  BaselineFor(window_seconds, now, &base);
  HistogramWindow view;
  view.seconds =
      std::max(0.0, std::chrono::duration<double>(now - base.at).count());
  auto it = live.histograms.find(name);
  if (it == live.histograms.end()) return view;
  auto bit = base.snap.histograms.find(name);
  view.delta = bit != base.snap.histograms.end()
                   ? it->second.DeltaSince(bit->second)
                   : it->second;
  return view;
}

std::string WindowedRegistry::RenderPrometheus(
    std::span<const double> windows_seconds, Clock::time_point now) const {
  Registry::Snapshot live = registry_.Snap();
  std::string out;
  auto line = [&](const LabeledName& n, const char* rule, double window,
                  double value) {
    out += n.base + ":" + rule + "{";
    if (!n.labels.empty()) out += n.labels + ",";
    out += "window=\"" + FormatWindow(window) + "\"} " + PrometheusValue(value) +
           "\n";
  };
  for (const auto& [name, value] : live.counters) {
    (void)value;
    const LabeledName n = SplitLabels(name);
    for (double w : windows_seconds) {
      CounterWindow v = CounterOver(live, name, w, now);
      line(n, "rate", w, v.RatePerSec());
    }
  }
  for (const auto& [name, snap] : live.histograms) {
    (void)snap;
    const LabeledName n = SplitLabels(name);
    for (double w : windows_seconds) {
      HistogramWindow v = HistogramOver(live, name, w, now);
      line(n, "rate", w, v.RatePerSec());
      line(n, "p50", w, v.delta.Percentile(50));
      line(n, "p95", w, v.delta.Percentile(95));
      line(n, "p99", w, v.delta.Percentile(99));
    }
  }
  return out;
}

std::string WindowedRegistry::RenderJson(std::span<const double> windows_seconds,
                                         Clock::time_point now) const {
  Registry::Snapshot live = registry_.Snap();
  std::string out = "{\"windows\":{";
  bool first_w = true;
  for (double w : windows_seconds) {
    if (!first_w) out += ",";
    first_w = false;
    out += json::Quote(FormatWindow(w)) + ":{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : live.counters) {
      (void)value;
      CounterWindow v = CounterOver(live, name, w, now);
      if (!first) out += ",";
      first = false;
      out += json::Quote(name) + ":{\"delta\":" + std::to_string(v.delta) +
             ",\"rate\":" + json::Number(v.RatePerSec()) + "}";
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, snap] : live.histograms) {
      (void)snap;
      HistogramWindow v = HistogramOver(live, name, w, now);
      if (!first) out += ",";
      first = false;
      out += json::Quote(name) + ":{\"count\":" + std::to_string(v.Count()) +
             ",\"rate\":" + json::Number(v.RatePerSec()) +
             ",\"p50\":" + json::Number(v.delta.Percentile(50)) +
             ",\"p95\":" + json::Number(v.delta.Percentile(95)) +
             ",\"p99\":" + json::Number(v.delta.Percentile(99)) + "}";
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

void WindowedRegistry::ResetForTest(Clock::time_point now) {
  MutexLock lock(mu_);
  ring_.clear();
  origin_ = now;
  next_boundary_ = now + opts_.width;
}

}  // namespace vdb
