#include "core/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/json.h"

namespace vdb {

namespace {

/// Relaxed double accumulation (std::atomic<double>::fetch_add is C++20
/// but not universally lock-free; the CAS loop is).
void AtomicAddDouble(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string PrometheusValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

LabeledName SplitLabels(const std::string& name) {
  std::size_t brace = name.find('{');
  if (brace == std::string::npos) return {name, ""};
  // keep the inner "k=\"v\",..." without braces
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

std::size_t TelemetryStripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kTelemetryStripes;
  return stripe;
}

// ------------------------------------------------------- HistogramSnapshot

std::uint64_t HistogramSnapshot::TotalCount() const {
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  return total;
}

double HistogramSnapshot::Percentile(double p) const {
  std::uint64_t total = TotalCount();
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  double target = p / 100.0 * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    double next = cum + static_cast<double>(counts[b]);
    if (next >= target) {
      double lo = b == 0 ? 0.0 : bounds[b - 1];
      // The +Inf bucket has no width: report its lower edge.
      if (b >= bounds.size()) return lo;
      double hi = bounds[b];
      double frac = (target - cum) / static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cum = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot d;
  d.bounds = bounds;
  d.counts.resize(counts.size(), 0);
  for (std::size_t b = 0; b < counts.size(); ++b) {
    std::uint64_t prev = b < earlier.counts.size() ? earlier.counts[b] : 0;
    d.counts[b] = counts[b] >= prev ? counts[b] - prev : 0;
  }
  d.sum = sum >= earlier.sum ? sum - earlier.sum : 0.0;
  return d;
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()) {
  if (bounds_.size() > kMaxBounds) bounds_.resize(kMaxBounds);
}

void Histogram::Observe(double value) {
  // First edge >= value: inclusive upper edges (Prometheus `le`).
  std::size_t bucket =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                                value) -
                               bounds_.begin());
  Stripe& s = stripes_[TelemetryStripe()];
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(s.sum, value);
}

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_) {
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
      total += s.counts[b].load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const auto& s : stripes_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> merged(bounds_.size() + 1, 0);
  for (const auto& s : stripes_) {
    for (std::size_t b = 0; b < merged.size(); ++b) {
      merged[b] += s.counts[b].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

double Histogram::Percentile(double p) const { return Snapshot().Percentile(p); }

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts = BucketCounts();
  snap.sum = Sum();
  return snap;
}

std::span<const double> Histogram::LatencyBoundsSeconds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    double edge = 1e-6;  // 1us
    for (int i = 0; i < 27; ++i) {
      b.push_back(edge);
      edge *= 2.0;
    }
    return b;  // last edge ~= 67s
  }();
  return bounds;
}

// ----------------------------------------------------------------- Registry

Registry& Registry::Global() {
  static Registry* instance = new Registry();  // leaked: process lifetime
  return *instance;
}

Counter& Registry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  std::span<const double> bounds) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(
        bounds.empty() ? Histogram::LatencyBoundsSeconds() : bounds);
  }
  return *slot;
}

Registry::Snapshot Registry::Snap() const {
  MutexLock lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

std::string Registry::RenderPrometheus() const {
  MutexLock lock(mu_);
  std::string out;
  std::string last_typed;  // base name of the last emitted # TYPE line
  auto type_line = [&](const std::string& base, const char* kind) {
    if (base == last_typed) return;
    out += "# TYPE " + base + " " + kind + "\n";
    last_typed = base;
  };
  for (const auto& [name, c] : counters_) {
    type_line(SplitLabels(name).base, "counter");
    out += name + " " + std::to_string(c->Value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    type_line(SplitLabels(name).base, "gauge");
    out += name + " " + std::to_string(g->Value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const LabeledName n = SplitLabels(name);
    type_line(n.base, "histogram");
    // One merged read per histogram: buckets, sum, and count in this
    // render all describe the same snapshot (satellite: reset race).
    HistogramSnapshot snap = h->Snapshot();
    std::uint64_t cum = 0;
    auto bucket_line = [&](const std::string& le, std::uint64_t v) {
      out += n.base + "_bucket{";
      if (!n.labels.empty()) out += n.labels + ",";
      out += "le=\"" + le + "\"} " + std::to_string(v) + "\n";
    };
    for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
      cum += snap.counts[b];
      bucket_line(PrometheusValue(snap.bounds[b]), cum);
    }
    cum += snap.counts[snap.bounds.size()];
    bucket_line("+Inf", cum);
    std::string suffix = n.labels.empty() ? "" : "{" + n.labels + "}";
    out += n.base + "_sum" + suffix + " " + PrometheusValue(snap.sum) + "\n";
    out += n.base + "_count" + suffix + " " + std::to_string(cum) + "\n";
  }
  return out;
}

std::string Registry::RenderJson() const {
  MutexLock lock(mu_);
  std::string out = "{";
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += json::Quote(name) + ":" + std::to_string(c->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += json::Quote(name) + ":" + std::to_string(g->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    // Single snapshot: count, sum, and the three percentiles agree.
    HistogramSnapshot snap = h->Snapshot();
    out += json::Quote(name) +
           ":{\"count\":" + std::to_string(snap.TotalCount()) +
           ",\"sum\":" + json::Number(snap.sum) +
           ",\"p50\":" + json::Number(snap.Percentile(50)) +
           ",\"p95\":" + json::Number(snap.Percentile(95)) +
           ",\"p99\":" + json::Number(snap.Percentile(99)) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace vdb
