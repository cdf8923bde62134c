#include "net/admission.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>

#include "core/sync.h"
#include "core/telemetry.h"

namespace vdb::net {

namespace {

struct Metrics {
  Counter& admitted;
  Counter& throttled;
  Counter& shed_queue_full;
  Counter& breaker_rejected;
  Counter& rejected_draining;
  Counter& breaker_trips;
  Counter& tenants_evicted;
  Gauge& queue_depth;
  Gauge& in_flight;
  Gauge& breaker_open;

  static Metrics& Get() {
    auto& reg = Registry::Global();
    static Metrics m{
        reg.GetCounter("vdb_server_admitted_total"),
        reg.GetCounter("vdb_server_throttled_total"),
        reg.GetCounter("vdb_server_shed_queue_full_total"),
        reg.GetCounter("vdb_server_breaker_rejected_total"),
        reg.GetCounter("vdb_server_rejected_draining_total"),
        reg.GetCounter("vdb_server_breaker_trips_total"),
        reg.GetCounter("vdb_server_tenants_evicted_total"),
        reg.GetGauge("vdb_server_queue_depth"),
        reg.GetGauge("vdb_server_in_flight"),
        reg.GetGauge("vdb_server_breaker_open"),
    };
    return m;
  }
};

/// Tenant name -> Prometheus label value: restricted to [a-zA-Z0-9_-]
/// (anything else becomes '_' so a tenant cannot inject label syntax),
/// truncated, "" mapped to "default".
std::string SanitizeTenantLabel(const std::string& tenant) {
  std::string label;
  for (char c : tenant) {
    bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_' ||
              c == '-';
    label.push_back(ok ? c : '_');
    if (label.size() >= 32) break;
  }
  if (label.empty()) label = "default";
  return label;
}

/// Labeled per-tenant counter with bounded label cardinality: after
/// kMaxTenantLabels distinct labels, new tenants fold into "other".
Counter& TenantCounter(const char* base, const std::string& tenant) {
  static Mutex mu;
  static std::set<std::string>* seen VDB_GUARDED_BY(mu) =
      new std::set<std::string>();
  std::string label = SanitizeTenantLabel(tenant);
  {
    MutexLock lock(mu);
    auto it = seen->find(label);
    if (it == seen->end()) {
      if (seen->size() >= AdmissionController::kMaxTenantLabels) {
        label = "other";
      } else {
        seen->insert(label);
      }
    }
  }
  return Registry::Global().GetCounter(std::string(base) + "{tenant=\"" +
                                       label + "\"}");
}

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions opts)
    : opts_(std::move(opts)) {}

AdmitDecision AdmissionController::TryAdmit(const std::string& tenant,
                                            Clock::time_point now) {
  AdmitDecision decision;
  {
    MutexLock lock(mu_);
    decision = TryAdmitLocked(tenant, now);
  }
  // The labeled shed counter outside mu_: every tenant name is a map
  // lookup (and possibly a registration) under Registry::mu_, so it
  // stays off the admission hold. Registry::mu_ is a §9.1 leaf — the
  // first Metrics::Get() inside TryAdmitLocked may also take it under
  // mu_, which is the one allowed nesting direction. Admitted queries
  // pay neither: their per-tenant count is TenantStats::admitted.
  if (decision.verdict != AdmitVerdict::kAdmit) {
    TenantCounter("vdb_server_tenant_shed_total", tenant).Inc();
  }
  return decision;
}

AdmitDecision AdmissionController::TryAdmitLocked(const std::string& tenant,
                                                  Clock::time_point now) {
  Metrics& m = Metrics::Get();
  TenantState& state = tenants_[tenant];
  state.last_seen = now;
  // Count every rejection against the requesting tenant, whatever the
  // cause — "my shed rate" is the number a tenant dashboard needs even
  // when the cause is server-wide (queue, breaker, drain).
  auto reject = [&state](AdmitDecision d) {
    state.shed += 1;
    return d;
  };

  if (draining_) {
    m.rejected_draining.Inc();
    // No retry hint: this process is going away; the client should
    // re-resolve, not re-send here.
    return reject({AdmitVerdict::kDraining, 0});
  }

  if (breaker_open_until_ != Clock::time_point{}) {
    if (now < breaker_open_until_) {
      m.breaker_rejected.Inc();
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                           breaker_open_until_ - now)
                           .count();
      return reject(
          {AdmitVerdict::kBreakerOpen,
           std::max<std::uint32_t>(static_cast<std::uint32_t>(remaining), 1)});
    }
    // Cooldown over — half-open: admit traffic again; the next backend
    // failure streak re-trips immediately.
    breaker_open_until_ = {};
    m.breaker_open.Set(0);
  }

  if (queued_ >= opts_.max_queue_depth) {
    m.shed_queue_full.Inc();
    return reject({AdmitVerdict::kQueueFull, opts_.retry_after_floor_ms});
  }

  const TenantQuota& quota = opts_.default_quota;
  if (!state.initialized) {
    state.tokens = quota.burst;
    state.last_refill = now;
    state.initialized = true;
  }

  if (state.in_flight >= quota.max_in_flight) {
    m.throttled.Inc();
    return reject({AdmitVerdict::kThrottled, opts_.retry_after_floor_ms});
  }

  // Token-bucket refill: elapsed * rate, capped at burst. Negative
  // elapsed (caller clock misuse) refills nothing.
  double elapsed =
      std::chrono::duration<double>(now - state.last_refill).count();
  if (elapsed > 0) {
    state.tokens = std::min(quota.burst,
                            state.tokens + elapsed * quota.tokens_per_sec);
    state.last_refill = now;
  }

  if (state.tokens < 1.0) {
    m.throttled.Inc();
    std::uint32_t retry_ms = opts_.retry_after_floor_ms;
    if (quota.tokens_per_sec > 0) {
      double wait_s = (1.0 - state.tokens) / quota.tokens_per_sec;
      retry_ms = std::max<std::uint32_t>(
          retry_ms, static_cast<std::uint32_t>(std::ceil(wait_s * 1e3)));
    }
    return reject({AdmitVerdict::kThrottled, retry_ms});
  }

  state.tokens -= 1.0;
  state.in_flight += 1;
  state.admitted += 1;
  ++queued_;
  m.admitted.Inc();
  m.queue_depth.Set(static_cast<std::int64_t>(queued_));
  m.in_flight.Set(static_cast<std::int64_t>(queued_ + executing_));
  return {AdmitVerdict::kAdmit, 0};
}

void AdmissionController::OnStart() {
  Metrics& m = Metrics::Get();
  MutexLock lock(mu_);
  if (queued_ > 0) --queued_;
  ++executing_;
  m.queue_depth.Set(static_cast<std::int64_t>(queued_));
}

void AdmissionController::OnComplete(const std::string& tenant,
                                     bool backend_healthy,
                                     Clock::time_point now) {
  Metrics& m = Metrics::Get();
  MutexLock lock(mu_);
  if (executing_ > 0) --executing_;
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) {
    if (it->second.in_flight > 0) it->second.in_flight -= 1;
    it->second.last_seen = now;
  }
  m.in_flight.Set(static_cast<std::int64_t>(queued_ + executing_));

  if (opts_.breaker_threshold == 0) return;
  if (backend_healthy) {
    consecutive_failures_ = 0;
    return;
  }
  if (++consecutive_failures_ >= opts_.breaker_threshold) {
    consecutive_failures_ = 0;
    breaker_open_until_ =
        now + std::chrono::milliseconds(opts_.breaker_cooldown_ms);
    m.breaker_trips.Inc();
    m.breaker_open.Set(1);
  }
}

std::size_t AdmissionController::EvictIdleTenants(
    Clock::time_point now, std::chrono::milliseconds idle_for) {
  Metrics& m = Metrics::Get();
  std::size_t evicted = 0;
  {
    MutexLock lock(mu_);
    for (auto it = tenants_.begin(); it != tenants_.end();) {
      const TenantState& state = it->second;
      // In-flight work pins the entry: its OnComplete must still find
      // the in_flight count to decrement. last_seen covers completions
      // too, so a tenant with slow queries does not look idle.
      if (state.in_flight == 0 && now - state.last_seen >= idle_for) {
        it = tenants_.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  if (evicted > 0) m.tenants_evicted.Inc(evicted);
  return evicted;
}

void AdmissionController::BeginDrain() {
  MutexLock lock(mu_);
  draining_ = true;
}

bool AdmissionController::draining() const {
  MutexLock lock(mu_);
  return draining_;
}

std::size_t AdmissionController::InFlight() const {
  MutexLock lock(mu_);
  return queued_ + executing_;
}

std::size_t AdmissionController::QueueDepth() const {
  MutexLock lock(mu_);
  return queued_;
}

std::string AdmissionController::MetricLabelFor(const std::string& tenant) {
  return SanitizeTenantLabel(tenant);
}

std::vector<AdmissionController::TenantStats>
AdmissionController::TenantStatsSnapshot() const {
  MutexLock lock(mu_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& [tenant, state] : tenants_) {
    TenantStats ts;
    ts.tenant = tenant;
    ts.admitted = state.admitted;
    ts.shed = state.shed;
    ts.in_flight = state.in_flight;
    out.push_back(std::move(ts));
  }
  return out;  // std::map iteration: already sorted by tenant
}

}  // namespace vdb::net
