#ifndef VDB_NET_ADMISSION_H_
#define VDB_NET_ADMISSION_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sync.h"

namespace vdb::net {

/// Per-tenant steady-state limits. The token bucket (`tokens_per_sec`
/// refill into a bucket capped at `burst`) shapes request *rate*; the
/// in-flight quota caps the tenant's concurrent footprint regardless of
/// rate (one slow tenant cannot monopolize the worker pool).
struct TenantQuota {
  double tokens_per_sec = 500.0;
  double burst = 1000.0;
  std::uint32_t max_in_flight = 64;
};

struct AdmissionOptions {
  /// Every tenant's quota; each tenant has its own bucket and in-flight
  /// count.
  TenantQuota default_quota;
  /// Run-queue depth bound: admitted-but-not-started requests beyond
  /// this are shed with QUEUE_FULL instead of stalling the accept path.
  std::size_t max_queue_depth = 256;
  /// Backend circuit breaker: consecutive backend failures (internal /
  /// IO / corruption statuses — never client errors) that open it.
  /// 0 disables the breaker.
  std::uint32_t breaker_threshold = 16;
  /// Wall-clock cooldown while open; admission fast-fails BREAKER_OPEN
  /// with the remaining cooldown as RETRY-AFTER.
  std::uint32_t breaker_cooldown_ms = 500;
  /// Floor for advertised RETRY-AFTER hints (quota and queue sheds).
  std::uint32_t retry_after_floor_ms = 10;
};

enum class AdmitVerdict {
  kAdmit,
  kThrottled,    ///< token bucket empty or in-flight quota reached
  kQueueFull,    ///< run queue at max_queue_depth
  kBreakerOpen,  ///< backend breaker cooling down
  kDraining,     ///< server is draining; no new work
};

struct AdmitDecision {
  AdmitVerdict verdict = AdmitVerdict::kAdmit;
  /// Client backoff hint; nonzero iff the verdict is a rejection.
  std::uint32_t retry_after_ms = 0;
};

/// Admission state machine for the serving layer (DESIGN.md §10).
///
/// Every query request passes through TryAdmit before it may enter the
/// run queue; an admitted request MUST later report OnStart (dequeued by
/// a worker) and exactly one OnComplete (including deadline-cancelled
/// and drain-aborted requests), which is what keeps the queue-depth and
/// in-flight accounting — and therefore backpressure — truthful.
///
/// Time is injected (`now` parameters) so refill edges, breaker
/// cooldowns, and RETRY-AFTER math are unit-testable without sleeping.
/// All state sits behind one mutex: admission runs per *request frame*,
/// orders of magnitude off the index hot path.
///
/// Reports into the global registry: vdb_server_admitted_total,
/// _throttled_total, _shed_queue_full_total, _breaker_rejected_total,
/// _rejected_draining_total, _breaker_trips_total,
/// _tenants_evicted_total counters and the
/// vdb_server_queue_depth / _in_flight / _breaker_open gauges; plus the
/// per-tenant labeled counter vdb_server_tenant_shed_total{tenant="..."}
/// (labels sanitized, capped at kMaxTenantLabels distinct values then
/// folded into tenant="other" so a hostile tenant-name stream cannot grow
/// the registry unbounded). Per-tenant admissions are counted only in
/// TenantStatsSnapshot.
class AdmissionController {
 public:
  using Clock = std::chrono::steady_clock;

  /// Distinct tenant label values in the metrics registry before new
  /// tenants fold into tenant="other".
  static constexpr std::size_t kMaxTenantLabels = 32;

  explicit AdmissionController(AdmissionOptions opts);

  /// Verdict for one query from `tenant` ("" = default bucket).
  /// kAdmit charges one token and reserves a queue slot.
  AdmitDecision TryAdmit(const std::string& tenant, Clock::time_point now);

  /// A worker dequeued the request (queue slot freed; still in flight).
  void OnStart();

  /// The request finished (any way: executed, failed, deadline-expired,
  /// drain-aborted). `backend_healthy` must be false only for backend
  /// faults (internal/IO/corruption) — client errors and deadline
  /// cancellations count as healthy for the breaker.
  void OnComplete(const std::string& tenant, bool backend_healthy,
                  Clock::time_point now);

  /// Evicts tenants with no in-flight work whose last admission
  /// activity (TryAdmit or OnComplete) is older than `idle_for`;
  /// returns how many were dropped. The server's housekeeping pass
  /// calls this periodically so a long-lived server's tenant map tracks the
  /// *active* tenant set instead of growing monotonically. Eviction
  /// resets the tenant's cumulative admitted/shed counts in
  /// TenantStatsSnapshot (the labeled lifetime shed counter in the
  /// registry is unaffected); a returning tenant re-initializes with a full
  /// burst, exactly like a first-ever arrival.
  std::size_t EvictIdleTenants(Clock::time_point now,
                               std::chrono::milliseconds idle_for);

  /// Enters drain: every subsequent TryAdmit returns kDraining.
  void BeginDrain();
  bool draining() const;

  /// Admitted-but-unfinished request count (queued + executing).
  std::size_t InFlight() const;
  /// Admitted-but-not-started count (the backpressure signal).
  std::size_t QueueDepth() const;

  /// Cumulative per-tenant accounting for the stats wire frame: one
  /// entry per tenant ever seen, sorted by tenant name.
  struct TenantStats {
    std::string tenant;          ///< "" = default bucket
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;      ///< throttled+queue_full+breaker+draining
    std::uint32_t in_flight = 0;
  };
  std::vector<TenantStats> TenantStatsSnapshot() const;

  /// The sanitized label value this tenant reports under in the labeled
  /// per-tenant shed counter ("" -> "default"). Does not account for
  /// cardinality folding: a tenant past the kMaxTenantLabels cap
  /// actually reports as "other".
  static std::string MetricLabelFor(const std::string& tenant);

  const AdmissionOptions& options() const { return opts_; }

 private:
  struct TenantState {
    double tokens = 0.0;
    Clock::time_point last_refill{};
    Clock::time_point last_seen{};  ///< last TryAdmit/OnComplete touch
    bool initialized = false;
    std::uint32_t in_flight = 0;
    std::uint64_t admitted = 0;  ///< cumulative TryAdmit -> kAdmit
    std::uint64_t shed = 0;      ///< cumulative TryAdmit -> any rejection
  };

  /// TryAdmit body; mu_ held (compiler-checked). Updates per-tenant
  /// cumulative counts but not the labeled shed counter (the caller
  /// bumps it after releasing mu_ to keep the hold short;
  /// first-call metric registration inside may take leaf Registry::mu_).
  AdmitDecision TryAdmitLocked(const std::string& tenant,
                               Clock::time_point now) VDB_REQUIRES(mu_);

  const AdmissionOptions opts_;
  /// §9.1: may be held while registering metrics (leaf Registry::mu_);
  /// Server::queue_mu_ is held around OnComplete on the drain-abort
  /// path, so queue_mu_ orders before this mutex.
  mutable Mutex mu_;
  std::map<std::string, TenantState> tenants_ VDB_GUARDED_BY(mu_);
  std::size_t queued_ VDB_GUARDED_BY(mu_) = 0;
  std::size_t executing_ VDB_GUARDED_BY(mu_) = 0;
  bool draining_ VDB_GUARDED_BY(mu_) = false;
  // Breaker state: consecutive backend failures and the cooldown edge.
  std::uint32_t consecutive_failures_ VDB_GUARDED_BY(mu_) = 0;
  Clock::time_point breaker_open_until_ VDB_GUARDED_BY(mu_){};
};

}  // namespace vdb::net

#endif  // VDB_NET_ADMISSION_H_
