// Serving-layer tests (DESIGN.md §10): wire protocol round-trips and
// framing edges, admission control (token-bucket refill, in-flight
// quotas, queue depth, circuit breaker) against an injected clock, and
// end-to-end server behavior — deadline-expired-in-queue cancellation,
// RETRY-AFTER shedding, a full run queue, stats while every execution
// slot is busy, pipelined frames, graceful drain, fd hygiene, short-I/O
// torture.

#include <dirent.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/synthetic.h"
#include "core/telemetry.h"
#include "db/database.h"
#include "db/query_language.h"
#include "index/hnsw.h"
#include "net/admission.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

namespace vdb::net {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- protocol

TEST(ProtocolTest, QueryRequestRoundTrip) {
  Request req;
  req.type = MsgType::kQuery;
  req.request_id = 0xdeadbeefcafe;
  req.tenant = "team-a";
  req.deadline_ms = 250;
  req.text = "SELECT knn(3) FROM c ORDER BY distance([1, 2])";

  std::vector<std::uint8_t> wire;
  EncodeRequest(req, &wire);

  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kReady);
  EXPECT_EQ(consumed, wire.size());

  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MsgType::kQuery);
  EXPECT_EQ(decoded->request_id, req.request_id);
  EXPECT_EQ(decoded->tenant, req.tenant);
  EXPECT_EQ(decoded->deadline_ms, req.deadline_ms);
  EXPECT_EQ(decoded->text, req.text);
}

TEST(ProtocolTest, TraceFlagRoundTrips) {
  Request req;
  req.type = MsgType::kQuery;
  req.request_id = 12;
  req.tenant = "t";
  req.trace = true;
  req.text = "SELECT knn(1) FROM c ORDER BY distance([1])";
  std::vector<std::uint8_t> wire;
  EncodeRequest(req, &wire);
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kReady);
  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->trace);

  req.trace = false;
  wire.clear();
  EncodeRequest(req, &wire);
  ASSERT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kReady);
  decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->trace);
}

TEST(ProtocolTest, UnknownQueryFlagBitsAreIgnored) {
  Request req;
  req.type = MsgType::kQuery;
  req.request_id = 13;
  req.tenant = "t";
  req.trace = true;
  req.text = "q";
  std::vector<std::uint8_t> wire;
  EncodeRequest(req, &wire);
  // Flags byte offset inside the frame: [u32 len] + [u8 type]
  // [u64 request_id][u16 tenant_len][tenant][u32 deadline_ms].
  std::size_t flags_at = 4 + 1 + 8 + 2 + req.tenant.size() + 4;
  ASSERT_EQ(wire[flags_at], kQueryFlagTrace);
  wire[flags_at] = 0xFF;  // every bit set, most undefined today
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kReady);
  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->trace);  // known bit honored, unknown bits dropped
}

TEST(ProtocolTest, StatsRequestRoundTrips) {
  Request req;
  req.type = MsgType::kStats;
  req.request_id = 77;
  std::vector<std::uint8_t> wire;
  EncodeRequest(req, &wire);
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kReady);
  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MsgType::kStats);
  EXPECT_EQ(decoded->request_id, 77u);
}

TEST(ProtocolTest, ResponseRoundTripWithRows) {
  Response resp;
  resp.request_id = 7;
  resp.status = WireStatus::kOk;
  resp.rows = {{11, 0.25f}, {42, 1.5f}};
  resp.body = "explain text";

  std::vector<std::uint8_t> wire;
  EncodeResponse(resp, &wire);
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kReady);

  auto decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 7u);
  ASSERT_EQ(decoded->rows.size(), 2u);
  EXPECT_EQ(decoded->rows[0].id, 11u);
  EXPECT_FLOAT_EQ(decoded->rows[1].dist, 1.5f);
  EXPECT_EQ(decoded->body, "explain text");
}

TEST(ProtocolTest, ShedResponseCarriesRetryAfter) {
  Response resp;
  resp.request_id = 9;
  resp.status = WireStatus::kThrottled;
  resp.retry_after_ms = 120;
  resp.message = "tenant rate exceeded";

  std::vector<std::uint8_t> wire;
  EncodeResponse(resp, &wire);
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kReady);
  auto decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status, WireStatus::kThrottled);
  EXPECT_EQ(decoded->retry_after_ms, 120u);
  EXPECT_TRUE(IsRetryable(decoded->status));
  EXPECT_FALSE(IsRetryable(WireStatus::kInvalidArgument));
}

TEST(ProtocolTest, PartialFramesNeedMore) {
  Request req;
  req.type = MsgType::kPing;
  req.request_id = 3;
  std::vector<std::uint8_t> wire;
  EncodeRequest(req, &wire);

  // Feed byte-at-a-time: every prefix short of the full frame must be
  // kNeedMore (the re-entry path the net.read.short failpoint tortures).
  for (std::size_t n = 0; n + 1 < wire.size(); ++n) {
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    EXPECT_EQ(ExtractFrame({wire.data(), n}, &payload, &consumed),
              FrameResult::kNeedMore)
        << "prefix " << n;
  }
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  EXPECT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kReady);
}

TEST(ProtocolTest, OversizeFrameRejected) {
  // A hostile length prefix must be rejected before any allocation.
  std::vector<std::uint8_t> wire = {0xff, 0xff, 0xff, 0xff};
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  EXPECT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kTooLarge);
}

TEST(ProtocolTest, TruncatedPayloadFailsDecode) {
  Request req;
  req.type = MsgType::kQuery;
  req.tenant = "t";
  req.text = "q";
  std::vector<std::uint8_t> wire;
  EncodeRequest(req, &wire);
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(ExtractFrame(wire, &payload, &consumed), FrameResult::kReady);
  // Chop bytes off the payload: decode must error, never read past end.
  for (std::size_t n = 0; n < payload.size(); ++n) {
    auto decoded = DecodeRequest(payload.subspan(0, n));
    EXPECT_FALSE(decoded.ok()) << "truncated at " << n;
  }
}

TEST(ProtocolTest, WireStatusMapsStatusCodes) {
  EXPECT_EQ(WireStatusFromStatus(Status::DeadlineExceeded("x")),
            WireStatus::kDeadlineExceeded);
  EXPECT_EQ(WireStatusFromStatus(Status::NotFound("x")),
            WireStatus::kNotFound);
  Status back = StatusFromWire(WireStatus::kThrottled, "m");
  EXPECT_EQ(back.code(), StatusCode::kUnavailable);
}

// ------------------------------------------------------------ admission

AdmissionOptions SmallQuota() {
  AdmissionOptions opts;
  opts.default_quota.tokens_per_sec = 10.0;
  opts.default_quota.burst = 2.0;
  opts.default_quota.max_in_flight = 2;
  opts.max_queue_depth = 4;
  opts.breaker_threshold = 3;
  opts.breaker_cooldown_ms = 100;
  opts.retry_after_floor_ms = 10;
  return opts;
}

TEST(AdmissionTest, BurstThenThrottleWithRetryAfter) {
  AdmissionController ac(SmallQuota());
  auto t0 = Clock::now();
  // burst=2: exactly two admits, then a throttle with a computed hint.
  EXPECT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
  ac.OnStart();
  ac.OnComplete("t", true, t0);
  EXPECT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
  ac.OnStart();
  ac.OnComplete("t", true, t0);
  AdmitDecision d = ac.TryAdmit("t", t0);
  EXPECT_EQ(d.verdict, AdmitVerdict::kThrottled);
  // Need 1 token at 10/s => 100ms; hint must cover it (>= floor too).
  EXPECT_GE(d.retry_after_ms, 100u);
}

TEST(AdmissionTest, RefillRestoresTokensButCapsAtBurst) {
  AdmissionController ac(SmallQuota());
  auto t0 = Clock::now();
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
    ac.OnStart();
    ac.OnComplete("t", true, t0);
  }
  ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kThrottled);

  // 100ms at 10 tokens/s refills exactly the 1 token needed.
  auto t1 = t0 + milliseconds(100);
  EXPECT_EQ(ac.TryAdmit("t", t1).verdict, AdmitVerdict::kAdmit);
  ac.OnStart();
  ac.OnComplete("t", true, t1);

  // A long idle period must cap at burst=2, not accumulate unboundedly.
  auto t2 = t1 + std::chrono::hours(1);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(ac.TryAdmit("t", t2).verdict, AdmitVerdict::kAdmit) << i;
    ac.OnStart();
    ac.OnComplete("t", true, t2);
  }
  EXPECT_EQ(ac.TryAdmit("t", t2).verdict, AdmitVerdict::kThrottled);
}

TEST(AdmissionTest, RetryAfterNeverBelowFloor) {
  AdmissionOptions opts = SmallQuota();
  opts.default_quota.tokens_per_sec = 1e6;  // refill wait rounds to ~0ms
  opts.default_quota.burst = 1.0;
  AdmissionController ac(opts);
  auto t0 = Clock::now();
  ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
  ac.OnStart();
  ac.OnComplete("t", true, t0);
  AdmitDecision d = ac.TryAdmit("t", t0);
  ASSERT_EQ(d.verdict, AdmitVerdict::kThrottled);
  EXPECT_GE(d.retry_after_ms, opts.retry_after_floor_ms);
}

TEST(AdmissionTest, InFlightQuotaIndependentOfTokens) {
  AdmissionOptions opts = SmallQuota();
  opts.default_quota.tokens_per_sec = 1e6;
  opts.default_quota.burst = 100.0;
  AdmissionController ac(opts);
  auto t0 = Clock::now();
  // max_in_flight=2: a third concurrent request is throttled even with
  // plenty of tokens; completing one readmits.
  ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
  ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
  EXPECT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kThrottled);
  ac.OnStart();
  ac.OnComplete("t", true, t0);
  EXPECT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
}

TEST(AdmissionTest, TenantsAreIsolated) {
  AdmissionController ac(SmallQuota());
  auto t0 = Clock::now();
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(ac.TryAdmit("noisy", t0).verdict, AdmitVerdict::kAdmit);
    ac.OnStart();
    ac.OnComplete("noisy", true, t0);
  }
  ASSERT_EQ(ac.TryAdmit("noisy", t0).verdict, AdmitVerdict::kThrottled);
  // The noisy neighbor's empty bucket must not affect another tenant.
  EXPECT_EQ(ac.TryAdmit("quiet", t0).verdict, AdmitVerdict::kAdmit);
}

TEST(AdmissionTest, QueueDepthSheds) {
  AdmissionOptions opts = SmallQuota();
  opts.default_quota.tokens_per_sec = 1e6;
  opts.default_quota.burst = 100.0;
  opts.default_quota.max_in_flight = 100;
  opts.max_queue_depth = 4;
  AdmissionController ac(opts);
  auto t0 = Clock::now();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit) << i;
  }
  AdmitDecision d = ac.TryAdmit("t", t0);
  EXPECT_EQ(d.verdict, AdmitVerdict::kQueueFull);
  EXPECT_GE(d.retry_after_ms, opts.retry_after_floor_ms);
  // A worker picking one job up frees a queue slot.
  ac.OnStart();
  EXPECT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
}

TEST(AdmissionTest, BreakerTripsOnBackendFailuresOnly) {
  AdmissionOptions opts = SmallQuota();  // threshold 3, cooldown 100ms
  opts.default_quota.tokens_per_sec = 1e6;
  opts.default_quota.burst = 1e6;
  AdmissionController ac(opts);
  auto t0 = Clock::now();

  // Healthy completions (including client-visible errors like a bad
  // query — those report backend_healthy=true) never trip the breaker.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
    ac.OnStart();
    ac.OnComplete("t", /*backend_healthy=*/true, t0);
  }
  EXPECT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
  ac.OnStart();
  ac.OnComplete("t", true, t0);

  // Three consecutive backend failures: open, with a cooldown hint.
  Counter& trips =
      Registry::Global().GetCounter("vdb_server_breaker_trips_total");
  Gauge& open = Registry::Global().GetGauge("vdb_server_breaker_open");
  const std::uint64_t trips_before = trips.Value();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit) << i;
    ac.OnStart();
    ac.OnComplete("t", /*backend_healthy=*/false, t0);
  }
  EXPECT_EQ(trips.Value(), trips_before + 1);
  EXPECT_EQ(open.Value(), 1);
  AdmitDecision d = ac.TryAdmit("t", t0);
  EXPECT_EQ(d.verdict, AdmitVerdict::kBreakerOpen);
  EXPECT_GT(d.retry_after_ms, 0u);
  EXPECT_LE(d.retry_after_ms, opts.breaker_cooldown_ms);

  // Half-open after the cooldown: traffic flows again.
  auto t1 = t0 + milliseconds(opts.breaker_cooldown_ms + 1);
  EXPECT_EQ(ac.TryAdmit("t", t1).verdict, AdmitVerdict::kAdmit);
  EXPECT_EQ(open.Value(), 0);
  ac.OnStart();
  ac.OnComplete("t", true, t1);
}

TEST(AdmissionTest, DrainRejectsEverything) {
  AdmissionController ac(SmallQuota());
  auto t0 = Clock::now();
  ac.BeginDrain();
  AdmitDecision d = ac.TryAdmit("t", t0);
  EXPECT_EQ(d.verdict, AdmitVerdict::kDraining);
  // No retry hint: the process is going away, re-sending here is wrong.
  EXPECT_EQ(d.retry_after_ms, 0u);
}

TEST(AdmissionTest, EvictIdleTenantsDropsOnlyQuiescent) {
  Counter& evicted =
      Registry::Global().GetCounter("vdb_server_tenants_evicted_total");
  const std::uint64_t evicted_before = evicted.Value();
  AdmissionController ac(SmallQuota());
  auto t0 = Clock::now();
  // "idle" completes immediately; "busy" keeps one request in flight.
  ASSERT_EQ(ac.TryAdmit("idle", t0).verdict, AdmitVerdict::kAdmit);
  ac.OnStart();
  ac.OnComplete("idle", true, t0);
  ASSERT_EQ(ac.TryAdmit("busy", t0).verdict, AdmitVerdict::kAdmit);
  ac.OnStart();

  // Not idle long enough: nobody is evicted.
  EXPECT_EQ(ac.EvictIdleTenants(t0 + std::chrono::seconds(30),
                                std::chrono::minutes(1)),
            0u);
  // Past the horizon: "idle" goes; "busy" is pinned by in-flight work
  // however stale its last_seen is.
  EXPECT_EQ(ac.EvictIdleTenants(t0 + std::chrono::minutes(2),
                                std::chrono::minutes(1)),
            1u);
  EXPECT_EQ(evicted.Value(), evicted_before + 1);
  auto stats = ac.TenantStatsSnapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].tenant, "busy");
  EXPECT_EQ(stats[0].in_flight, 1u);

  // The pinned tenant's completion must still balance the accounting.
  ac.OnComplete("busy", true, t0 + std::chrono::minutes(2));
  EXPECT_EQ(ac.InFlight(), 0u);
}

TEST(AdmissionTest, EvictedTenantReturnsWithFreshBurst) {
  Counter& shed = Registry::Global().GetCounter(
      "vdb_server_tenant_shed_total{tenant=\"" +
      AdmissionController::MetricLabelFor("t") + "\"}");
  const std::uint64_t shed_before = shed.Value();
  AdmissionController ac(SmallQuota());  // burst=2
  auto t0 = Clock::now();
  // Drain the bucket, then go idle and get evicted.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kAdmit);
    ac.OnStart();
    ac.OnComplete("t", true, t0);
  }
  ASSERT_EQ(ac.TryAdmit("t", t0).verdict, AdmitVerdict::kThrottled);
  EXPECT_EQ(shed.Value(), shed_before + 1);
  ASSERT_EQ(ac.EvictIdleTenants(t0 + std::chrono::minutes(2),
                                std::chrono::minutes(1)),
            1u);
  // Re-arrival is indistinguishable from a first-ever arrival: full
  // burst again, cumulative snapshot counts restarted.
  EXPECT_EQ(ac.TryAdmit("t", t0 + std::chrono::minutes(2)).verdict,
            AdmitVerdict::kAdmit);
  auto stats = ac.TenantStatsSnapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].admitted, 1u);
  EXPECT_EQ(stats[0].shed, 0u);
  // The labeled shed counter is lifetime: eviction does not reset it.
  EXPECT_EQ(shed.Value(), shed_before + 1);
}

// ----------------------------------------------------------- end-to-end

std::size_t OpenFdCount() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (!dir) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

/// Polls a server gauge until it reads `want` (or ~2s pass); returns the
/// last value read.
std::int64_t WaitForGauge(const char* name, std::int64_t want) {
  Gauge& gauge = Registry::Global().GetGauge(name);
  for (int i = 0; i < 400 && gauge.Value() != want; ++i) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  return gauge.Value();
}

/// Waits until exactly one admitted query is executing and none waits.
void WaitForOneExecuting() {
  ASSERT_EQ(WaitForGauge("vdb_server_in_flight", 1), 1);
  ASSERT_EQ(WaitForGauge("vdb_server_queue_depth", 0), 0);
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CollectionOptions opts;
    opts.dim = 4;
    opts.index_factory = [] {
      HnswOptions hnsw;
      hnsw.m = 8;
      return std::make_unique<HnswIndex>(hnsw);
    };
    auto created = db_.CreateCollection("c", opts);
    ASSERT_TRUE(created.ok());
    FloatMatrix data = GaussianClusters({64, 4, 4, 11, 0.2f});
    for (std::size_t i = 0; i < data.rows(); ++i) {
      ASSERT_TRUE((*created)->Insert(i, data.row_view(i), {}).ok());
    }
    ASSERT_TRUE((*created)->BuildIndex().ok());
  }

  std::unique_ptr<Server> StartServer(ServerOptions opts = {}) {
    auto started = Server::Start(&db_, std::move(opts));
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    return started.ok() ? std::move(*started) : nullptr;
  }

  static constexpr const char* kQuery =
      "SELECT knn(3) FROM c ORDER BY distance([0.1, 0.2, 0.3, 0.4])";

  Database db_;
};

TEST_F(ServerTest, PingQueryMetrics) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto ping = (*client)->Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->status, WireStatus::kOk);

  auto query = (*client)->Query(kQuery, "t", 0);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->status, WireStatus::kOk);
  EXPECT_EQ(query->rows.size(), 3u);

  auto metrics = (*client)->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("\"lifetime\":"), std::string::npos);
  EXPECT_NE(metrics->body.find("vdb_server_admitted_total"),
            std::string::npos);
  // The wire metrics body also carries the 10s/60s windowed views.
  EXPECT_NE(metrics->body.find("\"windowed\":{\"windows\":"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("\"10s\":"), std::string::npos);
  EXPECT_NE(metrics->body.find("\"60s\":"), std::string::npos);
}

TEST_F(ServerTest, TracedQueryRoundTripsSpanTreeOverWire) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  auto plain = (*client)->Query(kQuery, "t", 0);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->status, WireStatus::kOk);
  EXPECT_EQ(plain->body, "");  // untraced queries pay no explain cost

  auto traced = (*client)->Query(kQuery, "t", 0, /*trace=*/true);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(traced->status, WireStatus::kOk);
  EXPECT_EQ(traced->rows.size(), 3u);
  // The response body carries the server-side span tree plus the
  // per-stage attribution line (remote EXPLAIN ANALYZE).
  EXPECT_NE(traced->body.find("query"), std::string::npos);
  EXPECT_NE(traced->body.find("parse"), std::string::npos);
  EXPECT_NE(traced->body.find("index_search"), std::string::npos);
  EXPECT_NE(traced->body.find("stages: "), std::string::npos);
}

TEST_F(ServerTest, StatsFrameReportsWindowsVerdictsTenantsWorst) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    auto r = (*client)->Query(kQuery, "stats-tenant", 1000);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, WireStatus::kOk);
  }

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, WireStatus::kOk);
  const std::string& body = stats->body;
  // Windowed qps/percentiles over both standard windows.
  EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"10s\":{\"requests\":"), std::string::npos);
  EXPECT_NE(body.find("\"60s\":{\"requests\":"), std::string::npos);
  EXPECT_NE(body.find("\"p95_ms\":"), std::string::npos);
  // Verdict mix, both 10s deltas and monotonic lifetime totals.
  EXPECT_NE(body.find("\"verdicts_10s\":{"), std::string::npos);
  EXPECT_NE(body.find("\"lifetime\":{"), std::string::npos);
  EXPECT_NE(body.find("\"deadline_expired\":"), std::string::npos);
  // Per-tenant admission accounting for the tenant we drove.
  EXPECT_NE(body.find("\"tenant\":\"stats-tenant\""), std::string::npos);
  EXPECT_NE(body.find("\"shed_rate_10s\":"), std::string::npos);
  // The flight recorder dump (the five OK queries are board-worthy on a
  // quiet board).
  EXPECT_NE(body.find("\"worst_queries\":["), std::string::npos);
  EXPECT_NE(body.find("\"seq\":"), std::string::npos);
}

TEST_F(ServerTest, BadQueryIsClientErrorNotDisconnect) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto bad = (*client)->Query("SELECT nonsense", "t", 0);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->status, WireStatus::kInvalidArgument);
  EXPECT_FALSE(bad->message.empty());
  // The connection survives a bad query.
  auto good = (*client)->Query(kQuery, "t", 0);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->status, WireStatus::kOk);
}

TEST_F(ServerTest, DeadlineExpiredInQueueIsCancelledNotComputed) {
  ServerOptions opts;
  opts.num_workers = 1;
  auto server = StartServer(std::move(opts));
  ASSERT_NE(server, nullptr);

  auto& reg = Registry::Global();
  std::uint64_t expired_before =
      reg.GetCounter("vdb_server_deadline_expired_total").Value();

  // The lone worker stalls 150ms before looking at each job, so a 20ms
  // budget is guaranteed to be gone by the time the job is picked up.
  ScopedFailpoint stall("net.worker.stall", "delay:150");
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto resp = (*client)->Query(kQuery, "t", 20);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, WireStatus::kDeadlineExceeded);
  EXPECT_EQ(resp->rows.size(), 0u);  // cancelled, not computed
  EXPECT_GE(reg.GetCounter("vdb_server_deadline_expired_total").Value(),
            expired_before + 1);
}

TEST_F(ServerTest, StatsAnsweredWhileEveryWorkerIsBusy) {
  // One execution slot, held by a stalled query: the remaining serving
  // thread keeps polling and answers stats and ping inline.
  constexpr int kStallMs = 300;
  ServerOptions opts;
  opts.num_workers = 1;
  auto server = StartServer(std::move(opts));
  ASSERT_NE(server, nullptr);
  ScopedFailpoint stall("net.worker.stall",
                        "delay:" + std::to_string(kStallMs));

  Result<Response> busy = Status::Internal("not run");
  std::thread holder([&] {
    auto client = Client::Connect("127.0.0.1", server->port());
    if (client.ok()) busy = (*client)->Query(kQuery, "t", 0);
  });
  WaitForOneExecuting();

  auto observer = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(observer.ok());
  auto t0 = Clock::now();
  auto stats = (*observer)->Stats();
  auto stats_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  t0 = Clock::now();
  auto ping = (*observer)->Ping();
  auto ping_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  holder.join();

  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, WireStatus::kOk);
  EXPECT_NE(stats->body.find("\"uptime_seconds\":"), std::string::npos);
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->status, WireStatus::kOk);
  EXPECT_LT(stats_ms, kStallMs / 3.0);
  EXPECT_LT(ping_ms, kStallMs / 3.0);
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  EXPECT_EQ(busy->status, WireStatus::kOk);
}

TEST_F(ServerTest, QueueFullEndToEnd) {
  // One query executes (stalled), one waits on the run queue, and the
  // third finds the queue at its depth bound: QUEUE_FULL with a backoff
  // hint, and every request still gets exactly one verdict.
  auto& reg = Registry::Global();
  auto snapshot = [&] {
    return std::vector<std::uint64_t>{
        reg.GetCounter("vdb_server_query_requests_total").Value(),
        reg.GetCounter("vdb_server_admitted_total").Value(),
        reg.GetCounter("vdb_server_throttled_total").Value(),
        reg.GetCounter("vdb_server_shed_queue_full_total").Value(),
        reg.GetCounter("vdb_server_breaker_rejected_total").Value(),
        reg.GetCounter("vdb_server_rejected_draining_total").Value(),
    };
  };
  auto before = snapshot();

  ServerOptions opts;
  opts.num_workers = 1;
  opts.admission.max_queue_depth = 1;
  auto server = StartServer(std::move(opts));
  ASSERT_NE(server, nullptr);
  ScopedFailpoint stall("net.worker.stall", "delay:300");

  auto query_on_new_conn = [&](Result<Response>* out) {
    auto client = Client::Connect("127.0.0.1", server->port());
    if (client.ok()) *out = (*client)->Query(kQuery, "t", 0);
  };
  Result<Response> executing = Status::Internal("not run");
  Result<Response> waiting = Status::Internal("not run");
  std::thread first(query_on_new_conn, &executing);
  WaitForOneExecuting();
  std::thread second(query_on_new_conn, &waiting);
  EXPECT_EQ(WaitForGauge("vdb_server_queue_depth", 1), 1);

  Result<Response> shed = Status::Internal("not run");
  query_on_new_conn(&shed);
  first.join();
  second.join();

  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, WireStatus::kQueueFull);
  EXPECT_GT(shed->retry_after_ms, 0u);
  ASSERT_TRUE(executing.ok()) << executing.status().ToString();
  EXPECT_EQ(executing->status, WireStatus::kOk);
  ASSERT_TRUE(waiting.ok()) << waiting.status().ToString();
  EXPECT_EQ(waiting->status, WireStatus::kOk);
  EXPECT_EQ(waiting->rows.size(), 3u);

  (void)server->Shutdown();
  auto after = snapshot();
  std::uint64_t requests = after[0] - before[0];
  std::uint64_t verdicts = 0;
  for (std::size_t i = 1; i < after.size(); ++i) {
    verdicts += after[i] - before[i];
  }
  EXPECT_EQ(requests, 3u);
  EXPECT_EQ(verdicts, requests);
  EXPECT_EQ(after[3] - before[3], 1u);
}

TEST_F(ServerTest, PipelinedFramesOnOneConnection) {
  // Three query frames written back to back on one socket: each is
  // answered exactly once, under its own request id.
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  int fd = (*client)->fd();
  timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);

  const std::vector<std::uint64_t> ids = {101, 202, 303};
  std::vector<std::uint8_t> out;
  for (std::uint64_t id : ids) {
    Request req;
    req.request_id = id;
    req.tenant = "t";
    req.text = kQuery;
    EncodeRequest(req, &out);
  }
  std::size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }

  std::map<std::uint64_t, int> answered;
  std::vector<std::uint8_t> in;
  std::size_t replies = 0;
  while (replies < ids.size()) {
    std::uint8_t chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "connection closed or timed out after " << replies
                    << " replies";
    in.insert(in.end(), chunk, chunk + n);
    for (;;) {
      std::span<const std::uint8_t> payload;
      std::size_t consumed = 0;
      if (ExtractFrame(in, &payload, &consumed) != FrameResult::kReady) break;
      auto resp = DecodeResponse(payload);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      EXPECT_EQ(resp->status, WireStatus::kOk);
      EXPECT_EQ(resp->rows.size(), 3u);
      ++answered[resp->request_id];
      ++replies;
      in.erase(in.begin(),
               in.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
  }
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(answered.size(), ids.size());
  for (std::uint64_t id : ids) EXPECT_EQ(answered[id], 1) << id;
}

TEST_F(ServerTest, ThrottledEndToEndCarriesRetryAfter) {
  ServerOptions opts;
  opts.admission.default_quota.tokens_per_sec = 5.0;
  opts.admission.default_quota.burst = 1.0;
  auto server = StartServer(std::move(opts));
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  auto first = (*client)->Query(kQuery, "t", 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, WireStatus::kOk);
  auto second = (*client)->Query(kQuery, "t", 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, WireStatus::kThrottled);
  EXPECT_GT(second->retry_after_ms, 0u);
}

TEST_F(ServerTest, DrainRejectsNewWorkThenExitsClean) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());

  server->RequestDrain();
  // The already-open connection gets explicit DRAINING verdicts while
  // the drain completes (never a hang or silent close).
  auto resp = (*client)->Query(kQuery, "t", 0);
  if (resp.ok()) {
    EXPECT_EQ(resp->status, WireStatus::kDraining);
  }  // else: drain finished first and closed the socket — also legal

  DrainReport report = server->Shutdown();
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.aborted_requests, 0u);
  EXPECT_LT(report.seconds, 5.0);
}

TEST_F(ServerTest, ShortIoFailpointsDoNotCorruptFrames) {
  // 1-byte reads/writes plus injected EINTR on every syscall: the
  // framing layer must still deliver intact request/response pairs.
  ScopedFailpoint short_read("net.read.short");
  ScopedFailpoint short_write("net.write.short");
  ScopedFailpoint eintr_read("net.read.eintr");
  ScopedFailpoint eintr_write("net.write.eintr");
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    auto resp = (*client)->Query(kQuery, "t", 0);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, WireStatus::kOk);
    EXPECT_EQ(resp->rows.size(), 3u);
  }
}

TEST_F(ServerTest, NoFdLeakAcrossConnectionChurn) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto& conn_gauge = Registry::Global().GetGauge("vdb_server_connections");

  // Warm up (epoll/eventfd/listener are steady-state).
  {
    auto c = Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Ping().ok());
  }
  auto wait_conns = [&](std::int64_t want) {
    for (int i = 0; i < 200 && conn_gauge.Value() != want; ++i) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    return conn_gauge.Value();
  };
  ASSERT_EQ(wait_conns(0), 0);

  std::size_t fds_before = OpenFdCount();
  for (int round = 0; round < 3; ++round) {
    std::vector<std::unique_ptr<Client>> clients;
    for (int i = 0; i < 16; ++i) {
      auto c = Client::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(c.ok());
      clients.push_back(std::move(*c));
    }
    for (auto& c : clients) {
      auto resp = c->Query(kQuery, "t", 0);
      ASSERT_TRUE(resp.ok());
    }
    clients.clear();  // closes 16 sockets
    ASSERT_EQ(wait_conns(0), 0) << "server did not reap closed conns";
  }
  std::size_t fds_after = OpenFdCount();
  EXPECT_EQ(fds_before, fds_after) << "fd leak across connection churn";
}

/// Writes `bytes` on `fd` and reads back one response frame.
Result<Response> RawRoundTrip(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    if (n <= 0) return Status::IoError("send");
    sent += static_cast<std::size_t>(n);
  }
  std::vector<std::uint8_t> in;
  for (;;) {
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    if (ExtractFrame(in, &payload, &consumed) == FrameResult::kReady) {
      return DecodeResponse(payload);
    }
    std::uint8_t chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return Status::IoError("connection closed");
    in.insert(in.end(), chunk, chunk + n);
  }
}

TEST_F(ServerTest, ConnectionsFramesAndDrainAreCounted) {
  auto& reg = Registry::Global();
  Counter& accepted = reg.GetCounter("vdb_server_accepted_total");
  Counter& accept_failures = reg.GetCounter("vdb_server_accept_failures_total");
  Counter& malformed = reg.GetCounter("vdb_server_malformed_requests_total");
  Counter& protocol_errors = reg.GetCounter("vdb_server_protocol_errors_total");
  Histogram& requests = reg.GetHistogram("vdb_server_request_seconds");
  Histogram& drains = reg.GetHistogram("vdb_server_drain_seconds");
  const std::uint64_t accepted_before = accepted.Value();
  const std::uint64_t accept_failures_before = accept_failures.Value();
  const std::uint64_t malformed_before = malformed.Value();
  const std::uint64_t protocol_errors_before = protocol_errors.Value();
  const std::uint64_t requests_before = requests.Count();
  const std::uint64_t drains_before = drains.Count();

  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  auto resp = (*client)->Query(kQuery, "t", 0);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, WireStatus::kOk);
  EXPECT_EQ(accepted.Value(), accepted_before + 1);
  EXPECT_EQ(requests.Count(), requests_before + 1);

  // A frame whose payload does not decode: a MALFORMED reply, and the
  // connection stays open.
  auto bad = RawRoundTrip((*client)->fd(), {2, 0, 0, 0, 1, 0});
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->status, WireStatus::kMalformed);
  EXPECT_EQ(malformed.Value(), malformed_before + 1);
  ASSERT_TRUE((*client)->Ping().ok());

  // A frame longer than the limit: a protocol error, then a close.
  auto huge = RawRoundTrip((*client)->fd(), {0xff, 0xff, 0xff, 0xff});
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_EQ(huge->status, WireStatus::kMalformed);
  EXPECT_EQ(protocol_errors.Value(), protocol_errors_before + 1);

  {
    // The server takes the socket and drops it at once.
    ScopedFailpoint refuse("net.accept.fail", "times:1");
    auto refused = Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(refused.ok());
    EXPECT_FALSE((*refused)->Ping().ok());
  }
  EXPECT_EQ(accept_failures.Value(), accept_failures_before + 1);
  EXPECT_EQ(accepted.Value(), accepted_before + 1);

  server->RequestDrain();
  EXPECT_TRUE(server->Shutdown().clean);
  EXPECT_EQ(drains.Count(), drains_before + 1);
}

TEST_F(ServerTest, AdmissionVerdictsAreAccounted) {
  // Conservation: every query request is exactly one of admitted /
  // throttled / queue-full / breaker / draining — the soak invariant.
  auto& reg = Registry::Global();
  auto snapshot = [&] {
    return std::vector<std::uint64_t>{
        reg.GetCounter("vdb_server_query_requests_total").Value(),
        reg.GetCounter("vdb_server_admitted_total").Value(),
        reg.GetCounter("vdb_server_throttled_total").Value(),
        reg.GetCounter("vdb_server_shed_queue_full_total").Value(),
        reg.GetCounter("vdb_server_breaker_rejected_total").Value(),
        reg.GetCounter("vdb_server_rejected_draining_total").Value(),
    };
  };
  auto before = snapshot();

  ServerOptions opts;
  opts.admission.default_quota.tokens_per_sec = 50.0;
  opts.admission.default_quota.burst = 4.0;
  auto server = StartServer(std::move(opts));
  ASSERT_NE(server, nullptr);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 20; ++i) {
    auto resp = (*client)->Query(kQuery, "t", 0);
    ASSERT_TRUE(resp.ok());
  }
  server->RequestDrain();
  (void)server->Shutdown();

  auto after = snapshot();
  std::uint64_t requests = after[0] - before[0];
  std::uint64_t verdicts = 0;
  for (std::size_t i = 1; i < after.size(); ++i) {
    verdicts += after[i] - before[i];
  }
  EXPECT_EQ(requests, 20u);
  EXPECT_EQ(verdicts, requests);
}

}  // namespace
}  // namespace vdb::net
