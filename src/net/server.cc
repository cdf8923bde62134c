#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/failpoint.h"
#include "core/json.h"
#include "core/telemetry.h"
#include "core/telemetry_window.h"
#include "db/query_language.h"
#include "exec/flight_recorder.h"

namespace vdb::net {

namespace {

// epoll user-data keys for the two non-connection fds; a connection's
// event carries its Conn pointer, which is neither.
constexpr std::uint64_t kListenerKey = 0;
constexpr std::uint64_t kWakeKey = ~std::uint64_t{0};

constexpr int kEpollTickMs = 20;
constexpr int kListenBacklog = 256;
/// Housekeeping passes between idle-tenant sweeps and how long a tenant
/// must be quiet (no admit, no completion, nothing in flight) before
/// its admission state is dropped.
constexpr int kEvictEveryTicks = 256;
constexpr std::chrono::milliseconds kTenantIdleEviction{60000};

std::string ErrnoText(const char* op) {
  return std::string(op) + ": " + std::strerror(errno);
}

WireStatus VerdictToWire(AdmitVerdict v) {
  switch (v) {
    case AdmitVerdict::kAdmit: return WireStatus::kOk;
    case AdmitVerdict::kThrottled: return WireStatus::kThrottled;
    case AdmitVerdict::kQueueFull: return WireStatus::kQueueFull;
    case AdmitVerdict::kBreakerOpen: return WireStatus::kBreakerOpen;
    case AdmitVerdict::kDraining: return WireStatus::kDraining;
  }
  return WireStatus::kInternal;
}

const char* VerdictText(AdmitVerdict v) {
  switch (v) {
    case AdmitVerdict::kAdmit: return "admitted";
    case AdmitVerdict::kThrottled: return "tenant rate/quota exceeded";
    case AdmitVerdict::kQueueFull: return "run queue full";
    case AdmitVerdict::kBreakerOpen: return "backend circuit breaker open";
    case AdmitVerdict::kDraining: return "server draining";
  }
  return "?";
}

/// Backend faults trip the breaker; client mistakes and deadline
/// cancellations must not.
bool BackendHealthy(StatusCode code) {
  return code != StatusCode::kInternal && code != StatusCode::kIoError &&
         code != StatusCode::kCorruption;
}

}  // namespace

Server::Server(Database* db, ServerOptions opts)
    : db_(db),
      opts_(std::move(opts)),
      start_time_(std::chrono::steady_clock::now()),
      admission_(opts_.admission) {}

Server::~Server() {
  (void)Shutdown();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Result<std::unique_ptr<Server>> Server::Start(Database* db,
                                              ServerOptions opts) {
  if (db == nullptr) return Status::InvalidArgument("db must not be null");
  if (opts.num_workers == 0) opts.num_workers = 1;
  std::unique_ptr<Server> server(new Server(db, std::move(opts)));
  VDB_RETURN_IF_ERROR(server->Listen());
  for (std::size_t i = 0; i <= server->opts_.num_workers; ++i) {
    server->threads_.emplace_back(&Server::ServeLoop, server.get(), i);
  }
  return Result<std::unique_ptr<Server>>(std::move(server));
}

Status Server::Listen() {
  MutexLock lock(conns_mu_);  // no serving thread yet; satisfies the guard
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IoError(ErrnoText("socket"));
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host: " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError(ErrnoText("bind"));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    return Status::IoError(ErrnoText("listen"));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Status::IoError(ErrnoText("getsockname"));
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IoError(ErrnoText("epoll_create1"));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Status::IoError(ErrnoText("eventfd"));

  // ONESHOT like the connections: one thread accepts, then re-arms it.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = kListenerKey;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::IoError(ErrnoText("epoll_ctl listener"));
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeKey;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IoError(ErrnoText("epoll_ctl wake"));
  }
  return Status::Ok();
}

void Server::RequestDrain() {
  // Async-signal-safe: one atomic store plus an eventfd write
  // (eventfd_write is a thin write(2) wrapper, on the POSIX signal-safe
  // list). The serving threads do the rest.
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) (void)::eventfd_write(wake_fd_, 1);
}

void Server::AcceptReady() {
  auto& reg = Registry::Global();
  static Counter& accepted = reg.GetCounter("vdb_server_accepted_total");
  static Counter& accept_failures =
      reg.GetCounter("vdb_server_accept_failures_total");
  static Gauge& conn_gauge = reg.GetGauge("vdb_server_connections");
  MutexLock lock(conns_mu_);
  if (listen_fd_ < 0) return;  // the drain closed it
  for (;;) {
    int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EMFILE/ENFILE/aborted handshake: count it and keep serving the
      // connections we have — an accept storm must not take the server
      // down.
      accept_failures.Inc();
      break;
    }
    if (FailpointFires("net.accept.fail")) {
      // Injected fd exhaustion: the kernel handed us a socket but the
      // server "cannot" take it. The client sees an orderly close.
      accept_failures.Inc();
      ::close(cfd);
      continue;
    }
    auto conn = std::make_unique<Conn>(cfd, &unflushed_);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.ptr = conn.get();
    Conn* raw = conn.get();
    conns_.emplace(raw, std::move(conn));
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev) != 0) {
      accept_failures.Inc();
      conns_.erase(raw);
      continue;
    }
    accepted.Inc();
  }
  conn_gauge.Set(static_cast<std::int64_t>(conns_.size()));
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = kListenerKey;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
}

void Server::Release(Conn* conn, bool open) {
  static Gauge& conn_gauge =
      Registry::Global().GetGauge("vdb_server_connections");
  int fd = conn->fd();
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  if (open && conn->WriteReady() == Conn::IoResult::kOk) {
    // Re-armed by DEL + ADD rather than MOD (~1 us more): this hands the
    // Conn to whichever thread its next event wakes, and the race
    // detector sees ADD -> epoll_wait as a release/acquire edge on the
    // epoll fd but MOD as no edge at all.
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    if (conn->WantsWrite()) ev.events |= EPOLLOUT;
    ev.data.ptr = conn;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0) return;
  }
  MutexLock lock(conns_mu_);
  conns_.erase(conn);
  conn_gauge.Set(static_cast<std::int64_t>(conns_.size()));
}

void Server::HandleQuery(Conn* conn, Request req, std::deque<Job>* jobs) {
  static Counter& requests =
      Registry::Global().GetCounter("vdb_server_query_requests_total");
  requests.Inc();
  // A request sent after RequestDrain() returned must see kDraining,
  // even if no thread has run Housekeep since.
  if (draining()) admission_.BeginDrain();
  auto now = std::chrono::steady_clock::now();
  AdmitDecision decision = admission_.TryAdmit(req.tenant, now);
  if (decision.verdict != AdmitVerdict::kAdmit) {
    // Shed explicitly: the client gets the verdict and a backoff hint
    // in the same round-trip the query would have taken.
    Response resp;
    resp.request_id = req.request_id;
    resp.status = VerdictToWire(decision.verdict);
    resp.retry_after_ms = decision.retry_after_ms;
    resp.message = VerdictText(decision.verdict);
    conn->QueueResponse(resp);
    return;
  }
  Job& job = jobs->emplace_back();
  job.admitted = now;
  if (req.deadline_ms != 0) {
    job.deadline = now + std::chrono::milliseconds(req.deadline_ms);
  }
  job.req = std::move(req);
}

void Server::HandleFrame(Conn* conn, std::span<const std::uint8_t> payload,
                         std::deque<Job>* jobs) {
  static Counter& malformed =
      Registry::Global().GetCounter("vdb_server_malformed_requests_total");
  Result<Request> decoded = DecodeRequest(payload);
  if (!decoded.ok()) {
    malformed.Inc();
    Response resp;
    resp.status = WireStatus::kMalformed;
    resp.message = decoded.status().message();
    conn->QueueResponse(resp);
    return;
  }
  Request& req = *decoded;
  switch (req.type) {
    case MsgType::kPing: {
      Response resp;
      resp.request_id = req.request_id;
      conn->QueueResponse(resp);
      return;
    }
    case MsgType::kMetrics: {
      // Served inline (never queued): the observability plane must stay
      // readable under overload and during drain. Lifetime totals plus
      // the 10s/60s windowed views (DESIGN.md §7.2).
      static constexpr double kWindows[] = {10.0, 60.0};
      Response resp;
      resp.request_id = req.request_id;
      resp.body = "{\"lifetime\":" + Registry::Global().RenderJson() +
                  ",\"windowed\":" +
                  WindowedRegistry::Global().RenderJson(kWindows) + "}";
      conn->QueueResponse(resp);
      return;
    }
    case MsgType::kStats: {
      // Inline for the same reason: .top must render while every
      // execution slot is busy — that is exactly when an operator looks.
      Response resp;
      resp.request_id = req.request_id;
      resp.body = BuildStatsJson();
      conn->QueueResponse(resp);
      return;
    }
    case MsgType::kQuery:
      HandleQuery(conn, std::move(req), jobs);
      return;
    case MsgType::kResponse:
      break;
  }
  malformed.Inc();
  Response resp;
  resp.request_id = req.request_id;
  resp.status = WireStatus::kMalformed;
  resp.message = "unexpected message type";
  conn->QueueResponse(resp);
}

std::string Server::BuildStatsJson() const {
  WindowedRegistry& win = WindowedRegistry::Global();
  // One live snapshot shared by every windowed read below, so qps,
  // percentiles, and verdict deltas in one stats frame agree.
  Registry::Snapshot live = Registry::Global().Snap();
  const auto now = std::chrono::steady_clock::now();

  auto window_delta = [&](const char* name, double w) {
    return win.CounterOver(live, name, w, now);
  };
  auto lifetime = [&](const char* name) -> std::uint64_t {
    auto it = live.counters.find(name);
    return it != live.counters.end() ? it->second : 0;
  };

  std::string out = "{\"uptime_seconds\":";
  out += json::Number(
      std::chrono::duration<double>(now - start_time_).count());

  out += ",\"windows\":{";
  constexpr double kWindows[] = {10.0, 60.0};
  bool first = true;
  for (double w : kWindows) {
    auto requests =
        window_delta("vdb_server_query_requests_total", w);
    auto latency = win.HistogramOver(live, "vdb_server_request_seconds", w, now);
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(static_cast<int>(w)) + "s\":{";
    out += "\"requests\":" + std::to_string(requests.delta);
    out += ",\"qps\":" + json::Number(requests.RatePerSec());
    out += ",\"p50_ms\":" + json::Number(latency.delta.Percentile(50) * 1e3);
    out += ",\"p95_ms\":" + json::Number(latency.delta.Percentile(95) * 1e3);
    out += ",\"p99_ms\":" + json::Number(latency.delta.Percentile(99) * 1e3);
    out += "}";
  }
  out += "}";

  auto verdict_block = [&](const char* key, auto value_of) {
    out += std::string(",\"") + key + "\":{";
    const char* names[][2] = {
        {"requests", "vdb_server_query_requests_total"},
        {"admitted", "vdb_server_admitted_total"},
        {"throttled", "vdb_server_throttled_total"},
        {"queue_full", "vdb_server_shed_queue_full_total"},
        {"breaker", "vdb_server_breaker_rejected_total"},
        {"draining", "vdb_server_rejected_draining_total"},
        {"deadline_expired", "vdb_server_deadline_expired_total"},
    };
    bool f = true;
    for (const auto& [label, metric] : names) {
      if (!f) out += ",";
      f = false;
      out += std::string("\"") + label + "\":" +
             std::to_string(value_of(metric));
    }
    out += "}";
  };
  verdict_block("verdicts_10s", [&](const char* name) {
    return window_delta(name, 10.0).delta;
  });
  verdict_block("lifetime", lifetime);

  out += ",\"tenants\":[";
  first = true;
  for (const auto& ts : admission_.TenantStatsSnapshot()) {
    if (!first) out += ",";
    first = false;
    auto shed_10s = window_delta(
        ("vdb_server_tenant_shed_total{tenant=\"" +
         AdmissionController::MetricLabelFor(ts.tenant) + "\"}")
            .c_str(),
        10.0);
    out += "{\"tenant\":" + json::Quote(ts.tenant);
    out += ",\"admitted\":" + std::to_string(ts.admitted);
    out += ",\"shed\":" + std::to_string(ts.shed);
    out += ",\"in_flight\":" + std::to_string(ts.in_flight);
    out += ",\"shed_rate_10s\":" + json::Number(shed_10s.RatePerSec());
    out += "}";
  }
  out += "]";

  out += ",\"worst_queries\":" + FlightRecorder::Global().RenderJson();
  out += "}";
  return out;
}

void Server::ServeLoop(std::size_t thread_index) {
  for (;;) {
    // One event per wait: a thread that goes on to execute a query must
    // not sit on other connections' events meanwhile.
    epoll_event ev{};
    int n = ::epoll_wait(epoll_fd_, &ev, 1, kEpollTickMs);
    if (n < 0 && errno != EINTR) break;  // epoll itself failed: give up
    if (n == 1) {
      if (ev.data.u64 == kListenerKey) {
        AcceptReady();
      } else if (ev.data.u64 == kWakeKey) {
        eventfd_t drained;
        (void)::eventfd_read(wake_fd_, &drained);
      } else {
        ServeConn(static_cast<Conn*>(ev.data.ptr), ev.events, thread_index);
      }
    }
    Housekeep();
    if (stopping_.load(std::memory_order_acquire)) break;
  }
}

void Server::Housekeep() {
  if (!housekeep_mu_.TryLock()) return;  // another thread is on it
  auto now = std::chrono::steady_clock::now();
  // Rotate the windowed-metrics ring: some thread always polls and wakes
  // at least every kEpollTickMs, far inside the 1s window width, so
  // boundaries are recorded promptly even on an idle server.
  WindowedRegistry::Global().Tick(now);

  // Tenant-map hygiene: every 256 passes drop tenants idle past a minute
  // so the admission map and the stats frame track the live tenant set
  // (stress-tested in concurrency_stress_test.cc).
  if (++evict_tick_ >= kEvictEveryTicks) {
    evict_tick_ = 0;
    (void)admission_.EvictIdleTenants(now, kTenantIdleEviction);
  }
  if (draining()) AdvanceDrain(now);
  housekeep_mu_.Unlock();
}

void Server::AdvanceDrain(std::chrono::steady_clock::time_point now) {
  static Histogram& drain_hist =
      Registry::Global().GetHistogram("vdb_server_drain_seconds");
  if (stopping_.load(std::memory_order_acquire)) return;
  if (drain_start_ == std::chrono::steady_clock::time_point{}) {
    // Drain step 1: reject new work at admission, and stop accepting
    // (close the listener so the port frees immediately).
    drain_start_ = now;
    admission_.BeginDrain();
    MutexLock lock(conns_mu_);
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (admission_.InFlight() == 0 &&
      unflushed_.load(std::memory_order_acquire) == 0) {
    // Drain step 2 complete: all admitted work finished and every
    // response byte reached a socket.
    report_.clean = true;
  } else if (now - drain_start_ >=
             std::chrono::milliseconds(opts_.drain_deadline_ms)) {
    // Drain deadline: abort what is still parked (executing threads
    // finish their current query; Shutdown's joins bound that).
    MutexLock lock(queue_mu_);
    std::size_t aborted = executing_;
    for (const Parked& parked : run_queue_) {
      aborted += parked.jobs.size();
      Cancel(parked.jobs);
    }
    run_queue_.clear();
    report_.aborted_requests = aborted;
    report_.clean = false;
  } else {
    return;  // drain still in progress
  }
  report_.seconds = std::chrono::duration<double>(now - drain_start_).count();
  drain_hist.Observe(report_.seconds);
  MutexLock lock(conns_mu_);
  report_.closed_connections = conns_.size();
  stopping_.store(true, std::memory_order_release);
}

void Server::ServeConn(Conn* conn, std::uint32_t events,
                       std::size_t thread_index) {
  std::deque<Job> jobs;
  bool open = (events & (EPOLLHUP | EPOLLERR)) == 0;
  if (open && (events & EPOLLIN)) {
    std::vector<std::vector<std::uint8_t>> frames;
    Conn::IoResult r = conn->ReadReady(&frames);
    for (auto& frame : frames) HandleFrame(conn, frame, &jobs);
    if (r == Conn::IoResult::kClosed) open = false;
    if (r == Conn::IoResult::kProtocolError) {
      Response resp;
      resp.status = WireStatus::kMalformed;
      resp.message = "frame exceeds size limit";
      conn->QueueResponse(resp);
      (void)conn->WriteReady();  // best-effort error before close
      open = false;
    }
  }
  if (open && !jobs.empty()) {
    RunOrPark(conn, std::move(jobs), thread_index);
    return;
  }
  Cancel(jobs);  // nobody is left to read the answers
  Release(conn, open);
}

void Server::RunOrPark(Conn* conn, std::deque<Job> jobs,
                       std::size_t thread_index) {
  {
    MutexLock lock(queue_mu_);
    if (executing_ == opts_.num_workers) {
      // Every slot is busy, so this is the last thread still polling:
      // it must keep polling. The next thread to finish runs `conn`.
      run_queue_.push_back(Parked{conn, std::move(jobs)});
      return;
    }
    ++executing_;
  }
  for (;;) {
    bool open = true;
    while (open && !jobs.empty() &&
           !stopping_.load(std::memory_order_acquire)) {
      open = RunJob(conn, jobs.front(), thread_index);
      jobs.pop_front();
    }
    Cancel(jobs);
    Release(conn, open);
    // Parked connections go before this thread polls again; checked
    // under the same lock the parking thread read `executing_` under, so
    // a connection is never parked with no thread left to run it.
    MutexLock lock(queue_mu_);
    if (run_queue_.empty()) {
      --executing_;
      return;
    }
    conn = run_queue_.front().conn;
    jobs = std::move(run_queue_.front().jobs);
    run_queue_.pop_front();
  }
}

void Server::Cancel(const std::deque<Job>& jobs) {
  auto now = std::chrono::steady_clock::now();
  for (const Job& job : jobs) {
    admission_.OnStart();
    admission_.OnComplete(job.req.tenant, true, now);
  }
}

bool Server::RunJob(Conn* conn, const Job& job, std::size_t thread_index) {
  auto& reg = Registry::Global();
  static Counter& deadline_expired =
      reg.GetCounter("vdb_server_deadline_expired_total");
  static Histogram& queue_wait =
      reg.GetHistogram("vdb_server_queue_wait_seconds");
  static Histogram& request_latency =
      reg.GetHistogram("vdb_server_request_seconds");

  admission_.OnStart();
  // Stall torture: delay:<ms> spec, addressable per serving thread as
  // net.worker.stall.<index>.
  std::uint32_t stall = FailpointDelayMs("net.worker.stall", thread_index);
  if (stall != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall));
  }

  auto start = std::chrono::steady_clock::now();
  queue_wait.Observe(
      std::chrono::duration<double>(start - job.admitted).count());

  Response resp;
  resp.request_id = job.req.request_id;
  bool healthy = true;
  if (job.deadline != std::chrono::steady_clock::time_point{} &&
      start >= job.deadline) {
    // The request's budget expired before it could start: cancel
    // without computing (the overload paper-cut this layer exists to
    // prevent).
    deadline_expired.Inc();
    resp.status = WireStatus::kDeadlineExceeded;
    resp.message = "deadline expired in run queue";
    // Queue-cancelled requests never reach ExecuteQueryTraced, so the
    // flight recorder hears about them here — they are precisely the
    // "where did my query go" cases an operator pulls up .top for.
    FlightRecorder::Global().Complete(
        StatusCode::kDeadlineExceeded,
        std::chrono::duration<double, std::milli>(start - job.admitted)
            .count(),
        job.req.text, job.req.tenant, job.deadline, [](FlightRecord* rec) {
          rec->trace = "(cancelled in run queue before execution)";
        });
  } else {
    QueryOptions qopts;
    qopts.deadline = job.deadline;
    qopts.tenant = job.req.tenant;
    qopts.trace = job.req.trace;
    Result<QueryResult> result = ExecuteQueryTraced(db_, job.req.text, qopts);
    if (result.ok()) {
      resp.rows = std::move(result->rows);
      resp.body = std::move(result->explain);
    } else {
      const Status& st = result.status();
      resp.status = WireStatusFromStatus(st);
      resp.message = st.ToString();
      healthy = BackendHealthy(st.code());
      if (st.code() == StatusCode::kDeadlineExceeded) deadline_expired.Inc();
    }
  }
  auto end = std::chrono::steady_clock::now();
  request_latency.Observe(
      std::chrono::duration<double>(end - job.admitted).count());

  // Write before completing: a drain that sees nothing in flight then
  // also sees every reply on a socket or counted as unflushed.
  conn->QueueResponse(resp);
  bool open = conn->WriteReady() == Conn::IoResult::kOk;
  admission_.OnComplete(job.req.tenant, healthy, end);
  return open;
}

DrainReport Server::Shutdown() {
  MutexLock lock(shutdown_mu_);
  if (!shutdown_done_) {
    RequestDrain();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    // No serving thread is left to hold a connection: close the rest.
    MutexLock conns_lock(conns_mu_);
    conns_.clear();
    Registry::Global().GetGauge("vdb_server_connections").Set(0);
    shutdown_done_ = true;
  }
  MutexLock hold(housekeep_mu_);
  return report_;
}

}  // namespace vdb::net
