#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
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

// epoll user-data keys for the two non-connection fds; connection ids
// start at 1 so they can never collide.
constexpr std::uint64_t kListenerKey = 0;
constexpr std::uint64_t kWakeKey = ~std::uint64_t{0};

constexpr int kEpollTickMs = 20;
constexpr int kListenBacklog = 256;
/// Event-loop ticks between idle-tenant sweeps and how long a tenant
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
  server->loop_thread_ = std::thread(&Server::EventLoop, server.get());
  for (std::size_t i = 0; i < server->opts_.num_workers; ++i) {
    server->workers_.emplace_back(&Server::WorkerLoop, server.get(), i);
  }
  return Result<std::unique_ptr<Server>>(std::move(server));
}

Status Server::Listen() {
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

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerKey;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::IoError(ErrnoText("epoll_ctl listener"));
  }
  ev.data.u64 = kWakeKey;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IoError(ErrnoText("epoll_ctl wake"));
  }
  return Status::Ok();
}

void Server::RequestDrain() {
  // Async-signal-safe: one relaxed-ish atomic store plus an eventfd
  // write (eventfd_write is a thin write(2) wrapper, on the POSIX
  // signal-safe list). Everything else happens on the event loop.
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) (void)::eventfd_write(wake_fd_, 1);
}

void Server::PokeLoop() {
  (void)::eventfd_write(wake_fd_, 1);
}

void Server::AcceptReady() {
  auto& reg = Registry::Global();
  static Counter& accepted = reg.GetCounter("vdb_server_accepted_total");
  static Counter& accept_failures =
      reg.GetCounter("vdb_server_accept_failures_total");
  static Gauge& conn_gauge = reg.GetGauge("vdb_server_connections");
  for (;;) {
    int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EMFILE/ENFILE/aborted handshake: count it and keep serving the
      // connections we have — an accept storm must not take the loop down.
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
    std::uint64_t id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev) != 0) {
      accept_failures.Inc();
      ::close(cfd);
      continue;
    }
    conns_.emplace(id, std::make_unique<Conn>(cfd, id));
    accepted.Inc();
    conn_gauge.Set(static_cast<std::int64_t>(conns_.size()));
  }
}

void Server::CloseConn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd(), nullptr);
  conns_.erase(it);
  static Gauge& conn_gauge =
      Registry::Global().GetGauge("vdb_server_connections");
  conn_gauge.Set(static_cast<std::int64_t>(conns_.size()));
}

void Server::HandleQuery(Conn* conn, Request req) {
  static Counter& requests =
      Registry::Global().GetCounter("vdb_server_query_requests_total");
  requests.Inc();
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
  Job job;
  job.conn_id = conn->id();
  job.request_id = req.request_id;
  job.tenant = std::move(req.tenant);
  job.text = std::move(req.text);
  job.trace = req.trace;
  job.enqueued = now;
  if (req.deadline_ms != 0) {
    job.deadline = now + std::chrono::milliseconds(req.deadline_ms);
  }
  {
    MutexLock lock(queue_mu_);
    job_queue_.push_back(std::move(job));
  }
  queue_cv_.NotifyOne();
}

void Server::HandleFrame(Conn* conn, std::span<const std::uint8_t> payload) {
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
      // Inline for the same reason: .top must render while the run
      // queue is saturated — that is exactly when an operator looks.
      Response resp;
      resp.request_id = req.request_id;
      resp.body = BuildStatsJson();
      conn->QueueResponse(resp);
      return;
    }
    case MsgType::kQuery:
      HandleQuery(conn, std::move(req));
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

void Server::FlushResponses() {
  static Counter& orphaned =
      Registry::Global().GetCounter("vdb_server_orphaned_responses_total");
  std::deque<PendingResponse> batch;
  {
    MutexLock lock(resp_mu_);
    batch.swap(resp_queue_);
  }
  for (PendingResponse& pending : batch) {
    auto it = conns_.find(pending.conn_id);
    if (it == conns_.end()) {
      // Client vanished (e.g. SIGKILLed mid-query) before its answer
      // was ready; the work was wasted but the server stays consistent.
      orphaned.Inc();
      continue;
    }
    it->second->QueueResponse(pending.resp);
  }
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

bool Server::DrainComplete() {
  if (admission_.InFlight() != 0) return false;
  {
    MutexLock lock(resp_mu_);
    if (!resp_queue_.empty()) return false;
  }
  for (const auto& [id, conn] : conns_) {
    if (conn->WantsWrite()) return false;
  }
  return true;
}

void Server::EventLoop() {
  static Histogram& drain_hist =
      Registry::Global().GetHistogram("vdb_server_drain_seconds");
  bool drain_started = false;
  std::chrono::steady_clock::time_point drain_start{};
  int evict_tick = 0;
  epoll_event events[64];

  for (;;) {
    int n = ::epoll_wait(epoll_fd_, events, 64, kEpollTickMs);
    if (n < 0 && errno != EINTR) break;  // epoll itself failed: give up

    // Rotate the windowed-metrics ring: the loop wakes at least every
    // kEpollTickMs, far inside the 1s window width, so boundaries are
    // recorded promptly even on an idle server.
    WindowedRegistry::Global().Tick();

    // Tenant-map hygiene: every ~256 ticks (~5s at the 20ms tick) drop
    // tenants idle past a minute so the admission map and the stats
    // frame track the live tenant set (stress-tested against
    // concurrent admits in concurrency_stress_test.cc).
    if (++evict_tick >= kEvictEveryTicks) {
      evict_tick = 0;
      (void)admission_.EvictIdleTenants(std::chrono::steady_clock::now(),
                                        kTenantIdleEviction);
    }

    // Start the drain BEFORE handling this batch's events: the wake
    // from RequestDrain() can share an epoll batch with a readable
    // query frame, and a request sent after RequestDrain() returned
    // must see kDraining, not ride in under the old admission state.
    if (drain_requested_.load(std::memory_order_acquire) && !drain_started) {
      // Drain step 1: stop accepting (close the listener so the port
      // frees immediately) and reject new work at admission.
      drain_started = true;
      drain_start = std::chrono::steady_clock::now();
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      admission_.BeginDrain();
    }

    for (int i = 0; i < std::max(n, 0); ++i) {
      std::uint64_t key = events[i].data.u64;
      if (key == kListenerKey) {
        if (!drain_started) AcceptReady();
        continue;
      }
      if (key == kWakeKey) {
        eventfd_t drained;
        (void)::eventfd_read(wake_fd_, &drained);
        continue;
      }
      auto it = conns_.find(key);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      bool close = false;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close = true;
      }
      if (!close && (events[i].events & EPOLLIN)) {
        std::vector<std::vector<std::uint8_t>> frames;
        Conn::IoResult r = conn->ReadReady(&frames);
        for (auto& frame : frames) HandleFrame(conn, frame);
        if (r == Conn::IoResult::kClosed) close = true;
        if (r == Conn::IoResult::kProtocolError) {
          Response resp;
          resp.status = WireStatus::kMalformed;
          resp.message = "frame exceeds size limit";
          conn->QueueResponse(resp);
          (void)conn->WriteReady();  // best-effort error before close
          close = true;
        }
      }
      if (!close && (events[i].events & EPOLLOUT)) {
        if (conn->WriteReady() == Conn::IoResult::kClosed) close = true;
      }
      if (close) CloseConn(key);
    }

    // Responses finished by workers since the last tick.
    FlushResponses();

    // Flush what each connection will take and keep EPOLLOUT interest
    // equal to "has unflushed bytes".
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* conn = it->second.get();
      std::uint64_t id = it->first;
      ++it;
      if (!conn->WantsWrite()) continue;
      if (conn->WriteReady() == Conn::IoResult::kClosed) {
        CloseConn(id);
        continue;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      if (conn->WantsWrite()) ev.events |= EPOLLOUT;
      ev.data.u64 = id;
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev);
    }

    if (!drain_started) continue;

    auto now = std::chrono::steady_clock::now();
    bool deadline_hit =
        now - drain_start >=
        std::chrono::milliseconds(opts_.drain_deadline_ms);
    if (DrainComplete()) {
      // Drain step 2 complete: all admitted work finished and every
      // response byte reached a socket.
      report_.clean = true;
    } else if (deadline_hit) {
      // Drain deadline: abort what is still queued (workers finish the
      // query they are executing; joins below bound that).
      std::size_t aborted = 0;
      {
        MutexLock lock(queue_mu_);
        aborted = job_queue_.size();
        for (const Job& job : job_queue_) {
          admission_.OnComplete(job.tenant, true, now);
        }
        job_queue_.clear();
      }
      report_.aborted_requests = aborted + executing_.load();
      report_.clean = false;
    } else {
      continue;  // drain still in progress
    }

    report_.seconds =
        std::chrono::duration<double>(now - drain_start).count();
    report_.closed_connections = conns_.size();
    drain_hist.Observe(report_.seconds);
    break;
  }

  // Tear down connections on the owning thread.
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
}

void Server::WorkerLoop(std::size_t worker_index) {
  auto& reg = Registry::Global();
  static Counter& deadline_expired =
      reg.GetCounter("vdb_server_deadline_expired_total");
  static Histogram& queue_wait =
      reg.GetHistogram("vdb_server_queue_wait_seconds");
  static Histogram& request_latency =
      reg.GetHistogram("vdb_server_request_seconds");

  for (;;) {
    Job job;
    {
      // Explicit wait loop (not a predicate lambda): TSA analyzes a
      // lambda as a separate function, so the guarded reads must sit
      // in this annotated scope.
      MutexLock lock(queue_mu_);
      while (!stop_workers_ && job_queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (job_queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      job = std::move(job_queue_.front());
      job_queue_.pop_front();
    }
    admission_.OnStart();
    executing_.fetch_add(1, std::memory_order_acq_rel);

    // Worker-stall torture: delay:<ms> spec, addressable per worker as
    // net.worker.stall.<index>.
    std::uint32_t stall = FailpointDelayMs("net.worker.stall", worker_index);
    if (stall != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }

    auto start = std::chrono::steady_clock::now();
    queue_wait.Observe(
        std::chrono::duration<double>(start - job.enqueued).count());

    Response resp;
    resp.request_id = job.request_id;
    bool healthy = true;
    if (job.deadline != std::chrono::steady_clock::time_point{} &&
        start >= job.deadline) {
      // The request's budget expired while it sat in the run queue:
      // cancel without computing (the overload paper-cut this layer
      // exists to prevent).
      deadline_expired.Inc();
      resp.status = WireStatus::kDeadlineExceeded;
      resp.message = "deadline expired in run queue";
      // Queue-cancelled requests never reach ExecuteQueryTraced, so the
      // flight recorder hears about them here — they are precisely the
      // "where did my query go" cases an operator pulls up .top for.
      double waited_ms =
          std::chrono::duration<double, std::milli>(start - job.enqueued)
              .count();
      FlightRecorder& recorder = FlightRecorder::Global();
      if (std::uint64_t seq = recorder.NoteCompletion(true, waited_ms)) {
        FlightRecord rec;
        rec.seq = seq;
        rec.query = job.text;
        rec.tenant = job.tenant;
        rec.verdict = "DEADLINE_EXCEEDED";
        rec.failed = true;
        rec.total_ms = waited_ms;
        rec.has_deadline = true;
        rec.deadline_slack_ms =
            std::chrono::duration<double, std::milli>(job.deadline - start)
                .count();
        rec.trace = "(cancelled in run queue before execution)";
        recorder.Record(std::move(rec));
      }
    } else {
      QueryOptions qopts;
      qopts.deadline = job.deadline;
      qopts.tenant = job.tenant;
      qopts.trace = job.trace;
      Result<QueryResult> result = ExecuteQueryTraced(db_, job.text, qopts);
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
        std::chrono::duration<double>(end - job.enqueued).count());

    executing_.fetch_sub(1, std::memory_order_acq_rel);
    admission_.OnComplete(job.tenant, healthy, end);
    {
      MutexLock lock(resp_mu_);
      resp_queue_.push_back(PendingResponse{job.conn_id, std::move(resp)});
    }
    PokeLoop();
  }
}

DrainReport Server::Shutdown() {
  MutexLock lock(shutdown_mu_);
  if (shutdown_done_) return report_;
  RequestDrain();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    MutexLock qlock(queue_mu_);
    stop_workers_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  shutdown_done_ = true;
  return report_;
}

}  // namespace vdb::net
