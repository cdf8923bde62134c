#ifndef VDB_NET_SERVER_H_
#define VDB_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.h"
#include "db/database.h"
#include "net/admission.h"
#include "net/conn.h"
#include "net/protocol.h"

namespace vdb::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (see Server::port())
  std::size_t num_workers = 4;
  AdmissionOptions admission;
  /// Budget for graceful drain: in-flight work past this is aborted
  /// with DRAINING responses and the remaining sockets are closed.
  std::uint32_t drain_deadline_ms = 5000;
};

/// What Shutdown observed; `clean` means every admitted request finished
/// and every response byte was flushed before the drain deadline.
struct DrainReport {
  bool clean = false;
  double seconds = 0.0;
  std::size_t aborted_requests = 0;  ///< in-flight work past the deadline
  std::size_t closed_connections = 0;
};

/// Epoll-based query server over the wire protocol of protocol.h
/// (DESIGN.md §10). Single event-loop thread owns the listener and all
/// connections; a pool of `num_workers` threads executes admitted
/// queries against `db` (read-only — the Database must not be mutated
/// while the server runs) and hands responses back to the loop through
/// an eventfd-signalled queue.
///
/// Request lifecycle:
///   frame -> decode -> AdmissionController::TryAdmit
///     rejected  -> immediate response with RETRY-AFTER (never a stall)
///     admitted  -> bounded run queue -> worker:
///        deadline already passed -> DEADLINE_EXCEEDED, *not executed*
///        else ExecuteQueryTraced with the deadline in SearchParams
///
/// Graceful drain (RequestDrain is async-signal-safe; vdbsh wires it to
/// SIGTERM): stop accepting, reject new work with DRAINING, let queued
/// and executing requests finish under the drain deadline, flush every
/// response buffer, then close. Telemetry: vdb_server_* counters/gauges
/// plus the vdb_server_drain_seconds histogram.
///
/// Failpoint sites: net.accept.fail (accepted socket immediately
/// closed), net.worker.stall (delay:<ms> pause before executing), and
/// the conn-level net.read/write.short|eintr sites.
class Server {
 public:
  /// Binds, listens, and spawns the event loop + workers. `db` is
  /// borrowed and must outlive the server.
  static Result<std::unique_ptr<Server>> Start(Database* db,
                                               ServerOptions opts);

  ~Server();  ///< Shutdown() if still running

  /// The bound port (resolves port=0 via getsockname).
  std::uint16_t port() const { return port_; }

  /// Initiates drain. Async-signal-safe (atomic store + eventfd write);
  /// callable from a SIGTERM handler and from any thread. Idempotent.
  void RequestDrain();

  /// RequestDrain + join everything; returns what the drain observed.
  /// Idempotent: later calls return the first report.
  DrainReport Shutdown();

  bool draining() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

 private:
  struct Job {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    std::string tenant;
    std::string text;
    bool trace = false;  ///< kQueryFlagTrace: span tree in the response
    std::chrono::steady_clock::time_point deadline{};  ///< zero = none
    std::chrono::steady_clock::time_point enqueued{};
  };
  struct PendingResponse {
    std::uint64_t conn_id = 0;
    Response resp;
  };

  Server(Database* db, ServerOptions opts);

  Status Listen();
  void EventLoop();
  void WorkerLoop(std::size_t worker_index);

  void AcceptReady();
  void HandleFrame(Conn* conn, std::span<const std::uint8_t> payload);
  void HandleQuery(Conn* conn, Request req);
  void CloseConn(std::uint64_t conn_id);
  void FlushResponses();
  void PokeLoop();
  /// True when nothing is admitted, queued, or buffered — drain done.
  bool DrainComplete();
  /// Body of the kStats wire frame (DESIGN.md §7.4): uptime, windowed
  /// qps/latency, 10s verdict mix, lifetime totals, per-tenant admission
  /// accounting, and the flight-recorder worst-queries dump. Served
  /// inline on the event loop like kMetrics.
  std::string BuildStatsJson() const;

  Database* db_;
  ServerOptions opts_;
  std::chrono::steady_clock::time_point start_time_{};
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: workers/signals -> event loop

  AdmissionController admission_;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Event-loop-owned (no lock, and deliberately no capability: only
  // EventLoop and the helpers it calls inline touch these): id ->
  // connection map and the id allocator.
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;

  // Run queue (event loop -> workers). §9.1 edges: the drain-abort
  // path calls admission_.OnComplete while holding queue_mu_, and
  // Shutdown acquires shutdown_mu_ first — so
  // shutdown_mu_ -> queue_mu_ -> AdmissionController::mu_.
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Job> job_queue_ VDB_GUARDED_BY(queue_mu_);
  bool stop_workers_ VDB_GUARDED_BY(queue_mu_) = false;

  // Response queue (workers -> event loop). §9.1 leaf.
  Mutex resp_mu_;
  std::deque<PendingResponse> resp_queue_ VDB_GUARDED_BY(resp_mu_);

  std::atomic<bool> drain_requested_{false};
  std::atomic<std::size_t> executing_{0};

  Mutex shutdown_mu_ VDB_ACQUIRED_BEFORE(queue_mu_);
  bool shutdown_done_ VDB_GUARDED_BY(shutdown_mu_) = false;
  /// Written by the event loop during drain, read by Shutdown strictly
  /// after joining loop_thread_ — the join is the ordering, not a lock.
  DrainReport report_;
};

}  // namespace vdb::net

#endif  // VDB_NET_SERVER_H_
