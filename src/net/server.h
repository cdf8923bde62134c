#ifndef VDB_NET_SERVER_H_
#define VDB_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
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
/// (DESIGN.md §10). `num_workers + 1` symmetric threads share one epoll
/// set; connections are EPOLLONESHOT, so one thread holds a connection
/// from its event until it re-arms it. The holder reads the frames,
/// answers ping/metrics/stats, admits each query, executes it against
/// `db` (read-only while the server runs) and writes the reply itself:
/// no cross-thread hand-off. At most `num_workers` threads execute; the
/// last one still polling parks the connection on the run queue
/// instead, and threads empty that queue before they poll again.
///
/// Request lifecycle:
///   frame -> decode -> AdmissionController::TryAdmit
///     rejected  -> immediate response with RETRY-AFTER (never a stall)
///     admitted  -> the holder, or (every slot busy) the run queue:
///        deadline already passed -> DEADLINE_EXCEEDED, *not executed*
///        else ExecuteQueryTraced with the deadline in SearchParams
/// Frames pipelined on one connection run in order, one at a time.
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
  /// Binds, listens, and spawns the serving threads. `db` is borrowed
  /// and must outlive the server.
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
  /// One admitted query frame.
  struct Job {
    Request req;
    std::chrono::steady_clock::time_point deadline{};  ///< zero = none
    std::chrono::steady_clock::time_point admitted{};
  };
  /// A connection on the run queue with its admitted frames.
  struct Parked {
    Conn* conn = nullptr;
    std::deque<Job> jobs;
  };

  Server(Database* db, ServerOptions opts);

  Status Listen();
  void ServeLoop(std::size_t thread_index);
  /// Metrics tick, tenant eviction and drain, by one thread at a time.
  void Housekeep();
  void AdvanceDrain(std::chrono::steady_clock::time_point now)
      VDB_REQUIRES(housekeep_mu_);

  void AcceptReady();
  void ServeConn(Conn* conn, std::uint32_t events, std::size_t thread_index);
  void HandleFrame(Conn* conn, std::span<const std::uint8_t> payload,
                   std::deque<Job>* jobs);
  void HandleQuery(Conn* conn, Request req, std::deque<Job>* jobs);
  /// Runs `jobs` on a free execution slot, then the parked connections,
  /// or parks `conn` when every slot is busy.
  void RunOrPark(Conn* conn, std::deque<Job> jobs, std::size_t thread_index);
  /// Executes one job and writes its reply; false once `conn` is gone.
  bool RunJob(Conn* conn, const Job& job, std::size_t thread_index);
  /// Admitted jobs that will never run still complete for admission.
  void Cancel(const std::deque<Job>& jobs);
  /// Flushes and re-arms `conn` (`open`) or closes it; either way the
  /// calling thread no longer holds it.
  void Release(Conn* conn, bool open);
  /// Body of the kStats wire frame (DESIGN.md §7.4): uptime, windowed
  /// qps/latency, 10s verdict mix, lifetime totals, per-tenant admission
  /// accounting, and the flight-recorder worst-queries dump. Served
  /// inline by the polling thread like kMetrics.
  std::string BuildStatsJson() const;

  Database* db_;
  ServerOptions opts_;
  std::chrono::steady_clock::time_point start_time_{};
  std::uint16_t port_ = 0;
  int epoll_fd_ = -1;  ///< set before the threads start, then read-only
  int wake_fd_ = -1;   ///< eventfd: RequestDrain -> a polling thread

  AdmissionController admission_;

  std::vector<std::thread> threads_;

  /// Connections holding unflushed reply bytes (kept by each Conn;
  /// declared before conns_ so it outlives them).
  std::atomic<int> unflushed_{0};
  // The listener and the connection registry. A Conn itself has no
  // capability: the thread holding its ONESHOT event, or the run
  // queue, owns it, and only that owner closes it.
  Mutex conns_mu_;
  int listen_fd_ VDB_GUARDED_BY(conns_mu_) = -1;
  std::unordered_map<Conn*, std::unique_ptr<Conn>> conns_
      VDB_GUARDED_BY(conns_mu_);

  // Execution slots and the overload-only run queue.
  Mutex queue_mu_;
  std::size_t executing_ VDB_GUARDED_BY(queue_mu_) = 0;
  std::deque<Parked> run_queue_ VDB_GUARDED_BY(queue_mu_);

  // §9.1 edges: shutdown_mu_ -> housekeep_mu_ -> {conns_mu_, queue_mu_}
  // (the drain closes the listener and aborts the run queue), and
  // queue_mu_ -> AdmissionController::mu_.
  Mutex housekeep_mu_ VDB_ACQUIRED_BEFORE(conns_mu_, queue_mu_);
  int evict_tick_ VDB_GUARDED_BY(housekeep_mu_) = 0;
  std::chrono::steady_clock::time_point drain_start_
      VDB_GUARDED_BY(housekeep_mu_){};  ///< zero until the drain starts
  DrainReport report_ VDB_GUARDED_BY(housekeep_mu_);

  Mutex shutdown_mu_ VDB_ACQUIRED_BEFORE(housekeep_mu_);
  bool shutdown_done_ VDB_GUARDED_BY(shutdown_mu_) = false;

  std::atomic<bool> drain_requested_{false};
  /// Set once the drain has finished; serving threads then exit.
  std::atomic<bool> stopping_{false};
};

}  // namespace vdb::net

#endif  // VDB_NET_SERVER_H_
