// Many-connections soak for the serving layer (ctest label `stress`; the
// serve-soak CI job runs it under TSan with net.* failpoints armed via
// VDB_FAILPOINTS and VDB_SOAK_CONNS=256).
//
// Shape: the test process hosts the server; client load comes from
// fork+exec'd copies of this binary (child mode is entered from a
// constructor when VDB_SOAK_CHILD is set, before gtest initializes).
// Children are single-threaded and hold many connections each, so they
// are safe to SIGKILL at any instant and safe under TSan (fork is
// immediately followed by exec).
//
// Mid-soak, half the children are SIGKILLed — dead sockets, half-written
// frames, responses with no reader. The server must stay healthy:
//   - still answers pings and queries afterwards,
//   - every query request got exactly one admission verdict (the
//     conservation invariant over vdb_server_* counters),
//   - SIGTERM-style drain completes within the configured deadline,
//   - zero fd leaks once the server is destroyed.

#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/synthetic.h"
#include "core/telemetry.h"
#include "db/database.h"
#include "index/hnsw.h"
#include "net/client.h"
#include "net/server.h"

extern char** environ;

namespace vdb::net {
namespace {

using std::chrono::milliseconds;

// Both sides of the fork share these.
constexpr const char* kSoakQuery =
    "SELECT knn(3) FROM c ORDER BY distance([0.1, 0.2, 0.3, 0.4])";
constexpr int kChildren = 8;

// ------------------------------------------------------------ child mode

// Exit codes: 0 = clean (including "server went away" — expected once
// the parent drains), 4 = protocol violation (unknown verdict/desync).
[[noreturn]] void SoakChildMain() {
  int port = std::atoi(std::getenv("VDB_SOAK_PORT"));
  int nconns = std::atoi(std::getenv("VDB_SOAK_NCONNS"));
  int seconds = std::atoi(std::getenv("VDB_SOAK_SECONDS"));
  if (nconns <= 0) nconns = 4;
  if (seconds <= 0) seconds = 20;

  std::vector<std::unique_ptr<Client>> clients(
      static_cast<std::size_t>(nconns));
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  int consecutive_connect_failures = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (auto& client : clients) {
      if (!client) {
        auto connected = Client::Connect("127.0.0.1",
                                         static_cast<std::uint16_t>(port));
        if (!connected.ok()) {
          // Server draining/gone (or an injected net.accept.fail): done
          // once it stays unreachable.
          if (++consecutive_connect_failures > 50) ::_exit(0);
          std::this_thread::sleep_for(milliseconds(10));
          continue;
        }
        consecutive_connect_failures = 0;
        client = std::move(*connected);
      }
      auto resp = client->Query(kSoakQuery, "soak", /*deadline_ms=*/500);
      if (!resp.ok()) {
        // Transport error: socket torn down under us (drain close, or a
        // reset from an accept-failpoint near-miss). Reconnect.
        client.reset();
        continue;
      }
      switch (resp->status) {
        case WireStatus::kOk:
        case WireStatus::kThrottled:
        case WireStatus::kQueueFull:
        case WireStatus::kBreakerOpen:
        case WireStatus::kDraining:
        case WireStatus::kDeadlineExceeded:
          break;  // every one of these is an explicit, legal answer
        default:
          ::_exit(4);  // silent nonsense — the failure the soak hunts
      }
    }
  }
  ::_exit(0);
}

// Runs before gtest's main: a child process never reaches the test.
__attribute__((constructor)) void SoakChildEntry() {
  if (std::getenv("VDB_SOAK_CHILD") != nullptr) SoakChildMain();
}

// ----------------------------------------------------------- parent side

pid_t SpawnChild(std::uint16_t port, int nconns, int seconds) {
  // Assemble env before fork: between fork and exec only async-signal-
  // safe calls are allowed (this binary runs under TSan with threads).
  std::vector<std::string> extra = {
      "VDB_SOAK_CHILD=1",
      "VDB_SOAK_PORT=" + std::to_string(port),
      "VDB_SOAK_NCONNS=" + std::to_string(nconns),
      "VDB_SOAK_SECONDS=" + std::to_string(seconds),
  };
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
  for (auto& s : extra) envp.push_back(s.data());
  envp.push_back(nullptr);
  char exe[] = "/proc/self/exe";
  char* argv[] = {exe, nullptr};

  pid_t pid = ::fork();
  if (pid == 0) {
    ::execve("/proc/self/exe", argv, envp.data());
    ::_exit(127);
  }
  return pid;
}

std::size_t OpenFdCount() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

/// Arms the net.* torture set, skipping names the CI job already armed
/// through VDB_FAILPOINTS (re-arming would overwrite the CI spec).
class SoakFailpoints {
 public:
  SoakFailpoints() {
    auto armed = Failpoints::Instance().ArmedNames();
    auto is_armed = [&](const char* name) {
      for (const auto& a : armed) {
        if (a == name) return true;
      }
      return false;
    };
    Arm(is_armed, "net.read.short", "prob:0.02");
    Arm(is_armed, "net.write.short", "prob:0.02");
    Arm(is_armed, "net.read.eintr", "prob:0.02");
    Arm(is_armed, "net.write.eintr", "prob:0.02");
    Arm(is_armed, "net.accept.fail", "prob:0.01");
    Arm(is_armed, "net.worker.stall", "prob:0.02+delay:5");
  }
  ~SoakFailpoints() {
    for (const auto& name : mine_) Failpoints::Instance().Disarm(name);
  }

 private:
  template <typename Pred>
  void Arm(Pred is_armed, const char* name, const char* spec) {
    if (is_armed(name)) return;
    ASSERT_TRUE(Failpoints::Instance().Arm(name, spec).ok()) << name;
    mine_.push_back(name);
  }
  std::vector<std::string> mine_;
};

TEST(NetSoakTest, ServerSurvivesClientMassacreUnderFaults) {
  const char* conns_env = std::getenv("VDB_SOAK_CONNS");
  int total_conns = conns_env != nullptr ? std::atoi(conns_env) : 64;
  if (total_conns < kChildren) total_conns = kChildren;
  int conns_per_child = total_conns / kChildren;

  Database db;
  CollectionOptions copts;
  copts.dim = 4;
  copts.index_factory = [] {
    HnswOptions hnsw;
    hnsw.m = 8;
    return std::make_unique<HnswIndex>(hnsw);
  };
  auto created = db.CreateCollection("c", copts);
  ASSERT_TRUE(created.ok());
  FloatMatrix data = GaussianClusters({128, 4, 4, 5, 0.2f});
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE((*created)->Insert(i, data.row_view(i), {}).ok());
  }
  ASSERT_TRUE((*created)->BuildIndex().ok());

  SoakFailpoints torture;

  auto& reg = Registry::Global();
  auto verdicts = [&] {
    return reg.GetCounter("vdb_server_admitted_total").Value() +
           reg.GetCounter("vdb_server_throttled_total").Value() +
           reg.GetCounter("vdb_server_shed_queue_full_total").Value() +
           reg.GetCounter("vdb_server_breaker_rejected_total").Value() +
           reg.GetCounter("vdb_server_rejected_draining_total").Value();
  };
  std::uint64_t requests_before =
      reg.GetCounter("vdb_server_query_requests_total").Value();
  std::uint64_t verdicts_before = verdicts();

  std::size_t fds_baseline = OpenFdCount();

  ServerOptions sopts;
  sopts.num_workers = 4;
  sopts.admission.default_quota.tokens_per_sec = 20000.0;
  sopts.admission.default_quota.burst = 2000.0;
  sopts.admission.default_quota.max_in_flight = 512;
  sopts.admission.max_queue_depth = 256;
  sopts.drain_deadline_ms = 5000;
  auto started = Server::Start(&db, std::move(sopts));
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<Server> server = std::move(*started);

  std::vector<pid_t> children;
  for (int i = 0; i < kChildren; ++i) {
    pid_t pid = SpawnChild(server->port(), conns_per_child, 30);
    ASSERT_GT(pid, 0) << "fork failed";
    children.push_back(pid);
  }

  // Let the fleet hammer the server through the armed failpoints.
  std::this_thread::sleep_for(std::chrono::seconds(2));

  // The massacre: SIGKILL half the clients mid-query. Their sockets die
  // with unread responses and half-written frames in both directions.
  for (int i = 0; i < kChildren / 2; ++i) {
    ASSERT_EQ(::kill(children[static_cast<std::size_t>(i)], SIGKILL), 0);
  }

  // Server health after the massacre: a fresh client gets answered.
  {
    auto probe = Client::Connect("127.0.0.1", server->port());
    // net.accept.fail can eat a connect; one retry is part of the
    // contract (the failure was explicit, not a hang).
    if (!probe.ok()) probe = Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    auto pong = (*probe)->Ping();
    // It can also close a socket the kernel already accepted: Connect
    // succeeds and the first frame meets ECONNRESET. Same contract, one
    // retry on a fresh connection.
    if (!pong.ok()) {
      probe = Client::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(probe.ok()) << probe.status().ToString();
      pong = (*probe)->Ping();
    }
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong->status, WireStatus::kOk);
    bool answered = false;
    for (int attempt = 0; attempt < 20 && !answered; ++attempt) {
      auto resp = (*probe)->Query(kSoakQuery, "probe", 1000);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      if (resp->status == WireStatus::kOk) answered = true;
      else std::this_thread::sleep_for(milliseconds(resp->retry_after_ms));
    }
    EXPECT_TRUE(answered) << "server never answered the post-kill probe";
  }

  std::this_thread::sleep_for(std::chrono::seconds(1));

  // Drain under load: survivors are still sending.
  DrainReport report = server->Shutdown();
  EXPECT_LE(report.seconds, 5.5) << "drain blew through its deadline";
  EXPECT_TRUE(report.clean) << "drain aborted " << report.aborted_requests
                            << " requests";

  // Reap: killed children died by SIGKILL, survivors exit 0 once the
  // server stays unreachable (a nonzero exit means a protocol violation
  // — a shed without an explicit verdict, or a desynced stream).
  for (int i = 0; i < kChildren; ++i) {
    int wstatus = 0;
    ASSERT_EQ(::waitpid(children[static_cast<std::size_t>(i)], &wstatus, 0),
              children[static_cast<std::size_t>(i)]);
    if (i < kChildren / 2) {
      EXPECT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL);
    } else {
      ASSERT_TRUE(WIFEXITED(wstatus));
      EXPECT_EQ(WEXITSTATUS(wstatus), 0);
    }
  }

  // Conservation: every query request got exactly one admission verdict.
  std::uint64_t requests =
      reg.GetCounter("vdb_server_query_requests_total").Value() -
      requests_before;
  EXPECT_GT(requests, 0u) << "soak sent no load";
  EXPECT_EQ(verdicts() - verdicts_before, requests);

  // Zero fd leaks: with the server destroyed, we are back to baseline.
  server.reset();
  EXPECT_EQ(OpenFdCount(), fds_baseline);
}

}  // namespace
}  // namespace vdb::net
