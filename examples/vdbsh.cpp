// vdbsh — a minimal interactive shell for the SQL-style query interface
// (§2.1 "Query Interfaces"). Preloads a demo catalog, then executes one
// query per input line:
//
//   SELECT knn(k) FROM products [WHERE <pred>] ORDER BY distance([...])
//
// Prefix any query with EXPLAIN ANALYZE to print the chosen plan and the
// measured span tree. The line `.metrics` dumps the process metrics
// registry in Prometheus text format; `.scrub <dir>` verifies every CRC
// in a RecoveryManager data directory (append `quarantine` to move
// corrupt files aside); `.serve [port]` turns the shell into a network
// query server over the DESIGN.md §10 wire protocol (SIGTERM/SIGINT
// triggers a graceful drain, then the process exits 0 on a clean drain);
// `.top <port> [host]` attaches to a live `.serve` and renders its stats
// frame — windowed qps/tail latency, verdict mix, per-tenant shed rates,
// and the flight recorder's current worst queries — refreshing in place
// like top(1).
//
// Commands may also be given on the command line (`vdbsh .serve 7070`).
// `vdbsh .demo` runs a canned demo script without reading stdin (the ctest
// smoke path); so does an empty stdin.
//
//   echo "SELECT knn(3) FROM products WHERE price < 50.0 ORDER BY
//         distance([...])" | ./build/examples/vdbsh

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/synthetic.h"
#include "core/telemetry.h"
#include "core/telemetry_window.h"
#include "db/database.h"
#include "db/query_language.h"
#include "db/scrubber.h"
#include "index/hnsw.h"
#include "net/client.h"
#include "net/server.h"

#include "example_util.h"

namespace {

// Drain-on-signal plumbing for `.serve`: RequestDrain is
// async-signal-safe by contract, so the handler may call it directly.
std::atomic<vdb::net::Server*> g_server{nullptr};

extern "C" void HandleDrainSignal(int) {
  vdb::net::Server* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();
}

/// One `.top` dashboard frame from a stats-frame JSON body (DESIGN.md
/// §7.4), read with the core/json scanner.
void RenderTopFrame(const std::string& body) {
  namespace json = vdb::json;
  std::printf("uptime %.1fs\n\n", json::FindNumber(body, "uptime_seconds"));
  std::printf("%-8s %10s %10s %10s %10s %10s\n", "window", "requests", "qps",
              "p50_ms", "p95_ms", "p99_ms");
  std::string windows = json::FindObject(body, "windows");
  for (const char* w : {"10s", "60s"}) {
    std::string win = json::FindObject(windows, w);
    std::printf("%-8s %10.0f %10.1f %10.3f %10.3f %10.3f\n", w,
                json::FindNumber(win, "requests"), json::FindNumber(win, "qps"),
                json::FindNumber(win, "p50_ms"), json::FindNumber(win, "p95_ms"),
                json::FindNumber(win, "p99_ms"));
  }

  const char* verdict_keys[] = {"admitted",   "throttled", "queue_full",
                                "breaker",    "draining",  "deadline_expired"};
  for (const char* scope : {"verdicts_10s", "lifetime"}) {
    std::string block = json::FindObject(body, scope);
    std::printf("\n%s:", scope);
    for (const char* key : verdict_keys) {
      std::printf(" %s=%.0f", key, json::FindNumber(block, key));
    }
    std::printf("\n");
  }

  std::string tenants = json::FindObject(body, "tenants");
  auto tenant_items = json::ArrayItems(tenants);
  if (!tenant_items.empty()) {
    std::printf("\n%-16s %10s %10s %10s %14s\n", "tenant", "admitted", "shed",
                "in_flight", "shed_rate_10s");
    for (const auto& t : tenant_items) {
      std::string name = json::FindString(t, "tenant");
      if (name.empty()) name = "(default)";
      std::printf("%-16s %10.0f %10.0f %10.0f %14.2f\n", name.c_str(),
                  json::FindNumber(t, "admitted"), json::FindNumber(t, "shed"),
                  json::FindNumber(t, "in_flight"),
                  json::FindNumber(t, "shed_rate_10s"));
    }
  }

  auto worst = json::ArrayItems(json::FindObject(body, "worst_queries"));
  std::printf("\nworst queries (%zu):\n", worst.size());
  for (const auto& q : worst) {
    std::string query = json::FindString(q, "query");
    if (query.size() > 60) query = query.substr(0, 57) + "...";
    std::printf("  [%-18s %8.3fms] %s\n", json::FindString(q, "verdict").c_str(),
                json::FindNumber(q, "total_ms"), query.c_str());
    std::string stages = json::FindString(q, "stages");
    if (!stages.empty()) std::printf("      %s\n", stages.c_str());
  }
  std::fflush(stdout);
}

/// `.top <port> [host] [--iters N] [--interval-ms M]` — poll the stats
/// frame and redraw. Defaults: refresh forever on a terminal, a single
/// frame when stdout is a pipe (so scripts and the smoke test terminate).
void RunTop(const std::string& args) {
  std::istringstream iss(args);
  std::string tok;
  std::vector<std::string> positional;
  long iters = ::isatty(STDOUT_FILENO) ? -1 : 1;
  long interval_ms = 1000;
  while (iss >> tok) {
    if (tok == "--iters") {
      if (iss >> tok) iters = std::stol(tok);
    } else if (tok == "--interval-ms") {
      if (iss >> tok) interval_ms = std::stol(tok);
    } else {
      positional.push_back(tok);
    }
  }
  if (positional.empty()) {
    std::printf("usage: .top <port> [host] [--iters N] [--interval-ms M]\n");
    return;
  }
  std::uint16_t port = static_cast<std::uint16_t>(std::stoi(positional[0]));
  std::string host = positional.size() > 1 ? positional[1] : "127.0.0.1";
  auto client = vdb::net::Client::Connect(host, port);
  if (!client.ok()) {
    std::printf("error: %s\n", client.status().ToString().c_str());
    return;
  }
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  for (long i = 0; iters < 0 || i < iters; ++i) {
    auto resp = (*client)->Stats();
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status().ToString().c_str());
      return;
    }
    if (tty) std::fputs("\033[H\033[2J", stdout);
    std::printf("vdbsh .top — %s:%u   ", host.c_str(), unsigned{port});
    RenderTopFrame(resp->body);
    if (iters < 0 || i + 1 < iters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
}

std::string VectorLiteral(const vdb::FloatMatrix& data, std::size_t row) {
  std::string out = "[";
  for (std::size_t j = 0; j < data.cols(); ++j) {
    if (j) out += ", ";
    out += std::to_string(data.at(row, j));
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdb;

  Database db;
  CollectionOptions options;
  options.dim = 8;
  options.attributes = {{"category", AttrType::kInt64},
                        {"price", AttrType::kDouble},
                        {"brand", AttrType::kString}};
  options.index_factory = [] {
    HnswOptions hnsw;
    hnsw.m = 8;
    return std::make_unique<HnswIndex>(hnsw);
  };
  auto created = db.CreateCollection("products", options);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  Collection& products = **created;
  FloatMatrix data = GaussianClusters({1000, 8, 21, 16, 0.15f});
  const char* brands[] = {"acme", "velo", "forge", "zen"};
  for (std::size_t i = 0; i < data.rows(); ++i) {
    OrDie(products.Insert(i, data.row_view(i),
                          {{"category", std::int64_t(i % 5)},
                           {"price", double(i % 200)},
                           {"brand", std::string(brands[i % 4])}}));
  }
  OrDie(products.BuildIndex());
  std::printf("vdbsh — %zu products loaded. One query per line; Ctrl-D "
              "exits.\n",
              products.Size());
  std::printf("dialect: [EXPLAIN ANALYZE] SELECT knn(k) FROM products "
              "[WHERE <pred>] ORDER BY distance([8 floats])\n");
  std::printf("         .metrics dumps the Prometheus registry\n");
  std::printf("         .scrub <dir> [quarantine] verifies a data dir's "
              "CRCs\n");
  std::printf("         .serve [port] serves queries over the wire protocol "
              "(SIGTERM drains)\n");
  std::printf("         .top <port> [host] [--iters N] [--interval-ms M] "
              "watches a live server's stats frame\n\n");

  auto run = [&](const std::string& line) {
    if (line == ".metrics") {
      // Lifetime totals, then the 10s/60s recording-rule views. The shell
      // has no server driving Tick, so rotate the ring here — an
      // interactive session's windows cover the gaps between commands.
      static constexpr double kWindows[] = {10.0, 60.0};
      WindowedRegistry::Global().Tick();
      std::fputs(Registry::Global().RenderPrometheus().c_str(), stdout);
      std::fputs(WindowedRegistry::Global().RenderPrometheus(kWindows).c_str(),
                 stdout);
      return;
    }
    if (line.rfind(".scrub", 0) == 0) {
      std::string rest = line.substr(6);
      ScrubOptions sopts;
      std::size_t q = rest.find("quarantine");
      if (q != std::string::npos) {
        sopts.quarantine = true;
        rest = rest.substr(0, q);
      }
      std::size_t b = rest.find_first_not_of(" \t");
      std::size_t e = rest.find_last_not_of(" \t");
      if (b == std::string::npos) {
        std::printf("usage: .scrub <dir> [quarantine]\n");
        return;
      }
      auto report = ScrubDirectory(rest.substr(b, e - b + 1), sopts);
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        return;
      }
      std::fputs(report->ToString().c_str(), stdout);
      return;
    }
    if (line.rfind(".top", 0) == 0) {
      RunTop(line.substr(4));
      return;
    }
    if (line.rfind(".serve", 0) == 0) {
      net::ServerOptions sopts;
      std::string rest = line.substr(6);
      std::size_t b = rest.find_first_not_of(" \t");
      if (b != std::string::npos) {
        sopts.port = static_cast<std::uint16_t>(std::stoi(rest.substr(b)));
      }
      auto server = net::Server::Start(&db, sopts);
      if (!server.ok()) {
        std::printf("error: %s\n", server.status().ToString().c_str());
        return;
      }
      g_server.store(server->get(), std::memory_order_release);
      std::signal(SIGTERM, HandleDrainSignal);
      std::signal(SIGINT, HandleDrainSignal);
      std::printf("serving on 127.0.0.1:%u — SIGTERM/SIGINT drains, then "
                  "exit\n",
                  unsigned{(*server)->port()});
      std::fflush(stdout);
      while (!(*server)->draining()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      net::DrainReport report = (*server)->Shutdown();
      g_server.store(nullptr, std::memory_order_release);
      std::printf("drain %s in %.3fs (%zu requests aborted, %zu connections "
                  "closed)\n",
                  report.clean ? "clean" : "FORCED", report.seconds,
                  report.aborted_requests, report.closed_connections);
      // Flush telemetry before exiting: the final registry state is the
      // post-mortem record of what the server did.
      std::fputs(Registry::Global().RenderPrometheus().c_str(), stdout);
      std::exit(report.clean ? 0 : 1);
    }
    auto result = ExecuteQueryTraced(&db, line);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    if (!result->explain.empty()) {
      std::fputs(result->explain.c_str(), stdout);
    }
    std::printf("%zu rows", result->rows.size());
    if (result->stats.est_selectivity >= 0) {
      std::printf("  (est. selectivity %.3f)", result->stats.est_selectivity);
    }
    std::printf("\n");
    for (const auto& hit : result->rows) {
      auto brand = products.attributes().Get(hit.id, "brand");
      auto price = products.attributes().Get(hit.id, "price");
      std::printf("  id=%-5llu dist=%.4f brand=%-6s price=%.0f\n",
                  (unsigned long long)hit.id, hit.dist,
                  brand.ok() ? std::get<std::string>(*brand).c_str() : "?",
                  price.ok() ? std::get<double>(*price) : -1.0);
    }
  };

  auto demo = [&] {
    std::string vec = VectorLiteral(data, 42);
    std::string demos[] = {
        "SELECT knn(3) FROM products ORDER BY distance(" + vec + ")",
        "SELECT knn(3) FROM products WHERE price < 50.0 AND brand = 'acme' "
        "ORDER BY distance(" + vec + ")",
        "SELECT knn(3) FROM products WHERE category IN (1, 2) "
        "ORDER BY distance(" + vec + ")",
        "EXPLAIN ANALYZE SELECT knn(3) FROM products WHERE price < 50.0 "
        "ORDER BY distance(" + vec + ")",
        "SELECT knn(3) FROM missing ORDER BY distance(" + vec + ")",
    };
    for (const auto& line : demos) {
      std::printf("> %s\n", line.c_str());
      run(line);
      std::printf("\n");
    }
  };

  // Command-line mode: `vdbsh .serve 7070` etc. — one command, no stdin.
  if (argc > 1) {
    std::string line = argv[1];
    for (int i = 2; i < argc; ++i) line += std::string(" ") + argv[i];
    if (line == ".demo") {
      demo();
      return 0;
    }
    std::printf("> %s\n", line.c_str());
    run(line);
    return 0;
  }

  std::string line;
  bool got_input = false;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    got_input = true;
    std::printf("> %s\n", line.c_str());
    run(line);
  }
  if (!got_input) demo();
  return 0;
}
