// loadgen — closed-loop load generator for the serving layer (DESIGN.md
// §10). Each connection is one thread running request→response in
// lock-step; the interesting outputs are the admission verdict mix
// (ok / throttled / queue-full / breaker / draining), the RETRY-AFTER
// hints, and the client-observed latency distribution.
//
// Modes:
//   loadgen                      self-hosted: starts an in-process server
//                                on an ephemeral port, drives it, drains
//                                it, and reports (the ctest smoke path)
//   loadgen --port P [--host H]  drives an external server (vdbsh .serve)
//
// Knobs: --conns N (threads), --requests N (per thread), --tenants N,
// --deadline-ms B (0 = none), --trace (after the run, send one
// wire-traced query and print the server-side span tree it returns).
// The repository benchmark is perfbench/, not this tool.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/synthetic.h"
#include "core/telemetry.h"
#include "db/database.h"
#include "index/hnsw.h"
#include "net/client.h"
#include "net/server.h"

#include "example_util.h"

namespace {

using namespace vdb;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = self-hosted
  std::size_t conns = 4;
  std::size_t requests = 50;
  std::size_t tenants = 2;
  std::uint32_t deadline_ms = 1000;
  bool trace = false;
};

struct Tally {
  std::size_t ok = 0;
  std::size_t throttled = 0;
  std::size_t queue_full = 0;
  std::size_t breaker_open = 0;
  std::size_t draining = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t query_errors = 0;      // non-overload error statuses
  std::size_t transport_errors = 0;  // connection-level failures
  std::uint32_t retry_after_ms_max = 0;
  std::vector<double> latencies_ms;
};

std::string VectorLiteral(const FloatMatrix& data, std::size_t row) {
  std::string out = "[";
  for (std::size_t j = 0; j < data.cols(); ++j) {
    if (j) out += ", ";
    out += std::to_string(data.at(row, j));
  }
  return out + "]";
}

double PercentileMs(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void Worker(const Options& opts, std::uint16_t port, std::size_t worker_id,
            const std::vector<std::string>& query_pool, Tally* out,
            std::mutex* out_mu) {
  Tally local;
  auto client = net::Client::Connect(opts.host, port);
  if (!client.ok()) {
    local.transport_errors = opts.requests;
    std::lock_guard<std::mutex> lock(*out_mu);
    out->transport_errors += local.transport_errors;
    return;
  }
  std::string tenant = "tenant-" + std::to_string(worker_id % opts.tenants);
  for (std::size_t i = 0; i < opts.requests; ++i) {
    const std::string& text = query_pool[(worker_id + i) % query_pool.size()];
    auto start = std::chrono::steady_clock::now();
    auto resp = (*client)->Query(text, tenant, opts.deadline_ms);
    auto end = std::chrono::steady_clock::now();
    if (!resp.ok()) {
      ++local.transport_errors;
      break;  // connection is desynced or gone; stop this worker
    }
    local.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    local.retry_after_ms_max =
        std::max(local.retry_after_ms_max, resp->retry_after_ms);
    switch (resp->status) {
      case net::WireStatus::kOk: ++local.ok; break;
      case net::WireStatus::kThrottled: ++local.throttled; break;
      case net::WireStatus::kQueueFull: ++local.queue_full; break;
      case net::WireStatus::kBreakerOpen: ++local.breaker_open; break;
      case net::WireStatus::kDraining: ++local.draining; break;
      case net::WireStatus::kDeadlineExceeded:
        ++local.deadline_exceeded;
        break;
      default: ++local.query_errors; break;
    }
  }
  std::lock_guard<std::mutex> lock(*out_mu);
  out->ok += local.ok;
  out->throttled += local.throttled;
  out->queue_full += local.queue_full;
  out->breaker_open += local.breaker_open;
  out->draining += local.draining;
  out->deadline_exceeded += local.deadline_exceeded;
  out->query_errors += local.query_errors;
  out->transport_errors += local.transport_errors;
  out->retry_after_ms_max =
      std::max(out->retry_after_ms_max, local.retry_after_ms_max);
  out->latencies_ms.insert(out->latencies_ms.end(), local.latencies_ms.begin(),
                           local.latencies_ms.end());
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--host")) opts.host = next("--host");
    else if (!std::strcmp(argv[i], "--port")) opts.port = std::atoi(next("--port"));
    else if (!std::strcmp(argv[i], "--conns")) opts.conns = std::strtoul(next("--conns"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--requests")) opts.requests = std::strtoul(next("--requests"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--tenants")) opts.tenants = std::max<std::size_t>(1, std::strtoul(next("--tenants"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--deadline-ms")) opts.deadline_ms = static_cast<std::uint32_t>(std::strtoul(next("--deadline-ms"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--trace")) opts.trace = true;
    else {
      std::fprintf(stderr,
                   "usage: loadgen [--host H] [--port P] [--conns N] "
                   "[--requests N] [--tenants N] [--deadline-ms B] "
                   "[--trace]\n");
      return 2;
    }
  }

  // Self-hosted mode: a demo collection plus an in-process server. The
  // admission quota is tight enough that a default run actually sheds.
  Database db;
  std::unique_ptr<net::Server> server;
  FloatMatrix data = GaussianClusters({512, 8, 7, 8, 0.15f});
  std::uint16_t port = static_cast<std::uint16_t>(opts.port);
  if (opts.port == 0) {
    CollectionOptions copts;
    copts.dim = 8;
    copts.index_factory = [] {
      HnswOptions hnsw;
      hnsw.m = 8;
      return std::make_unique<HnswIndex>(hnsw);
    };
    auto created = db.CreateCollection("products", copts);
    OrDie(created.status());
    for (std::size_t i = 0; i < data.rows(); ++i) {
      OrDie((*created)->Insert(i, data.row_view(i), {}));
    }
    OrDie((*created)->BuildIndex());
    net::ServerOptions sopts;
    sopts.num_workers = 2;
    sopts.admission.default_quota.tokens_per_sec = 400.0;
    sopts.admission.default_quota.burst = 64.0;
    sopts.admission.max_queue_depth = 32;
    auto started = net::Server::Start(&db, std::move(sopts));
    OrDie(started.status());
    server = std::move(*started);
    port = server->port();
    std::printf("self-hosted server on 127.0.0.1:%u\n", unsigned{port});
  }

  std::vector<std::string> query_pool;
  for (std::size_t i = 0; i < 8; ++i) {
    query_pool.push_back("SELECT knn(5) FROM products ORDER BY distance(" +
                         VectorLiteral(data, i * 13 % data.rows()) + ")");
  }

  Tally tally;
  std::mutex tally_mu;
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < opts.conns; ++c) {
    threads.emplace_back(Worker, std::cref(opts), port, c,
                         std::cref(query_pool), &tally, &tally_mu);
  }
  for (auto& t : threads) t.join();
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (opts.trace) {
    // One wire-traced request after the run: the trace flag in the query
    // frame makes the server attach its span tree + per-stage latency
    // attribution to the response (remote EXPLAIN ANALYZE).
    auto client = net::Client::Connect(opts.host, port);
    if (client.ok()) {
      auto resp = (*client)->Query(query_pool[0], "loadgen-trace",
                                   opts.deadline_ms, /*trace=*/true);
      if (resp.ok() && resp->status == net::WireStatus::kOk) {
        std::printf("--- traced query (server-side span tree) ---\n%s%s",
                    resp->body.c_str(),
                    resp->body.empty() || resp->body.back() == '\n' ? ""
                                                                    : "\n");
      } else {
        std::printf("traced query failed: %s\n",
                    resp.ok() ? resp->message.c_str()
                              : resp.status().ToString().c_str());
      }
    } else {
      std::printf("traced query connect failed: %s\n",
                  client.status().ToString().c_str());
    }
  }

  net::DrainReport drain;
  bool drained = false;
  if (server) {
    drain = server->Shutdown();
    drained = true;
  }

  std::sort(tally.latencies_ms.begin(), tally.latencies_ms.end());
  std::size_t total = opts.conns * opts.requests;
  double qps = elapsed > 0 ? static_cast<double>(tally.latencies_ms.size()) /
                                 elapsed
                           : 0.0;
  double p50 = PercentileMs(tally.latencies_ms, 50);
  double p95 = PercentileMs(tally.latencies_ms, 95);
  double p99 = PercentileMs(tally.latencies_ms, 99);

  std::printf(
      "sent=%zu ok=%zu throttled=%zu queue_full=%zu breaker=%zu draining=%zu "
      "deadline=%zu query_err=%zu transport_err=%zu\n",
      total, tally.ok, tally.throttled, tally.queue_full, tally.breaker_open,
      tally.draining, tally.deadline_exceeded, tally.query_errors,
      tally.transport_errors);
  std::printf("elapsed=%.3fs qps=%.1f latency p50=%.2fms p95=%.2fms "
              "p99=%.2fms retry_after_max=%ums\n",
              elapsed, qps, p50, p95, p99,
              unsigned{tally.retry_after_ms_max});
  if (drained) {
    std::printf("drain %s in %.3fs (%zu aborted)\n",
                drain.clean ? "clean" : "FORCED", drain.seconds,
                drain.aborted_requests);
  }

  // The smoke contract: every request got an explicit answer (admission
  // verdicts count as answers; silent drops and hangs do not).
  bool healthy = tally.transport_errors == 0 && (!drained || drain.clean);
  return healthy ? 0 : 1;
}
