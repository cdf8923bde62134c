// serve-filtered: predicated SQL text over net::Client to an in-process
// net::Server with 2 workers. An open loop at a fixed rate gives the
// latency, a closed loop on 2 connections gives capacity.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/synthetic.h"
#include "core/telemetry.h"
#include "db/database.h"
#include "db/query_language.h"
#include "exec/predicate.h"
#include "index/ivf.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace vdb;

constexpr std::size_t kDim = 32;
constexpr std::size_t kRows = 5000;
constexpr std::size_t kPool = 1000;
/// Open-loop rate: about 40% of one connection's capacity on the seed.
constexpr double kRateQps = 170.0;
/// The run alternates paced and closed-loop slices of these lengths, so
/// both phases sample the host's state over the whole run. A set-up runs
/// after every pair of slices, so set-up time samples it too.
constexpr double kPacedSliceS = 2.0;
constexpr double kClosedSliceS = 1.0;
/// Timing windows of the paced (latency) and closed (capacity) slices:
/// ~40 and ~300 replies each.
constexpr double kPacedWindowS = 0.25;
constexpr double kClosedWindowS = 0.25;
constexpr double kRecallFloor = 0.85;
constexpr char kTenant[] = "perfbench";
/// Selectivities of the `u < cut` predicates; the fourth predicate kind is
/// an equality on the cluster column.
constexpr double kUniformCut[3] = {0.01, 0.10, 0.50};
constexpr int kCatKind = 3;

std::unique_ptr<VectorIndex> MakeIndex() {
  IvfOptions o;
  o.nlist = 64;
  o.default_nprobe = 8;
  return std::make_unique<IvfFlatIndex>(o);
}

struct Query {
  std::vector<float> vec;
  std::string text;
  Predicate pred = Predicate::True();
  int kind = 0;  ///< 0..2: uniform cut, kCatKind: cluster equality
  std::int64_t cat = 0;
  std::vector<VectorId> truth;
};

struct Inputs {
  FloatMatrix data;
  std::vector<std::int64_t> cat;
  std::vector<double> u;
  std::vector<Query> pool;

  bool Matches(const Query& q, VectorId id) const {
    if (id >= data.rows()) return false;
    if (q.kind == kCatKind) return cat[id] == q.cat;
    return u[id] < kUniformCut[q.kind];
  }
};

Inputs MakeInputs(std::uint64_t seed) {
  Inputs in;
  SyntheticOptions so;
  so.n = kRows;
  so.dim = kDim;
  so.seed = seed;
  so.num_clusters = 32;
  HybridWorkload w = MakeHybridWorkload(so);
  in.data = std::move(w.vectors);
  in.cat = std::move(w.cluster_attr);
  in.u = std::move(w.uniform_attr);
  FloatMatrix qs = PerturbedQueries(in.data, kPool, 0.03f, seed + 1);
  std::vector<VectorId> cut_rows[3];
  std::map<std::int64_t, std::vector<VectorId>> cat_rows;
  for (std::size_t i = 0; i < kRows; ++i) {
    for (int c = 0; c < 3; ++c) {
      if (in.u[i] < kUniformCut[c]) cut_rows[c].push_back(i);
    }
    cat_rows[in.cat[i]].push_back(i);
  }
  in.pool.resize(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    Query& q = in.pool[i];
    q.vec.assign(qs.row(i), qs.row(i) + kDim);
    // Round-robin over the four predicates in one stream.
    q.kind = static_cast<int>(i % 4);
    char where[64];
    const std::vector<VectorId>* rows = nullptr;
    if (q.kind == kCatKind) {
      // Equality on the cluster of the query's nearest row: the predicate
      // correlates with the query's position.
      q.cat = in.cat[ExactTopK(in.data, {}, q.vec.data(), 1)[0]];
      std::snprintf(where, sizeof(where), "WHERE cat = %lld",
                    static_cast<long long>(q.cat));
      q.pred = Predicate::Cmp("cat", CmpOp::kEq, AttrValue{q.cat});
      rows = &cat_rows[q.cat];
    } else {
      std::snprintf(where, sizeof(where), "WHERE u < %.2f",
                    kUniformCut[q.kind]);
      q.pred = Predicate::Cmp("u", CmpOp::kLt,
                              AttrValue{kUniformCut[q.kind]});
      rows = &cut_rows[q.kind];
    }
    q.text = "SELECT knn(" + std::to_string(kK) + ") FROM items " + where +
             " ORDER BY distance(" + VectorLiteral(q.vec.data(), kDim) + ")";
    q.truth = ExactTopK(in.data, *rows, q.vec.data(), kK);
  }
  return in;
}

struct Loaded {
  std::unique_ptr<Database> db;
  Collection* coll = nullptr;
};

/// Creates the collection and times first Insert .. BuildIndex.
Status SetUp(const Inputs& in, Loaded* out, double* seconds) {
  out->db = std::make_unique<Database>();
  CollectionOptions co;
  co.dim = kDim;
  co.index_factory = MakeIndex;
  co.attributes = {{"cat", AttrType::kInt64}, {"u", AttrType::kDouble}};
  VDB_ASSIGN_OR_RETURN(out->coll, out->db->CreateCollection("items", co));
  Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kRows; ++i) {
    VDB_RETURN_IF_ERROR(out->coll->Insert(
        i, in.data.row_view(i),
        {{"cat", AttrValue{in.cat[i]}}, {"u", AttrValue{in.u[i]}}}));
  }
  VDB_RETURN_IF_ERROR(out->coll->BuildIndex());
  *seconds = Seconds(start, Clock::now());
  return Status::Ok();
}

/// Per-phase reply accounting.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;   ///< non-kOk verdicts
  std::uint64_t wrong = 0;  ///< replies that failed an answer check
  std::vector<double> lat_ms;  ///< paced: due time to reply
  std::vector<double> lag_ms;  ///< paced: due time to send
  /// Seconds into the phase of each successful reply: its due time when
  /// paced, its arrival when closed-loop.
  std::vector<double> t_s;
  std::map<std::size_t, double> recall;  ///< first reply per pool query
  std::string first_error;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    shed += o.shed;
    wrong += o.wrong;
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    t_s.insert(t_s.end(), o.t_s.begin(), o.t_s.end());
    recall.insert(o.recall.begin(), o.recall.end());
    if (first_error.empty()) first_error = o.first_error;
  }
  void Error(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  double MeanRecall() const {
    if (recall.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& [qi, r] : recall) sum += r;
    return sum / static_cast<double>(recall.size());
  }
};

/// Counts one reply and applies the answer checks. Returns false when the
/// reply failed for any reason.
bool Judge(const Inputs& in, std::size_t qi, const Result<net::Response>& resp,
           Tally* t) {
  ++t->attempted;
  if (!resp.ok()) {
    t->Error("transport: " + resp.status().ToString());
    return false;
  }
  if (resp->status != net::WireStatus::kOk) {
    ++t->shed;
    t->Error(std::string("verdict ") + net::WireStatusName(resp->status) +
             ": " + resp->message);
    return false;
  }
  const Query& q = in.pool[qi];
  t->recall.emplace(qi, Recall(resp->rows, q.truth));
  std::string err = CheckReply(resp->rows, kK, [&](VectorId id) {
    return in.Matches(q, id);
  });
  if (!err.empty()) {
    ++t->wrong;
    t->Error("query " + std::to_string(qi) + ": " + err);
    return false;
  }
  return true;
}

/// Runs `body(conn_index, client, tally)` on `conns` threads, each with its
/// own connection and pinned to CPU slot `cpu_slot`, and merges their
/// tallies.
template <typename Body>
void OnConnections(std::uint16_t port, int conns, std::size_t cpu_slot,
                   Tally* out, Body body) {
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      // Paced sends sleep until their slot; the default 50us timer slack
      // would be charged to every request.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      PinThread(0, cpu_slot);
      Tally local;
      auto client = net::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++local.attempted;
        local.Error("connect: " + client.status().ToString());
      } else {
        body(c, client->get(), &local);
      }
      std::lock_guard<std::mutex> lock(mu);
      out->Merge(local);
    });
  }
  for (auto& t : threads) t.join();
}

/// Open loop: query i is due at start + i / rate whatever earlier replies
/// did; latency runs from the due time, and the lag from due time to the
/// actual send is the generator's own delay. Sends pool queries from
/// `*next_query` on and advances it.
void PacedPhase(const Inputs& in, std::uint16_t port, double seconds,
                std::size_t cpu_slot, std::uint64_t* next_query,
                Tally* out) {
  constexpr int kConns = 4;
  std::atomic<std::uint64_t> next{0};
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  Clock::time_point end =
      start + std::chrono::nanoseconds(static_cast<long long>(seconds * 1e9));
  auto send = [&](int, net::Client* client, Tally* t) {
    for (;;) {
      std::uint64_t i = next.fetch_add(1);
      Clock::time_point due =
          start + std::chrono::nanoseconds(static_cast<long long>(
                      static_cast<double>(i) * 1e9 / kRateQps));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      Clock::time_point sent = Clock::now();
      std::size_t qi = (*next_query + i) % in.pool.size();
      auto resp = client->Query(in.pool[qi].text, kTenant, 0);
      Clock::time_point done = Clock::now();
      if (Judge(in, qi, resp, t)) {
        t->lat_ms.push_back(Micros(due, done) / 1000.0);
        t->lag_ms.push_back(Micros(due, sent) / 1000.0);
        t->t_s.push_back(Seconds(start, due));
      } else if (!resp.ok()) {
        break;  // the connection is gone; other connections take the slots
      }
    }
  };
  OnConnections(port, kConns, cpu_slot, out, send);
  *next_query += next.load();
}

/// Closed loop: each connection sends its next query when the previous
/// reply arrives. Connection c starts at pool query `first + c * 7919`.
void ClosedPhase(const Inputs& in, std::uint16_t port, int conns,
                 double seconds, std::size_t cpu_slot, std::uint64_t first,
                 Tally* out) {
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::nanoseconds(static_cast<long long>(seconds * 1e9));
  auto send = [&](int c, net::Client* client, Tally* t) {
    for (std::uint64_t i = first + static_cast<std::uint64_t>(c) * 7919;
         Clock::now() < end; ++i) {
      std::size_t qi = i % in.pool.size();
      auto resp = client->Query(in.pool[qi].text, kTenant, 0);
      if (Judge(in, qi, resp, t)) {
        t->t_s.push_back(Seconds(start, Clock::now()));
      } else if (!resp.ok()) {
        break;
      }
    }
  };
  OnConnections(port, conns, cpu_slot, out, send);
}

/// Moves the server's threads (`server_tids`: event loop, then workers)
/// and the load generator (the calling thread and, through `*client_slot`,
/// the connection threads) onto distinct CPUs, shifted by one every round.
/// Placement then does not vary between runs, no two busy threads share a
/// core, and every thread visits every core.
void Place(const std::vector<pid_t>& server_tids, std::size_t round,
           std::size_t* client_slot) {
  for (std::size_t i = 0; i < server_tids.size(); ++i) {
    PinThread(server_tids[i], round + i);
  }
  *client_slot = round + server_tids.size();
  PinThread(0, *client_slot);
}

Result<std::unique_ptr<net::Server>> StartServer(Database* db) {
  net::ServerOptions so;
  so.num_workers = 2;
  // Quotas and queue sized so nothing is shed: overload is not measured.
  so.admission.default_quota.tokens_per_sec = 1e9;
  so.admission.default_quota.burst = 1e9;
  so.admission.default_quota.max_in_flight = 1024;
  so.admission.max_queue_depth = 4096;
  return net::Server::Start(db, so);
}

const char* PlanMetric(PlanKind kind) {
  switch (kind) {
    case PlanKind::kBruteForceHybrid: return "exec.plan_mix.brute_force";
    case PlanKind::kPreFilterIndexScan: return "exec.plan_mix.pre_filter";
    case PlanKind::kPostFilterIndexScan: return "exec.plan_mix.post_filter";
    case PlanKind::kVisitFirstIndexScan: return "exec.plan_mix.visit_first";
    case PlanKind::kPartitionPruned: return "exec.plan_mix.partition_pruned";
  }
  return "exec.plan_mix.unknown";
}

bool ScansIndex(PlanKind kind) {
  return kind == PlanKind::kPreFilterIndexScan ||
         kind == PlanKind::kPostFilterIndexScan ||
         kind == PlanKind::kVisitFirstIndexScan;
}

/// The index scan of a plan that `ScansIndex`, run on the benchmark's own
/// copy of the index.
Status ScanForPlan(const HybridPlan& plan, const Query& q,
                   const AttributeStore& attrs, const Bitset& bits,
                   const VectorIndex& index, std::vector<Neighbor>* out,
                   SearchStats* stats) {
  SearchParams p;
  p.k = kK;
  BitsetIdFilter bitset_filter(&bits);
  PredicateIdFilter pred_filter(&q.pred, &attrs);
  if (plan.kind == PlanKind::kPreFilterIndexScan) {
    p.filter = &bitset_filter;
    p.filter_mode = FilterMode::kBlockFirst;
  } else {
    p.filter = &pred_filter;
    p.filter_mode = plan.kind == PlanKind::kPostFilterIndexScan
                        ? FilterMode::kPostFilter
                        : FilterMode::kVisitFirst;
    p.post_filter_amplification = plan.amplification;
  }
  return index.Search(q.vec.data(), p, out, stats);
}

/// Per-layer attribution of served queries (the traced run).
Status Attribute(const Inputs& in, const Loaded& ld, std::uint16_t port,
                 double seconds, const Args& args, Report* r, Tally* tally) {
  // The benchmark's own index, built with the workload's factory.
  std::unique_ptr<VectorIndex> index = MakeIndex();
  Clock::time_point b0 = Clock::now();
  VDB_RETURN_IF_ERROR(index->Build(in.data, {}));
  r->Add("index.build_s", Seconds(b0, Clock::now()), "s");

  // Deterministic plan choice and estimate error over a fixed sample.
  const AttributeStore& attrs = ld.coll->attributes();
  constexpr std::size_t kSample = 200;
  std::map<std::string, double> mix;
  double err = 0.0;
  for (std::size_t i = 0; i < kSample; ++i) {
    const Query& q = in.pool[i];
    VDB_ASSIGN_OR_RETURN(HybridPlan plan, ld.coll->ExplainHybrid(q.pred));
    mix[PlanMetric(plan.kind)] += 1.0 / kSample;
    VDB_ASSIGN_OR_RETURN(double est, q.pred.EstimateSelectivity(attrs));
    double actual = 0.0;
    for (std::size_t id = 0; id < kRows; ++id) {
      actual += in.Matches(q, id) ? 1.0 : 0.0;
    }
    err += std::abs(est - actual / kRows);
  }
  for (const auto& [name, share] : mix) r->Add(name, share, "share");
  r->Add("exec.selectivity_error", err / kSample, "share");

  auto client_or = net::Client::Connect("127.0.0.1", port);
  if (!client_or.ok()) return client_or.status();
  net::Client* client = client_or->get();

  std::vector<double> pings;
  for (int i = 0; i < 1000; ++i) {
    Clock::time_point t0 = Clock::now();
    auto resp = client->Ping();
    if (!resp.ok()) return resp.status();
    pings.push_back(Micros(t0, Clock::now()));
  }
  r->Add("net.ping_us", Median(pings), "us");

  SpanLog log;
  std::vector<double> untraced_us, net_over, exec_over;
  SearchStats idx_stats;
  std::uint64_t idx_calls = 0, forced_calls = 0;
  double bitmask_rows = 0.0, examined = 0.0, returned = 0.0;
  std::map<int, Bitset> bitsets;
  std::vector<Neighbor> rows, mine;
  Clock::time_point end =
      Clock::now() +
      std::chrono::nanoseconds(static_cast<long long>(seconds * 1e9));
  for (std::uint32_t qi = 0; Clock::now() < end; ++qi) {
    std::size_t pi = qi % in.pool.size();
    const Query& q = in.pool[pi];
    // Alternate which of the untraced and traced client calls goes first
    // so neither always meets the warmer cache.
    auto untraced = [&] {
      Clock::time_point t0 = Clock::now();
      auto resp = client->Query(q.text, kTenant, 0);
      untraced_us.push_back(Micros(t0, Clock::now()));
      Judge(in, pi, resp, tally);
    };
    if (qi % 2 == 0) untraced();
    Result<net::Response> resp = Status::Internal("unset");
    int root = log.Record("net.query", -1, qi, [&] {
      resp = client->Query(q.text, kTenant, 0);
    });
    Judge(in, pi, resp, tally);
    if (qi % 2 == 1) untraced();

    Result<QueryResult> executed = Status::Internal("unset");
    int exec = log.Record("db.execute_query", root, qi, [&] {
      executed = ExecuteQueryTraced(ld.db.get(), q.text);
    });
    VDB_RETURN_IF_ERROR(executed.status());
    Result<ParsedQuery> parsed = Status::Internal("unset");
    int parse = log.Record("db.parse", exec, qi,
                           [&] { parsed = ParseQuery(q.text); });
    VDB_RETURN_IF_ERROR(parsed.status());
    // ExecuteQueryTraced plans once for the reply's plan text, and
    // Collection::Hybrid plans again before executing.
    Result<HybridPlan> plan = Status::Internal("unset");
    int explain = log.Record("exec.plan", exec, qi, [&] {
      plan = ld.coll->ExplainHybrid(q.pred);
    });
    VDB_RETURN_IF_ERROR(plan.status());
    Status st;
    int hybrid = log.Record("db.hybrid", exec, qi, [&] {
      st = ld.coll->Hybrid(q.vec, q.pred, kK, &rows);
    });
    VDB_RETURN_IF_ERROR(st);
    log.Record("exec.plan", hybrid, qi,
               [&] { plan = ld.coll->ExplainHybrid(q.pred); });
    VDB_RETURN_IF_ERROR(plan.status());
    ExecStats es;
    int execute = log.Record("exec.execute", hybrid, qi, [&] {
      st = ld.coll->Hybrid(q.vec, q.pred, kK, &rows, &es, &*plan);
    });
    VDB_RETURN_IF_ERROR(st);
    ++forced_calls;
    bitmask_rows += static_cast<double>(es.bitmask_rows);
    examined += static_cast<double>(es.search.distance_comps +
                                    es.search.filter_checks);
    returned += static_cast<double>(rows.size());

    int key = q.kind == kCatKind ? kCatKind + static_cast<int>(q.cat)
                                 : q.kind;
    if (!bitsets.contains(key)) {
      VDB_ASSIGN_OR_RETURN(bitsets[key], q.pred.Evaluate(attrs));
    }
    if (ScansIndex(plan->kind)) {
      log.Record("index.search", execute, qi, [&] {
        st = ScanForPlan(*plan, q, attrs, bitsets[key], *index, &mine,
                         &idx_stats);
      });
      VDB_RETURN_IF_ERROR(st);
      ++idx_calls;
    }
    net_over.push_back(log.Duration(root) - log.Duration(exec));
    exec_over.push_back(log.Duration(exec) - log.Duration(parse) -
                        log.Duration(explain) - log.Duration(hybrid));
  }
  if (idx_calls == 0) return Status::Internal("no index scans measured");

  r->Add("net.rtt_overhead_us", Median(net_over), "us");
  r->Add("db.parse_us", Median(log.Durations("db.parse")), "us");
  r->Add("db.exec_overhead_us", Median(exec_over), "us");
  r->Add("exec.plan_us", Median(log.Durations("exec.plan")), "us");
  r->Add("exec.execute_us", Median(log.Durations("exec.execute")), "us");
  r->Add("exec.bitmask_rows_per_query",
         bitmask_rows / static_cast<double>(forced_calls), "rows");
  r->Add("exec.rows_examined_per_result", examined / returned, "rows");
  double l2_ns = 0.0;
  MeasureCoreKernels(in.data, r, &l2_ns);
  AddIndexStats(idx_stats, idx_calls, Median(log.Durations("index.search")),
                l2_ns, r);
  AddTraceMetrics(log, untraced_us, args, r);
  return Status::Ok();
}

}  // namespace

Report RunServeFiltered(const Args& args) {
  Report r;
  Inputs in = MakeInputs(args.seed);
  const double total = args.seconds;

  // The collection the server serves; every later set-up builds a copy
  // that is timed and then dropped.
  Loaded ld;
  std::vector<double> setups(1);
  Status setup_st = SetUp(in, &ld, &setups[0]);
  if (!setup_st.ok()) {
    r.Fail("setup: " + setup_st.ToString());
    return r;
  }
  std::vector<pid_t> before_start = ThreadIds();
  auto server_or = StartServer(ld.db.get());
  if (!server_or.ok()) {
    r.Fail("server start: " + server_or.status().ToString());
    return r;
  }
  std::unique_ptr<net::Server> server = std::move(*server_or);
  std::uint16_t port = server->port();
  // The threads the server started: its event loop, then its workers.
  std::vector<pid_t> server_tids;
  std::ranges::set_difference(ThreadIds(), before_start,
                              std::back_inserter(server_tids));
  std::size_t round = 0, client_slot = 0;
  Place(server_tids, round, &client_slot);

  Tally warmup, paced, capacity, traced;
  ClosedPhase(in, port, 2, std::clamp(0.05 * total, 0.3, 1.0), client_slot,
              0, &warmup);
  Histogram& queue_wait =
      Registry::Global().GetHistogram("vdb_server_queue_wait_seconds");
  HistogramSnapshot before = queue_wait.Snapshot();
  Windowed lat(kPacedWindowS), done(kClosedWindowS);
  std::uint64_t next_query = 0;
  // One paced slice when traced; else paced and closed slices alternate
  // until 95% of the run has passed.
  Clock::time_point run_end =
      Clock::now() +
      std::chrono::nanoseconds(static_cast<long long>(0.95 * total * 1e9));
  do {
    Tally slice;
    double paced_s = args.trace ? 0.35 * total : kPacedSliceS;
    PacedPhase(in, port, paced_s, client_slot, &next_query, &slice);
    lat.BeginPhase(paced_s);
    for (std::size_t i = 0; i < slice.lat_ms.size(); ++i) {
      lat.Add(slice.t_s[i], slice.lat_ms[i]);
    }
    paced.Merge(slice);
    if (args.trace) break;

    slice = Tally{};
    ClosedPhase(in, port, 2, kClosedSliceS, client_slot, next_query,
                &slice);
    next_query += slice.attempted;
    done.BeginPhase(kClosedSliceS);
    for (double t : slice.t_s) done.Add(t, 1.0);
    capacity.Merge(slice);

    Loaded copy;
    setup_st = SetUp(in, &copy, &setups.emplace_back());
    if (!setup_st.ok()) break;
    Place(server_tids, ++round, &client_slot);
  } while (Clock::now() < run_end);
  if (!setup_st.ok()) r.Fail("setup: " + setup_st.ToString());
  HistogramSnapshot waits = queue_wait.Snapshot().DeltaSince(before);
  double gen_lag_ms = Percentile(paced.lag_ms, 99);
  double lat_p99 = Percentile(paced.lat_ms, 99);

  Tally all;
  all.Merge(paced);
  if (args.trace) {
    Status st = Attribute(in, ld, port, 0.5 * total, args, &r, &traced);
    if (!st.ok()) r.Fail("traced run: " + st.ToString());
    all.Merge(traced);
    r.Add("net.queue_wait_us_p50", waits.Percentile(50) * 1e6, "us");
    r.Add("net.queue_wait_us_p99", waits.Percentile(99) * 1e6, "us");
    r.Add("net.shed", static_cast<double>(all.shed), "count");
    r.Add("loadgen.gen_lag_ms", gen_lag_ms, "ms");
    r.Add("loadgen.lat_p99_ms", lat_p99, "ms");
  } else {
    all.Merge(capacity);
    r.Add("lat_p50_ms", FastWindow(lat.Percentiles(50), true), "ms");
    r.Add("ops_per_s", FastWindow(done.Rates(), false), "1/s");
    r.Add("recall_at_10", all.MeanRecall(), "ratio");
    r.Add("bytes_per_vector",
          static_cast<double>(ld.coll->MemoryBytes()) /
              static_cast<double>(ld.coll->Size()),
          "B");
    r.Add("setup_s", Median(setups), "s");
  }
  net::DrainReport drain = server->Shutdown();

  char line[256];
  std::snprintf(line, sizeof(line),
                "serve-filtered: paced %zu replies at %.0f/s, lat p99 %.3f "
                "ms, gen_lag_ms %.3f (p99); capacity %zu replies; recall "
                "%.4f over %zu queries; drain %s",
                paced.lat_ms.size(), kRateQps, lat_p99,
                gen_lag_ms, capacity.t_s.size(), all.MeanRecall(),
                all.recall.size(), drain.clean ? "clean" : "NOT clean");
  r.Note(line);
  r.attempted = all.attempted;
  r.failed = all.failed;
  if (!all.first_error.empty()) r.Note("first failure: " + all.first_error);
  if (all.wrong > 0) {
    r.Note(std::to_string(all.wrong) + " replies failed answer checks");
  }
  if (all.MeanRecall() < kRecallFloor) {
    r.Fail("recall " + std::to_string(all.MeanRecall()) + " below floor " +
           std::to_string(kRecallFloor));
  }
  if (!drain.clean) r.Fail("server drain was not clean");
  return r;
}

}  // namespace perfbench
