// disk-ann: one embedded caller drives a Collection over a DiskANN index.
#include <algorithm>
#include <functional>
#include <memory>

#include "core/simd.h"
#include "core/synthetic.h"
#include "db/collection.h"
#include "index/diskann.h"
#include "storage/paged_file.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace vdb;

constexpr std::size_t kPool = 1000;

FloatMatrix Data(std::size_t n, std::size_t dim, std::uint64_t seed) {
  SyntheticOptions so;
  so.n = n;
  so.dim = dim;
  so.seed = seed;
  so.num_clusters = 32;
  return GaussianClusters(so);
}

/// Knn reply accounting.
struct Answers {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  double recall_sum = 0.0;
  std::uint64_t recall_n = 0;
  std::string first_error;

  void Error(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  /// Checks one reply against its exact answer; `live` says which ids may
  /// appear.
  void Judge(const Status& st, const std::vector<Neighbor>& rows,
             const std::vector<VectorId>& truth,
             const std::function<bool(VectorId)>& live) {
    ++attempted;
    if (!st.ok()) {
      Error("knn: " + st.ToString());
      return;
    }
    recall_sum += Recall(rows, truth);
    ++recall_n;
    std::string err = CheckReply(rows, kK, live);
    if (!err.empty()) {
      ++wrong;
      Error("knn reply: " + err);
    }
  }
  double MeanRecall() const {
    return recall_n == 0 ? 0.0 : recall_sum / static_cast<double>(recall_n);
  }
  void Finish(double floor, Report* r) const {
    r->attempted += attempted;
    r->failed += failed;
    if (!first_error.empty()) r->Note("first failure: " + first_error);
    if (wrong > 0) {
      r->Note(std::to_string(wrong) + " replies failed answer checks");
    }
    if (MeanRecall() < floor) {
      r->Fail("recall " + std::to_string(MeanRecall()) + " below floor " +
              std::to_string(floor));
    }
  }
};

// ------------------------------------------------------------- disk-ann

constexpr std::size_t kDiskDim = 32;
constexpr std::size_t kDiskN = 2000;
constexpr std::size_t kPageSize = 4096;
constexpr double kDiskRecallFloor = 0.85;
constexpr int kDiskSetups = 5;
constexpr auto kDiskWarmUp = std::chrono::milliseconds(300);
/// Timing windows: ~350 calls each, ~850 in a 50-second run.
constexpr double kDiskWindowS = 0.05;

DiskAnnOptions DiskOptions() {
  DiskAnnOptions o;
  o.vamana.r = 16;
  o.vamana.l = 32;
  o.vamana.passes = 1;
  o.pq.m = 8;
  o.pq.nbits = 8;
  o.pq.train_iters = 10;
  o.default_beam_width = 4;
  o.default_ef = 64;
  o.file.page_size = kPageSize;
  // Node block = degree + R neighbor ids + the vector; the program's own
  // page cache holds about 10% of the index's pages.
  std::size_t node = sizeof(std::uint32_t) * (1 + o.vamana.r) +
                     sizeof(float) * kDiskDim;
  std::size_t pages = (kDiskN + kPageSize / node - 1) / (kPageSize / node);
  o.file.cache_pages = pages / 10;
  return o;
}

/// ns per simd::AdcLookup call at the index's PQ shape.
double MeasureAdc(const DiskAnnOptions& o) {
  const std::size_t m = o.pq.m;
  const std::size_t ksub = std::size_t{1} << o.pq.nbits;
  Rng rng(m * ksub);
  std::vector<float> tables(m * ksub);
  for (auto& t : tables) t = static_cast<float>(rng() % 1000) / 1000.0f;
  std::vector<unsigned char> codes(kDiskN * m);
  for (auto& c : codes) c = static_cast<unsigned char>(rng() % ksub);
  constexpr std::size_t kCalls = 1 << 16;
  std::vector<double> blocks;
  volatile float sink = 0.0f;
  for (int b = 0; b < 9; ++b) {
    float acc = 0.0f;
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      acc += simd::AdcLookup(tables.data(),
                             codes.data() + (i % kDiskN) * m, m, ksub);
    }
    blocks.push_back(Micros(t0, Clock::now()) * 1000.0 / kCalls);
    sink = sink + acc;
  }
  return Median(blocks);
}

/// µs per page of PagedFile::ReadPages on `path` with the cache off, in
/// beam-sized batches of random pages.
Result<double> MeasurePageReads(const std::string& path, std::size_t beam) {
  PagedFileOptions po;
  po.page_size = kPageSize;
  po.cache_pages = 0;
  VDB_ASSIGN_OR_RETURN(std::unique_ptr<PagedFile> file,
                       PagedFile::Open(path, po));
  std::uint64_t pages = file->num_pages();
  if (pages == 0) return Status::Internal("empty index file");
  Rng rng(pages);
  std::vector<std::uint64_t> ids(beam);
  std::vector<std::uint8_t> buf(beam * kPageSize);
  std::vector<double> per_page;
  for (int i = 0; i < 4000; ++i) {
    for (auto& id : ids) id = rng() % pages;
    Clock::time_point t0 = Clock::now();
    VDB_RETURN_IF_ERROR(file->ReadPages(ids, buf.data()));
    per_page.push_back(Micros(t0, Clock::now()) / static_cast<double>(beam));
  }
  return Median(per_page);
}

}  // namespace

Report RunDiskAnn(const Args& args) {
  Report r;
  FloatMatrix data = Data(kDiskN, kDiskDim, args.seed);
  FloatMatrix queries = PerturbedQueries(data, kPool, 0.03f, args.seed + 1);
  std::vector<std::vector<VectorId>> truth(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    truth[i] = ExactTopK(data, {}, queries.row(i), kK);
  }
  const DiskAnnOptions dopts = DiskOptions();

  auto live = [](VectorId id) { return id < kDiskN; };
  std::unique_ptr<Collection> coll;
  std::vector<double> setups;
  std::vector<Neighbor> rows;
  // Builds the `rep`-th collection, times its set-up, and warms its page
  // cache and the allocator.
  auto set_up = [&](int rep) -> Status {
    coll.reset();
    std::string path = args.work_dir + "/diskann-" + std::to_string(rep);
    CollectionOptions co;
    co.dim = kDiskDim;
    co.index_factory = [path, dopts] {
      return std::make_unique<DiskAnnIndex>(path, dopts);
    };
    VDB_ASSIGN_OR_RETURN(coll, Collection::Create(co));
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kDiskN; ++i) {
      VDB_RETURN_IF_ERROR(coll->Insert(i, data.row_view(i)));
    }
    VDB_RETURN_IF_ERROR(coll->BuildIndex());
    setups.push_back(Seconds(start, Clock::now()));
    Clock::time_point warm_end = Clock::now() + kDiskWarmUp;
    for (std::size_t i = 0; Clock::now() < warm_end; ++i) {
      (void)coll->Knn(queries.row_view(i % kPool), kK, &rows);
    }
    return Status::Ok();
  };

  Answers answers;
  if (!args.trace) {
    // kDiskSetups rounds, each on a fresh build, so that set-up and query
    // times both sample the whole run, and the queries several builds.
    const double round_s = 0.17 * args.seconds;
    Windowed lat(kDiskWindowS);
    std::size_t cpu_slot = 0;
    for (int rep = 0; rep < kDiskSetups; ++rep) {
      Status st = set_up(rep);
      if (!st.ok()) {
        r.Fail("setup: " + st.ToString());
        return r;
      }
      lat.BeginPhase(round_s);
      Clock::time_point start = Clock::now();
      Clock::time_point end =
          start +
          std::chrono::nanoseconds(static_cast<long long>(round_s * 1e9));
      std::size_t window = 0;
      PinThread(0, ++cpu_slot);
      for (std::size_t i = 0; Clock::now() < end; ++i) {
        std::size_t qi = i % kPool;
        Clock::time_point t0 = Clock::now();
        if (lat.WindowOf(Seconds(start, t0)) != window) {
          ++window;
          PinThread(0, ++cpu_slot);
        }
        st = coll->Knn(queries.row_view(qi), kK, &rows);
        Clock::time_point t1 = Clock::now();
        if (st.ok()) lat.Add(Seconds(start, t0), Micros(t0, t1) / 1000.0);
        answers.Judge(st, rows, truth[qi], live);
      }
    }
    r.Add("lat_p50_ms", FastWindow(lat.Percentiles(50), true), "ms");
    r.Add("ops_per_s", FastWindow(lat.Throughputs(), false), "1/s");
    r.Add("recall_at_10", answers.MeanRecall(), "ratio");
    r.Add("bytes_per_vector",
          static_cast<double>(coll->MemoryBytes()) /
              static_cast<double>(coll->Size()),
          "B");
    r.Add("setup_s", Median(setups), "s");
    r.Note("disk-ann: " + std::to_string(lat.count()) + " queries, lat p99 " +
           std::to_string(Median(lat.Percentiles(99))) + " ms, " +
           std::to_string(dopts.file.cache_pages) + " cached pages");
  } else {
    Status st = set_up(0);
    if (!st.ok()) {
      r.Fail("setup: " + st.ToString());
      return r;
    }
    // The benchmark's own copy of the index, built with the same options.
    std::string path = args.work_dir + "/diskann-traced";
    DiskAnnIndex index(path, dopts);
    Clock::time_point b0 = Clock::now();
    st = index.Build(data, {});
    if (!st.ok()) {
      r.Fail("traced build: " + st.ToString());
      return r;
    }
    r.Add("index.build_s", Seconds(b0, Clock::now()), "s");
    r.Add("storage.disk_bytes_per_vector",
          static_cast<double>(index.DiskBytes()) / kDiskN, "B");

    SpanLog log;
    std::vector<double> untraced, knn_self;
    SearchStats stats;
    std::uint64_t calls = 0;
    std::vector<Neighbor> mine;
    Clock::time_point end =
        Clock::now() + std::chrono::nanoseconds(
                           static_cast<long long>(0.6 * args.seconds * 1e9));
    for (std::uint32_t qi = 0; Clock::now() < end; ++qi) {
      VectorView q = queries.row_view(qi % kPool);
      auto plain = [&] {
        Clock::time_point t0 = Clock::now();
        Status s = coll->Knn(q, kK, &rows);
        untraced.push_back(Micros(t0, Clock::now()));
        answers.Judge(s, rows, truth[qi % kPool], live);
      };
      if (qi % 2 == 0) plain();
      int knn = log.Record("db.knn", -1, qi,
                           [&] { st = coll->Knn(q, kK, &rows); });
      answers.Judge(st, rows, truth[qi % kPool], live);
      SearchParams p;
      p.k = kK;
      int search = log.Record("index.search", knn, qi, [&] {
        st = index.Search(q.data(), p, &mine, &stats);
      });
      if (!st.ok()) {
        r.Fail("index search: " + st.ToString());
        return r;
      }
      ++calls;
      knn_self.push_back(log.Duration(knn) - log.Duration(search));
      if (qi % 2 == 1) plain();
    }
    double search_p50 = Median(log.Durations("index.search"));
    double l2_ns = 0.0;
    MeasureCoreKernels(data, &r, &l2_ns);
    AddIndexStats(stats, calls, search_p50, l2_ns, &r);
    r.Add("db.knn_self_us", Median(knn_self), "us");
    r.Add("quant.adc_ns", MeasureAdc(dopts), "ns");
    double pages = static_cast<double>(stats.io_reads) / calls;
    r.Add("storage.pages_per_query", pages, "count");
    auto page_us = MeasurePageReads(path, dopts.default_beam_width);
    if (!page_us.ok()) {
      r.Fail("page reads: " + page_us.status().ToString());
      return r;
    }
    r.Add("storage.page_read_us", *page_us, "us");
    r.Add("storage.io_share", pages * *page_us / search_p50, "share");
    r.Add("loadgen.lat_p99_ms", Percentile(untraced, 99) / 1000.0, "ms");
    AddTraceMetrics(log, untraced, args, &r);
  }
  answers.Finish(kDiskRecallFloor, &r);
  return r;
}

}  // namespace perfbench
