// Tests for the storage manager: VectorStore, AttributeStore (+stats and
// their cache), WAL (round-trip, torn tail, corruption), and the LSM
// out-of-place update store (equivalence with a flat oracle under random
// interleavings).

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rng.h"
#include "core/synthetic.h"
#include "db/collection.h"
#include "exec/predicate.h"
#include "index/hnsw.h"
#include "index/flat.h"
#include "storage/attribute_store.h"
#include "storage/serializer.h"
#include "storage/vector_store.h"
#include "storage/wal.h"

namespace vdb {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_st_" + tag + "_" +
         std::to_string(::getpid());
}

// ------------------------------------------------------------ VectorStore

TEST(VectorStoreTest, PutGetDelete) {
  VectorStore store(2);
  float a[] = {1, 2}, b[] = {3, 4};
  ASSERT_TRUE(store.Put(10, a).ok());
  ASSERT_TRUE(store.Put(20, b).ok());
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(store.Get(10)[1], 2.0f);
  EXPECT_EQ(store.Put(10, b).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(store.Delete(10).ok());
  EXPECT_EQ(store.Get(10), nullptr);
  EXPECT_EQ(store.Delete(10).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.live_count(), 1u);
}

TEST(VectorStoreTest, ForEachLiveSkipsDeleted) {
  VectorStore store(1);
  for (int i = 0; i < 5; ++i) {
    float v = static_cast<float>(i);
    ASSERT_TRUE(store.Put(i, &v).ok());
  }
  ASSERT_TRUE(store.Delete(2).ok());
  std::vector<VectorId> live;
  std::vector<float> values;
  store.ForEachLive([&](VectorId id, const float* vec) {
    live.push_back(id);
    values.push_back(vec[0]);
  });
  EXPECT_EQ(live, (std::vector<VectorId>{0, 1, 3, 4}));
  EXPECT_EQ(values, (std::vector<float>{0, 1, 3, 4}));
  // Re-adding 2 appends a fresh row after 4; the old row stays a tombstone.
  float v = 7.0f;
  ASSERT_TRUE(store.Put(2, &v).ok());
  EXPECT_EQ(store.total_rows(), 6u);
  live.clear();
  store.ForEachLive([&](VectorId id, const float*) { live.push_back(id); });
  EXPECT_EQ(live, (std::vector<VectorId>{0, 1, 3, 4, 2}));
}

// --------------------------------------------------------- AttributeStore

TEST(AttributeStoreTest, ColumnsAndRows) {
  AttributeStore attrs;
  ASSERT_TRUE(attrs.AddColumn("price", AttrType::kDouble).ok());
  ASSERT_TRUE(attrs.AddColumn("brand", AttrType::kString).ok());
  ASSERT_TRUE(attrs.AddColumn("stock", AttrType::kInt64).ok());
  EXPECT_EQ(attrs.AddColumn("price", AttrType::kDouble).code(),
            StatusCode::kAlreadyExists);

  ASSERT_TRUE(attrs
                  .PutRow(0, {{"price", 9.99}, {"brand", std::string("acme")},
                              {"stock", std::int64_t{5}}})
                  .ok());
  ASSERT_TRUE(attrs.PutRow(3, {{"price", 1.5}}).ok());
  EXPECT_EQ(attrs.NumRows(), 4u);

  EXPECT_DOUBLE_EQ(std::get<double>(*attrs.Get(0, "price")), 9.99);
  EXPECT_EQ(std::get<std::string>(*attrs.Get(0, "brand")), "acme");
  EXPECT_EQ(std::get<std::string>(*attrs.Get(1, "brand")), "");  // default
  EXPECT_FALSE(attrs.Get(0, "missing").ok());
  EXPECT_FALSE(attrs.Get(99, "price").ok());
}

TEST(AttributeStoreTest, TypeMismatchRejected) {
  AttributeStore attrs;
  ASSERT_TRUE(attrs.AddColumn("price", AttrType::kDouble).ok());
  EXPECT_EQ(attrs.PutRow(0, {{"price", std::int64_t{3}}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(attrs.PutRow(0, {{"nope", 1.0}}).code(), StatusCode::kNotFound);
}

TEST(AttributeStoreTest, StatsHistogramAndDistinct) {
  AttributeStore attrs;
  ASSERT_TRUE(attrs.AddColumn("v", AttrType::kInt64).ok());
  for (int i = 0; i < 160; ++i) {
    ASSERT_TRUE(attrs.PutRow(i, {{"v", std::int64_t{i % 16}}}).ok());
  }
  auto stats = attrs.ComputeStats("v");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->min, 0.0);
  EXPECT_DOUBLE_EQ(stats->max, 15.0);
  EXPECT_EQ(stats->approx_distinct, 16u);
  ASSERT_EQ(stats->histogram.size(), 16u);
  for (std::size_t b = 0; b < 16; ++b) EXPECT_EQ(stats->histogram[b], 10u);
}

// NaN and ±inf have no position on the histogram axis; converting that
// undefined position to a bucket index was UB (float-cast-overflow).
// Every row still lands in a bucket, and estimates stay in [0, 1].
TEST(AttributeStoreTest, StatsHistogramNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> columns = {
      {1.0, 2.0, nan, 3.0, inf, -inf, nan, 4.0},  // both infinities
      {1.0, 2.0, nan, 3.0, inf},                  // infinite max only
      {-inf, 1.0, nan, 2.0},                      // infinite min only
      {nan, nan, nan},                            // no ordered value
  };
  for (const auto& values : columns) {
    AttributeStore attrs;
    ASSERT_TRUE(attrs.AddColumn("d", AttrType::kDouble).ok());
    for (std::size_t r = 0; r < values.size(); ++r) {
      ASSERT_TRUE(attrs.PutRow(r, {{"d", values[r]}}).ok());
    }
    auto stats = attrs.ComputeStats("d");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(std::accumulate(stats->histogram.begin(),
                              stats->histogram.end(), std::size_t{0}),
              values.size());
    for (double literal : {-inf, -1.0, 0.0, 2.5, 10.0, inf, nan}) {
      for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe}) {
        auto est = Predicate::Cmp("d", op, literal).EstimateSelectivity(attrs);
        ASSERT_TRUE(est.ok());
        EXPECT_GE(*est, 0.0) << literal;
        EXPECT_LE(*est, 1.0) << literal;
      }
      auto between =
          Predicate::Between("d", -1.0, literal).EstimateSelectivity(attrs);
      ASSERT_TRUE(between.ok());
      EXPECT_GE(*between, 0.0) << literal;
      EXPECT_LE(*between, 1.0) << literal;
    }
  }
}

// Finite columns keep the truncating bucket rule exactly.
TEST(AttributeStoreTest, StatsHistogramFiniteBucketsUnchanged) {
  Rng rng(7);
  for (double scale : {1e-3, 1.0, 1e6}) {
    AttributeStore attrs;
    ASSERT_TRUE(attrs.AddColumn("d", AttrType::kDouble).ok());
    std::vector<double> values;
    for (int r = 0; r < 500; ++r) {
      values.push_back(scale * (rng.NextDouble() - 0.3));
      ASSERT_TRUE(attrs.PutRow(r, {{"d", values.back()}}).ok());
    }
    auto stats = attrs.ComputeStats("d");
    ASSERT_TRUE(stats.ok());
    const double width = (stats->max - stats->min) / 16.0;
    std::vector<std::size_t> expected(16, 0);
    for (double v : values) {
      ++expected[std::min<std::size_t>(
          static_cast<std::size_t>((v - stats->min) / width), 15)];
    }
    EXPECT_EQ(stats->histogram, expected) << scale;
  }
}

// Fills an int64 / double / string store with rows [0, n) of a fixed
// pattern; `shift` moves every numeric value.
void FillStatsStore(AttributeStore* attrs, int n, int shift = 0) {
  ASSERT_TRUE(attrs->AddColumn("i", AttrType::kInt64).ok());
  ASSERT_TRUE(attrs->AddColumn("d", AttrType::kDouble).ok());
  ASSERT_TRUE(attrs->AddColumn("s", AttrType::kString).ok());
  for (int r = 0; r < n; ++r) {
    ASSERT_TRUE(attrs
                    ->PutRow(r, {{"i", std::int64_t{r % 7 + shift}},
                                 {"d", 0.25 * (r % 13) + shift},
                                 {"s", std::string(r % 4 == 0 ? "" : "x") +
                                           std::to_string(r % 5)}})
                    .ok());
  }
}

// Cached stats must equal a cold scan of the same rows, field for field.
void ExpectStatsMatchFreshScan(const AttributeStore& cached,
                               const AttributeStore& fresh) {
  for (const char* column : {"i", "d", "s"}) {
    SCOPED_TRACE(column);
    auto a = cached.ComputeStats(column);
    auto b = fresh.ComputeStats(column);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->non_default_rows, b->non_default_rows);
    EXPECT_EQ(a->min, b->min);
    EXPECT_EQ(a->max, b->max);
    EXPECT_EQ(a->approx_distinct, b->approx_distinct);
    EXPECT_EQ(a->histogram, b->histogram);
    EXPECT_TRUE(*a == *b);
  }
}

TEST(AttributeStoreTest, StatsCachedUntilNextMutation) {
  AttributeStore attrs;
  FillStatsStore(&attrs, 100);
  EXPECT_EQ(attrs.StatsScans(), 0u);
  auto first = attrs.ComputeStats("i");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(attrs.StatsScans(), 1u);
  for (int rep = 0; rep < 5; ++rep) {
    auto again = attrs.ComputeStats("i");
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(*again == *first);
  }
  EXPECT_EQ(attrs.StatsScans(), 1u);  // served from the cache
  ASSERT_TRUE(attrs.ComputeStats("d").ok());
  EXPECT_EQ(attrs.StatsScans(), 2u);  // one scan per column
  EXPECT_FALSE(attrs.ComputeStats("missing").ok());
  EXPECT_EQ(attrs.StatsScans(), 2u);

  AttributeStore fresh;
  FillStatsStore(&fresh, 100);
  ExpectStatsMatchFreshScan(attrs, fresh);
}

TEST(AttributeStoreTest, StatsReflectPutRow) {
  AttributeStore attrs;
  FillStatsStore(&attrs, 50);
  ASSERT_DOUBLE_EQ(attrs.ComputeStats("i")->max, 6.0);
  const std::size_t scans = attrs.StatsScans();
  ASSERT_TRUE(attrs.PutRow(50, {{"i", std::int64_t{1000}}}).ok());
  auto stats = attrs.ComputeStats("i");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->max, 1000.0);
  EXPECT_EQ(stats->histogram.back(), 1u);
  EXPECT_EQ(attrs.StatsScans(), scans + 1);

  // Overwriting a row in place invalidates too.
  ASSERT_TRUE(attrs.PutRow(50, {{"i", std::int64_t{-5}}}).ok());
  EXPECT_DOUBLE_EQ(attrs.ComputeStats("i")->min, -5.0);

  // A PutRow that fails on a later binding has already grown the store;
  // the stats must see the new row count.
  auto rows_in_histogram = [&] {
    ColumnStats d = attrs.ComputeStats("d").value();
    return std::accumulate(d.histogram.begin(), d.histogram.end(),
                           std::size_t{0});
  };
  const std::size_t before = rows_in_histogram();
  EXPECT_FALSE(attrs.PutRow(60, {{"d", 1.0}, {"i", 2.0}}).ok());
  EXPECT_EQ(rows_in_histogram(), before + 10);  // rows 51..60
}

TEST(AttributeStoreTest, StatsReflectAddColumnAndLoad) {
  AttributeStore attrs;
  FillStatsStore(&attrs, 40);
  auto before = attrs.ComputeStats("d");
  ASSERT_TRUE(before.ok());
  const std::size_t scans = attrs.StatsScans();
  ASSERT_TRUE(attrs.AddColumn("extra", AttrType::kInt64).ok());
  auto after = attrs.ComputeStats("d");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(attrs.StatsScans(), scans + 1);  // AddColumn invalidated
  EXPECT_TRUE(*after == *before);            // but the column is unchanged
  auto extra = attrs.ComputeStats("extra");
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(extra->approx_distinct, 1u);  // 40 default zeros

  // Load replaces every row: stats follow the loaded data, not the cache.
  AttributeStore other;
  FillStatsStore(&other, 90, /*shift=*/100);
  const std::string path = TempPath("attr_stats");
  BinaryWriter writer(0x41545452);
  other.Save(&writer);
  ASSERT_TRUE(writer.WriteTo(path).ok());
  auto reader = BinaryReader::Open(path, 0x41545452);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(attrs.Load(&*reader).ok());
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(attrs.ComputeStats("i")->min, 100.0);
  EXPECT_FALSE(attrs.ComputeStats("extra").ok());

  AttributeStore fresh;
  FillStatsStore(&fresh, 90, /*shift=*/100);
  ExpectStatsMatchFreshScan(attrs, fresh);
}

TEST(AttributeStoreTest, StatsOfEmptyStore) {
  AttributeStore attrs;
  ASSERT_TRUE(attrs.AddColumn("i", AttrType::kInt64).ok());
  auto empty = attrs.ComputeStats("i");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->histogram, std::vector<std::size_t>(16, 0));
  ASSERT_TRUE(attrs.PutRow(0, {{"i", std::int64_t{4}}}).ok());
  EXPECT_EQ(attrs.ComputeStats("i")->histogram[0], 1u);
}

// -------------------------------------------------------------------- WAL

struct CollectingVisitor : Wal::Visitor {
  struct Op {
    bool is_insert;
    VectorId id;
    std::vector<float> vec;
    std::vector<AttrBinding> attrs;
  };
  std::vector<Op> ops;
  void OnInsert(VectorId id, std::span<const float> vec,
                const std::vector<AttrBinding>& attrs) override {
    ops.push_back({true, id, {vec.begin(), vec.end()}, attrs});
  }
  void OnDelete(VectorId id) override { ops.push_back({false, id, {}, {}}); }
};

TEST(WalTest, RoundTrip) {
  std::string path = TempPath("wal_rt");
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    float v1[] = {1.5f, -2.5f};
    ASSERT_TRUE((*wal)
                    ->AppendInsert(7, {v1, 2},
                                   {{"brand", std::string("zed")},
                                    {"price", 3.25},
                                    {"stock", std::int64_t{-4}}})
                    .ok());
    ASSERT_TRUE((*wal)->AppendDelete(7).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  CollectingVisitor visitor;
  std::size_t applied = 0;
  ASSERT_TRUE(Wal::Replay(path, &visitor, &applied).ok());
  EXPECT_EQ(applied, 2u);
  ASSERT_EQ(visitor.ops.size(), 2u);
  EXPECT_TRUE(visitor.ops[0].is_insert);
  EXPECT_EQ(visitor.ops[0].id, 7u);
  EXPECT_EQ(visitor.ops[0].vec, (std::vector<float>{1.5f, -2.5f}));
  ASSERT_EQ(visitor.ops[0].attrs.size(), 3u);
  EXPECT_EQ(std::get<std::string>(visitor.ops[0].attrs[0].value), "zed");
  EXPECT_DOUBLE_EQ(std::get<double>(visitor.ops[0].attrs[1].value), 3.25);
  EXPECT_EQ(std::get<std::int64_t>(visitor.ops[0].attrs[2].value), -4);
  EXPECT_FALSE(visitor.ops[1].is_insert);
}

TEST(WalTest, ReplayOfMissingFileIsEmpty) {
  CollectingVisitor visitor;
  std::size_t applied = 99;
  ASSERT_TRUE(Wal::Replay(TempPath("wal_missing"), &visitor, &applied).ok());
  EXPECT_EQ(applied, 0u);
}

TEST(WalTest, TornTailStopsCleanly) {
  std::string path = TempPath("wal_torn");
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    float v[] = {1.0f};
    ASSERT_TRUE((*wal)->AppendInsert(1, {v, 1}, {}).ok());
    ASSERT_TRUE((*wal)->AppendInsert(2, {v, 1}, {}).ok());
  }
  // Truncate mid-way through the second record.
  struct stat unused;
  (void)unused;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  auto full = static_cast<std::size_t>(in.tellg());
  in.close();
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(full - 5)), 0);

  CollectingVisitor visitor;
  std::size_t applied = 0;
  ASSERT_TRUE(Wal::Replay(path, &visitor, &applied).ok());
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(visitor.ops[0].id, 1u);
}

TEST(WalTest, CorruptCrcStopsReplay) {
  std::string path = TempPath("wal_crc");
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    float v[] = {1.0f};
    ASSERT_TRUE((*wal)->AppendInsert(1, {v, 1}, {}).ok());
    ASSERT_TRUE((*wal)->AppendInsert(2, {v, 1}, {}).ok());
  }
  // Flip a byte in the first record's body.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(6);
  char byte = 0x5A;
  f.write(&byte, 1);
  f.close();

  CollectingVisitor visitor;
  std::size_t applied = 0;
  ASSERT_TRUE(Wal::Replay(path, &visitor, &applied).ok());
  EXPECT_EQ(applied, 0u);  // first record corrupt: stop immediately
}

// ------------------------------------------- out-of-place (flush) policy

// A collection under the flush policy: `memtable_limit` growing rows seal
// into an HNSW segment; four segments compact into one.
CollectionOptions FlushPolicyOptions(std::size_t dim,
                                     std::size_t memtable_limit = 64) {
  CollectionOptions opts;
  opts.dim = dim;
  opts.lsm_memtable_limit = memtable_limit;
  opts.lsm_compact_at_segments = 4;
  opts.index_factory = [] {
    HnswOptions o;
    o.m = 8;
    o.ef_construction = 48;
    return std::make_unique<HnswIndex>(o);
  };
  return opts;
}

TEST(FlushPolicyTest, RequiresFactory) {
  CollectionOptions opts = FlushPolicyOptions(4);
  opts.index_factory = nullptr;
  EXPECT_FALSE(Collection::Create(opts).ok());
}

TEST(FlushPolicyTest, InsertSearchFlushCompact) {
  auto store = Collection::Create(FlushPolicyOptions(4, 32));
  ASSERT_TRUE(store.ok());
  Rng rng(3);
  FloatMatrix data(200, 4);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 4; ++j) data.at(i, j) = rng.NextGaussian();
    ASSERT_TRUE((*store)->Insert(i, data.row_view(i)).ok());
  }
  EXPECT_GT((*store)->SegmentCount(), 0u);

  // Every inserted vector findable as its own nearest neighbor.
  SearchParams p;
  p.ef = 64;
  for (std::size_t i = 0; i < 200; i += 17) {
    std::vector<Neighbor> out;
    ASSERT_TRUE((*store)->Knn(data.row_view(i), 1, &out, nullptr, &p).ok());
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].id, i);
  }

  ASSERT_TRUE((*store)->Compact().ok());
  EXPECT_EQ((*store)->SegmentCount(), 1u);
  std::vector<Neighbor> out;
  ASSERT_TRUE((*store)->Knn(data.row_view(5), 1, &out, nullptr, &p).ok());
  EXPECT_EQ(out[0].id, 5u);
}

TEST(FlushPolicyTest, DeleteHonoredAcrossSegments) {
  auto store = Collection::Create(FlushPolicyOptions(2, 16));
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 64; ++i) {
    float v[] = {static_cast<float>(i), 0.0f};
    ASSERT_TRUE((*store)->Insert(i, {v, 2}).ok());
  }
  // Delete ids in sealed segments.
  ASSERT_TRUE((*store)->Delete(3).ok());
  ASSERT_TRUE((*store)->Delete(63).ok());
  EXPECT_EQ((*store)->Size(), 62u);
  EXPECT_EQ((*store)->Delete(3).code(), StatusCode::kNotFound);

  float q[] = {3.0f, 0.0f};
  SearchParams p;
  p.ef = 64;
  std::vector<Neighbor> out;
  ASSERT_TRUE((*store)->Knn({q, 2}, 5, &out, nullptr, &p).ok());
  for (const auto& nb : out) EXPECT_NE(nb.id, 3u);

  // Compaction physically drops removed rows; reinsert is allowed.
  ASSERT_TRUE((*store)->Compact().ok());
  float v3[] = {3.0f, 0.0f};
  ASSERT_TRUE((*store)->Insert(3, {v3, 2}).ok());
  ASSERT_TRUE((*store)->Knn({q, 2}, 5, &out, nullptr, &p).ok());
  EXPECT_EQ(out[0].id, 3u);
}

TEST(FlushPolicyTest, RandomInterleavingMatchesFlatOracle) {
  // Property test: after any interleaving of inserts/deletes, search
  // equals a brute-force oracle over the surviving set.
  auto store = Collection::Create(FlushPolicyOptions(8, 32));
  ASSERT_TRUE(store.ok());
  Rng rng(77);
  std::map<VectorId, std::vector<float>> oracle;
  VectorId next_id = 0;
  for (int step = 0; step < 600; ++step) {
    bool do_insert = oracle.empty() || rng.NextDouble() < 0.7;
    if (do_insert) {
      std::vector<float> v(8);
      for (auto& x : v) x = rng.NextGaussian();
      ASSERT_TRUE((*store)->Insert(next_id, v).ok());
      oracle[next_id] = v;
      ++next_id;
    } else {
      auto it = oracle.begin();
      std::advance(it, rng.Next(oracle.size()));
      ASSERT_TRUE((*store)->Delete(it->first).ok());
      oracle.erase(it);
    }
  }
  EXPECT_EQ((*store)->Size(), oracle.size());

  // Exact-oracle comparison on fresh queries (use generous ef; HNSW inside
  // segments is approximate, so compare top-1 which is near-certain).
  auto scorer = Scorer::Create(MetricSpec::L2(), 8).value();
  Rng qrng(5);
  int agree = 0;
  const int kQueries = 20;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<float> query(8);
    for (auto& x : query) x = qrng.NextGaussian();
    SearchParams p;
    p.ef = 256;
    std::vector<Neighbor> got;
    ASSERT_TRUE((*store)->Knn(query, 1, &got, nullptr, &p).ok());
    VectorId best = kInvalidVectorId;
    float best_dist = std::numeric_limits<float>::max();
    for (const auto& [id, vec] : oracle) {
      float d = scorer.Distance(query.data(), vec.data());
      if (d < best_dist) {
        best_dist = d;
        best = id;
      }
    }
    ASSERT_FALSE(got.empty());
    agree += got[0].id == best;
  }
  EXPECT_GE(agree, kQueries - 2);  // allow tiny ANN slack
}

}  // namespace
}  // namespace vdb
