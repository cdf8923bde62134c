// Tests for the VDBMS facade: Collection lifecycle (insert/delete/upsert,
// index building, delta visibility), every query type (knn, range, (c,k),
// hybrid, batched, multi-vector), WAL recovery, the flush policy, the Database
// registry, the embedder, and distributed scatter-gather with replicas.

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rng.h"
#include "core/synthetic.h"
#include "core/telemetry.h"
#include "db/collection.h"
#include "db/database.h"
#include "db/distributed.h"
#include "db/embedder.h"
#include "index/diskann.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/spann.h"
#include "index/vamana.h"

namespace vdb {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_db_" + tag + "_" +
         std::to_string(::getpid());
}

IndexFactory HnswFactory() {
  return [] {
    HnswOptions o;
    o.m = 8;
    o.ef_construction = 64;
    return std::make_unique<HnswIndex>(o);
  };
}

CollectionOptions BaseOptions(std::size_t dim = 8) {
  CollectionOptions opts;
  opts.dim = dim;
  opts.attributes = {{"category", AttrType::kInt64},
                     {"price", AttrType::kDouble}};
  opts.index_factory = HnswFactory();
  return opts;
}

FloatMatrix TestData(std::size_t n, std::size_t dim, std::uint64_t seed = 3) {
  SyntheticOptions opts;
  opts.n = n;
  opts.dim = dim;
  opts.num_clusters = 8;
  opts.seed = seed;
  return GaussianClusters(opts);
}

// ------------------------------------------------------------- Collection

TEST(CollectionTest, ValidatesOptions) {
  CollectionOptions bad;
  EXPECT_FALSE(Collection::Create(bad).ok());  // dim 0
  CollectionOptions lsm = BaseOptions();
  lsm.lsm_memtable_limit = 64;
  lsm.index_factory = nullptr;
  EXPECT_FALSE(Collection::Create(lsm).ok());  // flush policy, no factory
  CollectionOptions emb = BaseOptions(8);
  emb.embedder = std::make_shared<HashingNgramEmbedder>(16);
  EXPECT_FALSE(Collection::Create(emb).ok());  // dim mismatch
}

TEST(CollectionTest, InsertSearchLifecycle) {
  auto collection = Collection::Create(BaseOptions());
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(500, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i),
                         {{"category", std::int64_t(i % 4)},
                          {"price", double(i) * 0.5}})
                    .ok());
  }
  EXPECT_EQ(c.Size(), 500u);
  EXPECT_EQ(c.Insert(0, data.row_view(0)).code(), StatusCode::kAlreadyExists);
  std::vector<float> wrong_dim(3, 0.0f);
  EXPECT_FALSE(c.Insert(1000, wrong_dim).ok());  // dim mismatch

  // Before BuildIndex: brute-force path still answers exactly.
  std::vector<Neighbor> out;
  ASSERT_TRUE(c.Knn(data.row_view(42), 1, &out).ok());
  EXPECT_EQ(out[0].id, 42u);

  ASSERT_TRUE(c.BuildIndex().ok());
  EXPECT_EQ(c.UnindexedRows(), 0u);
  SearchStats stats;
  ASSERT_TRUE(c.Knn(data.row_view(42), 5, &out, &stats).ok());
  EXPECT_EQ(out[0].id, 42u);
  // Indexed search touches far fewer vectors than a scan.
  EXPECT_LT(stats.distance_comps, 400u);
}

TEST(CollectionTest, DeltaRowsVisibleWithoutRebuild) {
  CollectionOptions opts = BaseOptions();
  // A non-incremental index (Vamana) forces the delta path.
  opts.index_factory = [] {
    VamanaOptions o;
    o.r = 12;
    o.l = 32;
    return std::make_unique<VamanaIndex>(o);
  };
  auto collection = Collection::Create(opts);
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(300, 8);
  for (std::size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i)).ok());
  }
  ASSERT_TRUE(c.BuildIndex().ok());
  for (std::size_t i = 200; i < 300; ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i)).ok());
  }
  EXPECT_EQ(c.UnindexedRows(), 100u);
  // A fresh (unindexed) row is still findable.
  std::vector<Neighbor> out;
  ASSERT_TRUE(c.Knn(data.row_view(250), 1, &out).ok());
  EXPECT_EQ(out[0].id, 250u);
  ASSERT_TRUE(c.BuildIndex().ok());
  EXPECT_EQ(c.UnindexedRows(), 0u);
}

TEST(CollectionTest, DeleteAndUpsert) {
  auto collection = Collection::Create(BaseOptions());
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(100, 8);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i)).ok());
  }
  ASSERT_TRUE(c.BuildIndex().ok());
  ASSERT_TRUE(c.Delete(7).ok());
  EXPECT_EQ(c.Delete(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(c.Size(), 99u);
  std::vector<Neighbor> out;
  ASSERT_TRUE(c.Knn(data.row_view(7), 3, &out).ok());
  for (const auto& nb : out) EXPECT_NE(nb.id, 7u);

  // Upsert moves id 8 to where id 7 was.
  ASSERT_TRUE(c.Upsert(8, data.row_view(7)).ok());
  ASSERT_TRUE(c.Knn(data.row_view(7), 1, &out).ok());
  EXPECT_EQ(out[0].id, 8u);
}

TEST(CollectionTest, RangeAndCkSearch) {
  auto collection = Collection::Create(BaseOptions());
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(400, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i)).ok());
  }
  ASSERT_TRUE(c.BuildIndex().ok());

  // Range: exact by construction.
  std::vector<Neighbor> range;
  ASSERT_TRUE(c.RangeSearch(data.row_view(0), 0.05f, &range).ok());
  ASSERT_FALSE(range.empty());
  EXPECT_EQ(range[0].id, 0u);
  for (const auto& nb : range) EXPECT_LE(nb.dist, 0.05f);

  // (c,k): c=1 demands exact; verification must confirm it.
  auto ck = c.CkSearch(data.row_view(5), 1.0, 10);
  ASSERT_TRUE(ck.ok());
  EXPECT_TRUE(ck->satisfied);
  EXPECT_LE(ck->achieved_ratio, 1.0 + 1e-6);
  EXPECT_EQ(ck->neighbors.size(), 10u);
  // c must be >= 1.
  EXPECT_FALSE(c.CkSearch(data.row_view(5), 0.5, 10).ok());
}

TEST(CollectionTest, HybridUsesOptimizerAndHonorsPredicate) {
  CollectionOptions opts = BaseOptions();
  opts.plan_mode = PlanMode::kCostBased;
  auto collection = Collection::Create(opts);
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(600, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i),
                         {{"category", std::int64_t(i % 4)},
                          {"price", double(i % 100)}})
                    .ok());
  }
  ASSERT_TRUE(c.BuildIndex().ok());
  auto pred = Predicate::Cmp("category", CmpOp::kEq, std::int64_t{2});
  std::vector<Neighbor> out;
  ExecStats stats;
  ASSERT_TRUE(c.Hybrid(data.row_view(10), pred, 5, &out, &stats).ok());
  for (const auto& nb : out) EXPECT_EQ(nb.id % 4, 2u);
  EXPECT_GT(stats.est_selectivity, 0.0);

  auto plan = c.ExplainHybrid(pred);
  ASSERT_TRUE(plan.ok());

  // Forced plan is honored.
  HybridPlan forced{PlanKind::kBruteForceHybrid, 3.0f};
  ExecStats forced_stats;
  ASSERT_TRUE(
      c.Hybrid(data.row_view(10), pred, 5, &out, &forced_stats, &forced).ok());
  EXPECT_EQ(forced_stats.bitmask_rows, c.attributes().NumRows());
}

TEST(CollectionTest, PredefinedPlanMode) {
  CollectionOptions opts = BaseOptions();
  opts.plan_mode = PlanMode::kPredefined;
  opts.predefined_plan = {PlanKind::kVisitFirstIndexScan, 3.0f};
  auto collection = Collection::Create(opts);
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(300, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i),
                         {{"category", std::int64_t(i % 2)}})
                    .ok());
  }
  ASSERT_TRUE(c.BuildIndex().ok());
  auto plan = c.ExplainHybrid(Predicate::True());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kVisitFirstIndexScan);
  std::vector<Neighbor> out;
  ASSERT_TRUE(c.Hybrid(data.row_view(0),
                       Predicate::Cmp("category", CmpOp::kEq, std::int64_t{0}),
                       5, &out)
                  .ok());
  for (const auto& nb : out) EXPECT_EQ(nb.id % 2, 0u);
}

// Before BuildIndex there is no sealed segment to scan: Hybrid brute
// forces, and ExplainHybrid reports that plan, not the configured one.
TEST(CollectionTest, ExplainHybridReportsThePlanHybridRuns) {
  CollectionOptions opts = BaseOptions();
  opts.plan_mode = PlanMode::kPredefined;
  opts.predefined_plan = {PlanKind::kVisitFirstIndexScan, 3.0f};
  auto collection = Collection::Create(opts);
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(50, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i),
                         {{"category", std::int64_t(i % 2)}})
                    .ok());
  }
  auto pred = Predicate::Cmp("category", CmpOp::kEq, std::int64_t{0});
  std::vector<Neighbor> out;
  ExecStats stats;
  ASSERT_TRUE(c.Hybrid(data.row_view(0), pred, 5, &out, &stats).ok());
  auto plan = c.ExplainHybrid(pred);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(stats.plan.has_value());
  EXPECT_EQ(stats.plan->kind, PlanKind::kBruteForceHybrid);
  EXPECT_EQ(plan->ToString(), stats.plan->ToString());
}

TEST(CollectionTest, BatchKnnFastPathMatchesSequential) {
  auto collection = Collection::Create(BaseOptions());
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(500, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i)).ok());
  }
  ASSERT_TRUE(c.BuildIndex().ok());
  FloatMatrix queries = PerturbedQueries(data, 16, 0.01f, 9);
  std::vector<std::vector<Neighbor>> batch;
  ASSERT_TRUE(c.BatchKnn(queries, 5, &batch).ok());
  ASSERT_EQ(batch.size(), 16u);
  for (std::size_t q = 0; q < 16; ++q) {
    std::vector<Neighbor> single;
    ASSERT_TRUE(c.Knn(queries.row_view(q), 5, &single).ok());
    ASSERT_FALSE(batch[q].empty());
    EXPECT_EQ(batch[q][0].id, single[0].id);
  }
}

TEST(CollectionTest, MultiVectorEntities) {
  auto collection = Collection::Create(BaseOptions());
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  Rng rng(17);
  // 50 entities x 3 vectors each.
  for (VectorId e = 0; e < 50; ++e) {
    FloatMatrix vecs(3, 8);
    for (std::size_t v = 0; v < 3; ++v) {
      for (std::size_t j = 0; j < 8; ++j) {
        vecs.at(v, j) = static_cast<float>(e) + 0.05f * rng.NextGaussian();
      }
    }
    ASSERT_TRUE(
        c.InsertEntity(e, vecs, {{"category", std::int64_t(e % 2)}}).ok());
  }
  EXPECT_EQ(c.Size(), 50u);

  // Plain knn maps member hits back to entities.
  std::vector<float> query(8, 20.0f);
  std::vector<Neighbor> out;
  ASSERT_TRUE(c.Knn(query, 3, &out).ok());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].id, 20u);
  // No duplicate entities in results.
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_NE(out[i].id, out[0].id);
  }

  // Multi-vector query via aggregate scores.
  FloatMatrix mv_query(2, 8);
  for (std::size_t j = 0; j < 8; ++j) {
    mv_query.at(0, j) = 30.0f;
    mv_query.at(1, j) = 30.1f;
  }
  auto agg = Aggregator::Create(AggregateKind::kMean).value();
  ASSERT_TRUE(c.MultiVectorKnn(mv_query, agg, 3, &out).ok());
  EXPECT_EQ(out[0].id, 30u);

  // Entity delete cascades.
  ASSERT_TRUE(c.Delete(30).ok());
  ASSERT_TRUE(c.MultiVectorKnn(mv_query, agg, 3, &out).ok());
  EXPECT_NE(out[0].id, 30u);
  EXPECT_EQ(c.Size(), 49u);
}

// An entity whose members crowd the top rows must not hide the others:
// Knn and CkSearch keep fetching rows until k entities come back, and
// RangeSearch names each entity once.
TEST(CollectionTest, KnnFillsKEntitiesPastCrowdingMembers) {
  auto collection = Collection::Create(BaseOptions());
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  const std::vector<float> query(8, 1.0f);
  FloatMatrix near(0, 8);
  for (int i = 0; i < 10; ++i) {
    std::vector<float> v = query;
    v[0] += 0.01f * static_cast<float>(i);
    near.AppendRow(v.data(), 8);
  }
  ASSERT_TRUE(c.InsertEntity(1, near).ok());
  FloatMatrix far(1, 8);
  for (std::size_t j = 0; j < 8; ++j) far.at(0, j) = 50.0f;
  ASSERT_TRUE(c.InsertEntity(2, far).ok());
  for (bool built : {false, true}) {
    SCOPED_TRACE(built ? "built" : "growing");
    if (built) {
      ASSERT_TRUE(c.BuildIndex().ok());
    }
    std::vector<Neighbor> out;
    ASSERT_TRUE(c.Knn(query, 2, &out).ok());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].id, 1u);
    EXPECT_EQ(out[1].id, 2u);
    auto ck = c.CkSearch(query, 1.0, 2);
    ASSERT_TRUE(ck.ok());
    EXPECT_TRUE(ck->satisfied);
    ASSERT_EQ(ck->neighbors.size(), 2u);
    EXPECT_EQ(ck->neighbors[1].id, 2u);
    // Range search too names each entity once, at its best member.
    ASSERT_TRUE(c.RangeSearch(query, 1e9f, &out).ok());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].id, 1u);
    EXPECT_EQ(out[0].dist, 0.0f);
    EXPECT_EQ(out[1].id, 2u);
  }
}

// The entity over-fetch grows from 4k; a k so large that 4k wraps must
// still end with every entity, not spin on an empty fetch.
TEST(CollectionTest, HugeKOnEntitiesReturnsEveryEntity) {
  auto collection = Collection::Create(BaseOptions());
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  for (VectorId e = 1; e <= 3; ++e) {
    FloatMatrix members(0, 8);
    for (int i = 0; i < 3; ++i) {
      std::vector<float> v(8, static_cast<float>(e));
      v[1] += 0.1f * static_cast<float>(i);
      members.AppendRow(v.data(), 8);
    }
    ASSERT_TRUE(c.InsertEntity(e, members).ok());
  }
  const std::vector<float> query(8, 0.0f);
  for (std::size_t k : {std::size_t{1} << 62, std::size_t{1} << 63,
                        std::size_t{3} << 62}) {
    SCOPED_TRACE(k);
    std::vector<Neighbor> out;
    ASSERT_TRUE(c.Knn(query, k, &out).ok());
    EXPECT_EQ(out.size(), 3u);
    auto ck = c.CkSearch(query, 1.0, k);
    ASSERT_TRUE(ck.ok());
    EXPECT_EQ(ck->neighbors.size(), 3u);
  }
}

// Range search sorts hits by distance, so one entity's member hits can
// sit on both sides of another entity's: it must still name each once.
TEST(CollectionTest, RangeSearchNamesInterleavedEntityOnce) {
  auto collection = Collection::Create(BaseOptions());
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  const std::vector<float> query(8, 0.0f);
  FloatMatrix a(2, 8), b(1, 8);
  a.at(0, 0) = 1.0f;  // distances 1 and 9 (squared L2)
  a.at(1, 0) = 3.0f;
  b.at(0, 0) = 2.0f;  // distance 4
  ASSERT_TRUE(c.InsertEntity(1, a).ok());
  ASSERT_TRUE(c.InsertEntity(2, b).ok());
  std::vector<Neighbor> out;
  ASSERT_TRUE(c.RangeSearch(query, 100.0f, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].id, 2u);
}

TEST(CollectionTest, WalRecoveryRoundTrip) {
  std::string wal = TempPath("wal");
  FloatMatrix data = TestData(50, 8);
  {
    CollectionOptions opts = BaseOptions();
    opts.wal_path = wal;
    auto collection = Collection::Open(opts);
    ASSERT_TRUE(collection.ok());
    for (std::size_t i = 0; i < 50; ++i) {
      ASSERT_TRUE((*collection)
                      ->Insert(i, data.row_view(i),
                               {{"category", std::int64_t(i % 3)}})
                      .ok());
    }
    ASSERT_TRUE((*collection)->Delete(9).ok());
  }
  // Reopen: state is rebuilt from the log.
  CollectionOptions opts = BaseOptions();
  opts.wal_path = wal;
  auto reopened = Collection::Open(opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Size(), 49u);
  std::vector<Neighbor> out;
  ASSERT_TRUE((*reopened)->Knn(data.row_view(3), 1, &out).ok());
  EXPECT_EQ(out[0].id, 3u);
  ASSERT_TRUE((*reopened)->Knn(data.row_view(9), 1, &out).ok());
  EXPECT_NE(out[0].id, 9u);
  // Attributes recovered too.
  auto v = (*reopened)->attributes().Get(4, "category");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(std::get<std::int64_t>(*v), 1);
}

TEST(CollectionTest, LsmModeAbsorbsUpdatesWithoutRebuilds) {
  CollectionOptions opts = BaseOptions();
  opts.lsm_memtable_limit = 64;
  auto collection = Collection::Create(opts);
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(400, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i),
                         {{"category", std::int64_t(i % 2)}})
                    .ok());
  }
  // Six flushes of 64 rows (compacted into one segment); 400 - 384 rows
  // are still growing.
  EXPECT_EQ(c.UnindexedRows(), 16u);
  std::vector<Neighbor> out;
  ASSERT_TRUE(c.Knn(data.row_view(123), 1, &out).ok());
  EXPECT_EQ(out[0].id, 123u);
  ASSERT_TRUE(c.Delete(123).ok());
  ASSERT_TRUE(c.Knn(data.row_view(123), 1, &out).ok());
  EXPECT_NE(out[0].id, 123u);
  // Hybrid over the segments and the growing rows.
  auto pred = Predicate::Cmp("category", CmpOp::kEq, std::int64_t{1});
  ASSERT_TRUE(c.Hybrid(data.row_view(10), pred, 5, &out).ok());
  for (const auto& nb : out) EXPECT_EQ(nb.id % 2, 1u);
}

// The flush policy holds each row once: in the growing rows until a flush
// seals it, then in the flat index of its segment. With a flat factory
// every part has a closed form: a resident row costs dim floats + one id,
// deleted rows included (they stay until compaction or a flush drops them).
TEST(CollectionTest, FlushPolicyMemoryBytesCountsEveryPart) {
  const std::size_t kDim = 8, kRow = kDim * sizeof(float) + sizeof(VectorId);
  CollectionOptions opts = BaseOptions(kDim);
  opts.lsm_memtable_limit = 16;
  opts.lsm_compact_at_segments = 3;
  opts.index_factory = [] { return std::make_unique<FlatIndex>(); };
  auto collection = Collection::Create(opts);
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(49, kDim);
  auto expected = [&](std::size_t resident) { return resident * kRow; };
  auto insert = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      ASSERT_TRUE(c.Insert(i, data.row_view(i)).ok());
    }
  };

  insert(0, 10);  // growing only
  EXPECT_EQ(c.MemoryBytes(), expected(10));
  const std::size_t before_flush = c.MemoryBytes();
  insert(10, 16);  // the 16th row seals segment 1
  EXPECT_EQ(c.MemoryBytes(), expected(16));  // growing rows moved
  EXPECT_GT(c.MemoryBytes(), before_flush);
  insert(16, 40);  // segment 2 sealed, 8 rows growing
  ASSERT_TRUE(c.Delete(0).ok());   // sealed: tombstoned in its segment
  ASSERT_TRUE(c.Delete(1).ok());
  ASSERT_TRUE(c.Delete(35).ok());  // growing row: stays resident
  EXPECT_EQ(c.MemoryBytes(), expected(40));
  EXPECT_EQ(c.SegmentCount(), 2u);
  EXPECT_EQ(c.UnindexedRows(), 7u);
  const std::size_t before_compact = c.MemoryBytes();
  // The 16th live growing row seals segment 3 (the deleted row is not
  // sealed), which triggers a compaction that drops the two removed rows.
  insert(40, 49);
  EXPECT_EQ(c.MemoryBytes(), expected(46));
  EXPECT_EQ(c.SegmentCount(), 1u);
  EXPECT_EQ(c.UnindexedRows(), 0u);
  EXPECT_GT(c.MemoryBytes(), before_compact);
}

// A partition column splits the sealed rows into one segment per key; no
// second structure holds them, so a partitioned Flat collection costs
// exactly what an unpartitioned one does.
TEST(CollectionTest, MemoryBytesCountsPartitionedIndexes) {
  const std::size_t kDim = 8;
  FloatMatrix data = TestData(64, kDim);
  auto bytes = [&](const std::string& partition_column) {
    CollectionOptions opts = BaseOptions(kDim);
    opts.index_factory = [] { return std::make_unique<FlatIndex>(); };
    opts.partition_column = partition_column;
    auto collection = Collection::Create(opts);
    EXPECT_TRUE(collection.ok());
    for (std::size_t i = 0; i < data.rows(); ++i) {
      EXPECT_TRUE((*collection)
                      ->Insert(i, data.row_view(i),
                               {{"category", std::int64_t(i % 4)}})
                      .ok());
    }
    EXPECT_TRUE((*collection)->BuildIndex().ok());
    EXPECT_EQ((*collection)->SegmentCount(),
              partition_column.empty() ? 1u : 4u);
    return (*collection)->MemoryBytes();
  };
  EXPECT_EQ(bytes("category"), bytes(""));
}

// In place, a row joins the one segment of its partition key, so inserts
// into keys that exist need neither growing rows nor a rebuild; a key no
// segment has grows until the next seal.
TEST(CollectionTest, InPlaceInsertJoinsItsPartitionSegment) {
  CollectionOptions opts = BaseOptions();
  opts.index_factory = [] { return std::make_unique<FlatIndex>(); };
  opts.partition_column = "category";
  auto c = Collection::Create(opts).value();
  FloatMatrix data = TestData(61, 8);
  auto insert = [&](VectorId id, std::int64_t key) {
    ASSERT_TRUE(c->Insert(id, data.row_view(id), {{"category", key}}).ok());
  };
  for (VectorId id = 0; id < 40; ++id) insert(id, std::int64_t(id % 4));
  ASSERT_TRUE(c->BuildIndex().ok());
  EXPECT_EQ(c->SegmentCount(), 4u);
  for (VectorId id = 40; id < 60; ++id) insert(id, std::int64_t(id % 4));
  EXPECT_EQ(c->UnindexedRows(), 0u);
  EXPECT_EQ(c->SegmentCount(), 4u);

  // The new rows are in their key's segment: pruning to the key finds
  // them, as brute force does.
  const auto pred = Predicate::Cmp("category", CmpOp::kEq, std::int64_t{2});
  const HybridPlan pruned{PlanKind::kPartitionPruned, 3.0f};
  const HybridPlan brute{PlanKind::kBruteForceHybrid, 3.0f};
  std::vector<Neighbor> got, want;
  ASSERT_TRUE(c->Hybrid(data.row_view(58), pred, 5, &got, nullptr, &pruned)
                  .ok());
  ASSERT_TRUE(
      c->Hybrid(data.row_view(58), pred, 5, &want, nullptr, &brute).ok());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().id, 58u);
  EXPECT_EQ(got, want);

  insert(60, 9);  // no segment has key 9
  EXPECT_EQ(c->UnindexedRows(), 1u);
  ASSERT_TRUE(c->BuildIndex().ok());
  EXPECT_EQ(c->SegmentCount(), 5u);
  EXPECT_EQ(c->UnindexedRows(), 0u);
}

// A flush seals one segment per partition key yet counts as one flush
// (`vdb_lsm_flushes_total`), and compaction (`vdb_lsm_compactions_total`)
// fires when one key reaches lsm_compact_at_segments segments, not when
// the collection does.
TEST(CollectionTest, PartitionedFlushAndCompactionCounters) {
  CollectionOptions opts = BaseOptions();
  opts.index_factory = [] { return std::make_unique<FlatIndex>(); };
  opts.partition_column = "category";
  opts.lsm_memtable_limit = 8;
  opts.lsm_compact_at_segments = 3;
  auto c = Collection::Create(opts).value();
  Counter& flushes = Registry::Global().GetCounter("vdb_lsm_flushes_total");
  Counter& compactions =
      Registry::Global().GetCounter("vdb_lsm_compactions_total");
  const std::uint64_t flushes0 = flushes.Value();
  const std::uint64_t compactions0 = compactions.Value();
  FloatMatrix data = TestData(32, 8);
  VectorId next = 0;
  // Eight rows (the memtable limit) of the given keys: one flush.
  auto flush_of = [&](std::vector<std::int64_t> keys) {
    for (int i = 0; i < 8; ++i, ++next) {
      ASSERT_TRUE(c->Insert(next, data.row_view(next),
                            {{"category", keys[i % keys.size()]}})
                      .ok());
    }
  };
  flush_of({0, 1});  // keys 0 and 1: one segment each
  EXPECT_EQ(flushes.Value() - flushes0, 1u);
  EXPECT_EQ(c->SegmentCount(), 2u);
  flush_of({0});  // key 0: two segments; three in all
  flush_of({1});  // key 1: two segments
  EXPECT_EQ(flushes.Value() - flushes0, 3u);
  EXPECT_EQ(compactions.Value() - compactions0, 0u);
  EXPECT_EQ(c->SegmentCount(), 4u);
  flush_of({0});  // key 0 reaches three segments: compact
  EXPECT_EQ(flushes.Value() - flushes0, 4u);
  EXPECT_EQ(compactions.Value() - compactions0, 1u);
  EXPECT_EQ(c->SegmentCount(), 2u);  // one per key
  EXPECT_EQ(c->UnindexedRows(), 0u);
  EXPECT_EQ(c->Size(), 32u);
}

// Members of multi-vector entities carry no attributes, so no predicate
// matches them: every plan, forced or chosen, returns only ids the caller
// inserted, as the index plans' per-row probe always did — with a
// partition column too, where members sit in no key's segment. CkSearch,
// like Knn, maps member hits to their entity.
TEST(CollectionTest, EntityMembersNeverLeakInternalIds) {
  for (const std::string partition_column : {"", "category"}) {
    SCOPED_TRACE("partition column '" + partition_column + "'");
    CollectionOptions opts = BaseOptions();
    opts.partition_column = partition_column;
    auto c = Collection::Create(opts).value();
    Rng rng(5);
    for (VectorId e = 0; e < 30; ++e) {
      FloatMatrix vecs(3, 8);
      for (std::size_t v = 0; v < 3; ++v) {
        for (std::size_t j = 0; j < 8; ++j) {
          vecs.at(v, j) = static_cast<float>(e) + 0.05f * rng.NextGaussian();
        }
      }
      ASSERT_TRUE(
          c->InsertEntity(e, vecs, {{"category", std::int64_t(e % 2)}}).ok());
    }
    for (VectorId id = 100; id < 140; ++id) {
      std::vector<float> vec(8);
      for (float& x : vec) x = 40.0f + rng.NextGaussian();
      ASSERT_TRUE(
          c->Insert(id, vec, {{"category", std::int64_t(id % 2)}}).ok());
    }
    ASSERT_TRUE(c->BuildIndex().ok());
    constexpr VectorId kInternal = VectorId{1} << 62;
    const std::vector<float> query(8, 10.0f);
    std::vector<PlanKind> kinds = {
        PlanKind::kBruteForceHybrid, PlanKind::kPreFilterIndexScan,
        PlanKind::kPostFilterIndexScan, PlanKind::kVisitFirstIndexScan};
    if (!partition_column.empty()) kinds.push_back(PlanKind::kPartitionPruned);
    std::vector<Neighbor> out;
    for (std::int64_t category : {0, 1}) {
      const auto pred = Predicate::Cmp("category", CmpOp::kEq, category);
      for (PlanKind kind : kinds) {
        const HybridPlan plan{kind, 3.0f};
        ASSERT_TRUE(c->Hybrid(query, pred, 10, &out, nullptr, &plan).ok());
        for (const Neighbor& nb : out) {
          EXPECT_LT(nb.id, kInternal) << plan.ToString();
        }
        if (kind == PlanKind::kBruteForceHybrid) {
          EXPECT_EQ(out.size(), 10u);
          for (const Neighbor& nb : out) {
            EXPECT_EQ(nb.id % 2, static_cast<VectorId>(category));
          }
        }
      }
      ASSERT_TRUE(c->Hybrid(query, pred, 10, &out).ok());
      for (const Neighbor& nb : out) EXPECT_LT(nb.id, kInternal) << "optimizer";
    }

    auto ck = c->CkSearch(query, 1.0, 5);
    ASSERT_TRUE(ck.ok());
    EXPECT_TRUE(ck->satisfied);
    ASSERT_EQ(ck->neighbors.size(), 5u);
    EXPECT_EQ(ck->neighbors.front().id, 10u);
    for (const Neighbor& nb : ck->neighbors) EXPECT_LT(nb.id, 30u);
  }
}

// MultiVectorKnn re-scores its candidates' members with one batched read
// per segment, so beyond its candidate searches (the Knn of each query
// vector) a SPANN collection reads at most the pages that one full
// RangeSearch reads.
TEST(CollectionTest, SpannMultiVectorReadsEachPageOnce) {
  CollectionOptions opts = BaseOptions();
  const std::string dir = TempPath("spann_mv");
  auto next = std::make_shared<int>(0);
  opts.index_factory = [dir, next] {
    SpannOptions o;
    o.nlist = 8;
    return std::make_unique<SpannIndex>(dir + "_" + std::to_string((*next)++),
                                        o);
  };
  auto c = Collection::Create(opts).value();
  FloatMatrix data = TestData(600, 8);
  for (VectorId e = 0; e < 100; ++e) {
    FloatMatrix vecs(0, 8);
    for (std::size_t v = 0; v < 3; ++v) {
      vecs.AppendRow(data.row(3 * e + v), 8);
    }
    ASSERT_TRUE(c->InsertEntity(e, vecs).ok());
  }
  for (VectorId id = 300; id < 600; ++id) {
    ASSERT_TRUE(c->Insert(id, data.row_view(id)).ok());
  }
  ASSERT_TRUE(c->BuildIndex().ok());

  FloatMatrix mv(0, 8);
  mv.AppendRow(data.row(7), 8);
  mv.AppendRow(data.row(400), 8);
  const auto agg = Aggregator::Create(AggregateKind::kMean).value();
  std::vector<Neighbor> out;
  SearchStats multi, searches, range;
  ASSERT_TRUE(c->MultiVectorKnn(mv, agg, 5, &out, &multi).ok());
  ASSERT_FALSE(out.empty());
  for (std::size_t q = 0; q < mv.rows(); ++q) {
    ASSERT_TRUE(c->Knn(mv.row_view(q), 5, &out, &searches).ok());
  }
  ASSERT_TRUE(c->RangeSearch(mv.row_view(0), 1e30f, &out, &range).ok());
  EXPECT_GT(range.io_reads, 0u);
  EXPECT_LE(multi.io_reads, searches.io_reads + range.io_reads);
}

// Every row lives once: after BuildIndex the growing rows are empty and a
// clean IVF-Flat collection costs exactly its one index, while a DiskANN
// collection keeps its full vectors only in its pages.
TEST(CollectionTest, BuildIndexLeavesEachRowOnlyInItsSegment) {
  const std::size_t kDim = 16;
  FloatMatrix data = TestData(400, kDim);
  auto build = [&](IndexFactory factory) {
    CollectionOptions opts = BaseOptions(kDim);
    opts.index_factory = std::move(factory);
    auto collection = Collection::Create(opts);
    EXPECT_TRUE(collection.ok());
    for (std::size_t i = 0; i < data.rows(); ++i) {
      EXPECT_TRUE((*collection)->Insert(i, data.row_view(i)).ok());
    }
    EXPECT_TRUE((*collection)->BuildIndex().ok());
    EXPECT_EQ((*collection)->UnindexedRows(), 0u);
    return std::move(*collection);
  };
  IvfOptions io;
  io.nlist = 8;
  auto ivf = build([io] { return std::make_unique<IvfFlatIndex>(io); });
  IvfFlatIndex alone(io);
  ASSERT_TRUE(alone.Build(data, {}).ok());
  EXPECT_EQ(ivf->MemoryBytes(), alone.MemoryBytes());

  DiskAnnOptions dopts;
  dopts.pq.m = 4;
  const std::string path = TempPath("diskann_once");
  auto disk =
      build([&] { return std::make_unique<DiskAnnIndex>(path, dopts); });
  EXPECT_LT(disk->MemoryBytes(), data.rows() * kDim * sizeof(float));
}

// Compact merges the sealed segments only; BuildIndex also seals the
// growing rows. Pins both row counts (sealed = Size - growing), and that
// BuildIndex on a clean collection builds nothing.
TEST(CollectionTest, CompactMergesSealedRowsBuildIndexSealsAll) {
  int builds = 0;
  CollectionOptions opts = BaseOptions();
  opts.lsm_memtable_limit = 16;
  opts.lsm_compact_at_segments = 10;
  opts.index_factory = [&builds] {
    ++builds;
    return std::make_unique<FlatIndex>();
  };
  auto collection = Collection::Create(opts);
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  FloatMatrix data = TestData(40, 8);
  for (std::size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(c.Insert(i, data.row_view(i)).ok());
  }
  EXPECT_EQ(c.SegmentCount(), 2u);
  EXPECT_EQ(c.UnindexedRows(), 8u);

  ASSERT_TRUE(c.Compact().ok());
  EXPECT_EQ(c.SegmentCount(), 1u);
  EXPECT_EQ(c.Size() - c.UnindexedRows(), 32u);  // sealed rows
  EXPECT_EQ(c.UnindexedRows(), 8u);              // still growing

  ASSERT_TRUE(c.BuildIndex().ok());
  EXPECT_EQ(c.SegmentCount(), 1u);
  EXPECT_EQ(c.Size() - c.UnindexedRows(), 40u);
  EXPECT_EQ(c.UnindexedRows(), 0u);

  const int built = builds;
  ASSERT_TRUE(c.BuildIndex().ok());  // clean: no-op
  EXPECT_EQ(builds, built);
  ASSERT_TRUE(c.Delete(7).ok());
  ASSERT_TRUE(c.BuildIndex().ok());  // a removal since the seal: rebuild
  EXPECT_EQ(builds, built + 1);
  EXPECT_EQ(c.Size() - c.UnindexedRows(), 39u);
}

// --------------------------------------------------------------- Embedder

TEST(EmbedderTest, DeterministicNormalizedAndSimilarityOrdering) {
  HashingNgramEmbedder embedder(64);
  auto a1 = embedder.Embed("red running shoes");
  auto a2 = embedder.Embed("red running shoes");
  EXPECT_EQ(a1, a2);
  double norm = 0;
  for (float v : a1) norm += double(v) * v;
  EXPECT_NEAR(norm, 1.0, 1e-5);
  // Overlapping text is closer than unrelated text.
  auto near = embedder.Embed("blue running shoes");
  auto far = embedder.Embed("quantum flux capacitor");
  auto scorer = Scorer::Create(MetricSpec::Cosine(), 64).value();
  EXPECT_LT(scorer.Distance(a1.data(), near.data()),
            scorer.Distance(a1.data(), far.data()));
}

TEST(CollectionTest, InsertTextViaEmbedder) {
  CollectionOptions opts;
  opts.dim = 64;
  opts.metric = MetricSpec::Cosine();
  opts.attributes = {{"category", AttrType::kInt64}};
  opts.index_factory = HnswFactory();
  opts.embedder = std::make_shared<HashingNgramEmbedder>(64);
  auto collection = Collection::Create(opts);
  ASSERT_TRUE(collection.ok());
  auto& c = **collection;
  ASSERT_TRUE(c.InsertText(0, "red running shoes").ok());
  ASSERT_TRUE(c.InsertText(1, "blue running shoes").ok());
  ASSERT_TRUE(c.InsertText(2, "cast iron skillet").ok());
  auto query = opts.embedder->Embed("crimson running shoe");
  std::vector<Neighbor> out;
  ASSERT_TRUE(c.Knn(query, 2, &out).ok());
  // Both shoe documents beat the skillet.
  EXPECT_NE(out[0].id, 2u);
  EXPECT_NE(out[1].id, 2u);
}

// --------------------------------------------------------------- Database

TEST(DatabaseTest, Registry) {
  Database db;
  auto created = db.CreateCollection("products", BaseOptions());
  ASSERT_TRUE(created.ok());
  EXPECT_FALSE(db.CreateCollection("products", BaseOptions()).ok());
  ASSERT_TRUE(db.GetCollection("products").ok());
  EXPECT_FALSE(db.GetCollection("missing").ok());
  EXPECT_EQ(db.ListCollections().size(), 1u);
  ASSERT_TRUE(db.DropCollection("products").ok());
  EXPECT_EQ(db.DropCollection("products").code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------ Distributed

TEST(ShardedTest, ScatterGatherMatchesSingleNode) {
  ShardedOptions opts;
  opts.num_shards = 4;
  opts.collection = BaseOptions();
  auto sharded = ShardedCollection::Create(opts);
  ASSERT_TRUE(sharded.ok());
  auto single = Collection::Create(BaseOptions());
  ASSERT_TRUE(single.ok());

  FloatMatrix data = TestData(800, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE((*sharded)->Insert(i, data.row_view(i)).ok());
    ASSERT_TRUE((*single)->Insert(i, data.row_view(i)).ok());
  }
  ASSERT_TRUE((*sharded)->BuildIndexes().ok());
  ASSERT_TRUE((*single)->BuildIndex().ok());
  EXPECT_EQ((*sharded)->Size(), 800u);

  FloatMatrix queries = PerturbedQueries(data, 10, 0.01f, 4);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    std::vector<Neighbor> sh, si;
    ASSERT_TRUE((*sharded)->Knn(queries.row_view(q), 5, &sh).ok());
    ASSERT_TRUE((*single)->Knn(queries.row_view(q), 5, &si).ok());
    ASSERT_FALSE(sh.empty());
    EXPECT_EQ(sh[0].id, si[0].id);
  }
  // Sequential == parallel results.
  std::vector<Neighbor> par, seq;
  ASSERT_TRUE(
      (*sharded)->Knn(queries.row_view(0), 5, &par, nullptr, true).ok());
  ASSERT_TRUE(
      (*sharded)->Knn(queries.row_view(0), 5, &seq, nullptr, false).ok());
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < par.size(); ++i) EXPECT_EQ(par[i].id, seq[i].id);
}

TEST(ShardedTest, IndexGuidedRoutingPrunesShards) {
  ShardedOptions opts;
  opts.num_shards = 4;
  opts.policy = ShardingPolicy::kIndexGuided;
  opts.collection = BaseOptions();
  auto sharded = ShardedCollection::Create(opts);
  ASSERT_TRUE(sharded.ok());
  FloatMatrix data = TestData(800, 8);
  // Router must be trained first.
  EXPECT_EQ((*sharded)->Insert(0, data.row_view(0)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*sharded)->TrainRouter(data).ok());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE((*sharded)->Insert(i, data.row_view(i)).ok());
  }
  ASSERT_TRUE((*sharded)->BuildIndexes().ok());

  FloatMatrix queries = PerturbedQueries(data, 20, 0.01f, 4);
  // Probing 1 of 4 shards still finds the true top-1 for most queries
  // (similar vectors share a shard — the point of index-guided placement).
  int hits = 0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    std::vector<Neighbor> pruned, full;
    ASSERT_TRUE((*sharded)
                    ->Knn(queries.row_view(q), 1, &pruned, nullptr, false,
                          false, /*shards_to_probe=*/1)
                    .ok());
    ASSERT_TRUE((*sharded)->Knn(queries.row_view(q), 1, &full).ok());
    hits += !pruned.empty() && pruned[0].id == full[0].id;
  }
  EXPECT_GE(hits, 18);
}

TEST(ShardedTest, ReplicaStalenessAndSync) {
  ShardedOptions opts;
  opts.num_shards = 2;
  opts.replicas = 2;  // primary + one replica
  opts.collection = BaseOptions();
  auto sharded = ShardedCollection::Create(opts);
  ASSERT_TRUE(sharded.ok());
  FloatMatrix data = TestData(100, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE((*sharded)->Insert(i, data.row_view(i)).ok());
  }
  EXPECT_EQ((*sharded)->PendingReplicaOps(), 100u);
  // Replica reads see nothing yet (stale).
  std::vector<Neighbor> out;
  ASSERT_TRUE((*sharded)
                  ->Knn(data.row_view(0), 1, &out, nullptr, false,
                        /*read_replicas=*/true)
                  .ok());
  EXPECT_TRUE(out.empty());
  // After sync, replica reads serve the data.
  ASSERT_TRUE((*sharded)->SyncReplicas().ok());
  EXPECT_EQ((*sharded)->PendingReplicaOps(), 0u);
  ASSERT_TRUE((*sharded)
                  ->Knn(data.row_view(0), 1, &out, nullptr, false, true)
                  .ok());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].id, 0u);
}

TEST(ShardedTest, DeleteRoutesAcrossShards) {
  ShardedOptions opts;
  opts.num_shards = 3;
  opts.collection = BaseOptions();
  auto sharded = ShardedCollection::Create(opts);
  ASSERT_TRUE(sharded.ok());
  FloatMatrix data = TestData(30, 8);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE((*sharded)->Insert(i, data.row_view(i)).ok());
  }
  ASSERT_TRUE((*sharded)->Delete(17).ok());
  EXPECT_EQ((*sharded)->Delete(17).code(), StatusCode::kNotFound);
  EXPECT_EQ((*sharded)->Size(), 29u);
}

}  // namespace
}  // namespace vdb
