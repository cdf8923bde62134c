// Tests for the second wave of extensions: spectral hashing (L2H), FANNG
// (random-trial MSN), collection checkpoint/restore, and the concurrent
// collection wrapper.

#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/synthetic.h"
#include "db/collection.h"
#include "index/fanng.h"
#include "index/hnsw.h"
#include "index/spectral_hash.h"

namespace vdb {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_ext2_" + tag + "_" +
         std::to_string(::getpid());
}

struct Ext2Fixture {
  FloatMatrix data;
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> truth;

  Ext2Fixture() {
    SyntheticOptions opts;
    opts.n = 2000;
    opts.dim = 16;
    opts.num_clusters = 16;
    opts.seed = 23;
    data = GaussianClusters(opts);
    queries = PerturbedQueries(data, 30, 0.02f, 7);
    auto scorer = Scorer::Create(MetricSpec::L2(), 16).value();
    truth = GroundTruth(data, queries, scorer, 10);
  }
};

const Ext2Fixture& Fixture() {
  static const Ext2Fixture* fx = new Ext2Fixture();
  return *fx;
}

// ---------------------------------------------------------- SpectralHash

TEST(SpectralHashTest, ValidatesOptions) {
  SpectralHashOptions bad;
  bad.bits = 0;
  EXPECT_FALSE(SpectralHashIndex(bad).Build(Fixture().data, {}).ok());
  bad.bits = 65;
  EXPECT_FALSE(SpectralHashIndex(bad).Build(Fixture().data, {}).ok());
  SpectralHashOptions cosine;
  cosine.metric = MetricSpec::Cosine();
  EXPECT_FALSE(SpectralHashIndex(cosine).Build(Fixture().data, {}).ok());
}

TEST(SpectralHashTest, RecallWithRerank) {
  const auto& fx = Fixture();
  SpectralHashOptions opts;
  opts.bits = 48;
  SpectralHashIndex index(opts);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  SearchParams p;
  p.k = 10;
  std::vector<std::vector<Neighbor>> results(fx.queries.rows());
  SearchStats stats;
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q], &stats).ok());
  }
  EXPECT_GE(MeanRecall(results, fx.truth, 10), 0.6);
  // Compressed-domain work dominates; exact work is bounded by re-rank.
  EXPECT_GT(stats.code_comps, stats.distance_comps);
}

TEST(SpectralHashTest, MoreBitsMoreRecall) {
  const auto& fx = Fixture();
  double recalls[2];
  std::size_t bits[2] = {8, 56};
  for (int t = 0; t < 2; ++t) {
    SpectralHashOptions opts;
    opts.bits = bits[t];
    opts.rerank_factor = 4;
    SpectralHashIndex index(opts);
    ASSERT_TRUE(index.Build(fx.data, {}).ok());
    SearchParams p;
    p.k = 10;
    std::vector<std::vector<Neighbor>> results(fx.queries.rows());
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q]).ok());
    }
    recalls[t] = MeanRecall(results, fx.truth, 10);
  }
  EXPECT_GT(recalls[1], recalls[0]);
}

TEST(SpectralHashTest, CodesAreLocalitySensitive) {
  const auto& fx = Fixture();
  SpectralHashOptions opts;
  opts.bits = 32;
  SpectralHashIndex index(opts);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  // A point's code is closer (Hamming) to its neighbor's than to a far
  // point's, on average.
  auto scorer = Scorer::Create(MetricSpec::L2(), 16).value();
  int wins = 0, trials = 0;
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    std::uint64_t qc = index.Encode(fx.queries.row(q));
    std::uint64_t near = index.Encode(fx.data.row(fx.truth[q][0].id));
    std::uint64_t far = index.Encode(fx.data.row((fx.truth[q][0].id + 997) %
                                                 fx.data.rows()));
    int dn = __builtin_popcountll(qc ^ near);
    int df = __builtin_popcountll(qc ^ far);
    wins += dn < df;
    trials += 1;
  }
  EXPECT_GT(wins, trials * 7 / 10);
}

TEST(SpectralHashTest, AddIsSearchable) {
  const auto& fx = Fixture();
  SpectralHashIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  std::vector<float> fresh(16, 42.0f);
  ASSERT_TRUE(index.Add(fresh.data(), 777777).ok());
  SearchParams p;
  p.k = 1;
  std::vector<Neighbor> out;
  ASSERT_TRUE(index.Search(fresh.data(), p, &out).ok());
  EXPECT_EQ(out[0].id, 777777u);
}

// ----------------------------------------------------------------- FANNG

TEST(FanngTest, RecallAndTrialDecay) {
  const auto& fx = Fixture();
  FanngOptions opts;
  opts.trials_per_point = 8;
  FanngIndex index(opts);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  // Degree bound respected.
  for (const auto& adj : index.adjacency()) {
    EXPECT_LE(adj.size(), opts.max_degree);
  }
  SearchParams p;
  p.k = 10;
  p.ef = 64;
  std::vector<std::vector<Neighbor>> results(fx.queries.rows());
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q]).ok());
  }
  EXPECT_GE(MeanRecall(results, fx.truth, 10), 0.8);
}

TEST(FanngTest, MoreTrialsFewerMissingEdges) {
  // The fraction of trials that needed a new edge decays as the graph
  // approaches monotonic reachability.
  const auto& fx = Fixture();
  double rates[2];
  std::size_t trials[2] = {2, 16};
  for (int t = 0; t < 2; ++t) {
    FanngOptions opts;
    opts.trials_per_point = trials[t];
    FanngIndex index(opts);
    ASSERT_TRUE(index.Build(fx.data, {}).ok());
    rates[t] = double(index.edges_added()) /
               double(trials[t] * fx.data.rows());
  }
  EXPECT_LT(rates[1], rates[0]);
}

// ----------------------------------------------------------- Checkpoint

TEST(CheckpointTest, RoundTripWithEntitiesAndWal) {
  std::string snapshot = TempPath("ckpt");
  std::string wal = TempPath("ckpt_wal");
  CollectionOptions opts;
  opts.dim = 8;
  opts.attributes = {{"category", AttrType::kInt64}};
  opts.index_factory = [] {
    HnswOptions o;
    o.m = 8;
    return std::make_unique<HnswIndex>(o);
  };
  opts.wal_path = wal;

  FloatMatrix data = GaussianClusters({300, 8, 3, 8, 0.15f});
  {
    auto c = Collection::Open(opts);
    ASSERT_TRUE(c.ok());
    for (std::size_t i = 0; i < 200; ++i) {
      ASSERT_TRUE((*c)->Insert(i, data.row_view(i),
                               {{"category", std::int64_t(i % 3)}})
                      .ok());
    }
    FloatMatrix entity_vecs(2, 8);
    std::copy_n(data.row(250), 8, entity_vecs.row(0));
    std::copy_n(data.row(251), 8, entity_vecs.row(1));
    ASSERT_TRUE((*c)->InsertEntity(500, entity_vecs).ok());
    ASSERT_TRUE((*c)->Checkpoint(snapshot).ok());
    // Post-checkpoint activity lands only in the WAL.
    for (std::size_t i = 200; i < 210; ++i) {
      ASSERT_TRUE((*c)->Insert(i, data.row_view(i)).ok());
    }
    ASSERT_TRUE((*c)->Delete(5).ok());
  }

  auto restored = Collection::Restore(opts, snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto& c = **restored;
  // 200 base - 1 deleted + 10 post-checkpoint + 1 entity = 210.
  EXPECT_EQ(c.Size(), 210u);
  ASSERT_TRUE(c.BuildIndex().ok());
  std::vector<Neighbor> out;
  ASSERT_TRUE(c.Knn(data.row_view(205), 1, &out).ok());  // WAL-only row
  EXPECT_EQ(out[0].id, 205u);
  ASSERT_TRUE(c.Knn(data.row_view(5), 1, &out).ok());    // deleted via WAL
  EXPECT_NE(out[0].id, 5u);
  ASSERT_TRUE(c.Knn(data.row_view(250), 1, &out).ok());  // entity mapping
  EXPECT_EQ(out[0].id, 500u);
  auto attr = c.attributes().Get(10, "category");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(std::get<std::int64_t>(*attr), 1);
  // The restored collection keeps logging to the WAL.
  ASSERT_TRUE(c.Insert(900, data.row_view(299)).ok());
}

TEST(CheckpointTest, RejectsDimMismatchAndCorruption) {
  std::string snapshot = TempPath("ckpt_bad");
  CollectionOptions opts;
  opts.dim = 4;
  auto c = Collection::Create(opts);
  ASSERT_TRUE(c.ok());
  std::vector<float> v(4, 1.0f);
  ASSERT_TRUE((*c)->Insert(1, v).ok());
  ASSERT_TRUE((*c)->Checkpoint(snapshot).ok());
  CollectionOptions other = opts;
  other.dim = 8;
  EXPECT_FALSE(Collection::Restore(other, snapshot).ok());
  EXPECT_FALSE(Collection::Restore(opts, TempPath("missing")).ok());
}

// ------------------------------------------------------------ Concurrent

// The server-worker pattern: readers share one unlocked collection
// (`const` queries only) while inserts and deletes run alone between
// rounds; every concurrent answer must equal the sequential one.
TEST(ConcurrentCollectionTest, ParallelReadersWithWriter) {
  CollectionOptions opts;
  opts.dim = 8;
  opts.index_factory = [] {
    HnswOptions o;
    o.m = 8;
    return std::make_unique<HnswIndex>(o);
  };
  auto cc = Collection::Create(opts);
  ASSERT_TRUE(cc.ok());
  const Collection& shared = **cc;
  FloatMatrix data = GaussianClusters({2000, 8, 11, 16, 0.15f});
  for (std::size_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*cc)->Insert(i, data.row_view(i)).ok());
  }
  ASSERT_TRUE((*cc)->BuildIndex().ok());

  const int kReaders = 3, kQueries = 100;
  auto read = [&](int t, std::vector<std::vector<Neighbor>>* answers) {
    answers->assign(kQueries, {});
    for (int iter = 0; iter < kQueries; ++iter) {
      std::size_t q = 100 * (t + 1) + iter;
      if (!shared.Knn(data.row_view(q % 1000), 5, &(*answers)[iter]).ok()) {
        (*answers)[iter].clear();
      }
    }
  };
  for (std::size_t round = 0; round < 4; ++round) {
    std::vector<std::vector<std::vector<Neighbor>>> want(kReaders),
        got(kReaders);
    for (int t = 0; t < kReaders; ++t) read(t, &want[t]);
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back(read, t, &got[t]);
    }
    for (auto& r : readers) r.join();
    for (int t = 0; t < kReaders; ++t) {
      for (int iter = 0; iter < kQueries; ++iter) {
        EXPECT_FALSE(want[t][iter].empty());
        EXPECT_EQ(got[t][iter], want[t][iter])
            << "round " << round << " reader " << t << " query " << iter;
      }
    }
    // Writer phase: interleave inserts and deletes with no reader running.
    for (std::size_t i = 1000 + round * 100; i < 1100 + round * 100; ++i) {
      ASSERT_TRUE((*cc)->Insert(i, data.row_view(i)).ok());
      if (i % 7 == 0) {
        ASSERT_TRUE((*cc)->Delete(i - 1000).ok());
      }
    }
  }
  // 1400 inserted minus the multiples of 7 in [1000, 1399] deleted (57).
  EXPECT_EQ((*cc)->Size(), 1400u - 57u);
}

}  // namespace
}  // namespace vdb
