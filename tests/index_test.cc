// Tests for every index family: build/search correctness, parameterized
// recall floors, filter-mode semantics (block-first / visit-first /
// post-filter), deletions, incremental adds, and per-index invariants.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rng.h"
#include "core/synthetic.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/ivf_pq.h"
#include "index/ivf_sq.h"
#include "index/kd_tree.h"
#include "index/knn_graph.h"
#include "index/lsh.h"
#include "index/nsw.h"
#include "index/pca_tree.h"
#include "index/rp_forest.h"
#include "index/fanng.h"
#include "index/spectral_hash.h"
#include "index/vamana.h"

namespace vdb {
namespace {

struct Fixture {
  FloatMatrix data;
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> truth;
  Scorer scorer;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    SyntheticOptions opts;
    opts.n = 2000;
    opts.dim = 16;
    opts.num_clusters = 16;
    opts.seed = 7;
    f->data = GaussianClusters(opts);
    f->queries = PerturbedQueries(f->data, 40, 0.02f, 99);
    f->scorer = Scorer::Create(MetricSpec::L2(), opts.dim).value();
    f->truth = GroundTruth(f->data, f->queries, f->scorer, 10);
    return f;
  }();
  return *fixture;
}

using IndexFactory = std::function<std::unique_ptr<VectorIndex>()>;

struct IndexCase {
  std::string label;
  IndexFactory make;
  SearchParams params;   ///< generous knobs for the recall floor
  double recall_floor;
  bool supports_add;
};

IndexCase Case(std::string label, IndexFactory make, SearchParams params,
               double floor, bool supports_add) {
  return {std::move(label), std::move(make), params, floor, supports_add};
}

std::vector<IndexCase> AllCases() {
  std::vector<IndexCase> cases;
  SearchParams p;
  p.k = 10;

  cases.push_back(Case(
      "flat", [] { return std::make_unique<FlatIndex>(); }, p, 1.0, true));

  {
    LshOptions o;
    o.num_tables = 12;
    o.hashes_per_table = 8;
    o.bucket_width = 3.0f;
    SearchParams lp = p;
    lp.lsh_probes = 8;
    cases.push_back(Case(
        "lsh-e2", [o] { return std::make_unique<LshIndex>(o); }, lp, 0.5,
        true));
  }
  {
    LshOptions o;
    o.family = LshFamily::kSignRandomHyperplane;
    o.num_tables = 12;
    o.hashes_per_table = 10;
    SearchParams lp = p;
    lp.lsh_probes = 10;
    cases.push_back(Case(
        "lsh-sign", [o] { return std::make_unique<LshIndex>(o); }, lp, 0.3,
        true));
  }
  {
    IvfOptions o;
    o.nlist = 32;
    SearchParams ip = p;
    ip.nprobe = 8;
    cases.push_back(Case(
        "ivf-flat", [o] { return std::make_unique<IvfFlatIndex>(o); }, ip,
        0.85, true));
    cases.push_back(Case(
        "ivf-sq8", [o] { return std::make_unique<IvfSqIndex>(o); }, ip, 0.8,
        true));
  }
  {
    IvfPqOptions o;
    o.ivf.nlist = 32;
    o.pq.m = 4;
    SearchParams ip = p;
    ip.nprobe = 8;
    cases.push_back(Case(
        "ivf-pq", [o] { return std::make_unique<IvfPqIndex>(o); }, ip, 0.7,
        true));
    IvfPqOptions oo = o;
    oo.use_opq = true;
    oo.opq_iters = 3;
    cases.push_back(Case(
        "ivf-opq", [oo] { return std::make_unique<IvfPqIndex>(oo); }, ip, 0.7,
        true));
  }
  {
    KdTreeOptions o;
    SearchParams tp = p;
    tp.max_leaf_visits = 48;
    cases.push_back(Case(
        "kd-tree", [o] { return std::make_unique<KdTreeIndex>(o); }, tp, 0.8,
        false));
    KdTreeOptions of = o;
    of.num_trees = 4;
    cases.push_back(Case(
        "kd-forest", [of] { return std::make_unique<KdTreeIndex>(of); }, tp,
        0.8, false));
  }
  {
    RpForestOptions o;
    o.num_trees = 8;
    SearchParams tp = p;
    tp.max_leaf_visits = 64;
    cases.push_back(Case(
        "rp-forest", [o] { return std::make_unique<RpForestIndex>(o); }, tp,
        0.8, false));
  }
  {
    PcaTreeOptions o;
    SearchParams tp = p;
    tp.max_leaf_visits = 48;
    cases.push_back(Case(
        "pca-tree", [o] { return std::make_unique<PcaTreeIndex>(o); }, tp,
        0.75, false));
  }
  {
    KnnGraphOptions o;
    o.graph_degree = 16;
    SearchParams gp = p;
    gp.ef = 64;
    cases.push_back(Case(
        "kgraph", [o] { return std::make_unique<KnnGraphIndex>(o); }, gp,
        0.8, false));
    KnnGraphOptions eo = o;
    eo.init = KnnGraphInit::kKdForest;
    cases.push_back(Case(
        "efanna", [eo] { return std::make_unique<KnnGraphIndex>(eo); }, gp,
        0.8, false));
  }
  {
    NswOptions o;
    SearchParams gp = p;
    gp.ef = 64;
    cases.push_back(Case(
        "nsw", [o] { return std::make_unique<NswIndex>(o); }, gp, 0.85,
        true));
  }
  {
    HnswOptions o;
    SearchParams gp = p;
    gp.ef = 64;
    cases.push_back(Case(
        "hnsw", [o] { return std::make_unique<HnswIndex>(o); }, gp, 0.9,
        true));
  }
  {
    VamanaOptions o;
    SearchParams gp = p;
    gp.ef = 64;
    cases.push_back(Case(
        "vamana", [o] { return std::make_unique<VamanaIndex>(o); }, gp, 0.85,
        false));
  }
  {
    FanngOptions o;
    SearchParams gp = p;
    gp.ef = 64;
    cases.push_back(Case(
        "fanng", [o] { return std::make_unique<FanngIndex>(o); }, gp, 0.8,
        false));
  }
  {
    SpectralHashOptions o;
    o.bits = 48;
    cases.push_back(Case(
        "spectral-hash", [o] { return std::make_unique<SpectralHashIndex>(o); },
        p, 0.5, true));
  }
  return cases;
}

class IndexFamilyTest : public ::testing::TestWithParam<IndexCase> {};

TEST_P(IndexFamilyTest, RecallFloorAtGenerousKnobs) {
  const auto& fx = SharedFixture();
  const auto& c = GetParam();
  auto index = c.make();
  ASSERT_TRUE(index->Build(fx.data, {}).ok());
  EXPECT_EQ(index->Size(), fx.data.rows());

  std::vector<std::vector<Neighbor>> results(fx.queries.rows());
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    ASSERT_TRUE(index->Search(fx.queries.row(q), c.params, &results[q]).ok());
    EXPECT_LE(results[q].size(), c.params.k);
    // Distances ascending.
    for (std::size_t i = 1; i < results[q].size(); ++i) {
      EXPECT_LE(results[q][i - 1].dist, results[q][i].dist);
    }
  }
  double recall = MeanRecall(results, fx.truth, 10);
  EXPECT_GE(recall, c.recall_floor) << c.label;
}

TEST_P(IndexFamilyTest, ReportedDistancesAreTrueDistances) {
  const auto& fx = SharedFixture();
  const auto& c = GetParam();
  auto index = c.make();
  ASSERT_TRUE(index->Build(fx.data, {}).ok());
  std::vector<Neighbor> results;
  ASSERT_TRUE(index->Search(fx.queries.row(0), c.params, &results).ok());
  ASSERT_FALSE(results.empty());
  for (const auto& nb : results) {
    float expected =
        fx.scorer.Distance(fx.queries.row(0), fx.data.row(nb.id));
    EXPECT_NEAR(nb.dist, expected, 1e-3f * (1.0f + expected)) << c.label;
  }
}

TEST_P(IndexFamilyTest, FilterModesReturnOnlyMatchingIds) {
  const auto& fx = SharedFixture();
  const auto& c = GetParam();
  auto index = c.make();
  ASSERT_TRUE(index->Build(fx.data, {}).ok());

  Bitset allowed(fx.data.rows());
  Rng rng(5);
  for (std::size_t i = 0; i < fx.data.rows(); ++i) {
    if (rng.NextDouble() < 0.5) allowed.Set(i);
  }
  BitsetIdFilter filter(&allowed);

  for (FilterMode mode : {FilterMode::kBlockFirst, FilterMode::kVisitFirst,
                          FilterMode::kPostFilter}) {
    SearchParams fp = c.params;
    fp.filter = &filter;
    fp.filter_mode = mode;
    for (std::size_t q = 0; q < 5; ++q) {
      std::vector<Neighbor> results;
      ASSERT_TRUE(index->Search(fx.queries.row(q), fp, &results).ok());
      EXPECT_LE(results.size(), fp.k);
      for (const auto& nb : results) {
        EXPECT_TRUE(allowed.Test(nb.id))
            << c.label << " mode " << static_cast<int>(mode);
      }
    }
  }
}

TEST_P(IndexFamilyTest, DeletedIdsNeverReturned) {
  const auto& fx = SharedFixture();
  const auto& c = GetParam();
  auto index = c.make();
  ASSERT_TRUE(index->Build(fx.data, {}).ok());

  // Delete the true top-3 of query 0, then search: none may appear.
  std::vector<VectorId> removed;
  for (int i = 0; i < 3; ++i) {
    removed.push_back(fx.truth[0][i].id);
    ASSERT_TRUE(index->Remove(fx.truth[0][i].id).ok());
  }
  EXPECT_EQ(index->Size(), fx.data.rows() - 3);
  std::vector<Neighbor> results;
  ASSERT_TRUE(index->Search(fx.queries.row(0), c.params, &results).ok());
  for (const auto& nb : results) {
    for (VectorId r : removed) EXPECT_NE(nb.id, r) << c.label;
  }
  // Double delete reports NotFound.
  EXPECT_EQ(index->Remove(removed[0]).code(), StatusCode::kNotFound);
}

TEST_P(IndexFamilyTest, IncrementalAddIsSearchable) {
  const auto& fx = SharedFixture();
  const auto& c = GetParam();
  if (!c.supports_add) GTEST_SKIP();

  // Build on the first half, add the second half incrementally.
  const std::size_t half = fx.data.rows() / 2;
  FloatMatrix first(half, fx.data.cols());
  for (std::size_t i = 0; i < half; ++i)
    std::copy_n(fx.data.row(i), fx.data.cols(), first.row(i));
  auto index = c.make();
  ASSERT_TRUE(index->Build(first, {}).ok());
  ASSERT_TRUE(index->SupportsAdd());
  for (std::size_t i = half; i < fx.data.rows(); ++i) {
    ASSERT_TRUE(index->Add(fx.data.row(i), static_cast<VectorId>(i)).ok());
  }
  EXPECT_EQ(index->Size(), fx.data.rows());

  std::vector<std::vector<Neighbor>> results(fx.queries.rows());
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    ASSERT_TRUE(index->Search(fx.queries.row(q), c.params, &results[q]).ok());
  }
  // Incremental builds may lose some quality but must stay in family range.
  double recall = MeanRecall(results, fx.truth, 10);
  EXPECT_GE(recall, c.recall_floor * 0.8) << c.label;

  // Duplicate id rejected.
  EXPECT_EQ(index->Add(fx.data.row(0), 0).code(), StatusCode::kAlreadyExists);

  // A removed id may be added again, here with row 1's vector: it is
  // found at row 1's distance, once.
  ASSERT_TRUE(index->Remove(0).ok());
  ASSERT_TRUE(index->Add(fx.data.row(1), 0).ok());
  EXPECT_EQ(index->Size(), fx.data.rows());
  std::vector<Neighbor> out;
  ASSERT_TRUE(index->Search(fx.data.row(1), c.params, &out).ok());
  std::map<VectorId, std::vector<float>> dists;
  for (const auto& nb : out) dists[nb.id].push_back(nb.dist);
  ASSERT_EQ(dists[0].size(), 1u) << c.label;
  ASSERT_EQ(dists[1].size(), 1u) << c.label;
  EXPECT_EQ(dists[0][0], dists[1][0]) << c.label;
}

TEST_P(IndexFamilyTest, KZeroAndEmptyOutValidation) {
  const auto& fx = SharedFixture();
  const auto& c = GetParam();
  auto index = c.make();
  ASSERT_TRUE(index->Build(fx.data, {}).ok());
  SearchParams zero = c.params;
  zero.k = 0;
  std::vector<Neighbor> results{{1, 1.0f}};
  ASSERT_TRUE(index->Search(fx.queries.row(0), zero, &results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_FALSE(index->Search(fx.queries.row(0), c.params, nullptr).ok());
}

TEST_P(IndexFamilyTest, CustomLabelsFlowThrough) {
  const auto& fx = SharedFixture();
  const auto& c = GetParam();
  auto index = c.make();
  std::vector<VectorId> ids(fx.data.rows());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 1000 + i;
  ASSERT_TRUE(index->Build(fx.data, ids).ok());
  std::vector<Neighbor> results;
  ASSERT_TRUE(index->Search(fx.queries.row(0), c.params, &results).ok());
  for (const auto& nb : results) {
    EXPECT_GE(nb.id, 1000u) << c.label;
    EXPECT_LT(nb.id, 1000u + fx.data.rows()) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexFamilyTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<IndexCase>& info) {
      std::string name = info.param.label;
      for (auto& ch : name) {
        if (ch == '-' || ch == ' ') ch = '_';
      }
      return name;
    });

// ------------------------------------------------------ index-specific

TEST(FlatIndexTest, ExactlyMatchesGroundTruth) {
  const auto& fx = SharedFixture();
  FlatIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  SearchParams p;
  p.k = 10;
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    std::vector<Neighbor> results;
    ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results).ok());
    ASSERT_EQ(results.size(), fx.truth[q].size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].id, fx.truth[q][i].id);
    }
  }
}

TEST(FlatIndexTest, RangeSearchMatchesBruteForce) {
  const auto& fx = SharedFixture();
  FlatIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  float radius = fx.truth[0][5].dist;  // radius capturing ~6 points
  std::vector<Neighbor> results;
  ASSERT_TRUE(index.RangeSearch(fx.queries.row(0), radius, &results).ok());
  std::size_t expected = 0;
  for (std::size_t i = 0; i < fx.data.rows(); ++i) {
    if (fx.scorer.Distance(fx.queries.row(0), fx.data.row(i)) <= radius) {
      ++expected;
    }
  }
  EXPECT_EQ(results.size(), expected);
  for (const auto& nb : results) EXPECT_LE(nb.dist, radius);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].dist, results[i].dist);
  }
}

TEST(FlatIndexTest, SearchStatsCountDistances) {
  const auto& fx = SharedFixture();
  FlatIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  SearchParams p;
  p.k = 10;
  SearchStats stats;
  std::vector<Neighbor> results;
  ASSERT_TRUE(index.Search(fx.queries.row(0), p, &results, &stats).ok());
  EXPECT_EQ(stats.distance_comps, fx.data.rows());
}

TEST(FlatIndexTest, BlockFirstSkipsDistanceComputations) {
  const auto& fx = SharedFixture();
  FlatIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  Bitset allowed(fx.data.rows());
  for (std::size_t i = 0; i < fx.data.rows(); i += 10) allowed.Set(i);
  BitsetIdFilter filter(&allowed);
  SearchParams p;
  p.k = 10;
  p.filter = &filter;
  p.filter_mode = FilterMode::kBlockFirst;
  SearchStats stats;
  std::vector<Neighbor> results;
  ASSERT_TRUE(index.Search(fx.queries.row(0), p, &results, &stats).ok());
  EXPECT_EQ(stats.distance_comps, allowed.Count());
}

TEST(HnswTest, RangeSearchApproximatesBruteForce) {
  const auto& fx = SharedFixture();
  HnswIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  FlatIndex flat;
  ASSERT_TRUE(flat.Build(fx.data, {}).ok());
  for (std::size_t q = 0; q < 10; ++q) {
    float radius = fx.truth[q][7].dist;  // ~8 true results
    std::vector<Neighbor> exact, approx;
    ASSERT_TRUE(flat.RangeSearch(fx.queries.row(q), radius, &exact).ok());
    ASSERT_TRUE(index.RangeSearch(fx.queries.row(q), radius, &approx).ok());
    // Every reported result is genuinely within the radius...
    for (const auto& nb : approx) EXPECT_LE(nb.dist, radius);
    // ...and covers nearly all of the exact ball.
    EXPECT_GE(approx.size() + 1, exact.size());
  }
  // Radius smaller than the nearest point: empty, not an error.
  std::vector<Neighbor> out;
  ASSERT_TRUE(
      index.RangeSearch(fx.queries.row(0), fx.truth[0][0].dist * 0.5f, &out)
          .ok());
  EXPECT_TRUE(out.empty());
}

TEST(KdTreeTest, FullLeafBudgetIsExact) {
  const auto& fx = SharedFixture();
  KdTreeOptions o;
  KdTreeIndex index(o);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  SearchParams p;
  p.k = 10;
  p.max_leaf_visits = static_cast<int>(index.TotalLeaves());
  std::vector<std::vector<Neighbor>> results(fx.queries.rows());
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q]).ok());
  }
  EXPECT_DOUBLE_EQ(MeanRecall(results, fx.truth, 10), 1.0);
}

TEST(KdTreeTest, MoreLeafVisitsMoreRecall) {
  const auto& fx = SharedFixture();
  KdTreeIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  double recalls[2];
  int budgets[2] = {2, 64};
  for (int t = 0; t < 2; ++t) {
    SearchParams p;
    p.k = 10;
    p.max_leaf_visits = budgets[t];
    std::vector<std::vector<Neighbor>> results(fx.queries.rows());
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q]).ok());
    }
    recalls[t] = MeanRecall(results, fx.truth, 10);
  }
  EXPECT_GT(recalls[1], recalls[0]);
}

TEST(LshTest, MoreTablesMoreRecall) {
  const auto& fx = SharedFixture();
  double recalls[2];
  std::size_t tables[2] = {2, 16};
  for (int t = 0; t < 2; ++t) {
    LshOptions o;
    o.num_tables = tables[t];
    o.hashes_per_table = 10;
    o.bucket_width = 0.5f;
    LshIndex index(o);
    ASSERT_TRUE(index.Build(fx.data, {}).ok());
    SearchParams p;
    p.k = 10;
    std::vector<std::vector<Neighbor>> results(fx.queries.rows());
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q]).ok());
    }
    recalls[t] = MeanRecall(results, fx.truth, 10);
  }
  EXPECT_GT(recalls[1], recalls[0] + 0.05);
}

TEST(LshTest, RejectsBadOptions) {
  LshOptions o;
  o.num_tables = 0;
  EXPECT_FALSE(LshIndex(o).Build(SharedFixture().data, {}).ok());
  LshOptions o2;
  o2.hashes_per_table = 64;
  EXPECT_FALSE(LshIndex(o2).Build(SharedFixture().data, {}).ok());
  LshOptions o3;
  o3.bucket_width = 0.0f;
  EXPECT_FALSE(LshIndex(o3).Build(SharedFixture().data, {}).ok());
}

TEST(IvfTest, MoreProbesMoreRecall) {
  const auto& fx = SharedFixture();
  IvfOptions o;
  o.nlist = 32;
  IvfFlatIndex index(o);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  double recalls[2];
  int probes[2] = {1, 16};
  for (int t = 0; t < 2; ++t) {
    SearchParams p;
    p.k = 10;
    p.nprobe = probes[t];
    std::vector<std::vector<Neighbor>> results(fx.queries.rows());
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q]).ok());
    }
    recalls[t] = MeanRecall(results, fx.truth, 10);
  }
  EXPECT_GT(recalls[1], recalls[0]);
  // Probing every list is exact.
  SearchParams full;
  full.k = 10;
  full.nprobe = 32;
  std::vector<std::vector<Neighbor>> results(fx.queries.rows());
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    ASSERT_TRUE(index.Search(fx.queries.row(q), full, &results[q]).ok());
  }
  EXPECT_DOUBLE_EQ(MeanRecall(results, fx.truth, 10), 1.0);
}

TEST(IvfPqTest, RerankImprovesRecall) {
  const auto& fx = SharedFixture();
  IvfPqOptions o;
  o.ivf.nlist = 16;
  o.pq.m = 2;  // aggressive compression so re-ranking matters
  IvfPqIndex index(o);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  double recalls[2];
  bool rerank[2] = {false, true};
  for (int t = 0; t < 2; ++t) {
    SearchParams p;
    p.k = 10;
    p.nprobe = 8;
    p.rerank = rerank[t];
    std::vector<std::vector<Neighbor>> results(fx.queries.rows());
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q]).ok());
    }
    recalls[t] = MeanRecall(results, fx.truth, 10);
  }
  EXPECT_GE(recalls[1], recalls[0]);
}

TEST(IvfPqTest, RejectsNonL2Metric) {
  IvfPqOptions o;
  o.ivf.metric = MetricSpec::Cosine();
  IvfPqIndex index(o);
  EXPECT_FALSE(index.Build(SharedFixture().data, {}).ok());
  IvfOptions so;
  so.metric = MetricSpec::Cosine();
  IvfSqIndex sq(so);
  EXPECT_FALSE(sq.Build(SharedFixture().data, {}).ok());
}

TEST(KnnGraphTest, NnDescentConvergesToExactGraph) {
  SyntheticOptions opts;
  opts.n = 500;
  opts.dim = 8;
  opts.seed = 3;
  FloatMatrix data = GaussianClusters(opts);
  KnnGraphOptions o;
  o.graph_degree = 10;
  o.nn_descent_iters = 10;
  KnnGraphIndex index(o);
  ASSERT_TRUE(index.Build(data, {}).ok());
  EXPECT_GE(index.GraphRecallVsExact(), 0.90);
}

TEST(KnnGraphTest, EfannaInitConvergesFasterThanRandom) {
  SyntheticOptions opts;
  opts.n = 800;
  opts.dim = 8;
  opts.seed = 3;
  FloatMatrix data = GaussianClusters(opts);
  double recalls[2];
  KnnGraphInit inits[2] = {KnnGraphInit::kRandom, KnnGraphInit::kKdForest};
  for (int t = 0; t < 2; ++t) {
    KnnGraphOptions o;
    o.graph_degree = 10;
    o.nn_descent_iters = 1;  // single iteration: initialization dominates
    o.init = inits[t];
    KnnGraphIndex index(o);
    ASSERT_TRUE(index.Build(data, {}).ok());
    recalls[t] = index.GraphRecallVsExact();
  }
  EXPECT_GT(recalls[1], recalls[0]);
}

TEST(HnswTest, DegreeBoundsHold) {
  const auto& fx = SharedFixture();
  HnswOptions o;
  o.m = 8;
  HnswIndex index(o);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  for (std::uint32_t i = 0; i < fx.data.rows(); ++i) {
    EXPECT_LE(index.DegreeAt(i, 0), 2 * o.m);
  }
  EXPECT_GE(index.max_level(), 1);  // 2000 points: hierarchy exists
}

TEST(HnswTest, HigherEfHigherRecall) {
  const auto& fx = SharedFixture();
  HnswIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  double recalls[2];
  int efs[2] = {10, 128};
  for (int t = 0; t < 2; ++t) {
    SearchParams p;
    p.k = 10;
    p.ef = efs[t];
    std::vector<std::vector<Neighbor>> results(fx.queries.rows());
    for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
      ASSERT_TRUE(index.Search(fx.queries.row(q), p, &results[q]).ok());
    }
    recalls[t] = MeanRecall(results, fx.truth, 10);
  }
  EXPECT_GE(recalls[1], recalls[0]);
  EXPECT_GE(recalls[1], 0.95);
}

TEST(NswTest, DegreeGrowsBeyondM) {
  // The flat-NSW degree explosion HNSW was designed to fix: bidirectional
  // links without pruning push mean degree above 2m is not guaranteed, but
  // mean degree must be at least ~2m for the bulk of insertions.
  const auto& fx = SharedFixture();
  NswOptions o;
  o.m = 8;
  NswIndex index(o);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  EXPECT_GE(index.MeanDegree(), o.m * 1.5);
}

TEST(VamanaTest, DegreeBoundAndMedoidEntry) {
  const auto& fx = SharedFixture();
  VamanaOptions o;
  o.r = 16;
  VamanaIndex index(o);
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  for (const auto& adj : index.adjacency()) {
    EXPECT_LE(adj.size(), o.r);
  }
  EXPECT_LT(index.medoid(), fx.data.rows());
}

TEST(VamanaTest, AlphaOneGivesSparserGraphThanAlphaLarge) {
  const auto& fx = SharedFixture();
  double degrees[2];
  float alphas[2] = {1.0f, 2.0f};
  for (int t = 0; t < 2; ++t) {
    VamanaOptions o;
    o.r = 32;
    o.alpha = alphas[t];
    VamanaIndex index(o);
    ASSERT_TRUE(index.Build(fx.data, {}).ok());
    std::size_t edges = 0;
    for (const auto& adj : index.adjacency()) edges += adj.size();
    degrees[t] = static_cast<double>(edges) / fx.data.rows();
  }
  EXPECT_LT(degrees[0], degrees[1]);
}

TEST(PostFilterTest, DeficitWhenPredicateSelective) {
  // With a highly selective filter, post-filtering with small
  // amplification returns fewer than k — the §2.6(3) phenomenon.
  const auto& fx = SharedFixture();
  HnswIndex index;
  ASSERT_TRUE(index.Build(fx.data, {}).ok());
  Bitset allowed(fx.data.rows());
  for (std::size_t i = 0; i < fx.data.rows(); i += 100) allowed.Set(i);  // 1%
  BitsetIdFilter filter(&allowed);
  SearchParams p;
  p.k = 10;
  p.ef = 64;
  p.filter = &filter;
  p.filter_mode = FilterMode::kPostFilter;
  p.post_filter_amplification = 2.0f;
  std::vector<Neighbor> results;
  ASSERT_TRUE(index.Search(fx.queries.row(0), p, &results).ok());
  EXPECT_LT(results.size(), p.k);
  // Visit-first on the same query fills the result set.
  p.filter_mode = FilterMode::kVisitFirst;
  p.ef = 512;
  ASSERT_TRUE(index.Search(fx.queries.row(0), p, &results).ok());
  EXPECT_EQ(results.size(), p.k);
}

}  // namespace
}  // namespace vdb
