// Tests for the challenge/extension features (paper §2.6): incremental
// search, automatic score selection, the HNSW neighbor-selection ablation
// knob, and the shared graph beam-search utility (checked against the
// reference loop in beam_search_reference.h).

#include <algorithm>
#include <bit>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rng.h"
#include "core/score_selection.h"
#include "core/synthetic.h"
#include "exec/incremental.h"
#include "index/flat.h"
#include "index/graph_util.h"
#include "index/hnsw.h"
#include "beam_search_reference.h"

namespace vdb {
namespace {

FloatMatrix SmallData(std::size_t n = 500, std::size_t dim = 8) {
  SyntheticOptions opts;
  opts.n = n;
  opts.dim = dim;
  opts.num_clusters = 8;
  opts.seed = 5;
  return GaussianClusters(opts);
}

// ------------------------------------------------------------ Incremental

TEST(IncrementalSearchTest, StreamEqualsExactPrefixOnFlat) {
  FloatMatrix data = SmallData();
  FlatIndex index;
  ASSERT_TRUE(index.Build(data, {}).ok());
  auto scorer = Scorer::Create(MetricSpec::L2(), data.cols()).value();
  FloatMatrix queries = PerturbedQueries(data, 1, 0.02f, 9);
  auto truth = GroundTruth(data, queries, scorer, 50);

  std::vector<float> query(queries.row(0), queries.row(0) + data.cols());
  IncrementalSearch stream(&index, query);
  std::vector<Neighbor> all;
  for (int page = 0; page < 5; ++page) {
    std::vector<Neighbor> batch;
    ASSERT_TRUE(stream.Next(10, &batch).ok());
    ASSERT_EQ(batch.size(), 10u);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(stream.fetched(), 50u);
  ASSERT_EQ(all.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(all[i].id, truth[0][i].id) << i;
  }
}

TEST(IncrementalSearchTest, NoDuplicatesAndMonotoneOnHnsw) {
  FloatMatrix data = SmallData(800, 8);
  HnswIndex index;
  ASSERT_TRUE(index.Build(data, {}).ok());
  std::vector<float> query(data.row(3), data.row(3) + 8);
  IncrementalSearch stream(&index, query);
  std::set<VectorId> seen;
  for (int page = 0; page < 6; ++page) {
    std::vector<Neighbor> batch;
    ASSERT_TRUE(stream.Next(7, &batch).ok());
    for (const auto& nb : batch) {
      EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate " << nb.id;
    }
  }
  EXPECT_EQ(seen.size(), 42u);
}

TEST(IncrementalSearchTest, ExhaustsSmallCollection) {
  FloatMatrix data = SmallData(20, 4);
  FlatIndex index;
  ASSERT_TRUE(index.Build(data, {}).ok());
  std::vector<float> query(data.row(0), data.row(0) + 4);
  IncrementalSearch stream(&index, query);
  std::vector<Neighbor> batch;
  ASSERT_TRUE(stream.Next(50, &batch).ok());
  EXPECT_EQ(batch.size(), 20u);  // whole collection, then dry
  ASSERT_TRUE(stream.Next(10, &batch).ok());
  EXPECT_TRUE(batch.empty());
}

TEST(IncrementalSearchTest, RespectsFilter) {
  FloatMatrix data = SmallData(100, 4);
  FlatIndex index;
  ASSERT_TRUE(index.Build(data, {}).ok());
  Bitset allowed(100);
  for (std::size_t i = 0; i < 100; i += 2) allowed.Set(i);
  BitsetIdFilter filter(&allowed);
  SearchParams base;
  base.filter = &filter;
  base.filter_mode = FilterMode::kVisitFirst;
  std::vector<float> query(data.row(0), data.row(0) + 4);
  IncrementalSearch stream(&index, query, base);
  std::vector<Neighbor> batch;
  ASSERT_TRUE(stream.Next(60, &batch).ok());
  EXPECT_EQ(batch.size(), 50u);  // only the even ids exist
  for (const auto& nb : batch) EXPECT_EQ(nb.id % 2, 0u);
}

// -------------------------------------------------------- Score selection

TEST(ScoreSelectionTest, ValidatesInput) {
  ScoreSelectionInput empty;
  EXPECT_FALSE(SelectScore(empty, {MetricSpec::L2()}).ok());
  FloatMatrix data = SmallData(10, 4);
  ScoreSelectionInput no_pairs;
  no_pairs.data = &data;
  EXPECT_FALSE(SelectScore(no_pairs, {MetricSpec::L2()}).ok());
  ScoreSelectionInput bad;
  bad.data = &data;
  bad.same_pairs = {{0, 99}};
  bad.diff_pairs = {{0, 1}};
  EXPECT_FALSE(SelectScore(bad, {MetricSpec::L2()}).ok());
}

TEST(ScoreSelectionTest, PerfectSeparationGivesAucOne) {
  FloatMatrix data(4, 2);
  data.at(0, 0) = 0.0f;
  data.at(1, 0) = 0.1f;   // same as 0
  data.at(2, 0) = 10.0f;
  data.at(3, 0) = 10.1f;  // same as 2
  ScoreSelectionInput input;
  input.data = &data;
  input.same_pairs = {{0, 1}, {2, 3}};
  input.diff_pairs = {{0, 2}, {1, 3}, {0, 3}};
  auto ranking = SelectScore(input, {MetricSpec::L2()});
  ASSERT_TRUE(ranking.ok());
  EXPECT_DOUBLE_EQ((*ranking)[0].auc, 1.0);
}

TEST(ScoreSelectionTest, LearnedMetricWinsOnNuisanceWorkload) {
  // Same-entity pairs differ by huge nuisance along axis 1; entities
  // separate along axis 0. L2 is confused; Mahalanobis should dominate.
  Rng rng(3);
  const std::size_t entities = 60;
  FloatMatrix data(2 * entities, 2);
  ScoreSelectionInput input;
  input.data = &data;
  for (std::size_t e = 0; e < entities; ++e) {
    float semantic = static_cast<float>(e % 10);
    data.at(2 * e, 0) = semantic + 0.02f * rng.NextGaussian();
    data.at(2 * e, 1) = 10.0f * rng.NextGaussian();
    data.at(2 * e + 1, 0) = semantic + 0.02f * rng.NextGaussian();
    data.at(2 * e + 1, 1) = 10.0f * rng.NextGaussian();
    input.same_pairs.push_back(
        {std::uint32_t(2 * e), std::uint32_t(2 * e + 1)});
    if (e > 0 && e % 10 != (e - 1) % 10) {
      input.diff_pairs.push_back(
          {std::uint32_t(2 * e), std::uint32_t(2 * (e - 1))});
    }
  }
  auto ranking = SelectScoreDefaultSlate(input);
  ASSERT_TRUE(ranking.ok());
  EXPECT_EQ((*ranking)[0].name, "mahalanobis");
  EXPECT_GT((*ranking)[0].auc, 0.95);
  // And strictly better than plain L2 on this workload.
  double l2_auc = 0;
  for (const auto& c : *ranking) {
    if (c.name == "l2") l2_auc = c.auc;
  }
  EXPECT_GT((*ranking)[0].auc, l2_auc + 0.1);
}

// ------------------------------------------------- HNSW heuristic ablation

TEST(HnswHeuristicTest, BothModesBuildAndSearch) {
  FloatMatrix data = SmallData(1000, 8);
  auto scorer = Scorer::Create(MetricSpec::L2(), 8).value();
  FloatMatrix queries = PerturbedQueries(data, 20, 0.02f, 3);
  auto truth = GroundTruth(data, queries, scorer, 10);
  for (bool heuristic : {false, true}) {
    HnswOptions o;
    o.use_select_heuristic = heuristic;
    HnswIndex index(o);
    ASSERT_TRUE(index.Build(data, {}).ok());
    SearchParams p;
    p.k = 10;
    p.ef = 64;
    std::vector<std::vector<Neighbor>> results(queries.rows());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      ASSERT_TRUE(index.Search(queries.row(q), p, &results[q]).ok());
    }
    EXPECT_GE(MeanRecall(results, truth, 10), 0.7) << heuristic;
  }
}

// --------------------------------------------------------- Graph utility

// Line graphs for the beam-search cases: 0-1-2-...-(n-1), node u's
// one-dimensional row at position u.
struct LineGraph {
  explicit LineGraph(std::size_t n)
      : adj(n), rows(n), scorer(Scorer::Create(MetricSpec::L2(), 1).value()) {
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      adj[i].push_back(i + 1);
      adj[i + 1].push_back(i);
    }
    for (std::size_t i = 0; i < n; ++i) rows[i] = static_cast<float>(i);
  }
  template <typename AdmitFn>
  std::vector<graph::Cand> Search(float target, FilterMode mode,
                                  AdmitFn admit, SearchStats* stats) const {
    std::uint32_t entries[1] = {0};
    return graph::BeamSearch(
        scorer, rows.data(), &target, entries, 4, adj.size(), mode,
        [&](std::uint32_t u) { return std::span<const std::uint32_t>(adj[u]); },
        admit, stats);
  }

  std::vector<std::vector<std::uint32_t>> adj;
  std::vector<float> rows;
  Scorer scorer;
};

TEST(GraphUtilTest, BeamSearchFindsPathOnLineGraph) {
  // Line graph with positions = index: beam from node 0 must find the
  // node nearest any query point.
  LineGraph line(100);
  SearchStats stats;
  auto results = line.Search(73.4f, FilterMode::kNone,
                             [](std::uint32_t) { return true; }, &stats);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].idx, 73u);
  EXPECT_GT(stats.hops, 50u);  // walked the line
}

TEST(GraphUtilTest, BlockFirstCannotCrossBlockedCut) {
  // Blocking node 50 on a line graph cuts everything beyond it.
  LineGraph line(100);
  auto admit = [](std::uint32_t u) { return u != 50; };
  auto blocked = line.Search(90.0f, FilterMode::kBlockFirst, admit, nullptr);
  // Best reachable is 49 (everything past the cut is unreachable).
  ASSERT_FALSE(blocked.empty());
  EXPECT_EQ(blocked[0].idx, 49u);
  // Visit-first traverses through the blocked node and reaches 90.
  auto visited = line.Search(90.0f, FilterMode::kVisitFirst, admit, nullptr);
  ASSERT_FALSE(visited.empty());
  EXPECT_EQ(visited[0].idx, 90u);
}

/// Same ids and distance bits, in the same order.
bool SameCands(const std::vector<graph::Cand>& a,
               const std::vector<graph::Cand>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].idx != b[i].idx || std::bit_cast<std::uint32_t>(a[i].dist) !=
                                    std::bit_cast<std::uint32_t>(b[i].dist)) {
      return false;
    }
  }
  return true;
}

// graph::BeamSearch against the one-neighbor-at-a-time reference loop
// (beam_search_reference.h) on seeded random graphs: every result id and
// distance bit, the expansion order, and all four stats counters must
// match. Graphs carry self-loops, duplicate edges and isolated nodes;
// entry lists carry duplicates and out-of-range ids; admit masks run
// under every filter mode BeamSearch sees; ef runs from 1 past n; and the
// cosine case takes DistanceBatch's per-row fallback.
TEST(GraphUtilTest, BeamSearchMatchesReferenceLoop) {
  const MetricSpec metrics[] = {MetricSpec::L2(), MetricSpec::InnerProduct(),
                                MetricSpec::Cosine()};
  const FilterMode modes[] = {FilterMode::kNone, FilterMode::kBlockFirst,
                              FilterMode::kVisitFirst};
  const std::size_t sizes[] = {1, 2, 7, 40, 300, 2000};
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const std::size_t n = sizes[seed % std::size(sizes)];
    const std::size_t dim = 1 + rng.Next(40);
    FloatMatrix base(n, dim);
    for (std::size_t i = 0; i < n; ++i) {
      float* row = base.row(i);
      if (rng.Next(10) == 0 && i > 0) {  // duplicate row: distance ties
        std::copy_n(base.row(rng.Next(i)), dim, row);
      } else if (rng.Next(20) == 0) {  // zero row: cosine's special case
        std::fill_n(row, dim, 0.0f);
      } else {
        for (std::size_t j = 0; j < dim; ++j) row[j] = rng.NextGaussian();
      }
    }
    const std::size_t max_degree = rng.Next(33);  // 0..32
    std::vector<std::vector<std::uint32_t>> adj(n);
    for (std::size_t u = 0; u < n; ++u) {
      const std::size_t degree = max_degree == 0 ? 0 : rng.Next(max_degree + 1);
      for (std::size_t e = 0; e < degree; ++e) {
        adj[u].push_back(static_cast<std::uint32_t>(rng.Next(n)));
      }
      if (!adj[u].empty() && rng.Next(4) == 0) {
        adj[u].push_back(static_cast<std::uint32_t>(u));       // self-loop
        adj[u].push_back(adj[u][rng.Next(adj[u].size())]);    // duplicate
      }
    }
    auto neighbors = [&](std::uint32_t u) {
      return std::span<const std::uint32_t>(adj[u]);
    };
    std::vector<std::uint32_t> entries;
    for (std::size_t e = 0, ne = 1 + rng.Next(4); e < ne; ++e) {
      entries.push_back(static_cast<std::uint32_t>(rng.Next(n)));
    }
    entries.push_back(entries.front());                             // dup
    entries.push_back(static_cast<std::uint32_t>(n + rng.Next(3)));  // OOR
    std::vector<bool> mask(n);
    const std::size_t admit_pct = rng.Next(101);
    for (std::size_t u = 0; u < n; ++u) mask[u] = rng.Next(100) < admit_pct;
    std::vector<float> query(dim);
    for (float& x : query) x = rng.NextGaussian();
    // Counts each probe as DenseIndexBase::Admissible does.
    auto admit_with = [&mask](SearchStats* stats) {
      return [&mask, stats](std::uint32_t u) {
        ++stats->filter_checks;
        return static_cast<bool>(mask[u]);
      };
    };

    for (const MetricSpec& metric : metrics) {
      Scorer scorer = Scorer::Create(metric, dim).value();
      for (FilterMode mode : modes) {
        for (std::size_t ef : {std::size_t{1}, std::size_t{10},
                               std::size_t{100}, n + 5}) {
          SearchStats want_stats, got_stats;
          std::vector<graph::Cand> want_expanded, got_expanded;
          auto want = beam_ref::BeamSearch(
              entries, ef, n, mode, neighbors,
              [&](std::uint32_t u) {
                return scorer.Distance(query.data(), base.row(u));
              },
              admit_with(&want_stats), &want_stats, &want_expanded);
          auto got = graph::BeamSearch(
              scorer, base.data(), query.data(), entries, ef, n, mode,
              neighbors, admit_with(&got_stats), &got_stats, &got_expanded);
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " n " << n << " dim " << dim
                       << " metric " << static_cast<int>(metric.metric)
                       << " mode " << static_cast<int>(mode) << " ef " << ef);
          EXPECT_TRUE(SameCands(got, want));
          EXPECT_TRUE(SameCands(got_expanded, want_expanded));
          EXPECT_EQ(got_stats.distance_comps, want_stats.distance_comps);
          EXPECT_EQ(got_stats.hops, want_stats.hops);
          EXPECT_EQ(got_stats.nodes_visited, want_stats.nodes_visited);
          EXPECT_EQ(got_stats.filter_checks, want_stats.filter_checks);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 24u * 3 * 3 * 4);
}

TEST(GraphUtilTest, GreedyDescendReachesLocalMinimum) {
  const std::size_t n = 50;
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    adj[i].push_back(i + 1);
    adj[i + 1].push_back(i);
  }
  auto nearest = graph::GreedyDescend(
      0,
      [&](std::uint32_t u) { return std::span<const std::uint32_t>(adj[u]); },
      [&](std::uint32_t u) { return std::abs(float(u) - 31.2f); }, nullptr);
  EXPECT_EQ(nearest, 31u);
}

}  // namespace
}  // namespace vdb
