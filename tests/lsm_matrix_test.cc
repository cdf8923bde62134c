// Flush policy x segment-index-family grid: the out-of-place update
// pattern (growing segment + sealed indexed segments + compaction) must
// hold for any index factory (graphs, tables, trees), since the paper's
// systems pair LSM levels with whatever index the workload wants.

#include <functional>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rng.h"
#include "core/synthetic.h"
#include "db/collection.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/kd_tree.h"
#include "index/vamana.h"

namespace vdb {
namespace {

struct LsmCase {
  std::string label;
  IndexFactory factory;
  SearchParams params;  ///< generous knobs per family
};

std::vector<LsmCase> Cases() {
  std::vector<LsmCase> cases;
  SearchParams p;
  p.k = 1;
  cases.push_back({"flat", [] { return std::make_unique<FlatIndex>(); }, p});
  {
    SearchParams gp = p;
    gp.ef = 128;
    cases.push_back({"hnsw",
                     [] {
                       HnswOptions o;
                       o.m = 8;
                       o.ef_construction = 48;
                       return std::make_unique<HnswIndex>(o);
                     },
                     gp});
    cases.push_back({"vamana",
                     [] {
                       VamanaOptions o;
                       o.r = 16;
                       o.l = 32;
                       return std::make_unique<VamanaIndex>(o);
                     },
                     gp});
  }
  {
    SearchParams ip = p;
    ip.nprobe = 16;
    cases.push_back({"ivf",
                     [] {
                       IvfOptions o;
                       o.nlist = 16;
                       return std::make_unique<IvfFlatIndex>(o);
                     },
                     ip});
  }
  {
    SearchParams tp = p;
    tp.max_leaf_visits = 1000;
    cases.push_back({"kdtree",
                     [] { return std::make_unique<KdTreeIndex>(); },
                     tp});
  }
  return cases;
}

class LsmMatrixTest : public ::testing::TestWithParam<LsmCase> {};

TEST_P(LsmMatrixTest, InterleavedInsertDeleteMatchesOracleTop1) {
  const auto& c = GetParam();
  CollectionOptions opts;
  opts.dim = 8;
  opts.lsm_memtable_limit = 48;
  opts.lsm_compact_at_segments = 3;
  opts.index_factory = c.factory;
  auto store = Collection::Create(opts);
  ASSERT_TRUE(store.ok());

  Rng rng(61);
  std::map<VectorId, std::vector<float>> oracle;
  VectorId next_id = 0;
  for (int step = 0; step < 400; ++step) {
    if (oracle.empty() || rng.NextDouble() < 0.75) {
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

  auto scorer = Scorer::Create(MetricSpec::L2(), 8).value();
  Rng qrng(3);
  int agree = 0;
  const int kQueries = 15;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<float> query(8);
    for (auto& x : query) x = qrng.NextGaussian();
    std::vector<Neighbor> got;
    ASSERT_TRUE(
        (*store)->Knn(query, c.params.k, &got, nullptr, &c.params).ok());
    VectorId best = kInvalidVectorId;
    float best_dist = std::numeric_limits<float>::max();
    for (const auto& [id, vec] : oracle) {
      float d = scorer.Distance(query.data(), vec.data());
      if (d < best_dist) {
        best_dist = d;
        best = id;
      }
    }
    ASSERT_FALSE(got.empty()) << c.label;
    agree += got[0].id == best;
  }
  EXPECT_GE(agree, kQueries - 2) << c.label;  // small ANN slack
}

INSTANTIATE_TEST_SUITE_P(Families, LsmMatrixTest,
                         ::testing::ValuesIn(Cases()),
                         [](const ::testing::TestParamInfo<LsmCase>& info) {
                           return info.param.label;
                         });

}  // namespace
}  // namespace vdb
