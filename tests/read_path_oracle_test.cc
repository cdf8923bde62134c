// Answer oracle for every read path of a Collection. A seeded mutation
// script (build, insert, delete, re-insert a deleted id with a new vector,
// flush, compact, BuildIndex) runs under both update policies, and after
// each step every read — Knn, BatchKnn, CkSearch, RangeSearch and Hybrid
// under every forced plan plus the cost- and rule-based optimizers — is
// checked against brute force over the live rows. With Flat segments each
// answer must equal brute force exactly; HNSW and Vamana must return only
// live, matching ids at their true distances, above a recall floor. The
// floor skips forced graph pre-filter answers: block-first scans
// disconnect graph traversal, the online-blocking hazard of §2.3 that
// exec_test pairs with IVF instead. The optimizers never choose that plan
// over a graph, so their answers keep a recall floor of their own.

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/topk.h"
#include "db/collection.h"
#include "core/aggregate.h"
#include "index/diskann.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/spann.h"
#include "index/vamana.h"

namespace vdb {
namespace {

constexpr std::size_t kDim = 8;
constexpr std::size_t kK = 10;

struct Row {
  std::vector<float> vec;
  std::int64_t cat = 0;
  double u = 0.0;
};

struct Filter {
  std::string label;
  Predicate pred;
  std::function<bool(const Row&)> keep;
  bool partition_eligible = false;  ///< `cat = <int>`
};

std::vector<Filter> Filters() {
  return {
      {"cat=2", Predicate::Cmp("cat", CmpOp::kEq, std::int64_t{2}),
       [](const Row& r) { return r.cat == 2; }, true},
      {"u<0.3", Predicate::Cmp("u", CmpOp::kLt, 0.3),
       [](const Row& r) { return r.u < 0.3; }, false},
  };
}

struct Family {
  std::string label;
  IndexFactory factory;
  bool exact = false;  ///< answers must equal brute force exactly
};

/// Recall of the graded answers: true top-k ids found over ids wanted.
struct Tally {
  std::size_t found = 0;
  std::size_t wanted = 0;
};

struct Case {
  Family family;
  std::size_t memtable_limit = 0;  ///< 0: in place
};

std::vector<Case> Cases() {
  std::vector<Family> families = {
      {"flat", [] { return std::make_unique<FlatIndex>(); }, true},
      {"hnsw",
       [] {
         HnswOptions o;
         o.m = 8;
         o.ef_construction = 64;
         return std::make_unique<HnswIndex>(o);
       }},
      {"vamana",
       [] {
         VamanaOptions o;
         o.r = 16;
         o.l = 32;
         return std::make_unique<VamanaIndex>(o);
       }},
  };
  std::vector<Case> cases;
  for (const Family& f : families) {
    for (std::size_t limit : {std::size_t{0}, std::size_t{48}}) {
      cases.push_back({f, limit});
    }
  }
  return cases;
}

/// The ground truth: the live rows, scored exactly.
class Oracle {
 public:
  Oracle() : scorer_(Scorer::Create(MetricSpec::L2(), kDim).value()) {}

  std::vector<Neighbor> TopK(const float* q, std::size_t k,
                             const Filter* filter) const {
    vdb::TopK top(k);
    for (const auto& [id, row] : rows) {
      if (filter != nullptr && !filter->keep(row)) continue;
      top.Push(id, scorer_.Distance(q, row.vec.data()));
    }
    return top.Take();
  }

  std::vector<Neighbor> Range(const float* q, float radius) const {
    std::vector<Neighbor> out;
    for (const auto& [id, row] : rows) {
      float d = scorer_.Distance(q, row.vec.data());
      if (d <= radius) out.push_back({id, d});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  float Distance(const float* q, VectorId id) const {
    return scorer_.Distance(q, rows.at(id).vec.data());
  }

  std::map<VectorId, Row> rows;

 private:
  Scorer scorer_;
};

std::vector<std::pair<VectorId, float>> Pairs(const std::vector<Neighbor>& v) {
  std::vector<std::pair<VectorId, float>> out;
  for (const Neighbor& n : v) out.emplace_back(n.id, n.dist);
  return out;
}

class ReadPathOracleTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    // Two collections run the same script: one cost-based with a
    // partition column (one segment per key, and the partition-pruned
    // plan), one rule-based without.
    for (int variant = 0; variant < 2; ++variant) {
      CollectionOptions o;
      o.dim = kDim;
      o.attributes = {{"cat", AttrType::kInt64}, {"u", AttrType::kDouble}};
      o.index_factory = GetParam().family.factory;
      o.lsm_memtable_limit = GetParam().memtable_limit;
      o.lsm_compact_at_segments = 3;
      if (variant == 0) {
        o.partition_column = "cat";
      } else {
        o.plan_mode = PlanMode::kRuleBased;
      }
      auto created = Collection::Create(o);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      colls_.push_back(std::move(*created));
    }
  }

  Row RandomRow() {
    Row r;
    r.vec.resize(kDim);
    for (float& x : r.vec) x = rng_.NextGaussian();
    r.cat = static_cast<std::int64_t>(rng_.Next(5));
    r.u = rng_.NextDouble();
    return r;
  }

  void Insert(VectorId id) {
    Row r = RandomRow();
    for (auto& c : colls_) {
      ASSERT_TRUE(c->Insert(id, r.vec,
                            {{"cat", AttrValue{r.cat}}, {"u", AttrValue{r.u}}})
                      .ok());
    }
    oracle_.rows[id] = r;
  }

  void Delete(VectorId id) {
    for (auto& c : colls_) ASSERT_TRUE(c->Delete(id).ok());
    oracle_.rows.erase(id);
  }

  VectorId RandomLiveId() {
    auto it = oracle_.rows.begin();
    std::advance(it, rng_.Next(oracle_.rows.size()));
    return it->first;
  }

  /// Checks one answer against `truth` (brute force under `filter`); for
  /// approximate families a non-null `tally` counts it toward a recall
  /// floor.
  void CheckAnswer(const std::string& what, const float* q,
                   const std::vector<Neighbor>& got,
                   const std::vector<Neighbor>& truth, const Filter* filter,
                   Tally* tally) {
    SCOPED_TRACE(what);
    if (GetParam().family.exact) {
      EXPECT_EQ(Pairs(got), Pairs(truth));
      return;
    }
    std::set<VectorId> seen;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Neighbor& nb = got[i];
      ASSERT_TRUE(oracle_.rows.contains(nb.id)) << "dead id " << nb.id;
      EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate id " << nb.id;
      EXPECT_EQ(nb.dist, oracle_.Distance(q, nb.id)) << "stale row " << nb.id;
      if (filter != nullptr) {
        EXPECT_TRUE(filter->keep(oracle_.rows.at(nb.id))) << nb.id;
      }
      if (i > 0) {
        EXPECT_LE(got[i - 1].dist, nb.dist);
      }
    }
    EXPECT_LE(got.size(), kK);
    if (tally == nullptr) return;
    for (const Neighbor& t : truth) tally->found += seen.contains(t.id) ? 1 : 0;
    tally->wanted += truth.size();
  }

  void CheckAll(const std::string& stage) {
    SCOPED_TRACE(stage);
    std::vector<std::vector<float>> queries;
    for (int i = 0; i < 3; ++i) {
      std::vector<float> q = oracle_.rows.at(RandomLiveId()).vec;
      for (float& x : q) x += 0.05f * rng_.NextGaussian();
      queries.push_back(q);
      queries.push_back(RandomRow().vec);
    }
    SearchParams params;
    params.ef = 128;
    for (std::size_t v = 0; v < colls_.size(); ++v) {
      const Collection& c = *colls_[v];
      SCOPED_TRACE("variant " + std::to_string(v));
      ASSERT_EQ(c.Size(), oracle_.rows.size());
      FloatMatrix batch(0, kDim);
      for (const auto& q : queries) batch.AppendRow(q.data(), kDim);
      std::vector<std::vector<Neighbor>> batched;
      ASSERT_TRUE(c.BatchKnn(batch, kK, &batched).ok());
      ASSERT_EQ(batched.size(), queries.size());

      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const float* q = queries[qi].data();
        const auto truth = oracle_.TopK(q, kK, nullptr);
        std::vector<Neighbor> got;
        ASSERT_TRUE(c.Knn(queries[qi], kK, &got, nullptr, &params).ok());
        CheckAnswer("knn", q, got, truth, nullptr, &tally_);
        CheckAnswer("batch_knn", q, batched[qi], truth, nullptr, &tally_);

        auto ck = c.CkSearch(queries[qi], 1.0, kK);
        ASSERT_TRUE(ck.ok());
        EXPECT_TRUE(ck->satisfied);
        CheckAnswer("ck_search", q, ck->neighbors, truth, nullptr, &tally_);

        // Range search is exact by contract, whatever the family.
        const float radius = truth[truth.size() / 2].dist;
        ASSERT_TRUE(c.RangeSearch(queries[qi], radius, &got).ok());
        EXPECT_EQ(Pairs(got), Pairs(oracle_.Range(q, radius))) << "range";

        for (const Filter& f : Filters()) {
          const auto ftruth = oracle_.TopK(q, kK, &f);
          std::vector<HybridPlan> plans = {
              {PlanKind::kBruteForceHybrid, 3.0f},
              {PlanKind::kPreFilterIndexScan, 3.0f},
              {PlanKind::kPostFilterIndexScan, 100.0f},
              {PlanKind::kVisitFirstIndexScan, 3.0f},
          };
          if (v == 0 && f.partition_eligible) {
            plans.push_back({PlanKind::kPartitionPruned, 3.0f});
          }
          for (const HybridPlan& plan : plans) {
            if (plan.kind != PlanKind::kBruteForceHybrid && !c.HasIndex()) {
              continue;
            }
            ExecStats stats;
            ASSERT_TRUE(
                c.Hybrid(queries[qi], f.pred, kK, &got, &stats, &plan, &params)
                    .ok())
                << plan.ToString();
            if (plan.kind == PlanKind::kBruteForceHybrid) {
              EXPECT_EQ(Pairs(got), Pairs(ftruth)) << f.label;
            } else {
              CheckAnswer(f.label + " " + plan.ToString(), q, got, ftruth, &f,
                          plan.kind == PlanKind::kPreFilterIndexScan
                              ? nullptr
                              : &tally_);
            }
          }
          ExecStats stats;
          ASSERT_TRUE(
              c.Hybrid(queries[qi], f.pred, kK, &got, &stats, nullptr, &params)
                  .ok());
          ASSERT_TRUE(stats.plan.has_value());
          CheckAnswer(f.label + " optimizer " + stats.plan->ToString(), q, got,
                      ftruth, &f, &optimizer_tally_);
        }
      }
    }
  }

  std::vector<std::unique_ptr<Collection>> colls_;
  Oracle oracle_;
  Rng rng_{2024};
  Tally tally_;
  Tally optimizer_tally_;  ///< Hybrid answers under the optimizer's plan
};

TEST_P(ReadPathOracleTest, EveryReadMatchesBruteForceThroughMutations) {
  for (VectorId id = 0; id < 300; ++id) ASSERT_NO_FATAL_FAILURE(Insert(id));
  for (auto& c : colls_) ASSERT_TRUE(c->BuildIndex().ok());
  ASSERT_NO_FATAL_FAILURE(CheckAll("built"));

  for (VectorId id = 300; id < 360; ++id) ASSERT_NO_FATAL_FAILURE(Insert(id));
  ASSERT_NO_FATAL_FAILURE(CheckAll("inserted"));

  std::vector<VectorId> deleted;
  for (int i = 0; i < 40; ++i) {
    deleted.push_back(RandomLiveId());
    ASSERT_NO_FATAL_FAILURE(Delete(deleted.back()));
  }
  ASSERT_NO_FATAL_FAILURE(CheckAll("deleted"));

  // Re-inserted ids get new vectors and attributes: a stale copy would
  // show up at the wrong distance or under the wrong predicate.
  for (int i = 0; i < 10; ++i) ASSERT_NO_FATAL_FAILURE(Insert(deleted[i]));
  ASSERT_NO_FATAL_FAILURE(CheckAll("reinserted"));

  for (auto& c : colls_) ASSERT_TRUE(c->Flush().ok());
  ASSERT_NO_FATAL_FAILURE(CheckAll("flushed"));

  for (VectorId id = 360; id < 390; ++id) ASSERT_NO_FATAL_FAILURE(Insert(id));
  for (auto& c : colls_) ASSERT_TRUE(c->Compact().ok());
  ASSERT_NO_FATAL_FAILURE(CheckAll("compacted"));

  for (VectorId id = 390; id < 410; ++id) ASSERT_NO_FATAL_FAILURE(Insert(id));
  for (int i = 0; i < 10; ++i) ASSERT_NO_FATAL_FAILURE(Delete(RandomLiveId()));
  ASSERT_NO_FATAL_FAILURE(CheckAll("churn"));

  // One segment per partition key in the partitioned variant, one in all
  // in the other.
  std::set<std::int64_t> keys;
  for (const auto& [id, row] : oracle_.rows) keys.insert(row.cat);
  for (std::size_t v = 0; v < colls_.size(); ++v) {
    ASSERT_TRUE(colls_[v]->BuildIndex().ok());
    EXPECT_EQ(colls_[v]->SegmentCount(), v == 0 ? keys.size() : 1u);
    EXPECT_EQ(colls_[v]->UnindexedRows(), 0u);
  }
  ASSERT_NO_FATAL_FAILURE(CheckAll("rebuilt"));

  if (!GetParam().family.exact) {
    for (const Tally* t : {&tally_, &optimizer_tally_}) {
      ASSERT_GT(t->wanted, 0u);
      EXPECT_GE(static_cast<double>(t->found) / t->wanted, 0.95)
          << (t == &tally_ ? "forced plans: " : "optimizer: ") << t->found
          << " of " << t->wanted;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ReadPathOracleTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.family.label +
             (info.param.memtable_limit == 0 ? "_in_place" : "_flush");
    });

// Disk-resident segments keep their rows only in their pages, so every
// exact read of a DiskANN or SPANN collection — RangeSearch, the CkSearch
// oracle, the brute-force plan, MultiVectorKnn's re-scoring and Checkpoint
// — reads them back from there. Each must equal a Flat collection run
// through the same script: same ids, same distance bits, same checkpoint
// bytes. The paged families search exhaustively here (ef and nprobe cover
// every row), so their index answers, and thus MultiVectorKnn's
// candidates, are exact too.
struct PagedCase {
  std::string label;
  bool spann = false;
  std::size_t memtable_limit = 0;
};

class PagedRowsOracleTest : public ::testing::TestWithParam<PagedCase> {
 protected:
  void SetUp() override {
    const std::string dir = ::testing::TempDir() + "/vdb_paged_rows_" +
                            GetParam().label + "_" +
                            std::to_string(::getpid());
    dir_ = dir;
    auto next = std::make_shared<int>(0);
    IndexFactory paged;
    if (GetParam().spann) {
      paged = [dir, next] {
        SpannOptions o;
        o.nlist = 4;
        o.default_nprobe = 4;
        o.default_query_eps = 1e6f;
        return std::make_unique<SpannIndex>(
            dir + "_" + std::to_string((*next)++), o);
      };
    } else {
      paged = [dir, next] {
        DiskAnnOptions o;
        o.vamana.r = 16;
        o.vamana.l = 32;
        o.pq.m = 4;
        o.pq.nbits = 4;
        o.default_ef = 1024;
        return std::make_unique<DiskAnnIndex>(
            dir + "_" + std::to_string((*next)++), o);
      };
    }
    for (IndexFactory factory :
         {IndexFactory([] { return std::make_unique<FlatIndex>(); }),
          paged}) {
      CollectionOptions o;
      o.dim = kDim;
      o.attributes = {{"cat", AttrType::kInt64}, {"u", AttrType::kDouble}};
      o.index_factory = factory;
      o.lsm_memtable_limit = GetParam().memtable_limit;
      o.lsm_compact_at_segments = 3;
      auto created = Collection::Create(o);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      colls_.push_back(std::move(*created));
    }
  }

  std::vector<float> Vec() {
    std::vector<float> v(kDim);
    for (float& x : v) x = rng_.NextGaussian();
    return v;
  }

  void Insert(VectorId id) {
    const std::vector<float> v = Vec();
    const std::vector<AttrBinding> attrs = {
        {"cat", AttrValue{static_cast<std::int64_t>(rng_.Next(5))}},
        {"u", AttrValue{rng_.NextDouble()}}};
    for (auto& c : colls_) ASSERT_TRUE(c->Insert(id, v, attrs).ok());
    live_.push_back(id);
  }

  void InsertEntity(VectorId entity) {
    FloatMatrix vecs(0, kDim);
    for (int i = 0; i < 3; ++i) vecs.AppendRow(Vec().data(), kDim);
    for (auto& c : colls_) ASSERT_TRUE(c->InsertEntity(entity, vecs).ok());
  }

  void Delete(VectorId id) {
    for (auto& c : colls_) ASSERT_TRUE(c->Delete(id).ok());
    live_.erase(std::find(live_.begin(), live_.end(), id));
  }

  static std::string Bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  void CheckAll(const std::string& stage) {
    SCOPED_TRACE(stage);
    const Collection& flat = *colls_[0];
    const Collection& paged = *colls_[1];
    ASSERT_EQ(paged.Size(), flat.Size());
    const auto agg = Aggregator::Create(AggregateKind::kMean).value();
    for (int qi = 0; qi < 4; ++qi) {
      const std::vector<float> q = Vec();
      std::vector<Neighbor> want, got;
      ASSERT_TRUE(flat.Knn(q, kK, &want).ok());
      ASSERT_TRUE(paged.Knn(q, kK, &got).ok());
      EXPECT_EQ(Pairs(got), Pairs(want)) << "knn";

      const float radius = want[want.size() / 2].dist;
      ASSERT_TRUE(flat.RangeSearch(q, radius, &want).ok());
      ASSERT_TRUE(paged.RangeSearch(q, radius, &got).ok());
      EXPECT_EQ(Pairs(got), Pairs(want)) << "range";

      auto ck_want = flat.CkSearch(q, 1.0, kK);
      auto ck_got = paged.CkSearch(q, 1.0, kK);
      ASSERT_TRUE(ck_want.ok() && ck_got.ok());
      EXPECT_TRUE(ck_got->satisfied);
      EXPECT_EQ(Pairs(ck_got->neighbors), Pairs(ck_want->neighbors)) << "ck";

      const HybridPlan brute{PlanKind::kBruteForceHybrid, 3.0f};
      for (const Filter& f : Filters()) {
        ASSERT_TRUE(flat.Hybrid(q, f.pred, kK, &want, nullptr, &brute).ok());
        ASSERT_TRUE(paged.Hybrid(q, f.pred, kK, &got, nullptr, &brute).ok());
        EXPECT_EQ(Pairs(got), Pairs(want)) << "brute force " << f.label;
      }

      FloatMatrix mv(0, kDim);
      mv.AppendRow(q.data(), kDim);
      mv.AppendRow(Vec().data(), kDim);
      ASSERT_TRUE(flat.MultiVectorKnn(mv, agg, 5, &want).ok());
      ASSERT_TRUE(paged.MultiVectorKnn(mv, agg, 5, &got).ok());
      EXPECT_EQ(Pairs(got), Pairs(want)) << "multi-vector";
    }

    // Checkpoint -> Restore -> Knn, and the checkpoints byte for byte.
    std::vector<std::string> files;
    std::vector<std::unique_ptr<Collection>> restored;
    for (std::size_t v = 0; v < colls_.size(); ++v) {
      files.push_back(dir_ + "_ckpt" + std::to_string(v));
      ASSERT_TRUE(colls_[v]->Checkpoint(files.back()).ok());
      CollectionOptions o;
      o.dim = kDim;
      o.attributes = {{"cat", AttrType::kInt64}, {"u", AttrType::kDouble}};
      auto r = Collection::Restore(o, files.back());
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      restored.push_back(std::move(*r));
    }
    EXPECT_EQ(Bytes(files[1]), Bytes(files[0]));
    const std::vector<float> q = Vec();
    std::vector<Neighbor> want, got;
    ASSERT_TRUE(restored[0]->Knn(q, kK, &want).ok());
    ASSERT_TRUE(restored[1]->Knn(q, kK, &got).ok());
    EXPECT_EQ(Pairs(got), Pairs(want)) << "restored knn";
  }

  std::vector<std::unique_ptr<Collection>> colls_;  ///< flat, paged
  std::vector<VectorId> live_;                      ///< plain rows
  std::string dir_;
  Rng rng_{77};
};

TEST_P(PagedRowsOracleTest, ExactReadsMatchFlatThroughMutations) {
  for (VectorId id = 0; id < 240; ++id) ASSERT_NO_FATAL_FAILURE(Insert(id));
  for (VectorId e = 1000; e < 1020; ++e) {
    ASSERT_NO_FATAL_FAILURE(InsertEntity(e));
  }
  for (auto& c : colls_) ASSERT_TRUE(c->BuildIndex().ok());
  ASSERT_NO_FATAL_FAILURE(CheckAll("built"));

  // Inserts (growing rows beside the paged segment; flat Adds them),
  // deletes on both sides, re-adds with new vectors, entity deletes.
  for (VectorId id = 240; id < 280; ++id) ASSERT_NO_FATAL_FAILURE(Insert(id));
  std::vector<VectorId> deleted;
  for (int i = 0; i < 30; ++i) {
    deleted.push_back(live_[rng_.Next(live_.size())]);
    ASSERT_NO_FATAL_FAILURE(Delete(deleted.back()));
  }
  for (int i = 0; i < 5; ++i) ASSERT_NO_FATAL_FAILURE(Insert(deleted[i]));
  for (VectorId e : {1003, 1011}) {
    for (auto& c : colls_) ASSERT_TRUE(c->Delete(e).ok());
  }
  ASSERT_NO_FATAL_FAILURE(CheckAll("mutated"));

  for (auto& c : colls_) ASSERT_TRUE(c->Flush().ok());
  for (VectorId id = 280; id < 300; ++id) ASSERT_NO_FATAL_FAILURE(Insert(id));
  for (auto& c : colls_) ASSERT_TRUE(c->Compact().ok());
  ASSERT_NO_FATAL_FAILURE(CheckAll("compacted"));

  for (auto& c : colls_) ASSERT_TRUE(c->BuildIndex().ok());
  ASSERT_NO_FATAL_FAILURE(CheckAll("rebuilt"));
}

INSTANTIATE_TEST_SUITE_P(
    Families, PagedRowsOracleTest,
    ::testing::Values(PagedCase{"diskann_in_place", false, 0},
                      PagedCase{"diskann_flush", false, 48},
                      PagedCase{"spann_in_place", true, 0},
                      PagedCase{"spann_flush", true, 48}),
    [](const ::testing::TestParamInfo<PagedCase>& info) {
      return info.param.label;
    });

// Rows inserted after BuildIndex into an index that cannot Add them stay
// growing; every index plan must still brute-force them.
TEST(ReadPathRegressionTest, GrowingRowsReachEveryIndexPlan) {
  CollectionOptions o;
  o.dim = kDim;
  o.attributes = {{"u", AttrType::kDouble}};
  o.index_factory = [] {
    VamanaOptions v;
    v.r = 16;
    v.l = 32;
    return std::make_unique<VamanaIndex>(v);
  };
  auto c = Collection::Create(o).value();
  Rng rng(7);
  auto vec = [&] {
    std::vector<float> v(kDim);
    for (float& x : v) x = rng.NextGaussian();
    return v;
  };
  for (VectorId id = 0; id < 500; ++id) {
    ASSERT_TRUE(
        c->Insert(id, vec(), {{"u", AttrValue{rng.NextDouble()}}}).ok());
  }
  ASSERT_TRUE(c->BuildIndex().ok());
  for (VectorId id = 500; id < 521; ++id) {
    ASSERT_TRUE(c->Insert(id, vec(), {{"u", AttrValue{7.0}}}).ok());
  }
  const auto pred = Predicate::Cmp("u", CmpOp::kEq, 7.0);
  const std::vector<float> q = vec();
  std::vector<Neighbor> want;
  const HybridPlan brute{PlanKind::kBruteForceHybrid, 3.0f};
  ASSERT_TRUE(c->Hybrid(q, pred, 10, &want, nullptr, &brute).ok());
  ASSERT_EQ(want.size(), 10u);
  for (PlanKind kind :
       {PlanKind::kPreFilterIndexScan, PlanKind::kPostFilterIndexScan,
        PlanKind::kVisitFirstIndexScan}) {
    const HybridPlan plan{kind, 3.0f};
    std::vector<Neighbor> got;
    ASSERT_TRUE(c->Hybrid(q, pred, 10, &got, nullptr, &plan).ok());
    EXPECT_EQ(Pairs(got), Pairs(want)) << plan.ToString();
  }
}

// The partition-pruned plan must see deletes and rows inserted after the
// partitions were built.
TEST(ReadPathRegressionTest, PartitionPrunedPlanSeesDeletesAndNewRows) {
  CollectionOptions o;
  o.dim = kDim;
  o.attributes = {{"cat", AttrType::kInt64}};
  o.partition_column = "cat";
  o.index_factory = [] { return std::make_unique<FlatIndex>(); };
  auto c = Collection::Create(o).value();
  Rng rng(11);
  std::vector<float> q(kDim);
  for (float& x : q) x = rng.NextGaussian();
  for (VectorId id = 0; id < 500; ++id) {
    std::vector<float> v(kDim);
    for (float& x : v) x = rng.NextGaussian();
    ASSERT_TRUE(
        c->Insert(id, v, {{"cat", AttrValue{std::int64_t(id % 5)}}}).ok());
  }
  ASSERT_TRUE(c->BuildIndex().ok());
  const auto pred = Predicate::Cmp("cat", CmpOp::kEq, std::int64_t{2});
  const HybridPlan pruned{PlanKind::kPartitionPruned, 3.0f};
  std::vector<Neighbor> hits;
  ASSERT_TRUE(c->Hybrid(q, pred, 10, &hits, nullptr, &pruned).ok());
  ASSERT_EQ(hits.size(), 10u);
  std::set<VectorId> deleted;
  for (const Neighbor& nb : hits) {
    ASSERT_TRUE(c->Delete(nb.id).ok());
    deleted.insert(nb.id);
  }
  for (VectorId id = 1000; id < 1005; ++id) {
    std::vector<float> v = q;
    v[0] += 0.001f * static_cast<float>(id - 999);
    ASSERT_TRUE(c->Insert(id, v, {{"cat", AttrValue{std::int64_t{2}}}}).ok());
  }
  std::vector<Neighbor> got, want;
  ASSERT_TRUE(c->Hybrid(q, pred, 10, &got, nullptr, &pruned).ok());
  const HybridPlan brute{PlanKind::kBruteForceHybrid, 3.0f};
  ASSERT_TRUE(c->Hybrid(q, pred, 10, &want, nullptr, &brute).ok());
  for (const Neighbor& nb : got) EXPECT_FALSE(deleted.contains(nb.id));
  EXPECT_EQ(Pairs(got), Pairs(want));
  for (VectorId id = 1000; id < 1005; ++id) {
    EXPECT_EQ(got[id - 1000].id, id);
  }
  // Whatever plan the optimizer picks must agree.
  ASSERT_TRUE(c->Hybrid(q, pred, 10, &got).ok());
  EXPECT_EQ(Pairs(got), Pairs(want));
}

}  // namespace
}  // namespace vdb
