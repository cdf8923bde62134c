// Tests for the query processor: predicate evaluation & selectivity
// (column-at-a-time bitmasks checked against the per-row probe; cached
// column statistics), hybrid plans (all strategies agree at generous
// knobs; post-filter deficit), plan enumeration, rule- and cost-based
// optimizers, offline partitioning, batched execution, and multi-vector
// aggregate search.

#include <unistd.h>

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rng.h"
#include "core/synthetic.h"
#include "core/topk.h"
#include "db/collection.h"
#include "db/database.h"
#include "db/query_language.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/multivector.h"
#include "exec/optimizer.h"
#include "exec/predicate.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "storage/serializer.h"

namespace vdb {
namespace {

std::int64_t I(int v) { return static_cast<std::int64_t>(v); }

// Shared hybrid fixture: clustered vectors with a correlated categorical
// column and an independent numeric column.
struct HybridFixture {
  FloatMatrix data;
  FloatMatrix queries;
  AttributeStore attrs;
  /// One sealed segment over every row: HNSW.
  Segment hnsw;
  /// The same rows under IVF-Flat.
  Segment ivf;
  /// The same rows partitioned on "cluster": one HNSW segment per value,
  /// keyed by it, in key order.
  std::vector<Segment> partitions;
  const HnswIndex* index = nullptr;  ///< hnsw.index
  Scorer scorer;
  std::vector<std::int64_t> cluster_attr;

  /// Fixture setup is fatal-on-error: a half-built fixture would fail
  /// every test with misleading symptoms.
  static void Must(const Status& st) {
    if (!st.ok()) {
      std::fprintf(stderr, "HybridFixture: %s\n", st.ToString().c_str());
      std::abort();
    }
  }

  HybridFixture() {
    SyntheticOptions opts;
    opts.n = 2000;
    opts.dim = 16;
    opts.num_clusters = 8;
    opts.seed = 13;
    auto workload = MakeHybridWorkload(opts);
    data = std::move(workload.vectors);
    cluster_attr = workload.cluster_attr;
    queries = PerturbedQueries(data, 20, 0.02f, 3);
    scorer = Scorer::Create(MetricSpec::L2(), 16).value();

    Must(attrs.AddColumn("cluster", AttrType::kInt64));
    Must(attrs.AddColumn("score", AttrType::kDouble));
    Must(attrs.AddColumn("tag", AttrType::kString));
    for (std::size_t i = 0; i < data.rows(); ++i) {
      Must(attrs.PutRow(
          i, {{"cluster", workload.cluster_attr[i]},
              {"score", workload.uniform_attr[i]},
              {"tag", std::string(i % 3 == 0 ? "hot" : "cold")}}));
    }
    HnswOptions ho;
    ho.ef_construction = 64;
    auto built_hnsw = std::make_unique<HnswIndex>(ho);
    Must(built_hnsw->Build(data, {}));
    index = built_hnsw.get();
    hnsw.index = std::move(built_hnsw);

    IvfOptions io;
    io.nlist = 32;
    ivf.index = std::make_unique<IvfFlatIndex>(io);
    Must(ivf.index->Build(data, {}));

    std::map<std::int64_t, std::vector<VectorId>> rows_of;
    for (std::size_t i = 0; i < data.rows(); ++i) {
      rows_of[workload.cluster_attr[i]].push_back(i);
    }
    for (const auto& [key, ids] : rows_of) {
      FloatMatrix rows(0, data.cols());
      for (VectorId id : ids) rows.AppendRow(data.row(id), data.cols());
      HnswOptions o;
      o.m = 8;
      o.ef_construction = 48;
      Segment& seg = partitions.emplace_back();
      seg.index = std::make_unique<HnswIndex>(o);
      seg.key = key;
      Must(seg.index->Build(std::move(rows), ids));
    }
  }

  CollectionView View() const {
    return {nullptr, &attrs, {&hnsw, 1}, &scorer, {}};
  }
  /// View over the per-cluster segments, partitioned on "cluster".
  CollectionView ViewPartitioned() const {
    return {nullptr, &attrs, partitions, &scorer, "cluster"};
  }
  /// View backed by the IVF index — the natural carrier for bitmask
  /// (block-first) filtering, where blocking skips scoring but cannot
  /// damage traversal structure.
  CollectionView ViewIvf() const {
    return {nullptr, &attrs, {&ivf, 1}, &scorer, {}};
  }
};

const HybridFixture& Fixture() {
  static const HybridFixture* fx = new HybridFixture();
  return *fx;
}

// -------------------------------------------------------------- Predicate

TEST(PredicateTest, CmpEvaluateAndMatch) {
  const auto& fx = Fixture();
  auto pred = Predicate::Cmp("cluster", CmpOp::kEq, I(3));
  auto bits = pred.Evaluate(fx.attrs);
  ASSERT_TRUE(bits.ok());
  std::size_t expected = 0;
  for (auto c : fx.cluster_attr) expected += c == 3;
  EXPECT_EQ(bits->Count(), expected);
  for (std::size_t i = 0; i < 50; ++i) {
    auto m = pred.MatchesRow(fx.attrs, i);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(*m, fx.cluster_attr[i] == 3);
  }
}

TEST(PredicateTest, BooleanCombinations) {
  const auto& fx = Fixture();
  auto a = Predicate::Cmp("cluster", CmpOp::kEq, I(1));
  auto b = Predicate::Cmp("tag", CmpOp::kEq, std::string("hot"));
  auto both = Predicate::And(a, b);
  auto either = Predicate::Or(a, b);
  auto neither = Predicate::Not(either);
  auto ba = both.Evaluate(fx.attrs);
  auto be = either.Evaluate(fx.attrs);
  auto bn = neither.Evaluate(fx.attrs);
  ASSERT_TRUE(ba.ok() && be.ok() && bn.ok());
  EXPECT_LE(ba->Count(), be->Count());
  EXPECT_EQ(bn->Count(), fx.attrs.NumRows() - be->Count());
  // Spot-check row semantics.
  for (std::size_t i = 0; i < 100; ++i) {
    bool in_a = fx.cluster_attr[i] == 1;
    bool in_b = i % 3 == 0;
    EXPECT_EQ(ba->Test(i), in_a && in_b);
    EXPECT_EQ(be->Test(i), in_a || in_b);
  }
}

TEST(PredicateTest, BetweenAndIn) {
  const auto& fx = Fixture();
  auto between = Predicate::Between("score", 0.2, 0.4);
  auto bits = between.Evaluate(fx.attrs);
  ASSERT_TRUE(bits.ok());
  for (std::size_t i = 0; i < 200; ++i) {
    double v = std::get<double>(*fx.attrs.Get(i, "score"));
    EXPECT_EQ(bits->Test(i), v >= 0.2 && v <= 0.4) << i;
  }
  auto in = Predicate::In("cluster", {AttrValue(I(0)), AttrValue(I(7))});
  auto ibits = in.Evaluate(fx.attrs);
  ASSERT_TRUE(ibits.ok());
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(ibits->Test(i),
              fx.cluster_attr[i] == 0 || fx.cluster_attr[i] == 7);
  }
}

TEST(PredicateTest, NumericPromotionInt64VsDouble) {
  const auto& fx = Fixture();
  auto pred = Predicate::Cmp("cluster", CmpOp::kLe, 3.5);
  auto bits = pred.Evaluate(fx.attrs);
  ASSERT_TRUE(bits.ok());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(bits->Test(i), fx.cluster_attr[i] <= 3);
  }
}

TEST(PredicateTest, TypeMismatchReported) {
  const auto& fx = Fixture();
  auto pred = Predicate::Cmp("tag", CmpOp::kEq, I(5));
  EXPECT_FALSE(pred.MatchesRow(fx.attrs, 0).ok());
  auto missing = Predicate::Cmp("nope", CmpOp::kEq, I(5));
  EXPECT_FALSE(missing.Evaluate(fx.attrs).ok());
}

TEST(PredicateTest, SelectivityEstimates) {
  const auto& fx = Fixture();
  // cluster = c: 8 clusters, ~1/8 each.
  auto eq = Predicate::Cmp("cluster", CmpOp::kEq, I(2));
  auto s_eq = eq.EstimateSelectivity(fx.attrs);
  ASSERT_TRUE(s_eq.ok());
  EXPECT_NEAR(*s_eq, 1.0 / 8.0, 0.02);
  // score <= 0.25 over uniform [0,1): ~0.25 via histogram.
  auto range = Predicate::Cmp("score", CmpOp::kLe, 0.25);
  auto s_range = range.EstimateSelectivity(fx.attrs);
  ASSERT_TRUE(s_range.ok());
  EXPECT_NEAR(*s_range, 0.25, 0.05);
  // BETWEEN avoids the independence penalty.
  auto between = Predicate::Between("score", 0.2, 0.7);
  auto s_btw = between.EstimateSelectivity(fx.attrs);
  ASSERT_TRUE(s_btw.ok());
  EXPECT_NEAR(*s_btw, 0.5, 0.08);
  // TRUE is 1.
  EXPECT_DOUBLE_EQ(*Predicate::True().EstimateSelectivity(fx.attrs), 1.0);
}

TEST(PredicateTest, ToStringRoundTripsShape) {
  auto pred = Predicate::And(
      Predicate::Cmp("a", CmpOp::kGe, I(3)),
      Predicate::Not(Predicate::In("b", {AttrValue(std::string("x"))})));
  EXPECT_EQ(pred.ToString(), "(a >= 3 AND NOT (b IN ('x')))");
}

// ------------------------------ column-at-a-time Evaluate vs per-row probe

// A random predicate tree kept beside its Predicate so the test can run
// the reference evaluation: each leaf row by row through MatchesRow,
// boolean nodes combined over bitsets, errors surfacing left to right.
struct RefTree {
  enum class Op { kLeaf, kAnd, kOr, kNot } op = Op::kLeaf;
  Predicate pred;
  std::vector<RefTree> kids;
};

Result<Bitset> ReferenceEvaluate(const RefTree& t, const AttributeStore& attrs) {
  if (t.op == RefTree::Op::kLeaf) {
    Bitset bits(attrs.NumRows());
    for (std::size_t r = 0; r < attrs.NumRows(); ++r) {
      VDB_ASSIGN_OR_RETURN(bool match, t.pred.MatchesRow(attrs, r));
      if (match) bits.Set(r);
    }
    return bits;
  }
  VDB_ASSIGN_OR_RETURN(Bitset a, ReferenceEvaluate(t.kids[0], attrs));
  if (t.op == RefTree::Op::kNot) {
    a.Not();
    return a;
  }
  VDB_ASSIGN_OR_RETURN(Bitset b, ReferenceEvaluate(t.kids[1], attrs));
  if (t.op == RefTree::Op::kAnd) {
    a.And(b);
  } else {
    a.Or(b);
  }
  return a;
}

constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;
const std::int64_t kInts[] = {-5, -1, 0, 1, 2, 3, 7, kTwo53, kTwo53 + 1,
                              std::numeric_limits<std::int64_t>::max()};
const double kDoubles[] = {-1.5,
                           -0.0,
                           0.0,
                           1.0,
                           2.5,
                           3.0,
                           9007199254740992.0,  // 2^53: int promotion ties
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
const char* const kStrings[] = {"", "a", "ab", "b", "B", "hot"};

template <typename T, std::size_t N>
const T& Pick(Rng& rng, const T (&pool)[N]) {
  return pool[rng.Next(N)];
}

AttrValue RandomLiteral(Rng& rng) {
  switch (rng.Next(3)) {
    case 0: return Pick(rng, kInts);
    case 1: return Pick(rng, kDoubles);
    default: return std::string(Pick(rng, kStrings));
  }
}

RefTree RandomTree(Rng& rng, int depth) {
  RefTree t;
  if (depth < 3 && rng.Next(2) == 0) {
    t.op = static_cast<RefTree::Op>(1 + rng.Next(3));
    t.kids.push_back(RandomTree(rng, depth + 1));
    if (t.op == RefTree::Op::kNot) {
      t.pred = Predicate::Not(t.kids[0].pred);
      return t;
    }
    t.kids.push_back(RandomTree(rng, depth + 1));
    t.pred = t.op == RefTree::Op::kAnd
                 ? Predicate::And(t.kids[0].pred, t.kids[1].pred)
                 : Predicate::Or(t.kids[0].pred, t.kids[1].pred);
    return t;
  }
  // Mostly typed columns; now and then one that does not exist.
  const char* const columns[] = {"i", "d", "s", "i", "d", "s", "nope"};
  std::string column = Pick(rng, columns);
  switch (rng.Next(3)) {
    case 0:
      t.pred = Predicate::Cmp(column, static_cast<CmpOp>(rng.Next(6)),
                              RandomLiteral(rng));
      break;
    case 1: {
      std::vector<AttrValue> values(1 + rng.Next(3));
      for (auto& v : values) v = RandomLiteral(rng);
      t.pred = Predicate::In(column, std::move(values));
      break;
    }
    default:
      t.pred = Predicate::Between(column, RandomLiteral(rng),
                                  RandomLiteral(rng));
      break;
  }
  return t;
}

// Rows drawn from the literal pools, so equality and ties are common;
// ids past `rows_set` keep the column defaults.
void FillRandomStore(AttributeStore* attrs, std::size_t rows,
                     std::size_t rows_set, Rng& rng) {
  ASSERT_TRUE(attrs->AddColumn("i", AttrType::kInt64).ok());
  ASSERT_TRUE(attrs->AddColumn("d", AttrType::kDouble).ok());
  ASSERT_TRUE(attrs->AddColumn("s", AttrType::kString).ok());
  for (std::size_t r = 0; r < rows_set; ++r) {
    ASSERT_TRUE(attrs
                    ->PutRow(r, {{"i", Pick(rng, kInts)},
                                 {"d", Pick(rng, kDoubles)},
                                 {"s", std::string(Pick(rng, kStrings))}})
                    .ok());
  }
  if (rows > rows_set) {
    ASSERT_TRUE(attrs->PutRow(rows - 1, {}).ok());
  }
}

TEST(PredicateDifferentialTest, ColumnEvaluateMatchesPerRowProbe) {
  Rng rng(20261017);
  AttributeStore full, sparse, empty;
  FillRandomStore(&full, 300, 300, rng);
  FillRandomStore(&sparse, 200, 64, rng);
  FillRandomStore(&empty, 0, 0, rng);
  ASSERT_EQ(empty.NumRows(), 0u);
  const AttributeStore* stores[] = {&full, &sparse, &empty};

  std::size_t ok_trees = 0, error_trees = 0;
  for (int iter = 0; iter < 600; ++iter) {
    RefTree tree = RandomTree(rng, 0);
    for (const AttributeStore* attrs : stores) {
      SCOPED_TRACE(tree.pred.ToString() +
                   " rows=" + std::to_string(attrs->NumRows()));
      auto got = tree.pred.Evaluate(*attrs);
      auto want = ReferenceEvaluate(tree, *attrs);
      ASSERT_EQ(got.ok(), want.ok());
      if (!want.ok()) {
        ++error_trees;
        EXPECT_EQ(got.status().code(), want.status().code());
        EXPECT_EQ(got.status().message(), want.status().message());
        continue;
      }
      ++ok_trees;
      ASSERT_EQ(got->size(), attrs->NumRows());
      for (std::size_t r = 0; r < attrs->NumRows(); ++r) {
        ASSERT_EQ(got->Test(r), want->Test(r)) << "row " << r;
        // Without leaf errors the whole-tree probe agrees as well.
        auto probe = tree.pred.MatchesRow(*attrs, r);
        ASSERT_TRUE(probe.ok());
        ASSERT_EQ(*probe, got->Test(r)) << "row " << r;
      }
    }
  }
  // The seed exercises both outcomes, not just one.
  EXPECT_GT(ok_trees, 300u);
  EXPECT_GT(error_trees, 100u);
}

TEST(PredicateDifferentialTest, LeafErrorConditions) {
  AttributeStore attrs;
  ASSERT_TRUE(attrs.AddColumn("i", AttrType::kInt64).ok());
  ASSERT_TRUE(attrs.AddColumn("s", AttrType::kString).ok());
  const std::string hot = "hot";
  // No rows: the per-row path never compares, so nothing can fail.
  EXPECT_TRUE(Predicate::Cmp("s", CmpOp::kEq, I(1)).Evaluate(attrs).ok());
  EXPECT_TRUE(Predicate::Cmp("nope", CmpOp::kEq, I(1)).Evaluate(attrs).ok());

  ASSERT_TRUE(attrs.PutRow(0, {{"i", I(2)}, {"s", hot}}).ok());
  // A string literal against an int column fails; so does a missing column.
  auto mismatch = Predicate::Cmp("i", CmpOp::kLt, hot).Evaluate(attrs);
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  auto missing = Predicate::Cmp("nope", CmpOp::kEq, I(1)).Evaluate(attrs);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // Either BETWEEN bound of the wrong type fails.
  EXPECT_FALSE(Predicate::Between("i", I(0), hot).Evaluate(attrs).ok());
  EXPECT_FALSE(Predicate::Between("s", I(0), hot).Evaluate(attrs).ok());
  // Inside IN a literal of the wrong type just never matches.
  auto in = Predicate::In("i", {AttrValue(hot), AttrValue(2.0)}).Evaluate(attrs);
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(in->Test(0));
}

// ------------------------------------------------- cached column statistics

TEST(StatsCacheTest, EstimatesFollowPutRowAddColumnAndLoad) {
  AttributeStore attrs;
  ASSERT_TRUE(attrs.AddColumn("score", AttrType::kDouble).ok());
  for (int r = 0; r < 160; ++r) {
    ASSERT_TRUE(attrs.PutRow(r, {{"score", (r % 16) / 16.0}}).ok());
  }
  auto below_half = Predicate::Cmp("score", CmpOp::kLt, 0.5);
  EXPECT_NEAR(*below_half.EstimateSelectivity(attrs), 0.5, 0.05);
  // 160 more rows at 100: the old rows all land in bucket 0, [0, 6.25),
  // and 0.5 reads 0.5 / 6.25 of that half of the rows.
  for (int r = 160; r < 320; ++r) {
    ASSERT_TRUE(attrs.PutRow(r, {{"score", 100.0}}).ok());
  }
  EXPECT_NEAR(*below_half.EstimateSelectivity(attrs), 0.5 * 0.08, 1e-12);

  ASSERT_TRUE(attrs.AddColumn("flag", AttrType::kInt64).ok());
  auto flag = Predicate::Cmp("flag", CmpOp::kEq, I(1));
  EXPECT_DOUBLE_EQ(*flag.EstimateSelectivity(attrs), 1.0);  // all default
  ASSERT_TRUE(attrs.PutRow(0, {{"flag", I(1)}}).ok());
  EXPECT_DOUBLE_EQ(*flag.EstimateSelectivity(attrs), 0.5);  // two values

  // Load swaps in another store's rows.
  AttributeStore other;
  ASSERT_TRUE(other.AddColumn("score", AttrType::kDouble).ok());
  for (int r = 0; r < 100; ++r) {
    ASSERT_TRUE(other.PutRow(r, {{"score", r < 90 ? 0.0 : 1.0}}).ok());
  }
  const std::string path =
      ::testing::TempDir() + "/vdb_exec_stats_" + std::to_string(::getpid());
  BinaryWriter writer(0x53544154);
  other.Save(&writer);
  ASSERT_TRUE(writer.WriteTo(path).ok());
  auto reader = BinaryReader::Open(path, 0x53544154);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(attrs.Load(&*reader).ok());
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(*below_half.EstimateSelectivity(attrs),
                   *below_half.EstimateSelectivity(other));
  EXPECT_FALSE(flag.EstimateSelectivity(attrs).ok());
}

CollectionOptions StatsCollectionOptions() {
  CollectionOptions opts;
  opts.dim = 8;
  opts.attributes = {{"score", AttrType::kDouble}};
  opts.index_factory = [] {
    IvfOptions io;
    io.nlist = 8;
    return std::make_unique<IvfFlatIndex>(io);
  };
  return opts;
}

// Inserts rows [from, to) of `data` with score = `score(row)`.
template <typename ScoreFn>
void InsertScored(Collection* c, const FloatMatrix& data, std::size_t from,
                  std::size_t to, ScoreFn score) {
  for (std::size_t i = from; i < to; ++i) {
    ASSERT_TRUE(c->Insert(i, data.row_view(i), {{"score", score(i)}}).ok());
  }
}

TEST(StatsCacheTest, CostBasedPlanFlipsWhenInsertsMoveHistogram) {
  SyntheticOptions synth;
  synth.n = 2000;
  synth.dim = 8;
  synth.seed = 5;
  FloatMatrix data = GaussianClusters(synth);
  auto uniform = [](std::size_t i) { return (i % 100) / 100.0; };
  auto far = [](std::size_t) { return 50.0; };
  auto pred = Predicate::Cmp("score", CmpOp::kLe, 0.9);

  auto cached = Collection::Create(StatsCollectionOptions()).value();
  InsertScored(cached.get(), data, 0, 1000, uniform);
  ASSERT_TRUE(cached->BuildIndex().ok());
  HybridPlan before = cached->ExplainHybrid(pred).value();
  EXPECT_NE(before.kind, PlanKind::kBruteForceHybrid);

  // Inserts push the histogram's range out to 50: `score <= 0.9` now
  // covers a sliver of the first bucket, and brute force wins.
  InsertScored(cached.get(), data, 1000, 2000, far);
  ExecStats stats;
  std::vector<Neighbor> out;
  ASSERT_TRUE(cached->Hybrid(data.row_view(3), pred, 10, &out, &stats).ok());
  ASSERT_TRUE(stats.plan.has_value());
  EXPECT_EQ(stats.plan->kind, PlanKind::kBruteForceHybrid);
  for (const Neighbor& nb : out) EXPECT_LT(nb.id, 1000u);

  // The cache-warm collection plans exactly like one that never planned.
  auto fresh = Collection::Create(StatsCollectionOptions()).value();
  InsertScored(fresh.get(), data, 0, 1000, uniform);
  ASSERT_TRUE(fresh->BuildIndex().ok());
  InsertScored(fresh.get(), data, 1000, 2000, far);
  ExecStats fresh_stats;
  ASSERT_TRUE(
      fresh->Hybrid(data.row_view(3), pred, 10, &out, &fresh_stats).ok());
  EXPECT_EQ(fresh_stats.plan->ToString(), stats.plan->ToString());
  EXPECT_EQ(fresh_stats.est_selectivity, stats.est_selectivity);
}

TEST(StatsCacheTest, RestoredCollectionEstimatesItsOwnRows) {
  SyntheticOptions synth;
  synth.n = 400;
  synth.dim = 8;
  synth.seed = 9;
  FloatMatrix data = GaussianClusters(synth);
  const std::string base =
      ::testing::TempDir() + "/vdb_exec_restore_" + std::to_string(::getpid());
  CollectionOptions opts = StatsCollectionOptions();
  opts.wal_path = base + ".wal";
  std::remove(opts.wal_path.c_str());
  auto pred = Predicate::Cmp("score", CmpOp::kLt, 0.5);

  auto original = Collection::Create(opts).value();
  InsertScored(original.get(), data, 0, 200,
               [](std::size_t i) { return (i % 10) / 10.0; });
  ASSERT_TRUE(original->Checkpoint(base + ".ckpt").ok());
  const double at_checkpoint =
      *pred.EstimateSelectivity(original->attributes());
  // Rows logged after the checkpoint come back through WAL replay.
  InsertScored(original.get(), data, 200, 400,
               [](std::size_t) { return 9.0; });
  ASSERT_TRUE(original->SyncWal().ok());
  const double live = *pred.EstimateSelectivity(original->attributes());
  EXPECT_LT(live, at_checkpoint);

  auto restored = Collection::Restore(opts, base + ".ckpt");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->attributes().NumRows(), 400u);
  EXPECT_EQ(*pred.EstimateSelectivity((*restored)->attributes()), live);
  std::remove((base + ".ckpt").c_str());
  std::remove(opts.wal_path.c_str());
}

TEST(StatsCacheTest, ServedQueryScansEachColumnOncePerWriteEpoch) {
  SyntheticOptions synth;
  synth.n = 300;
  synth.dim = 8;
  synth.seed = 4;
  FloatMatrix data = GaussianClusters(synth);
  Database db;
  CollectionOptions opts = StatsCollectionOptions();
  opts.attributes.emplace_back("cat", AttrType::kInt64);
  Collection* c = db.CreateCollection("items", opts).value();
  for (std::size_t i = 0; i < data.rows(); ++i) {
    ASSERT_TRUE(c->Insert(i, data.row_view(i),
                          {{"score", (i % 10) / 10.0},
                           {"cat", static_cast<std::int64_t>(i % 3)}})
                    .ok());
  }
  ASSERT_TRUE(c->BuildIndex().ok());
  std::string vec = "[";
  for (std::size_t j = 0; j < data.cols(); ++j) {
    vec += (j ? ", " : "") + std::to_string(data.at(7, j));
  }
  vec += "]";
  const std::string sql =
      "EXPLAIN ANALYZE SELECT knn(5) FROM items WHERE score BETWEEN 0.2 AND "
      "0.6 AND cat IN (0, 1) ORDER BY distance(" + vec + ")";

  const Predicate pred = ParseQuery(sql)->predicate;
  SearchParams params;
  params.k = 5;

  const std::size_t start = c->attributes().StatsScans();
  for (int q = 0; q < 5; ++q) {
    auto result = ExecuteQueryTraced(&db, sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The reply names the plan that ran: what the optimizer picks now.
    EXPECT_EQ(result->plan, c->ExplainHybrid(pred, &params)->ToString());
    EXPECT_NE(result->explain.find("plan: " + result->plan),
              std::string::npos);
  }
  // Two columns, one write epoch: two scans however many queries ran.
  EXPECT_EQ(c->attributes().StatsScans(), start + 2);

  ASSERT_TRUE(c->Insert(300, data.row_view(0),
                        {{"score", 0.3}, {"cat", std::int64_t{1}}})
                  .ok());
  for (int q = 0; q < 3; ++q) ASSERT_TRUE(ExecuteQueryTraced(&db, sql).ok());
  EXPECT_EQ(c->attributes().StatsScans(), start + 4);
}

// ------------------------------------------------------- Hybrid executor

std::vector<Neighbor> OracleHybrid(const HybridFixture& fx, const float* query,
                                   const Predicate& pred, std::size_t k) {
  TopK top(k);
  for (std::size_t i = 0; i < fx.data.rows(); ++i) {
    auto m = pred.MatchesRow(fx.attrs, i);
    if (!m.ok() || !*m) continue;
    top.Push(i, fx.scorer.Distance(query, fx.data.row(i)));
  }
  return top.Take();
}

class HybridPlanTest : public ::testing::TestWithParam<PlanKind> {};

TEST_P(HybridPlanTest, MatchesOracleAtGenerousKnobs) {
  const auto& fx = Fixture();
  // Pre-filtering runs on the IVF view: bitmask blocking is safe for table
  // indexes but disconnects graph traversal (§2.3's online-blocking
  // hazard), so graph indexes pair with visit-first instead.
  const bool is_prefilter = GetParam() == PlanKind::kPreFilterIndexScan;
  const bool is_partition = GetParam() == PlanKind::kPartitionPruned;
  HybridExecutor executor(is_prefilter   ? fx.ViewIvf()
                          : is_partition ? fx.ViewPartitioned()
                                         : fx.View());
  // Predicate uncorrelated with the vector geometry (s ~ 1/3): every plan
  // should reach the oracle at generous knobs. (Geometry-correlated
  // predicates are the pre/post-filter failure mode tested separately.)
  Predicate pred =
      is_partition ? Predicate::Cmp("cluster", CmpOp::kEq, I(4))
                   : Predicate::Cmp("tag", CmpOp::kEq, std::string("hot"));
  HybridPlan plan{GetParam(), 20.0f};
  SearchParams params;
  params.k = 10;
  params.ef = 400;

  double recall_sum = 0;
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    std::vector<Neighbor> got;
    ExecStats stats;
    ASSERT_TRUE(executor
                    .Execute(plan, pred, fx.queries.row(q), params, &got,
                             &stats)
                    .ok());
    auto oracle = OracleHybrid(fx, fx.queries.row(q), pred, 10);
    // Every returned id must satisfy the predicate.
    for (const auto& nb : got) {
      if (is_partition) {
        EXPECT_EQ(fx.cluster_attr[nb.id], 4) << plan.ToString();
      } else {
        EXPECT_EQ(nb.id % 3, 0u) << plan.ToString();
      }
    }
    recall_sum += RecallAt(got, oracle, 10);
  }
  EXPECT_GE(recall_sum / fx.queries.rows(), 0.9) << plan.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Plans, HybridPlanTest,
    ::testing::Values(PlanKind::kBruteForceHybrid,
                      PlanKind::kPreFilterIndexScan,
                      PlanKind::kPostFilterIndexScan,
                      PlanKind::kVisitFirstIndexScan,
                      PlanKind::kPartitionPruned),
    [](const ::testing::TestParamInfo<PlanKind>& info) {
      switch (info.param) {
        case PlanKind::kBruteForceHybrid: return std::string("brute_force");
        case PlanKind::kPreFilterIndexScan: return std::string("pre_filter");
        case PlanKind::kPostFilterIndexScan: return std::string("post_filter");
        case PlanKind::kVisitFirstIndexScan: return std::string("visit_first");
        case PlanKind::kPartitionPruned: return std::string("partition");
      }
      return std::string("unknown");
    });

TEST(HybridExecutorTest, BruteForceIsExactOracle) {
  const auto& fx = Fixture();
  HybridExecutor executor(fx.View());
  auto pred = Predicate::Cmp("tag", CmpOp::kEq, std::string("hot"));
  SearchParams params;
  params.k = 10;
  std::vector<Neighbor> got;
  ASSERT_TRUE(executor
                  .Execute({PlanKind::kBruteForceHybrid, 3.0f}, pred,
                           fx.queries.row(0), params, &got, nullptr)
                  .ok());
  auto oracle = OracleHybrid(fx, fx.queries.row(0), pred, 10);
  ASSERT_EQ(got.size(), oracle.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, oracle[i].id);
  }
}

TEST(HybridExecutorTest, PostFilterPlanRefillsAShortPass) {
  const auto& fx = Fixture();
  HybridExecutor executor(fx.View());
  const float* query = fx.queries.row(0);
  // ~1/24 selectivity (one cluster AND hot tag).
  auto pred =
      Predicate::And(Predicate::Cmp("cluster", CmpOp::kEq, I(2)),
                     Predicate::Cmp("tag", CmpOp::kEq, std::string("hot")));
  SearchParams params;
  params.k = 10;
  params.ef = 64;

  // The post-filter operator is single-shot: one pass keeps fewer than k
  // rows, the deficit the paper warns about (§2.6(3)).
  PredicateIdFilter filter(&pred, &fx.attrs);
  SearchParams single = params;
  single.filter = &filter;
  single.filter_mode = FilterMode::kPostFilter;
  single.post_filter_amplification = 1.5f;
  std::vector<Neighbor> got;
  ASSERT_TRUE(fx.index->Search(query, single, &got).ok());
  EXPECT_LT(got.size(), 10u);

  // The plan refills the short pass: it returns min(k, matching rows), and
  // only matching rows. The second predicate matches fewer than k rows, so
  // refills run out and the exact fallback answers.
  auto few = Predicate::And(pred, Predicate::Cmp("score", CmpOp::kLe, 0.01));
  for (const Predicate* p : {&pred, &few}) {
    ExecStats stats;
    ASSERT_TRUE(executor
                    .Execute({PlanKind::kPostFilterIndexScan, 1.5f}, *p, query,
                             params, &got, &stats)
                    .ok());
    auto oracle = OracleHybrid(fx, query, *p, 10);
    EXPECT_EQ(got.size(), oracle.size());
    EXPECT_GT(stats.refills, 0u);
    for (const auto& nb : got) {
      auto m = p->MatchesRow(fx.attrs, nb.id);
      ASSERT_TRUE(m.ok());
      EXPECT_TRUE(*m) << nb.id;
    }
  }
  const std::size_t few_rows = OracleHybrid(fx, query, few, 10).size();
  EXPECT_GT(few_rows, 0u);
  EXPECT_LT(few_rows, 10u);
}

TEST(HybridExecutorTest, ExecStatsExposeOperatorCosts) {
  const auto& fx = Fixture();
  HybridExecutor executor(fx.View());
  auto pred = Predicate::Cmp("cluster", CmpOp::kEq, I(1));
  SearchParams params;
  params.k = 10;
  params.ef = 64;

  ExecStats pre;
  std::vector<Neighbor> got;
  ASSERT_TRUE(executor
                  .Execute({PlanKind::kPreFilterIndexScan, 3.0f}, pred,
                           fx.queries.row(0), params, &got, &pre)
                  .ok());
  EXPECT_EQ(pre.bitmask_rows, fx.attrs.NumRows());
  EXPECT_GT(pre.matching_rows, 0u);

  ExecStats visit;
  ASSERT_TRUE(executor
                  .Execute({PlanKind::kVisitFirstIndexScan, 3.0f}, pred,
                           fx.queries.row(0), params, &got, &visit)
                  .ok());
  EXPECT_EQ(visit.bitmask_rows, 0u);        // no bitmask built
  EXPECT_GT(visit.search.filter_checks, 0u);  // per-row probes instead
}

// The partition-pruned plan searches only the segments of the predicate's
// key, unfiltered: every hit carries the key, and a key no segment has
// yields nothing (not an error). Other plans over the same view search
// every segment and agree with brute force at generous knobs.
TEST(PartitionPrunedTest, SearchesOnlyTheKeysSegments) {
  const auto& fx = Fixture();
  EXPECT_EQ(fx.partitions.size(), 8u);
  HybridExecutor executor(fx.ViewPartitioned());
  SearchParams params;
  params.k = 5;
  params.ef = 400;
  const HybridPlan pruned{PlanKind::kPartitionPruned, 3.0f};
  std::vector<Neighbor> got, want;
  ExecStats stats;
  auto eq3 = Predicate::Cmp("cluster", CmpOp::kEq, I(3));
  ASSERT_TRUE(executor
                  .Execute(pruned, eq3, fx.queries.row(1), params, &got,
                           &stats)
                  .ok());
  ASSERT_EQ(got.size(), 5u);
  for (const auto& nb : got) EXPECT_EQ(fx.cluster_attr[nb.id], 3);
  EXPECT_EQ(stats.search.filter_checks, 0u);  // searched unfiltered
  // The work of searching key 3's segment alone.
  SearchStats alone;
  std::vector<Neighbor> direct;
  ASSERT_TRUE(fx.partitions[3]
                  .index->Search(fx.queries.row(1), params, &direct, &alone)
                  .ok());
  EXPECT_EQ(got, direct);
  EXPECT_EQ(stats.search.distance_comps, alone.distance_comps);
  ASSERT_TRUE(executor
                  .Execute({PlanKind::kBruteForceHybrid, 3.0f}, eq3,
                           fx.queries.row(1), params, &want)
                  .ok());
  EXPECT_EQ(got, want);

  auto eq999 = Predicate::Cmp("cluster", CmpOp::kEq, I(999));
  ASSERT_TRUE(
      executor.Execute(pruned, eq999, fx.queries.row(1), params, &got).ok());
  EXPECT_TRUE(got.empty());

  // Only `partition_column = <int>` can be pruned.
  auto tag = Predicate::Cmp("tag", CmpOp::kEq, std::string("hot"));
  EXPECT_EQ(executor.Execute(pruned, tag, fx.queries.row(1), params, &got)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(HybridExecutor(fx.View())
                .Execute(pruned, eq3, fx.queries.row(1), params, &got)
                .code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(executor
                  .Execute({PlanKind::kVisitFirstIndexScan, 3.0f}, eq3,
                           fx.queries.row(1), params, &got)
                  .ok());
  EXPECT_EQ(got, want);
}

// -------------------------------------------------------------- Optimizer

TEST(EnumerationTest, PlanSpaceTracksAvailability) {
  const auto& fx = Fixture();
  auto eq = Predicate::Cmp("cluster", CmpOp::kEq, I(1));
  auto plans = EnumeratePlans(fx.ViewPartitioned(), eq);
  // Every plan a graph may take, incl. partition-pruned.
  EXPECT_EQ(plans.size(), 4u);
  // No partition column, no partition-pruned plan.
  EXPECT_EQ(EnumeratePlans(fx.View(), eq).size(), 3u);

  CollectionView no_index = fx.ViewPartitioned();
  no_index.segments = {};
  EXPECT_EQ(EnumeratePlans(no_index, eq).size(), 1u);

  // Partition pruning only offered for equality on the partition column.
  auto range = Predicate::Cmp("score", CmpOp::kLe, 0.5);
  EXPECT_EQ(EnumeratePlans(fx.ViewPartitioned(), range).size(), 3u);
}

// Block-first disconnects graph traversal (§2.3): an HNSW segment gets no
// pre-filter plan, while IVF-Flat, which blocking cannot disconnect, does.
TEST(EnumerationTest, GraphSegmentsOfferNoPreFilterPlan) {
  const auto& fx = Fixture();
  auto range = Predicate::Cmp("score", CmpOp::kLe, 0.5);
  auto has_pre_filter = [&](const CollectionView& view) {
    for (const HybridPlan& plan : EnumeratePlans(view, range)) {
      if (plan.kind == PlanKind::kPreFilterIndexScan) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_pre_filter(fx.View()));
  EXPECT_TRUE(has_pre_filter(fx.ViewIvf()));
}

TEST(RuleBasedOptimizerTest, SelectivityThresholds) {
  const auto& fx = Fixture();
  RuleBasedOptimizer optimizer;
  SearchParams params;
  params.k = 10;
  // Very selective: one cluster AND narrow range -> brute force.
  auto narrow =
      Predicate::And(Predicate::Cmp("cluster", CmpOp::kEq, I(0)),
                     Predicate::Cmp("score", CmpOp::kLe, 0.05));
  auto plan = optimizer.Choose(narrow, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kBruteForceHybrid);
  // Permissive: score <= 0.9 -> post-filter.
  auto wide = Predicate::Cmp("score", CmpOp::kLe, 0.9);
  plan = optimizer.Choose(wide, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kPostFilterIndexScan);
  // Middle band -> pre-filter, or visit-first over a graph.
  auto mid = Predicate::Cmp("cluster", CmpOp::kEq, I(1));
  plan = optimizer.Choose(mid, fx.ViewIvf(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kPreFilterIndexScan);
  plan = optimizer.Choose(mid, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kVisitFirstIndexScan);
}

TEST(CostBasedOptimizerTest, CostOrderingMatchesIntuition) {
  CostBasedOptimizer optimizer;
  SearchParams params;
  params.k = 10;
  params.ef = 64;
  const std::size_t n = 100000;
  // At tiny selectivity, brute-forcing the matches is cheapest.
  HybridPlan brute{PlanKind::kBruteForceHybrid, 3.0f};
  HybridPlan visit{PlanKind::kVisitFirstIndexScan, 3.0f};
  HybridPlan post{PlanKind::kPostFilterIndexScan, 3.0f};
  EXPECT_LT(optimizer.EstimateCost(brute, 0.001, n, params),
            optimizer.EstimateCost(visit, 0.001, n, params));
  // At high selectivity, index plans beat brute force.
  EXPECT_LT(optimizer.EstimateCost(post, 0.9, n, params),
            optimizer.EstimateCost(brute, 0.9, n, params));
  // Deficit penalty: post-filter with tiny amplification at low
  // selectivity costs more than with adequate amplification.
  HybridPlan post_small{PlanKind::kPostFilterIndexScan, 1.0f};
  HybridPlan post_big{PlanKind::kPostFilterIndexScan, 20.0f};
  double cost_small = optimizer.EstimateCost(post_small, 0.05, n, params);
  double cost_big = optimizer.EstimateCost(post_big, 0.05, n, params);
  // The small-a plan misses most of k: penalized.
  EXPECT_GT(cost_small / optimizer.EstimateCost(post_small, 1.0, n, params),
            1.5);
  (void)cost_big;
}

TEST(CostBasedOptimizerTest, ChoosesReasonablePlansAcrossSelectivities) {
  const auto& fx = Fixture();
  CostBasedOptimizer optimizer;
  SearchParams params;
  params.k = 10;
  params.ef = 64;
  // Tiny selectivity -> brute force over matches.
  auto narrow =
      Predicate::And(Predicate::Cmp("cluster", CmpOp::kEq, I(0)),
                     Predicate::Cmp("score", CmpOp::kLe, 0.02));
  auto plan = optimizer.Choose(narrow, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kBruteForceHybrid);
  // Equality on the partition column -> partition pruning wins.
  auto eq = Predicate::Cmp("cluster", CmpOp::kEq, I(3));
  plan = optimizer.Choose(eq, fx.ViewPartitioned(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kPartitionPruned);
  // Permissive range -> an index plan, never brute force.
  auto wide = Predicate::Cmp("score", CmpOp::kLe, 0.95);
  plan = optimizer.Choose(wide, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->kind, PlanKind::kBruteForceHybrid);
}

// ------------------------------------------------------------------ Batch

TEST(BatchTest, IvfBucketMajorMatchesSequential) {
  const auto& fx = Fixture();
  IvfOptions o;
  o.nlist = 32;
  IvfFlatIndex ivf(o);
  ASSERT_TRUE(ivf.Build(fx.data, {}).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  std::vector<std::vector<Neighbor>> batch, seq;
  ASSERT_TRUE(ivf.BatchSearch(fx.queries, params, &batch).ok());
  ASSERT_TRUE(SequentialBatch(ivf, fx.queries, params, &seq).ok());
  ASSERT_EQ(batch.size(), seq.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    ASSERT_EQ(batch[q].size(), seq[q].size());
    for (std::size_t i = 0; i < batch[q].size(); ++i) {
      EXPECT_EQ(batch[q][i].id, seq[q][i].id);
    }
  }
}

TEST(BatchTest, SharedEntrySkipsDescentHops) {
  const auto& fx = Fixture();
  SearchParams params;
  params.k = 10;
  params.ef = 48;
  std::vector<std::vector<Neighbor>> shared, seq;
  SearchStats shared_stats, seq_stats;
  ASSERT_TRUE(SharedEntryBatch(*fx.index, fx.queries, params, &shared,
                               &shared_stats)
                  .ok());
  ASSERT_TRUE(
      SequentialBatch(*fx.index, fx.queries, params, &seq, &seq_stats).ok());
  // Same quality ballpark...
  auto scorer = Scorer::Create(MetricSpec::L2(), 16).value();
  auto truth = GroundTruth(fx.data, fx.queries, scorer, 10);
  EXPECT_GE(MeanRecall(shared, truth, 10), MeanRecall(seq, truth, 10) - 0.05);
  // ...with fewer distance computations (no hierarchy descent).
  EXPECT_LT(shared_stats.distance_comps, seq_stats.distance_comps);
}

// ------------------------------------------------------------ Multivector

TEST(MultiVectorTest, AggregateSearchFindsPlantedEntity) {
  // 100 entities x 4 vectors; entity e's vectors cluster around center_e.
  Rng rng(21);
  const std::size_t entities = 100, per_entity = 4, dim = 8;
  FloatMatrix all(entities * per_entity, dim);
  FloatMatrix centers(entities, dim);
  for (std::size_t e = 0; e < entities; ++e) {
    for (std::size_t j = 0; j < dim; ++j)
      centers.at(e, j) = rng.NextFloat(0.0f, 10.0f);
    for (std::size_t v = 0; v < per_entity; ++v) {
      for (std::size_t j = 0; j < dim; ++j) {
        all.at(e * per_entity + v, j) =
            centers.at(e, j) + 0.05f * rng.NextGaussian();
      }
    }
  }
  FlatIndex index;
  ASSERT_TRUE(index.Build(all, {}).ok());
  auto scorer = Scorer::Create(MetricSpec::L2(), dim).value();

  MultiVectorSearcher searcher(
      &index, &scorer,
      [&](VectorId vid) { return vid / per_entity; },
      [&](VectorId entity) {
        std::vector<VectorView> views;
        for (std::size_t v = 0; v < per_entity; ++v) {
          views.push_back(all.row_view(entity * per_entity + v));
        }
        return views;
      });

  // Query: two perturbed vectors of entity 42.
  FloatMatrix query(2, dim);
  for (std::size_t j = 0; j < dim; ++j) {
    query.at(0, j) = all.at(42 * per_entity + 0, j) + 0.01f;
    query.at(1, j) = all.at(42 * per_entity + 1, j) - 0.01f;
  }
  auto agg = Aggregator::Create(AggregateKind::kMean).value();
  SearchParams params;
  params.k = 10;
  std::vector<Neighbor> got;
  ASSERT_TRUE(searcher.Search(query, agg, 5, params, &got).ok());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].id, 42u);

  // Approximate search agrees with the exact oracle on top-1.
  std::vector<VectorId> all_entities(entities);
  for (std::size_t e = 0; e < entities; ++e) all_entities[e] = e;
  std::vector<Neighbor> exact;
  ASSERT_TRUE(searcher.Exact(query, agg, all_entities, 5, &exact).ok());
  EXPECT_EQ(exact[0].id, got[0].id);
  EXPECT_FLOAT_EQ(exact[0].dist, got[0].dist);
}

TEST(MultiVectorTest, AggregatorKindsChangeRanking) {
  // Entity A matches query vector 0 perfectly but vector 1 badly; entity B
  // is mediocre on both. kMin prefers A; kMax prefers B.
  const std::size_t dim = 2;
  FloatMatrix all(2, dim);
  all.at(0, 0) = 0.0f;  // entity A's single vector at origin
  all.at(1, 0) = 3.0f;  // entity B's single vector at (3, 0)
  FlatIndex index;
  ASSERT_TRUE(index.Build(all, {}).ok());
  auto scorer = Scorer::Create(MetricSpec::L2(), dim).value();
  MultiVectorSearcher searcher(
      &index, &scorer, [](VectorId vid) { return vid; },
      [&](VectorId entity) {
        return std::vector<VectorView>{all.row_view(entity)};
      });
  FloatMatrix query(2, dim);
  query.at(0, 0) = 0.0f;  // near A
  query.at(1, 0) = 6.0f;  // far from A (36), nearer B (9)
  SearchParams params;
  params.k = 2;
  auto min_agg = Aggregator::Create(AggregateKind::kMin).value();
  auto max_agg = Aggregator::Create(AggregateKind::kMax).value();
  std::vector<Neighbor> got;
  ASSERT_TRUE(searcher.Search(query, min_agg, 2, params, &got).ok());
  EXPECT_EQ(got[0].id, 0u);  // A's best pair (0) beats B's best (9)
  ASSERT_TRUE(searcher.Search(query, max_agg, 2, params, &got).ok());
  EXPECT_EQ(got[0].id, 1u);  // A's worst pair (36) loses to B's worst (9)
}

}  // namespace
}  // namespace vdb
