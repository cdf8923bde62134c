// Unit and property tests for the core substrate: Status/Result, Bitset,
// scorers (metric axioms), TopK, k-means, linalg, synthetic generators,
// recall measurement, aggregate scores, and metric learning.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/distance.h"
#include "core/eval.h"
#include "core/kmeans.h"
#include "core/linalg.h"
#include "core/metric_learning.h"
#include "core/rng.h"
#include "core/row_ids.h"
#include "core/simd.h"
#include "core/status.h"
#include "core/synthetic.h"
#include "core/topk.h"
#include "core/types.h"
#include "per_pair_reference.h"

namespace vdb {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad dim");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  Result<int> bad(Status::NotFound("x"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Bitset

TEST(BitsetTest, SetTestClearCount) {
  Bitset b(130);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, NotRespectsSize) {
  Bitset b(70);
  b.Not();
  EXPECT_EQ(b.Count(), 70u);  // no phantom bits beyond size
}

TEST(BitsetTest, AndOr) {
  Bitset a(10), b(10);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  Bitset c = a;
  c.And(b);
  EXPECT_EQ(c.Count(), 1u);
  EXPECT_TRUE(c.Test(2));
  Bitset d = a;
  d.Or(b);
  EXPECT_EQ(d.Count(), 3u);
}

TEST(BitsetTest, AllInitializedTrue) {
  Bitset b(65, true);
  EXPECT_EQ(b.Count(), 65u);
}

// Growth across a word boundary keeps the old bits and adds clear ones,
// including the tail of the old last word; shrinking drops bits for good.
TEST(BitsetTest, ResizeAcrossWordBoundary) {
  Bitset b(3, true);
  b.Resize(70);
  EXPECT_EQ(b.size(), 70u);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_EQ(b.Test(i), i < 3) << i;
  EXPECT_EQ(b.Count(), 3u);
  b.Set(69);
  b.Resize(65);
  b.Resize(130);
  EXPECT_FALSE(b.Test(69));
  EXPECT_EQ(b.Count(), 3u);
}

// ---------------------------------------------------------------- Scorer

TEST(RowIdsTest, AppendRemoveAndReAdd) {
  RowIds rows;
  ASSERT_EQ(*rows.Append(7), 0u);
  ASSERT_EQ(*rows.Append(9), 1u);
  EXPECT_EQ(rows.Append(7).status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_EQ(rows.live(), 2u);

  ASSERT_TRUE(rows.Remove(7).ok());
  EXPECT_EQ(rows.Remove(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(rows.Remove(8).code(), StatusCode::kNotFound);
  EXPECT_EQ(rows.LiveRow(7), RowIds::kNoRow);
  EXPECT_EQ(rows.RowOf(7), 0u);
  EXPECT_EQ(rows.live(), 1u);

  // Re-add: a new row; the old one stays a tombstone.
  ASSERT_EQ(*rows.Append(7), 2u);
  EXPECT_TRUE(rows.IsDeleted(0));
  EXPECT_FALSE(rows.IsDeleted(2));
  EXPECT_EQ(rows.LiveRow(7), 2u);
  EXPECT_EQ(rows.label(0), 7u);
  EXPECT_EQ(rows.label(2), 7u);
  EXPECT_EQ(rows.live(), 2u);
  EXPECT_EQ(rows.DeletedRows(), (std::vector<std::uint32_t>{0}));
}

TEST(RowIdsTest, ResetAndDeleteRowByRow) {
  RowIds rows;
  const std::vector<VectorId> labels = {5, 6, 5};  // 5 removed, re-added
  rows.Reset(labels.size(), labels);
  EXPECT_EQ(rows.RowOf(5), 2u);  // the later row wins
  ASSERT_TRUE(rows.DeleteRow(0).ok());
  EXPECT_EQ(rows.DeleteRow(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(rows.live(), 2u);
  EXPECT_EQ(rows.LiveRow(5), 2u);
  EXPECT_EQ(rows.labels(), labels);

  rows.Reset(3, {});  // no labels: rows label themselves
  EXPECT_EQ(rows.label(2), 2u);
  EXPECT_EQ(rows.live(), 3u);
  EXPECT_TRUE(rows.DeletedRows().empty());
}

TEST(RowIdsTest, AdmissibleCountsFilterProbes) {
  struct EvenIds final : IdFilter {
    bool Matches(VectorId id) const override { return id % 2 == 0; }
  } even;
  RowIds rows;
  rows.Reset(4, {});
  ASSERT_TRUE(rows.DeleteRow(2).ok());
  SearchStats stats;
  EXPECT_TRUE(rows.Admissible(0, nullptr, &stats));
  EXPECT_EQ(stats.filter_checks, 0u);
  EXPECT_TRUE(rows.Admissible(0, &even, &stats));
  EXPECT_FALSE(rows.Admissible(1, &even, &stats));
  EXPECT_FALSE(rows.Admissible(2, &even, &stats));  // tombstone: no probe
  EXPECT_EQ(stats.filter_checks, 2u);
}

TEST(ScorerTest, L2MatchesManual) {
  auto scorer = Scorer::Create(MetricSpec::L2(), 3).value();
  float a[] = {1, 2, 3}, b[] = {4, 6, 3};
  EXPECT_FLOAT_EQ(scorer.Distance(a, b), 9 + 16 + 0);
}

TEST(ScorerTest, InnerProductIsNegatedSimilarity) {
  auto scorer = Scorer::Create(MetricSpec::InnerProduct(), 2).value();
  float a[] = {1, 2}, b[] = {3, 4};
  EXPECT_FLOAT_EQ(scorer.Distance(a, b), -11.0f);
  EXPECT_FLOAT_EQ(scorer.ToUserScore(scorer.Distance(a, b)), 11.0f);
}

TEST(ScorerTest, CosineOfParallelVectorsIsZero) {
  auto scorer = Scorer::Create(MetricSpec::Cosine(), 3).value();
  float a[] = {1, 2, 3}, b[] = {2, 4, 6};
  EXPECT_NEAR(scorer.Distance(a, b), 0.0f, 1e-6);
  float c[] = {-1, -2, -3};
  EXPECT_NEAR(scorer.Distance(a, c), 2.0f, 1e-6);
}

TEST(ScorerTest, CosineZeroVectorIsSafe) {
  auto scorer = Scorer::Create(MetricSpec::Cosine(), 3).value();
  float a[] = {0, 0, 0}, b[] = {1, 0, 0};
  EXPECT_FLOAT_EQ(scorer.Distance(a, b), 1.0f);
}

TEST(ScorerTest, HammingCountsBinarizedDiffs) {
  auto scorer = Scorer::Create(MetricSpec::Hamming(), 4).value();
  float a[] = {0.9f, 0.1f, 0.6f, 0.0f}, b[] = {0.8f, 0.7f, 0.2f, 0.1f};
  EXPECT_FLOAT_EQ(scorer.Distance(a, b), 2.0f);
}

TEST(ScorerTest, MinkowskiP1IsManhattan) {
  auto scorer = Scorer::Create(MetricSpec::Minkowski(1.0f), 3).value();
  float a[] = {0, 0, 0}, b[] = {1, -2, 3};
  EXPECT_NEAR(scorer.Distance(a, b), 6.0f, 1e-5);
}

TEST(ScorerTest, MinkowskiP2IsEuclidean) {
  auto scorer = Scorer::Create(MetricSpec::Minkowski(2.0f), 2).value();
  float a[] = {0, 0}, b[] = {3, 4};
  EXPECT_NEAR(scorer.Distance(a, b), 5.0f, 1e-5);
}

TEST(ScorerTest, MahalanobisIdentityEqualsEuclidean) {
  auto scorer = Scorer::Create(MetricSpec::Mahalanobis({}), 2).value();
  float a[] = {0, 0}, b[] = {3, 4};
  EXPECT_NEAR(scorer.Distance(a, b), 5.0f, 1e-5);
}

TEST(ScorerTest, MahalanobisScalesAxes) {
  // L = diag(2, 1): distances along axis 0 are doubled.
  std::vector<float> l = {2, 0, 0, 1};
  auto scorer = Scorer::Create(MetricSpec::Mahalanobis(l), 2).value();
  float a[] = {0, 0}, x[] = {1, 0}, y[] = {0, 1};
  EXPECT_NEAR(scorer.Distance(a, x), 2.0f, 1e-5);
  EXPECT_NEAR(scorer.Distance(a, y), 1.0f, 1e-5);
}

TEST(ScorerTest, RejectsBadSpecs) {
  EXPECT_FALSE(Scorer::Create(MetricSpec::L2(), 0).ok());
  EXPECT_FALSE(Scorer::Create(MetricSpec::Minkowski(0.0f), 3).ok());
  EXPECT_FALSE(Scorer::Create(MetricSpec::Mahalanobis({1, 2, 3}), 2).ok());
}

// Property test: metric axioms hold for true metrics on random vectors.
class MetricAxiomsTest : public ::testing::TestWithParam<MetricSpec> {};

TEST_P(MetricAxiomsTest, SymmetryIdentityTriangle) {
  const std::size_t dim = 8;
  auto scorer = Scorer::Create(GetParam(), dim).value();
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> a(dim), b(dim), c(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      a[j] = rng.NextGaussian();
      b[j] = rng.NextGaussian();
      c[j] = rng.NextGaussian();
    }
    float dab = scorer.Distance(a.data(), b.data());
    float dba = scorer.Distance(b.data(), a.data());
    float daa = scorer.Distance(a.data(), a.data());
    EXPECT_NEAR(dab, dba, 1e-4 * (1.0 + std::fabs(dab)));
    EXPECT_NEAR(daa, 0.0f, 1e-4);
    EXPECT_GE(dab, 0.0f);
    if (scorer.IsTrueMetric() && scorer.metric() != Metric::kL2) {
      float dac = scorer.Distance(a.data(), c.data());
      float dcb = scorer.Distance(c.data(), b.data());
      EXPECT_LE(dab, dac + dcb + 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Metrics, MetricAxiomsTest,
    ::testing::Values(MetricSpec::L2(), MetricSpec::Cosine(),
                      MetricSpec::Hamming(), MetricSpec::Minkowski(1.0f),
                      MetricSpec::Minkowski(2.0f), MetricSpec::Minkowski(3.0f),
                      MetricSpec::Mahalanobis({})));

// ---------------------------------------------------------------- SIMD

TEST(SimdTest, Avx2MatchesScalar) {
  Rng rng(3);
  for (std::size_t dim : {1u, 7u, 8u, 15u, 64u, 100u, 257u}) {
    std::vector<float> a(dim), b(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      a[j] = rng.NextGaussian();
      b[j] = rng.NextGaussian();
    }
    float tol = 1e-3f * static_cast<float>(dim);
    EXPECT_NEAR(simd::L2SqAvx2(a.data(), b.data(), dim),
                simd::L2SqScalar(a.data(), b.data(), dim), tol);
    EXPECT_NEAR(simd::InnerProductAvx2(a.data(), b.data(), dim),
                simd::InnerProductScalar(a.data(), b.data(), dim), tol);
    EXPECT_NEAR(simd::NormSqAvx2(a.data(), dim),
                simd::NormSqScalar(a.data(), dim), tol);
  }
}

TEST(SimdTest, QuickAdcBlockMatchesScalar) {
  Rng rng(9);
  for (std::size_t m : {1u, 2u, 8u, 16u, 33u, 64u}) {
    std::vector<unsigned char> luts(m * 16), codes(m * 32);
    for (auto& b : luts) b = static_cast<unsigned char>(rng.Next(256));
    for (auto& b : codes) b = static_cast<unsigned char>(rng.Next(16));
    unsigned short scalar[32], avx[32], dispatched[32];
    simd::QuickAdcBlockScalar(luts.data(), codes.data(), m, scalar);
    simd::QuickAdcBlockAvx2(luts.data(), codes.data(), m, avx);
    simd::QuickAdcBlock(luts.data(), codes.data(), m, dispatched);
    for (int v = 0; v < 32; ++v) {
      EXPECT_EQ(scalar[v], avx[v]) << "m=" << m << " lane " << v;
      EXPECT_EQ(scalar[v], dispatched[v]);
    }
  }
}

TEST(SimdTest, QuickAdcBlockWorstCaseNoOverflow) {
  // m=128 with all-255 LUT entries: sums reach 128*255 = 32640 < 65536.
  const std::size_t m = 128;
  std::vector<unsigned char> luts(m * 16, 255), codes(m * 32, 7);
  unsigned short scalar[32], avx[32];
  simd::QuickAdcBlockScalar(luts.data(), codes.data(), m, scalar);
  simd::QuickAdcBlockAvx2(luts.data(), codes.data(), m, avx);
  for (int v = 0; v < 32; ++v) {
    EXPECT_EQ(scalar[v], 128 * 255);
    EXPECT_EQ(avx[v], 128 * 255);
  }
}

TEST(SimdTest, AdcLookupMatchesScalar) {
  Rng rng(4);
  const std::size_t m = 16, ksub = 256;
  std::vector<float> tables(m * ksub);
  std::vector<unsigned char> codes(m);
  for (auto& t : tables) t = rng.NextGaussian();
  for (auto& c : codes) c = static_cast<unsigned char>(rng.Next(256));
  EXPECT_NEAR(simd::AdcLookup(tables.data(), codes.data(), m, ksub),
              simd::AdcLookupScalar(tables.data(), codes.data(), m, ksub),
              1e-4);
}

// ---------------------------------------------------------------- TopK

TEST(TopKTest, KeepsSmallestK) {
  TopK top(3);
  for (int i = 10; i >= 1; --i)
    top.Push(static_cast<VectorId>(i), static_cast<float>(i));
  auto out = top.Take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].id, 2u);
  EXPECT_EQ(out[2].id, 3u);
}

TEST(TopKTest, WorstDistGatesPushes) {
  TopK top(2);
  EXPECT_EQ(top.WorstDist(), std::numeric_limits<float>::infinity());
  top.Push(1, 1.0f);
  top.Push(2, 2.0f);
  EXPECT_FLOAT_EQ(top.WorstDist(), 2.0f);
  EXPECT_FALSE(top.Push(3, 3.0f));
  EXPECT_TRUE(top.Push(4, 0.5f));
  EXPECT_FLOAT_EQ(top.WorstDist(), 1.0f);
}

// Property: TopK == sorted prefix of all scores (similarity projection).
TEST(TopKTest, EqualsSortedPrefixProperty) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n = 1 + rng.Next(500);
    std::size_t k = 1 + rng.Next(20);
    std::vector<Neighbor> all(n);
    TopK top(k);
    for (std::size_t i = 0; i < n; ++i) {
      all[i] = {static_cast<VectorId>(i), rng.NextGaussian()};
      top.Push(all[i].id, all[i].dist);
    }
    std::sort(all.begin(), all.end());
    auto got = top.Take();
    ASSERT_EQ(got.size(), std::min(k, n));
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], all[i]);
  }
}

TEST(TopKTest, MergeTopKEqualsGlobal) {
  Rng rng(13);
  std::vector<std::vector<Neighbor>> parts(4);
  std::vector<Neighbor> all;
  for (std::size_t p = 0; p < 4; ++p) {
    TopK local(5);
    for (int i = 0; i < 100; ++i) {
      Neighbor n{static_cast<VectorId>(p * 1000 + i), rng.NextGaussian()};
      all.push_back(n);
      local.Push(n.id, n.dist);
    }
    parts[p] = local.Take();
  }
  std::sort(all.begin(), all.end());
  auto merged = MergeTopK(parts, 5);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(merged[i], all[i]);
}

// ---------------------------------------------------------------- KMeans

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  // Three tight clusters far apart: inertia should be tiny and each cluster
  // internally consistent.
  Rng rng(5);
  FloatMatrix data(300, 2);
  for (std::size_t i = 0; i < 300; ++i) {
    float cx = static_cast<float>(i % 3) * 100.0f;
    data.at(i, 0) = cx + 0.01f * rng.NextGaussian();
    data.at(i, 1) = 0.01f * rng.NextGaussian();
  }
  KMeansOptions opts;
  opts.k = 3;
  auto result = KMeans(data, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->inertia, 1.0);
  // Points with the same i%3 must share an assignment.
  for (std::size_t i = 3; i < 300; ++i) {
    EXPECT_EQ(result->assignments[i], result->assignments[i % 3]);
  }
}

TEST(KMeansTest, RejectsEmptyAndZeroK) {
  FloatMatrix empty;
  EXPECT_FALSE(KMeans(empty, {}).ok());
  FloatMatrix one(1, 2);
  KMeansOptions opts;
  opts.k = 0;
  EXPECT_FALSE(KMeans(one, opts).ok());
}

TEST(KMeansTest, KLargerThanNClamps) {
  FloatMatrix data(3, 2);
  for (int i = 0; i < 3; ++i) data.at(i, 0) = static_cast<float>(i);
  KMeansOptions opts;
  opts.k = 10;
  auto result = KMeans(data, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.rows(), 3u);
}

TEST(KMeansTest, NearestCentroidsAscending) {
  FloatMatrix centroids(4, 1);
  for (int c = 0; c < 4; ++c) centroids.at(c, 0) = static_cast<float>(c);
  float x = 2.2f;
  auto order = NearestCentroids(centroids, &x, 4);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 1u);
  EXPECT_EQ(order[3], 0u);
}

// Batched k-means must reproduce the per-pair loops it replaced byte for
// byte: d=4 with k=256 is a PQ subspace (the column-major short-row
// path), d=32 with k=64 at n=5000 is the serving benchmark's IVF shape
// (the row-major path on both SIMD tiers).
void ExpectKMeansMatchesPerPair(std::size_t n, std::size_t dim,
                                std::size_t k, int iters) {
  SyntheticOptions so;
  so.n = n;
  so.dim = dim;
  so.num_clusters = 32;
  so.seed = 77;
  FloatMatrix data = GaussianClusters(so);
  KMeansOptions opts;
  opts.k = k;
  opts.max_iters = iters;
  opts.seed = 9;
  auto got = KMeans(data, opts);
  ASSERT_TRUE(got.ok());
  KMeansResult want = per_pair::KMeans(data, opts);
  ASSERT_EQ(got->centroids.ByteSize(), want.centroids.ByteSize());
  EXPECT_EQ(std::memcmp(got->centroids.data(), want.centroids.data(),
                        want.centroids.ByteSize()),
            0);
  EXPECT_EQ(got->assignments, want.assignments);
  EXPECT_EQ(std::memcmp(&got->inertia, &want.inertia, sizeof(double)), 0);
  EXPECT_EQ(got->iters_run, want.iters_run);
}

TEST(KMeansTest, PqSubspaceShapeMatchesPerPairLoops) {
  ExpectKMeansMatchesPerPair(2000, 4, 256, 10);
}

TEST(KMeansTest, IvfShapeMatchesPerPairLoops) {
  ExpectKMeansMatchesPerPair(5000, 32, 64, 15);
}

// NearestCentroid(s) over more than one 256-centroid chunk, with exact
// duplicate centroids: ties go to the lowest index, and the TopK order
// equals pushing every centroid in index order.
TEST(KMeansTest, NearestCentroidsMatchPerPairLoopsOnTies) {
  Rng rng(21);
  for (std::size_t dim : {std::size_t{3}, std::size_t{16}, std::size_t{33}}) {
    FloatMatrix cents(600, dim);
    for (std::size_t c = 0; c < 600; ++c) {
      for (std::size_t j = 0; j < dim; ++j) {
        // Coarse values and repeated rows make equal distances common.
        cents.at(c, j) = static_cast<float>(c % 7 == 0 ? (c / 300) % 2
                                                       : rng.Next(4));
      }
    }
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<float> x(dim);
      for (float& v : x) v = static_cast<float>(rng.Next(4));
      double best = std::numeric_limits<double>::max();
      std::uint32_t arg = 0;
      TopK top(10);
      for (std::size_t c = 0; c < cents.rows(); ++c) {
        float dist = simd::L2Sq(x.data(), cents.row(c), dim);
        if (dist < best) {
          best = dist;
          arg = static_cast<std::uint32_t>(c);
        }
        top.Push(static_cast<VectorId>(c), dist);
      }
      EXPECT_EQ(NearestCentroid(cents, x.data()), arg);
      std::vector<std::uint32_t> want;
      for (const auto& nb : top.Take()) {
        want.push_back(static_cast<std::uint32_t>(nb.id));
      }
      EXPECT_EQ(NearestCentroids(cents, x.data(), 10), want);
    }
  }
}

// ---------------------------------------------------------------- Linalg

TEST(LinalgTest, MatMulTranspose) {
  FloatMatrix a(2, 3);
  float vals[] = {1, 2, 3, 4, 5, 6};
  std::copy_n(vals, 6, a.data());
  FloatMatrix at = linalg::Transpose(a);
  FloatMatrix prod = linalg::MatMul(a, at);  // 2x2 gram
  EXPECT_FLOAT_EQ(prod.at(0, 0), 14.0f);
  EXPECT_FLOAT_EQ(prod.at(0, 1), 32.0f);
  EXPECT_FLOAT_EQ(prod.at(1, 0), 32.0f);
  EXPECT_FLOAT_EQ(prod.at(1, 1), 77.0f);
}

TEST(LinalgTest, JacobiRecoversDiagonalEigenvalues) {
  FloatMatrix a(3, 3);
  a.at(0, 0) = 3.0f;
  a.at(1, 1) = 1.0f;
  a.at(2, 2) = 2.0f;
  std::vector<float> evals;
  FloatMatrix evecs;
  ASSERT_TRUE(linalg::JacobiEigenSymmetric(a, &evals, &evecs));
  EXPECT_NEAR(evals[0], 3.0f, 1e-5);
  EXPECT_NEAR(evals[1], 2.0f, 1e-5);
  EXPECT_NEAR(evals[2], 1.0f, 1e-5);
}

TEST(LinalgTest, JacobiEigenvectorsReconstruct) {
  // A = Q^T D Q for random symmetric A: check A v = lambda v.
  Rng rng(9);
  const std::size_t d = 6;
  FloatMatrix a(d, d);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = i; j < d; ++j) {
      float v = rng.NextGaussian();
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  std::vector<float> evals;
  FloatMatrix evecs;
  ASSERT_TRUE(linalg::JacobiEigenSymmetric(a, &evals, &evecs));
  for (std::size_t r = 0; r < d; ++r) {
    std::vector<float> av(d);
    linalg::MatVec(a, evecs.row(r), av.data());
    for (std::size_t j = 0; j < d; ++j) {
      EXPECT_NEAR(av[j], evals[r] * evecs.at(r, j), 1e-3);
    }
  }
}

TEST(LinalgTest, PcaFindsDominantAxis) {
  // Data stretched along (1,1)/sqrt(2): first component aligns with it.
  Rng rng(21);
  FloatMatrix data(500, 2);
  for (std::size_t i = 0; i < 500; ++i) {
    float t = rng.NextGaussian() * 10.0f;
    float s = rng.NextGaussian() * 0.1f;
    data.at(i, 0) = t + s;
    data.at(i, 1) = t - s;
  }
  auto pca = linalg::Pca(data, 1);
  ASSERT_EQ(pca.components.rows(), 1u);
  float c0 = pca.components.at(0, 0), c1 = pca.components.at(0, 1);
  EXPECT_NEAR(std::fabs(c0), std::sqrt(0.5f), 0.05f);
  EXPECT_NEAR(std::fabs(c1), std::sqrt(0.5f), 0.05f);
  EXPECT_GT(c0 * c1, 0.0f);  // same sign: aligned with (1,1)
}

TEST(LinalgTest, RandomOrthonormalIsOrthonormal) {
  Rng rng(33);
  FloatMatrix q = linalg::RandomOrthonormal(8, &rng);
  FloatMatrix gram = linalg::MatMul(q, linalg::Transpose(q));
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_NEAR(gram.at(i, j), i == j ? 1.0f : 0.0f, 1e-4);
}

// ------------------------------------------------------------- Synthetic

TEST(SyntheticTest, ShapesAndRanges) {
  SyntheticOptions opts;
  opts.n = 100;
  opts.dim = 5;
  FloatMatrix cube = UniformCube(opts);
  EXPECT_EQ(cube.rows(), 100u);
  EXPECT_EQ(cube.cols(), 5u);
  for (std::size_t i = 0; i < cube.rows(); ++i)
    for (std::size_t j = 0; j < 5u; ++j) {
      EXPECT_GE(cube.at(i, j), 0.0f);
      EXPECT_LT(cube.at(i, j), 1.0f);
    }
  FloatMatrix sphere = UnitSphere(opts);
  for (std::size_t i = 0; i < sphere.rows(); ++i) {
    EXPECT_NEAR(simd::NormSq(sphere.row(i), 5), 1.0f, 1e-4);
  }
}

TEST(SyntheticTest, SeedsAreReproducibleAndDistinct) {
  SyntheticOptions a, b;
  a.n = b.n = 10;
  a.dim = b.dim = 4;
  a.seed = 1;
  b.seed = 2;
  FloatMatrix x1 = GaussianClusters(a);
  FloatMatrix x2 = GaussianClusters(a);
  FloatMatrix y = GaussianClusters(b);
  EXPECT_EQ(std::memcmp(x1.data(), x2.data(), x1.ByteSize()), 0);
  EXPECT_NE(std::memcmp(x1.data(), y.data(), x1.ByteSize()), 0);
}

TEST(SyntheticTest, HybridWorkloadAligned) {
  SyntheticOptions opts;
  opts.n = 50;
  opts.dim = 3;
  opts.num_clusters = 4;
  auto w = MakeHybridWorkload(opts);
  EXPECT_EQ(w.vectors.rows(), 50u);
  EXPECT_EQ(w.cluster_attr.size(), 50u);
  EXPECT_EQ(w.uniform_attr.size(), 50u);
  for (auto c : w.cluster_attr) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 4);
  }
}

// ------------------------------------------------------------------ Eval

TEST(EvalTest, GroundTruthIsExact) {
  FloatMatrix data(5, 1);
  for (int i = 0; i < 5; ++i) data.at(i, 0) = static_cast<float>(i);
  FloatMatrix queries(1, 1);
  queries.at(0, 0) = 2.1f;
  auto scorer = Scorer::Create(MetricSpec::L2(), 1).value();
  auto truth = GroundTruth(data, queries, scorer, 3);
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth[0][0].id, 2u);
  EXPECT_EQ(truth[0][1].id, 3u);
  EXPECT_EQ(truth[0][2].id, 1u);
}

TEST(EvalTest, RecallCountsOverlap) {
  std::vector<Neighbor> truth = {{1, 0}, {2, 0}, {3, 0}};
  std::vector<Neighbor> perfect = {{3, 0}, {1, 0}, {2, 0}};
  std::vector<Neighbor> partial = {{1, 0}, {9, 0}, {8, 0}};
  EXPECT_DOUBLE_EQ(RecallAt(perfect, truth, 3), 1.0);
  EXPECT_NEAR(RecallAt(partial, truth, 3), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(RecallAt({}, truth, 3), 0.0);
}

TEST(EvalTest, RelativeContrastShrinksWithDim) {
  // The curse of dimensionality: contrast at d=256 far below d=2.
  auto make = [](std::size_t dim) {
    SyntheticOptions opts;
    opts.n = 2000;
    opts.dim = dim;
    opts.seed = 77;
    return UniformCube(opts);
  };
  FloatMatrix low = make(2), high = make(256);
  FloatMatrix lowq = UniformCube({1, 2, 123, 32, 0.15f});
  FloatMatrix highq = UniformCube({1, 256, 123, 32, 0.15f});
  auto s2 = Scorer::Create(MetricSpec::L2(), 2).value();
  auto s256 = Scorer::Create(MetricSpec::L2(), 256).value();
  double c_low = RelativeContrast(low, lowq.row(0), s2);
  double c_high = RelativeContrast(high, highq.row(0), s256);
  EXPECT_GT(c_low, 5.0 * c_high);
}

// ------------------------------------------------------------- Aggregate

TEST(AggregateTest, Kinds) {
  std::vector<float> d = {1.0f, 3.0f, 2.0f};
  EXPECT_FLOAT_EQ(Aggregator::Create(AggregateKind::kMean)->Combine(d), 2.0f);
  EXPECT_FLOAT_EQ(Aggregator::Create(AggregateKind::kMin)->Combine(d), 1.0f);
  EXPECT_FLOAT_EQ(Aggregator::Create(AggregateKind::kMax)->Combine(d), 3.0f);
  auto ws = Aggregator::Create(AggregateKind::kWeightedSum, {1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(ws->Combine(d), 5.0f);
}

TEST(AggregateTest, WeightedSumRequiresWeights) {
  EXPECT_FALSE(Aggregator::Create(AggregateKind::kWeightedSum).ok());
}

// -------------------------------------------------------- Metric learning

TEST(MetricLearningTest, ShrinksNuisanceDirection) {
  // Entities vary along axis 0 (nuisance); distinct entities differ along
  // axis 1. After learning, the nuisance direction should count less.
  Rng rng(55);
  FloatMatrix data(200, 2);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t e = 0; e < 100; ++e) {
    float y = static_cast<float>(e);
    data.at(2 * e, 0) = rng.NextGaussian() * 5.0f;  // big nuisance spread
    data.at(2 * e, 1) = y;
    data.at(2 * e + 1, 0) = rng.NextGaussian() * 5.0f;
    data.at(2 * e + 1, 1) = y;
    pairs.push_back({static_cast<std::uint32_t>(2 * e),
                     static_cast<std::uint32_t>(2 * e + 1)});
  }
  auto spec = LearnMahalanobis(data, pairs);
  ASSERT_TRUE(spec.ok());
  auto learned = Scorer::Create(*spec, 2).value();
  float origin[] = {0, 0}, nuisance[] = {5, 0}, semantic[] = {0, 5};
  // Same offset magnitude: learned metric must consider the nuisance
  // direction much closer than the semantic one.
  EXPECT_LT(learned.Distance(origin, nuisance),
            0.2f * learned.Distance(origin, semantic));
}

TEST(MetricLearningTest, RejectsBadInput) {
  FloatMatrix empty;
  EXPECT_FALSE(LearnMahalanobis(empty, {{0, 1}}).ok());
  FloatMatrix data(2, 2);
  EXPECT_FALSE(LearnMahalanobis(data, {}).ok());
  EXPECT_FALSE(LearnMahalanobis(data, {{0, 9}}).ok());
}

}  // namespace
}  // namespace vdb
