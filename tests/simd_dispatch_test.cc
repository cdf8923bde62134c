// Dispatch-parity suite for the tiered SIMD kernels (DESIGN.md §11).
//
// Two distinct contracts are pinned here:
//   1. Across tiers (scalar / AVX2 / AVX-512) a kernel agrees to float
//      rounding (~1e-4 relative) — different accumulation orders.
//   2. Within one tier, the batched kernels are bit-identical per row to
//      that tier's single-pair kernel (same element order), which is what
//      lets the batched beam search return byte-identical results.
// Tiers the CPU lacks are skipped (calling a target("avx512...") function
// on a CPU without the feature is undefined behaviour).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/simd.h"

namespace vdb {
namespace {

// Full-width blocks, every tail length, and sub-width dims for all three
// tiers (scalar, 8-wide AVX2, 16-wide AVX-512).
const std::size_t kDims[] = {1,  3,  7,  8,  9,   15,  16,  17,  24, 31,
                             32, 33, 47, 48, 64, 100, 127, 128, 161};

std::vector<float> RandomVec(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.NextFloat(-1.0f, 1.0f);
  return v;
}

// Cross-tier tolerance: relative 1e-4 with a small absolute floor for
// near-zero inner products.
void ExpectNearRel(float a, float b) {
  float tol = 1e-4f * std::max(1.0f, std::max(std::fabs(a), std::fabs(b)));
  EXPECT_NEAR(a, b, tol);
}

TEST(SimdDispatchTest, TierNamesAndActiveTierAreConsistent) {
  simd::DispatchTier tier = simd::ActiveTier();
  if (simd::HasAvx512()) {
    EXPECT_EQ(tier, simd::DispatchTier::kAvx512);
  } else if (simd::HasAvx2()) {
    EXPECT_EQ(tier, simd::DispatchTier::kAvx2);
  } else {
    EXPECT_EQ(tier, simd::DispatchTier::kScalar);
  }
  EXPECT_STREQ(simd::TierName(simd::DispatchTier::kScalar), "scalar");
}

TEST(SimdDispatchTest, SinglePairCrossTierParity) {
  Rng rng(7);
  for (std::size_t dim : kDims) {
    auto a = RandomVec(rng, dim);
    auto b = RandomVec(rng, dim);
    float l2 = simd::L2SqScalar(a.data(), b.data(), dim);
    float ip = simd::InnerProductScalar(a.data(), b.data(), dim);
    float nm = simd::NormSqScalar(a.data(), dim);
    if (simd::HasAvx2()) {
      ExpectNearRel(l2, simd::L2SqAvx2(a.data(), b.data(), dim));
      ExpectNearRel(ip, simd::InnerProductAvx2(a.data(), b.data(), dim));
      ExpectNearRel(nm, simd::NormSqAvx2(a.data(), dim));
    }
    if (simd::HasAvx512()) {
      ExpectNearRel(l2, simd::L2SqAvx512(a.data(), b.data(), dim));
      ExpectNearRel(ip, simd::InnerProductAvx512(a.data(), b.data(), dim));
      ExpectNearRel(nm, simd::NormSqAvx512(a.data(), dim));
    }
    // Dispatched entry points agree with the scalar reference too.
    ExpectNearRel(l2, simd::L2Sq(a.data(), b.data(), dim));
    ExpectNearRel(ip, simd::InnerProduct(a.data(), b.data(), dim));
    ExpectNearRel(nm, simd::NormSq(a.data(), dim));
  }
  if (!simd::HasAvx2()) {
    GTEST_LOG_(INFO) << "AVX2 tier not exercised on this CPU";
  }
  if (!simd::HasAvx512()) {
    GTEST_LOG_(INFO) << "AVX-512 tier not exercised on this CPU";
  }
}

// Within a tier, Batch[i] must equal Single(row_i) bit for bit — batch
// sizes straddle the 4-row block (remainder rows 1..3) and ids repeat.
TEST(SimdDispatchTest, BatchGatherBitIdenticalToSinglePerTier) {
  Rng rng(11);
  const std::size_t kRows = 23;
  for (std::size_t dim : kDims) {
    auto q = RandomVec(rng, dim);
    auto base = RandomVec(rng, kRows * dim);
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                          std::size_t{5}, std::size_t{9}, std::size_t{16}}) {
      std::vector<std::uint32_t> ids(n);
      for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<std::uint32_t>(rng.Next(kRows));
      }
      ids[n / 2] = ids[0];  // duplicates must be scored independently
      std::vector<float> out(n);

      simd::L2SqBatchGatherScalar(q.data(), base.data(), dim, ids.data(), n,
                                  out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], simd::L2SqScalar(
                              q.data(), base.data() + ids[i] * dim, dim));
      }
      simd::InnerProductBatchGatherScalar(q.data(), base.data(), dim,
                                          ids.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], simd::InnerProductScalar(
                              q.data(), base.data() + ids[i] * dim, dim));
      }
      if (simd::HasAvx2()) {
        simd::L2SqBatchGatherAvx2(q.data(), base.data(), dim, ids.data(), n,
                                  out.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], simd::L2SqAvx2(
                                q.data(), base.data() + ids[i] * dim, dim));
        }
        simd::InnerProductBatchGatherAvx2(q.data(), base.data(), dim,
                                          ids.data(), n, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i],
                    simd::InnerProductAvx2(q.data(),
                                           base.data() + ids[i] * dim, dim));
        }
      }
      if (simd::HasAvx512()) {
        simd::L2SqBatchGatherAvx512(q.data(), base.data(), dim, ids.data(),
                                    n, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], simd::L2SqAvx512(
                                q.data(), base.data() + ids[i] * dim, dim));
        }
        simd::InnerProductBatchGatherAvx512(q.data(), base.data(), dim,
                                            ids.data(), n, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i],
                    simd::InnerProductAvx512(
                        q.data(), base.data() + ids[i] * dim, dim));
        }
      }
      // The dispatched batch matches the dispatched single-pair kernel —
      // this is the identity Distance/DistanceBatch rides on.
      simd::L2SqBatchGather(q.data(), base.data(), dim, ids.data(), n,
                            out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i],
                  simd::L2Sq(q.data(), base.data() + ids[i] * dim, dim));
      }
      simd::InnerProductBatchGather(q.data(), base.data(), dim, ids.data(),
                                    n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], simd::InnerProduct(
                              q.data(), base.data() + ids[i] * dim, dim));
      }
    }
  }
}

TEST(SimdDispatchTest, ContiguousBatchBitIdenticalToSingle) {
  Rng rng(13);
  for (std::size_t dim : kDims) {
    const std::size_t n = 7;  // one 4-row block + 3 remainder rows
    auto q = RandomVec(rng, dim);
    auto rows = RandomVec(rng, n * dim);
    std::vector<float> out(n);
    simd::L2SqBatch(q.data(), rows.data(), dim, n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], simd::L2Sq(q.data(), rows.data() + i * dim, dim));
    }
    simd::InnerProductBatch(q.data(), rows.data(), dim, n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i],
                simd::InnerProduct(q.data(), rows.data() + i * dim, dim));
    }
  }
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, 4) == 0; }

using BatchFn = void (*)(const float*, const float*, std::size_t,
                         std::size_t, float*);
using SingleFn = float (*)(const float*, const float*, std::size_t);

// Counts rows where tier `batch` differs from tier `single` in any bit.
std::size_t BatchMismatches(BatchFn batch, SingleFn single,
                            const std::vector<float>& q,
                            const std::vector<float>& rows, std::size_t dim,
                            std::size_t n) {
  std::vector<float> out(n);
  batch(q.data(), rows.data(), dim, n, out.data());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bad += !SameBits(out[i], single(q.data(), rows.data() + i * dim, dim));
  }
  return bad;
}

// The contiguous L2 batch behind every "point vs all centroids" loop:
// below the tier width it scores rows column-major, at or above it
// row-major, and in both cases each row must equal the tier's
// single-pair kernel bit for bit. n covers a lone row, one short of a
// 16-lane block, a full block, one past it, and whole codebooks.
TEST(SimdDispatchTest, ContiguousL2BatchBitIdenticalPerTier) {
  Rng rng(29);
  for (std::size_t dim = 1; dim <= 70; ++dim) {
    for (std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{16},
                          std::size_t{17}, std::size_t{256},
                          std::size_t{257}}) {
      auto q = RandomVec(rng, dim);
      auto rows = RandomVec(rng, n * dim);
      EXPECT_EQ(BatchMismatches(&simd::L2SqBatchScalar, &simd::L2SqScalar, q,
                                rows, dim, n),
                0u)
          << "scalar dim=" << dim << " n=" << n;
      if (simd::HasAvx2()) {
        EXPECT_EQ(BatchMismatches(&simd::L2SqBatchAvx2, &simd::L2SqAvx2, q,
                                  rows, dim, n),
                  0u)
            << "avx2 dim=" << dim << " n=" << n;
      }
      if (simd::HasAvx512()) {
        EXPECT_EQ(BatchMismatches(&simd::L2SqBatchAvx512, &simd::L2SqAvx512,
                                  q, rows, dim, n),
                  0u)
            << "avx512 dim=" << dim << " n=" << n;
      }
      EXPECT_EQ(BatchMismatches(&simd::L2SqBatch, &simd::L2Sq, q, rows, dim,
                                n),
                0u)
          << "dispatched dim=" << dim << " n=" << n;
    }
  }
}

// The loop ArgMin replaces, verbatim.
simd::ArgMinResult ArgMinLoop(const float* v, std::size_t n) {
  simd::ArgMinResult r;
  for (std::size_t i = 0; i < n; ++i) {
    double d = v[i];
    if (d < r.best) {
      r.best = d;
      r.arg = static_cast<std::uint32_t>(i);
    }
  }
  return r;
}

void ExpectArgMinMatchesLoop(const std::vector<float>& v) {
  simd::ArgMinResult want = ArgMinLoop(v.data(), v.size());
  auto check = [&](simd::ArgMinResult got, const char* tier) {
    EXPECT_EQ(got.arg, want.arg) << tier << " n=" << v.size();
    EXPECT_EQ(std::memcmp(&got.best, &want.best, sizeof(double)), 0)
        << tier << " n=" << v.size() << " best " << got.best << " vs "
        << want.best;
  };
  check(simd::ArgMinScalar(v.data(), v.size()), "scalar");
  if (simd::HasAvx512()) {
    check(simd::ArgMinAvx512(v.data(), v.size()), "avx512");
  }
  check(simd::ArgMin(v.data(), v.size()), "dispatched");
}

// First minimum on ties (including -0 against +0), NaN never wins,
// (0, DBL_MAX) when nothing is below +inf, and every n below, at and
// past the 16-lane block.
TEST(SimdDispatchTest, ArgMinMatchesFirstMinimumLoop) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float pool[] = {3.0f,  1.0f, 1.0f, 0.0f, -0.0f, 2.5f,
                        nan,   inf,  -inf, std::numeric_limits<float>::max()};
  Rng rng(31);
  for (std::size_t n = 0; n <= 70; ++n) {
    ExpectArgMinMatchesLoop(std::vector<float>(n, inf));
    ExpectArgMinMatchesLoop(std::vector<float>(n, nan));
    ExpectArgMinMatchesLoop(std::vector<float>(n, 1.0f));
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<float> v(n);
      // Early trials draw only from the low-cardinality pool (ties and
      // specials everywhere); later ones mix in random floats.
      for (float& x : v) {
        x = trial < 20 || rng.Next(3) == 0
                ? pool[rng.Next(std::size(pool) - (trial % 2 ? 0 : 3))]
                : rng.NextFloat(0.0f, 4.0f);
      }
      ExpectArgMinMatchesLoop(v);
    }
  }
  for (std::size_t n : {std::size_t{255}, std::size_t{256},
                        std::size_t{257}}) {
    std::vector<float> v(n, 7.0f);
    v[n - 1] = 1.0f;  // the minimum in the scalar tail or the last lane
    ExpectArgMinMatchesLoop(v);
    v[40] = 1.0f;  // an earlier tie must win
    ExpectArgMinMatchesLoop(v);
    v[33] = nan;
    v[17] = inf;
    ExpectArgMinMatchesLoop(v);
  }
}

TEST(SimdDispatchTest, AdcLookupCrossTierParity) {
  Rng rng(17);
  for (std::size_t ksub : {std::size_t{16}, std::size_t{256}}) {
    // m straddles the 16-lane gather width (the AVX-512 path engages at
    // m >= 16) and exercises its scalar tail.
    for (std::size_t m : {std::size_t{1}, std::size_t{8}, std::size_t{15},
                          std::size_t{16}, std::size_t{17}, std::size_t{33},
                          std::size_t{64}}) {
      std::vector<float> tables(m * ksub);
      for (float& t : tables) t = rng.NextFloat(0.0f, 2.0f);
      std::vector<unsigned char> codes(m);
      for (auto& c : codes) {
        c = static_cast<unsigned char>(rng.Next(ksub));
      }
      float ref = simd::AdcLookupScalar(tables.data(), codes.data(), m, ksub);
      if (simd::HasAvx512()) {
        ExpectNearRel(
            ref, simd::AdcLookupAvx512(tables.data(), codes.data(), m, ksub));
      }
      ExpectNearRel(ref,
                    simd::AdcLookup(tables.data(), codes.data(), m, ksub));
    }
  }
}

// Integer pshufb scan: all tiers must agree exactly (no rounding).
TEST(SimdDispatchTest, QuickAdcBlockExactAcrossTiers) {
  Rng rng(19);
  for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{8}, std::size_t{17}, std::size_t{128}}) {
    std::vector<unsigned char> luts(m * 16), codes(m * 32);
    for (auto& b : luts) b = static_cast<unsigned char>(rng.Next(256));
    for (auto& b : codes) b = static_cast<unsigned char>(rng.Next(16));
    std::vector<unsigned short> ref(32), got(32);
    simd::QuickAdcBlockScalar(luts.data(), codes.data(), m, ref.data());
    if (simd::HasAvx2()) {
      simd::QuickAdcBlockAvx2(luts.data(), codes.data(), m, got.data());
      EXPECT_EQ(ref, got);
    }
    if (simd::HasAvx512()) {
      simd::QuickAdcBlockAvx512(luts.data(), codes.data(), m, got.data());
      EXPECT_EQ(ref, got);
    }
    simd::QuickAdcBlock(luts.data(), codes.data(), m, got.data());
    EXPECT_EQ(ref, got);
  }
}

}  // namespace
}  // namespace vdb
