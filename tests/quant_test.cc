// Tests for the quantization module: SQ8, PQ (+ADC/SDC), OPQ, and the
// cross-quantizer reconstruction-error ordering property.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/linalg.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/synthetic.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "quant/sq.h"
#include "per_pair_reference.h"

namespace vdb {
namespace {

FloatMatrix ClusteredData(std::size_t n, std::size_t dim,
                          std::uint64_t seed = 42) {
  SyntheticOptions opts;
  opts.n = n;
  opts.dim = dim;
  opts.seed = seed;
  opts.num_clusters = 16;
  return GaussianClusters(opts);
}

// ------------------------------------------------------------------- SQ8

TEST(ScalarQuantizerTest, RoundTripWithinStep) {
  FloatMatrix data = ClusteredData(500, 8);
  ScalarQuantizer sq;
  ASSERT_TRUE(sq.Train(data).ok());
  EXPECT_EQ(sq.code_size(), 8u);
  std::vector<std::uint8_t> code(8);
  std::vector<float> recon(8);
  for (std::size_t i = 0; i < 50; ++i) {
    sq.Encode(data.row(i), code.data());
    sq.Decode(code.data(), recon.data());
    for (std::size_t j = 0; j < 8; ++j) {
      // Error bounded by one quantization step per dimension.
      EXPECT_LE(std::fabs(recon[j] - data.at(i, j)), 0.02f)
          << "row " << i << " dim " << j;
    }
  }
}

TEST(ScalarQuantizerTest, ConstantDimensionIsSafe) {
  FloatMatrix data(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    data.at(i, 0) = 5.0f;  // zero spread
    data.at(i, 1) = static_cast<float>(i);
  }
  ScalarQuantizer sq;
  ASSERT_TRUE(sq.Train(data).ok());
  std::uint8_t code[2];
  float recon[2];
  sq.Encode(data.row(3), code);
  sq.Decode(code, recon);
  EXPECT_FLOAT_EQ(recon[0], 5.0f);
}

TEST(ScalarQuantizerTest, EncodeClampsOutOfRange) {
  FloatMatrix data(4, 1);
  for (int i = 0; i < 4; ++i) data.at(i, 0) = static_cast<float>(i);
  ScalarQuantizer sq;
  ASSERT_TRUE(sq.Train(data).ok());
  float lo = -100.0f, hi = 100.0f;
  std::uint8_t code;
  sq.Encode(&lo, &code);
  EXPECT_EQ(code, 0);
  sq.Encode(&hi, &code);
  EXPECT_EQ(code, 255);
}

TEST(ScalarQuantizerTest, AdcMatchesDecodeThenDistance) {
  FloatMatrix data = ClusteredData(200, 16);
  ScalarQuantizer sq;
  ASSERT_TRUE(sq.Train(data).ok());
  std::vector<std::uint8_t> code(16);
  std::vector<float> recon(16);
  Rng rng(3);
  std::vector<float> query(16);
  for (auto& v : query) v = rng.NextGaussian();
  for (std::size_t i = 0; i < 20; ++i) {
    sq.Encode(data.row(i), code.data());
    sq.Decode(code.data(), recon.data());
    EXPECT_NEAR(sq.AdcL2Sq(query.data(), code.data()),
                simd::L2Sq(query.data(), recon.data(), 16), 1e-3);
  }
}

TEST(ScalarQuantizerTest, RejectsEmpty) {
  FloatMatrix empty;
  ScalarQuantizer sq;
  EXPECT_FALSE(sq.Train(empty).ok());
}

// -------------------------------------------------------------------- PQ

TEST(ProductQuantizerTest, ValidatesOptions) {
  FloatMatrix data = ClusteredData(100, 10);
  PqOptions bad_m;
  bad_m.m = 3;  // does not divide 10
  EXPECT_FALSE(ProductQuantizer(bad_m).Train(data).ok());
  PqOptions bad_bits;
  bad_bits.m = 2;
  bad_bits.nbits = 9;
  EXPECT_FALSE(ProductQuantizer(bad_bits).Train(data).ok());
}

TEST(ProductQuantizerTest, CodeSizeAndName) {
  PqOptions opts;
  opts.m = 4;
  ProductQuantizer pq(opts);
  FloatMatrix data = ClusteredData(800, 16);
  ASSERT_TRUE(pq.Train(data).ok());
  EXPECT_EQ(pq.code_size(), 4u);
  EXPECT_EQ(pq.dsub(), 4u);
  EXPECT_EQ(pq.ksub(), 256u);
  EXPECT_EQ(pq.Name(), "pq4x8");
}

TEST(ProductQuantizerTest, AdcMatchesDecodedDistance) {
  PqOptions opts;
  opts.m = 4;
  ProductQuantizer pq(opts);
  FloatMatrix data = ClusteredData(1000, 16);
  ASSERT_TRUE(pq.Train(data).ok());

  Rng rng(5);
  std::vector<float> query(16);
  for (auto& v : query) v = rng.NextFloat(0.0f, 1.0f);
  std::vector<float> tables(pq.m() * pq.ksub());
  pq.ComputeAdcTables(query.data(), tables.data());

  std::vector<std::uint8_t> code(4);
  std::vector<float> recon(16);
  for (std::size_t i = 0; i < 50; ++i) {
    pq.Encode(data.row(i), code.data());
    pq.Decode(code.data(), recon.data());
    float adc = pq.AdcDistance(tables.data(), code.data());
    float direct = simd::L2Sq(query.data(), recon.data(), 16);
    EXPECT_NEAR(adc, direct, 1e-3f * (1.0f + direct));
  }
}

TEST(ProductQuantizerTest, SdcMatchesDecodedPairDistance) {
  PqOptions opts;
  opts.m = 2;
  opts.nbits = 4;  // small codebook keeps this test fast
  ProductQuantizer pq(opts);
  FloatMatrix data = ClusteredData(500, 8);
  ASSERT_TRUE(pq.Train(data).ok());
  std::uint8_t ca[2], cb[2];
  float ra[8], rb[8];
  for (std::size_t i = 0; i + 1 < 20; i += 2) {
    pq.Encode(data.row(i), ca);
    pq.Encode(data.row(i + 1), cb);
    pq.Decode(ca, ra);
    pq.Decode(cb, rb);
    EXPECT_NEAR(pq.SdcDistance(ca, cb), simd::L2Sq(ra, rb, 8), 1e-3);
  }
}

TEST(ProductQuantizerTest, MoreSubquantizersReduceError) {
  FloatMatrix data = ClusteredData(2000, 32);
  double errs[2];
  std::size_t ms[] = {2, 8};
  for (int t = 0; t < 2; ++t) {
    PqOptions opts;
    opts.m = ms[t];
    ProductQuantizer pq(opts);
    ASSERT_TRUE(pq.Train(data).ok());
    errs[t] = pq.ReconstructionError(data);
  }
  EXPECT_LT(errs[1], errs[0]);
}

TEST(ProductQuantizerTest, TrainWithFewerPointsThanCodebook) {
  // n < ksub: codebook must still be fully populated and usable.
  PqOptions opts;
  opts.m = 2;
  ProductQuantizer pq(opts);
  FloatMatrix data = ClusteredData(50, 8);
  ASSERT_TRUE(pq.Train(data).ok());
  std::uint8_t code[2];
  float recon[8];
  pq.Encode(data.row(0), code);
  pq.Decode(code, recon);
  EXPECT_LT(simd::L2Sq(data.row(0), recon, 8), 1.0f);
}

// Batched PQ must reproduce the per-pair loops it replaced byte for byte:
// codebooks, SDC tables, codes and ADC tables. m=8 on d=32 is the
// disk-resident benchmark's shape (dsub 4, the column-major short-row
// path); m=4 on d=64 gives dsub 16, which takes the row-major path on
// the AVX-512 tier.
void ExpectPqMatchesPerPair(std::size_t n, std::size_t dim, std::size_t m) {
  FloatMatrix data = ClusteredData(n, dim, 31);
  PqOptions opts;
  opts.m = m;
  opts.train_iters = 10;
  opts.seed = 3;
  ProductQuantizer pq(opts);
  ASSERT_TRUE(pq.Train(data).ok());
  per_pair::Pq want = per_pair::TrainPq(data, m, opts.nbits,
                                        opts.train_iters, opts.seed);
  ASSERT_EQ(pq.dsub(), want.dsub);
  ASSERT_EQ(pq.ksub(), want.ksub);
  const std::size_t ksub = want.ksub;
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t c = 0; c < ksub; ++c) {
      ASSERT_EQ(std::memcmp(pq.Centroid(s, c), want.Centroid(s, c),
                            want.dsub * sizeof(float)),
                0)
          << "codebook " << s << "/" << c;
    }
  }
  // SdcDistance of two codes that differ from all-zero in subspace s
  // only is table[s][a][b] exactly (every other term is a zero diagonal).
  std::vector<std::uint8_t> ca(m, 0), cb(m, 0);
  std::size_t sdc_mismatches = 0;
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t a = 0; a < ksub; ++a) {
      for (std::size_t b = 0; b < ksub; ++b) {
        ca[s] = static_cast<std::uint8_t>(a);
        cb[s] = static_cast<std::uint8_t>(b);
        float got = pq.SdcDistance(ca.data(), cb.data());
        float exp = want.sdc[(s * ksub + a) * ksub + b];
        sdc_mismatches += std::memcmp(&got, &exp, sizeof(float)) != 0;
      }
    }
    ca[s] = cb[s] = 0;
  }
  EXPECT_EQ(sdc_mismatches, 0u);

  std::vector<std::uint8_t> got_code(m), want_code(m);
  std::vector<float> got_tab(m * ksub), want_tab(m * ksub);
  for (std::size_t i = 0; i < n; ++i) {
    pq.Encode(data.row(i), got_code.data());
    want.Encode(data.row(i), want_code.data());
    ASSERT_EQ(got_code, want_code) << "row " << i;
    if (i % 10 != 0) continue;
    pq.ComputeAdcTables(data.row(i), got_tab.data());
    want.AdcTables(data.row(i), want_tab.data());
    ASSERT_EQ(std::memcmp(got_tab.data(), want_tab.data(),
                          got_tab.size() * sizeof(float)),
              0)
        << "adc tables of row " << i;
  }
}

TEST(ProductQuantizerTest, DiskShapeMatchesPerPairLoops) {
  ExpectPqMatchesPerPair(2000, 32, 8);
}

TEST(ProductQuantizerTest, WideSubspaceMatchesPerPairLoops) {
  ExpectPqMatchesPerPair(2000, 64, 4);
}

// ------------------------------------------------------------------- OPQ

TEST(OpqTest, RoundTripReasonable) {
  OpqOptions opts;
  opts.pq.m = 4;
  opts.opq_iters = 4;
  OptimizedProductQuantizer opq(opts);
  FloatMatrix data = ClusteredData(1000, 16);
  ASSERT_TRUE(opq.Train(data).ok());
  EXPECT_EQ(opq.code_size(), 4u);
  double err = opq.ReconstructionError(data);
  // Sanity: reconstruction error well below the data's total variance.
  EXPECT_LT(err, 0.5);
}

TEST(OpqTest, BeatsPqOnRotatedAnisotropicData) {
  // Construct data whose variance is concentrated in a few directions that
  // straddle PQ subspace boundaries after a fixed rotation: OPQ's learned
  // rotation should recover most of the loss.
  Rng rng(11);
  const std::size_t n = 2000, d = 16;
  FloatMatrix base(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    // Strongly anisotropic: variance decays quickly by dimension.
    for (std::size_t j = 0; j < d; ++j) {
      float scale = 1.0f / static_cast<float>(1 + j * j);
      base.at(i, j) = rng.NextGaussian() * scale;
    }
  }
  Rng rot_rng(13);
  FloatMatrix rot = linalg::RandomOrthonormal(d, &rot_rng);
  FloatMatrix data(n, d);
  for (std::size_t i = 0; i < n; ++i)
    linalg::MatVec(rot, base.row(i), data.row(i));

  PqOptions pqo;
  pqo.m = 8;
  ProductQuantizer pq(pqo);
  ASSERT_TRUE(pq.Train(data).ok());

  OpqOptions opqo;
  opqo.pq = pqo;
  opqo.opq_iters = 10;
  OptimizedProductQuantizer opq(opqo);
  ASSERT_TRUE(opq.Train(data).ok());

  double pq_err = pq.ReconstructionError(data);
  double opq_err = opq.ReconstructionError(data);
  EXPECT_LT(opq_err, pq_err * 1.05);  // never meaningfully worse
}

TEST(OpqTest, RotateQueryPreservesNorm) {
  OpqOptions opts;
  opts.pq.m = 2;
  opts.opq_iters = 2;
  OptimizedProductQuantizer opq(opts);
  FloatMatrix data = ClusteredData(300, 8);
  ASSERT_TRUE(opq.Train(data).ok());
  Rng rng(7);
  std::vector<float> q(8), rq(8);
  for (auto& v : q) v = rng.NextGaussian();
  opq.RotateQuery(q.data(), rq.data());
  EXPECT_NEAR(simd::NormSq(q.data(), 8), simd::NormSq(rq.data(), 8), 1e-3);
}

// --------------------------------------------------- Cross-quantizer law

TEST(QuantizerOrderingTest, CompressionVsErrorTradeoff) {
  // More bytes => less error: SQ8 (d bytes) < PQ m=8 (8 bytes) is expected
  // to have *lower* error; PQ8 < PQ2. This is the storage/recall tradeoff
  // of paper §2.2(3) at the reconstruction level.
  FloatMatrix data = ClusteredData(2000, 32);

  ScalarQuantizer sq;
  ASSERT_TRUE(sq.Train(data).ok());
  double sq_err = sq.ReconstructionError(data);

  PqOptions p8;
  p8.m = 8;
  ProductQuantizer pq8(p8);
  ASSERT_TRUE(pq8.Train(data).ok());
  double pq8_err = pq8.ReconstructionError(data);

  PqOptions p2;
  p2.m = 2;
  ProductQuantizer pq2(p2);
  ASSERT_TRUE(pq2.Train(data).ok());
  double pq2_err = pq2.ReconstructionError(data);

  EXPECT_LT(sq_err, pq8_err);   // 32 bytes beats 8 bytes
  EXPECT_LT(pq8_err, pq2_err);  // 8 bytes beats 2 bytes
}

}  // namespace
}  // namespace vdb
