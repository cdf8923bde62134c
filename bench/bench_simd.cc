// E8 — SIMD hardware acceleration of similarity projection and ADC
// (paper §2.3(1)).
//
// Claims under test: AVX2+FMA and AVX-512 kernels accelerate L2 /
// inner-product evaluation by a large factor over honest scalar code
// across dimensions; batched one-query-vs-many kernels beat a loop of
// single-pair calls; PQ ADC table lookups beat full-precision distances
// per candidate; Quick ADC scans 32 codes per register-resident LUT.
//
// Prints one row per (kernel, tier, shape) with its ns per call. Tiers
// the CPU lacks are skipped.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/types.h"

namespace vdb {
namespace {

FloatMatrix MakeVectors(std::size_t n, std::size_t dim) {
  Rng rng(7);
  FloatMatrix m(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dim; ++j) m.at(i, j) = rng.NextGaussian();
  }
  return m;
}

// Keeps kernel results observable so the optimizer cannot elide the
// calls; the accumulated value is printed once in the footer.
double g_sink = 0.0;

/// Times `fn()` (one "call") over enough iterations to dominate clock
/// overhead and returns nanoseconds per call: a short warmup, then
/// batches until >= 5 ms of measured work.
double NsPerCall(const std::function<void()>& fn) {
  for (int i = 0; i < 200; ++i) fn();
  std::size_t iters = 0;
  double secs = 0.0;
  std::size_t batch = 1000;
  while (secs < 5e-3) {
    secs += bench::Seconds([&] {
      for (std::size_t i = 0; i < batch; ++i) fn();
    });
    iters += batch;
  }
  return secs * 1e9 / static_cast<double>(iters);
}

void Report(const std::string& kernel, const std::string& tier,
            const std::string& shape, double ns) {
  bench::Row("%-22s %-8s %-10s ns/call=%9.2f", kernel.c_str(), tier.c_str(),
             shape.c_str(), ns);
}

struct Tier {
  const char* name;
  bool available;
};

const std::vector<Tier>& Tiers() {
  static const std::vector<Tier> tiers = {
      {"scalar", true},
      {"avx2", simd::HasAvx2()},
      {"avx512", simd::HasAvx512()},
  };
  return tiers;
}

// ------------------------------------------------------------ single pair

void BenchSinglePair() {
  for (std::size_t dim : {std::size_t{16}, std::size_t{64}, std::size_t{256},
                          std::size_t{1024}}) {
    FloatMatrix m = MakeVectors(256, dim);
    std::size_t i = 0;
    auto rotate = [&] {
      const float* a = m.row(i % 255);
      const float* b = m.row(i % 255 + 1);
      ++i;
      return std::make_pair(a, b);
    };
    for (const Tier& t : Tiers()) {
      if (!t.available) continue;
      std::string tier = t.name;
      Report("l2sq", tier, "dim=" + std::to_string(dim),
             NsPerCall([&, tier] {
               auto [a, b] = rotate();
               g_sink += tier == "scalar"   ? simd::L2SqScalar(a, b, dim)
                         : tier == "avx2"   ? simd::L2SqAvx2(a, b, dim)
                                            : simd::L2SqAvx512(a, b, dim);
             }));
      if (dim == 64 || dim == 256) {
        Report("inner_product", tier, "dim=" + std::to_string(dim),
               NsPerCall([&, tier] {
                 auto [a, b] = rotate();
                 g_sink +=
                     tier == "scalar" ? simd::InnerProductScalar(a, b, dim)
                     : tier == "avx2" ? simd::InnerProductAvx2(a, b, dim)
                                      : simd::InnerProductAvx512(a, b, dim);
               }));
      }
    }
  }
}

// -------------------------------------------------------------- batched
//
// ns_per_call here is per BATCH of 16 rows — compare against 16x the
// single-pair row to see the amortization win.

void BenchBatch() {
  const std::size_t kRows = 4096, kBatch = 16;
  for (std::size_t dim : {std::size_t{64}, std::size_t{256}}) {
    FloatMatrix base = MakeVectors(kRows, dim);
    Rng rng(11);
    std::vector<std::uint32_t> ids(kRows);
    for (auto& id : ids) id = static_cast<std::uint32_t>(rng.Next(kRows));
    float out[kBatch];
    std::size_t i = 0;
    std::string shape = "dim=" + std::to_string(dim) + ",n=16";
    for (const Tier& t : Tiers()) {
      if (!t.available) continue;
      std::string tier = t.name;
      Report("l2sq_batch_gather", tier, shape, NsPerCall([&, tier] {
               const float* q = base.row(i % kRows);
               const std::uint32_t* id = ids.data() + (i * kBatch) % (kRows - kBatch);
               ++i;
               if (tier == "scalar") {
                 simd::L2SqBatchGatherScalar(q, base.data(), dim, id, kBatch,
                                             out);
               } else if (tier == "avx2") {
                 simd::L2SqBatchGatherAvx2(q, base.data(), dim, id, kBatch,
                                           out);
               } else {
                 simd::L2SqBatchGatherAvx512(q, base.data(), dim, id, kBatch,
                                             out);
               }
               g_sink += out[0] + out[kBatch - 1];
             }));
    }
    // Dispatched loop-of-singles vs the dispatched batch: the win the
    // graph hot path actually sees.
    Report("l2sq_single_loop", "dispatch", shape, NsPerCall([&] {
             const float* q = base.row(i % kRows);
             const std::uint32_t* id = ids.data() + (i * kBatch) % (kRows - kBatch);
             ++i;
             for (std::size_t r = 0; r < kBatch; ++r) {
               out[r] =
                   simd::L2Sq(q, base.data() + std::size_t{id[r]} * dim, dim);
             }
             g_sink += out[0] + out[kBatch - 1];
           }));
    Report("l2sq_batch_contig", "dispatch", shape, NsPerCall([&] {
             const float* q = base.row(i % (kRows - kBatch));
             ++i;
             simd::L2SqBatch(q, base.row((i * kBatch) % (kRows - kBatch)),
                             dim, kBatch, out);
             g_sink += out[0] + out[kBatch - 1];
           }));
    Report("ip_batch_gather", "dispatch", shape, NsPerCall([&] {
             const float* q = base.row(i % kRows);
             const std::uint32_t* id = ids.data() + (i * kBatch) % (kRows - kBatch);
             ++i;
             simd::InnerProductBatchGather(q, base.data(), dim, id, kBatch,
                                           out);
             g_sink += out[0] + out[kBatch - 1];
           }));
  }
}

// ------------------------------------------------------------------ ADC

void BenchAdc() {
  for (std::size_t m : {std::size_t{8}, std::size_t{16}, std::size_t{32}}) {
    Rng rng(3);
    std::vector<float> tables(m * 256);
    for (auto& t : tables) t = rng.NextGaussian();
    std::vector<std::vector<unsigned char>> codes(
        1024, std::vector<unsigned char>(m));
    for (auto& code : codes) {
      for (auto& c : code) c = static_cast<unsigned char>(rng.Next(256));
    }
    std::size_t i = 0;
    std::string shape = "m=" + std::to_string(m);
    Report("adc_lookup", "scalar", shape, NsPerCall([&] {
             g_sink += simd::AdcLookupScalar(tables.data(),
                                             codes[i++ % 1024].data(), m, 256);
           }));
    if (simd::HasAvx512() && m >= 16) {
      Report("adc_lookup", "avx512", shape, NsPerCall([&] {
               g_sink += simd::AdcLookupAvx512(
                   tables.data(), codes[i++ % 1024].data(), m, 256);
             }));
    }
    // Full-precision distance over the vector the code represents
    // (dsub=8): the per-candidate cost ADC avoids.
    std::size_t dim = 8 * m;
    FloatMatrix data = MakeVectors(256, dim);
    Report("full_dist_same_dim", "dispatch", shape, NsPerCall([&] {
             g_sink += simd::L2Sq(data.row(i % 255), data.row(i % 255 + 1),
                                  dim);
             ++i;
           }));
  }
}

// Quick ADC (FastScan): 32 compressed candidates per call with the LUT
// resident in SIMD registers — the register-shuffle technique of §2.3(1).
void BenchQuickAdc() {
  for (std::size_t m : {std::size_t{8}, std::size_t{16}, std::size_t{32}}) {
    Rng rng(5);
    std::vector<unsigned char> luts(m * 16), codes(m * 32);
    for (auto& b : luts) b = static_cast<unsigned char>(rng.Next(256));
    for (auto& b : codes) b = static_cast<unsigned char>(rng.Next(16));
    unsigned short out[32];
    std::string shape = "m=" + std::to_string(m);
    for (const Tier& t : Tiers()) {
      if (!t.available) continue;
      std::string tier = t.name;
      Report("quick_adc_block32", tier, shape, NsPerCall([&, tier] {
               if (tier == "scalar") {
                 simd::QuickAdcBlockScalar(luts.data(), codes.data(), m, out);
               } else if (tier == "avx2") {
                 simd::QuickAdcBlockAvx2(luts.data(), codes.data(), m, out);
               } else {
                 simd::QuickAdcBlockAvx512(luts.data(), codes.data(), m, out);
               }
               g_sink += out[0] + out[31];
             }));
    }
  }
}

}  // namespace
}  // namespace vdb

int main() {
  using namespace vdb;
  bench::Header("E8", "SIMD kernel tiers: scalar vs AVX2 vs AVX-512, "
                      "single-pair vs batched, ADC vs full precision");
  std::printf("active tier: %s\n", simd::TierName(simd::ActiveTier()));

  BenchSinglePair();
  BenchBatch();
  BenchAdc();
  BenchQuickAdc();

  std::printf("(sink=%g)\n", g_sink);
  return 0;
}
