#ifndef VDB_CORE_SIMD_H_
#define VDB_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace vdb::simd {

/// Low-level similarity-projection kernels (paper §2.3(1): SIMD hardware
/// acceleration). Each kernel exists in a deliberately non-vectorized
/// scalar reference form, an AVX2/FMA form, and an AVX-512 form; the
/// dispatched entry points select the widest tier the CPU supports at run
/// time and `bench_simd` measures the per-tier gap.
///
/// Contract for the tiered variants: within one tier, the batched kernels
/// accumulate per row in exactly the same order as the single-pair kernel
/// of that tier, so `XBatch*(q, ...)[i] == X(q, row_i, dim)` bit for bit.
/// Across tiers results agree only to float rounding (~1e-4 relative);
/// `tests/simd_dispatch_test.cc` pins both properties.

/// True when the CPU supports AVX2 + FMA.
bool HasAvx2();
/// True when the CPU supports AVX-512 (F + BW, the subsets used here).
bool HasAvx512();

/// Runtime-selected widest kernel tier.
enum class DispatchTier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
DispatchTier ActiveTier();
const char* TierName(DispatchTier tier);

// -- Scalar reference kernels (compiled with auto-vectorization disabled
//    so they are an honest baseline). --------------------------------------
float L2SqScalar(const float* a, const float* b, std::size_t dim);
float InnerProductScalar(const float* a, const float* b, std::size_t dim);
float NormSqScalar(const float* a, std::size_t dim);

// -- AVX2 kernels. Fall back to scalar when AVX2 is unavailable. ----------
float L2SqAvx2(const float* a, const float* b, std::size_t dim);
float InnerProductAvx2(const float* a, const float* b, std::size_t dim);
float NormSqAvx2(const float* a, std::size_t dim);

// -- AVX-512 kernels (16-wide FMA main loop, scalar tail). Compiled with
//    explicit target attributes so the portable build links them on any
//    machine; calling them on a CPU without AVX-512 is undefined — check
//    HasAvx512() (the dispatched entry points do). ------------------------
float L2SqAvx512(const float* a, const float* b, std::size_t dim);
float InnerProductAvx512(const float* a, const float* b, std::size_t dim);
float NormSqAvx512(const float* a, std::size_t dim);

// -- Dispatched entry points used by the rest of the library. -------------
float L2Sq(const float* a, const float* b, std::size_t dim);
float InnerProduct(const float* a, const float* b, std::size_t dim);
float NormSq(const float* a, std::size_t dim);

// ------------------------------------------------- one-query-vs-many batch
//
// The graph hot path scores a whole neighbor batch per expansion; the
// batched kernels amortize query-register loads over 4 rows and overlap
// the gather's memory latency with compute via software prefetch.
//
// Contiguous variant: rows = `rows + i*dim` for i in [0, n).
// Gather-by-id variant: row i = `base + ids[i]*dim` (the dense-index
// layout, where ids are internal node numbers into a row-major matrix).
//
// Short rows (dim below the tier's vector width: 8 floats for AVX2, 16
// for AVX-512) never reach the single-pair kernel's vector loop, so the
// contiguous L2 batch scores them column-major instead: one SIMD lane per
// row, one gathered column per step, a separate multiply and add per
// element. That replays the single-pair kernel's scalar tail exactly, so
// the bit-identity contract above holds for every dim — it is the one
// call behind every "point vs all centroids" loop (k-means, PQ training,
// encoding and ADC tables).

void L2SqBatch(const float* q, const float* rows, std::size_t dim,
               std::size_t n, float* out);
// Per-tier contiguous L2 variants, exposed for the dispatch-parity test.
void L2SqBatchScalar(const float* q, const float* rows, std::size_t dim,
                     std::size_t n, float* out);
void L2SqBatchAvx2(const float* q, const float* rows, std::size_t dim,
                   std::size_t n, float* out);
void L2SqBatchAvx512(const float* q, const float* rows, std::size_t dim,
                     std::size_t n, float* out);
void InnerProductBatch(const float* q, const float* rows, std::size_t dim,
                       std::size_t n, float* out);

void L2SqBatchGather(const float* q, const float* base, std::size_t dim,
                     const std::uint32_t* ids, std::size_t n, float* out);
void InnerProductBatchGather(const float* q, const float* base,
                             std::size_t dim, const std::uint32_t* ids,
                             std::size_t n, float* out);

// Per-tier gather variants, exposed for the dispatch-parity test and
// bench_simd's per-tier columns.
void L2SqBatchGatherScalar(const float* q, const float* base, std::size_t dim,
                           const std::uint32_t* ids, std::size_t n,
                           float* out);
void L2SqBatchGatherAvx2(const float* q, const float* base, std::size_t dim,
                         const std::uint32_t* ids, std::size_t n, float* out);
void L2SqBatchGatherAvx512(const float* q, const float* base, std::size_t dim,
                           const std::uint32_t* ids, std::size_t n,
                           float* out);
void InnerProductBatchGatherScalar(const float* q, const float* base,
                                   std::size_t dim, const std::uint32_t* ids,
                                   std::size_t n, float* out);
void InnerProductBatchGatherAvx2(const float* q, const float* base,
                                 std::size_t dim, const std::uint32_t* ids,
                                 std::size_t n, float* out);
void InnerProductBatchGatherAvx512(const float* q, const float* base,
                                   std::size_t dim, const std::uint32_t* ids,
                                   std::size_t n, float* out);

/// First minimum of `v[0, n)`: the smallest value below +inf, ties to the
/// lowest index, NaN never wins. `best` is that value widened to double,
/// or DBL_MAX with `arg` 0 when no value is below +inf — exactly what the
/// `double best = DBL_MAX; if (v[i] < best)` loop it replaces returned.
/// The AVX-512 form keeps 16 per-lane minima (32-bit indexes, n < 2^32);
/// comparisons are exact, so every tier returns the same answer.
struct ArgMinResult {
  std::uint32_t arg = 0;
  double best = std::numeric_limits<double>::max();
};
ArgMinResult ArgMinScalar(const float* v, std::size_t n);
ArgMinResult ArgMinAvx512(const float* v, std::size_t n);
ArgMinResult ArgMin(const float* v, std::size_t n);

/// Batched asymmetric-distance (ADC) table accumulation: for `m` subspaces
/// with `ksub` centroids each, sums table[j][codes[j]] over j. `codes` are
/// uint8 PQ codes; `tables` is row-major (m x ksub).
float AdcLookupScalar(const float* tables, const unsigned char* codes,
                      std::size_t m, std::size_t ksub);
float AdcLookupAvx512(const float* tables, const unsigned char* codes,
                      std::size_t m, std::size_t ksub);
float AdcLookup(const float* tables, const unsigned char* codes,
                std::size_t m, std::size_t ksub);

/// Quick ADC / FastScan (André et al., the §2.3(1) SIMD-register-shuffle
/// technique): 4-bit PQ codes for a block of 32 vectors are scanned with
/// one in-register pshufb lookup per subquantizer, keeping the distance
/// tables resident in SIMD registers instead of L1.
///
/// Layout: `luts` is m x 16 uint8 (the per-subspace distance table,
/// quantized to bytes); `codes` is m x 32, one 4-bit code per byte (low
/// nibble), subquantizer-major. `out` receives 32 uint16 distance sums.
/// m must be <= 128 so sums cannot overflow uint16 (128 * 255 < 65536).
void QuickAdcBlockScalar(const unsigned char* luts,
                         const unsigned char* codes, std::size_t m,
                         unsigned short* out);
void QuickAdcBlockAvx2(const unsigned char* luts, const unsigned char* codes,
                       std::size_t m, unsigned short* out);
void QuickAdcBlockAvx512(const unsigned char* luts,
                         const unsigned char* codes, std::size_t m,
                         unsigned short* out);
void QuickAdcBlock(const unsigned char* luts, const unsigned char* codes,
                   std::size_t m, unsigned short* out);

// ------------------------------------------------------ software prefetch
//
// The only sanctioned spellings of __builtin_prefetch outside
// src/index/graph_util.h (tools/lint_vdb.py invariant 7): beam search and
// the batch kernels hide neighbor-expansion memory stalls behind these.

/// Prefetches `bytes` starting at `p` into cache, one line per 64 bytes.
inline void PrefetchBytes(const void* p, std::size_t bytes) {
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(c + off, /*rw=*/0, /*locality=*/3);
  }
}

/// Prefetches one float vector of `dim` elements.
inline void PrefetchFloats(const float* p, std::size_t dim) {
  PrefetchBytes(p, dim * sizeof(float));
}

}  // namespace vdb::simd

#endif  // VDB_CORE_SIMD_H_
