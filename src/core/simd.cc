#include "core/simd.h"

#include <immintrin.h>

#include <algorithm>
#include <limits>

#if defined(__GNUC__) && !defined(__clang__)
// GCC's AVX-512 reduce intrinsics expand _mm256_undefined_pd() through
// always_inline, which -Werror=uninitialized misflags (GCC PR 105593).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace vdb::simd {

bool HasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") &&
                          __builtin_cpu_supports("fma");
  return has;
}

bool HasAvx512() {
  // F covers 16-wide float FMA + gathers; BW covers the byte shuffles and
  // uint8->uint16 widening of the FastScan path. FMA rides along with F on
  // every AVX-512 part, but check it anyway for the fused kernels.
  static const bool has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512bw") &&
                          __builtin_cpu_supports("fma");
  return has;
}

DispatchTier ActiveTier() {
  if (HasAvx512()) return DispatchTier::kAvx512;
  if (HasAvx2()) return DispatchTier::kAvx2;
  return DispatchTier::kScalar;
}

const char* TierName(DispatchTier tier) {
  switch (tier) {
    case DispatchTier::kScalar: return "scalar";
    case DispatchTier::kAvx2: return "avx2";
    case DispatchTier::kAvx512: return "avx512";
  }
  return "unknown";
}

// The scalar kernels are the honest pre-SIMD baseline the paper's hardware
// acceleration section compares against, so vectorization is disabled for
// them specifically.
#define VDB_NO_VECTORIZE \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))

VDB_NO_VECTORIZE
float L2SqScalar(const float* a, const float* b, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < dim; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

VDB_NO_VECTORIZE
float InnerProductScalar(const float* a, const float* b, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

VDB_NO_VECTORIZE
float NormSqScalar(const float* a, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < dim; ++i) acc += a[i] * a[i];
  return acc;
}

VDB_NO_VECTORIZE
float AdcLookupScalar(const float* tables, const unsigned char* codes,
                      std::size_t m, std::size_t ksub) {
  float acc = 0.0f;
  for (std::size_t j = 0; j < m; ++j) acc += tables[j * ksub + codes[j]];
  return acc;
}

namespace {

// target("avx2") rather than relying on the translation unit's -march:
// with VDB_NATIVE_ARCH=OFF the base ISA has no AVX, and GCC refuses to
// inline the always_inline intrinsics into an un-targeted function.
__attribute__((target("avx2"))) inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

}  // namespace

__attribute__((target("avx2,fma")))
float L2SqAvx2(const float* a, const float* b, std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    __m256 va = _mm256_loadu_ps(a + i);
    __m256 vb = _mm256_loadu_ps(b + i);
    __m256 d = _mm256_sub_ps(va, vb);
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float total = HorizontalSum(acc);
  for (; i < dim; ++i) {
    float d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

__attribute__((target("avx2,fma")))
float InnerProductAvx2(const float* a, const float* b, std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    __m256 va = _mm256_loadu_ps(a + i);
    __m256 vb = _mm256_loadu_ps(b + i);
    acc = _mm256_fmadd_ps(va, vb, acc);
  }
  float total = HorizontalSum(acc);
  for (; i < dim; ++i) total += a[i] * b[i];
  return total;
}

__attribute__((target("avx2,fma")))
float NormSqAvx2(const float* a, std::size_t dim) {
  return InnerProductAvx2(a, a, dim);
}

__attribute__((target("avx512f,fma")))
float L2SqAvx512(const float* a, const float* b, std::size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m512 va = _mm512_loadu_ps(a + i);
    __m512 vb = _mm512_loadu_ps(b + i);
    __m512 d = _mm512_sub_ps(va, vb);
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  float total = _mm512_reduce_add_ps(acc);
  for (; i < dim; ++i) {
    float d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

__attribute__((target("avx512f,fma")))
float InnerProductAvx512(const float* a, const float* b, std::size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m512 va = _mm512_loadu_ps(a + i);
    __m512 vb = _mm512_loadu_ps(b + i);
    acc = _mm512_fmadd_ps(va, vb, acc);
  }
  float total = _mm512_reduce_add_ps(acc);
  for (; i < dim; ++i) total += a[i] * b[i];
  return total;
}

__attribute__((target("avx512f,fma")))
float NormSqAvx512(const float* a, std::size_t dim) {
  return InnerProductAvx512(a, a, dim);
}

float L2Sq(const float* a, const float* b, std::size_t dim) {
  if (HasAvx512()) return L2SqAvx512(a, b, dim);
  return HasAvx2() ? L2SqAvx2(a, b, dim) : L2SqScalar(a, b, dim);
}

float InnerProduct(const float* a, const float* b, std::size_t dim) {
  if (HasAvx512()) return InnerProductAvx512(a, b, dim);
  return HasAvx2() ? InnerProductAvx2(a, b, dim)
                   : InnerProductScalar(a, b, dim);
}

float NormSq(const float* a, std::size_t dim) {
  if (HasAvx512()) return NormSqAvx512(a, dim);
  return HasAvx2() ? NormSqAvx2(a, dim) : NormSqScalar(a, dim);
}

// ------------------------------------------------- one-query-vs-many batch
//
// Four database rows per iteration share each query-register load; every
// row keeps its own accumulator fed in the same element order as the
// single-pair kernel of the tier, so per-row results are bit-identical to
// that kernel (the parity the prefetch-ablation test relies on).

namespace {

__attribute__((target("avx2,fma")))
void L2SqX4Avx2(const float* q, const float* r0, const float* r1,
                const float* r2, const float* r3, std::size_t dim,
                float* out) {
  __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    __m256 vq = _mm256_loadu_ps(q + i);
    __m256 d0 = _mm256_sub_ps(vq, _mm256_loadu_ps(r0 + i));
    __m256 d1 = _mm256_sub_ps(vq, _mm256_loadu_ps(r1 + i));
    __m256 d2 = _mm256_sub_ps(vq, _mm256_loadu_ps(r2 + i));
    __m256 d3 = _mm256_sub_ps(vq, _mm256_loadu_ps(r3 + i));
    a0 = _mm256_fmadd_ps(d0, d0, a0);
    a1 = _mm256_fmadd_ps(d1, d1, a1);
    a2 = _mm256_fmadd_ps(d2, d2, a2);
    a3 = _mm256_fmadd_ps(d3, d3, a3);
  }
  out[0] = HorizontalSum(a0);
  out[1] = HorizontalSum(a1);
  out[2] = HorizontalSum(a2);
  out[3] = HorizontalSum(a3);
  for (; i < dim; ++i) {
    float q_i = q[i];
    float d0 = q_i - r0[i], d1 = q_i - r1[i];
    float d2 = q_i - r2[i], d3 = q_i - r3[i];
    out[0] += d0 * d0;
    out[1] += d1 * d1;
    out[2] += d2 * d2;
    out[3] += d3 * d3;
  }
}

__attribute__((target("avx2,fma")))
void IpX4Avx2(const float* q, const float* r0, const float* r1,
              const float* r2, const float* r3, std::size_t dim, float* out) {
  __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    __m256 vq = _mm256_loadu_ps(q + i);
    a0 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r0 + i), a0);
    a1 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r1 + i), a1);
    a2 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r2 + i), a2);
    a3 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r3 + i), a3);
  }
  out[0] = HorizontalSum(a0);
  out[1] = HorizontalSum(a1);
  out[2] = HorizontalSum(a2);
  out[3] = HorizontalSum(a3);
  for (; i < dim; ++i) {
    float q_i = q[i];
    out[0] += q_i * r0[i];
    out[1] += q_i * r1[i];
    out[2] += q_i * r2[i];
    out[3] += q_i * r3[i];
  }
}

__attribute__((target("avx512f,fma")))
void L2SqX4Avx512(const float* q, const float* r0, const float* r1,
                  const float* r2, const float* r3, std::size_t dim,
                  float* out) {
  __m512 a0 = _mm512_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m512 vq = _mm512_loadu_ps(q + i);
    __m512 d0 = _mm512_sub_ps(vq, _mm512_loadu_ps(r0 + i));
    __m512 d1 = _mm512_sub_ps(vq, _mm512_loadu_ps(r1 + i));
    __m512 d2 = _mm512_sub_ps(vq, _mm512_loadu_ps(r2 + i));
    __m512 d3 = _mm512_sub_ps(vq, _mm512_loadu_ps(r3 + i));
    a0 = _mm512_fmadd_ps(d0, d0, a0);
    a1 = _mm512_fmadd_ps(d1, d1, a1);
    a2 = _mm512_fmadd_ps(d2, d2, a2);
    a3 = _mm512_fmadd_ps(d3, d3, a3);
  }
  out[0] = _mm512_reduce_add_ps(a0);
  out[1] = _mm512_reduce_add_ps(a1);
  out[2] = _mm512_reduce_add_ps(a2);
  out[3] = _mm512_reduce_add_ps(a3);
  for (; i < dim; ++i) {
    float q_i = q[i];
    float d0 = q_i - r0[i], d1 = q_i - r1[i];
    float d2 = q_i - r2[i], d3 = q_i - r3[i];
    out[0] += d0 * d0;
    out[1] += d1 * d1;
    out[2] += d2 * d2;
    out[3] += d3 * d3;
  }
}

__attribute__((target("avx512f,fma")))
void IpX4Avx512(const float* q, const float* r0, const float* r1,
                const float* r2, const float* r3, std::size_t dim,
                float* out) {
  __m512 a0 = _mm512_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m512 vq = _mm512_loadu_ps(q + i);
    a0 = _mm512_fmadd_ps(vq, _mm512_loadu_ps(r0 + i), a0);
    a1 = _mm512_fmadd_ps(vq, _mm512_loadu_ps(r1 + i), a1);
    a2 = _mm512_fmadd_ps(vq, _mm512_loadu_ps(r2 + i), a2);
    a3 = _mm512_fmadd_ps(vq, _mm512_loadu_ps(r3 + i), a3);
  }
  out[0] = _mm512_reduce_add_ps(a0);
  out[1] = _mm512_reduce_add_ps(a1);
  out[2] = _mm512_reduce_add_ps(a2);
  out[3] = _mm512_reduce_add_ps(a3);
  for (; i < dim; ++i) {
    float q_i = q[i];
    out[0] += q_i * r0[i];
    out[1] += q_i * r1[i];
    out[2] += q_i * r2[i];
    out[3] += q_i * r3[i];
  }
}

using X4Fn = void (*)(const float*, const float*, const float*, const float*,
                      const float*, std::size_t, float*);
using X1Fn = float (*)(const float*, const float*, std::size_t);

/// Shared batch driver: 4-row blocks through `four`, remainder through
/// `one`, prefetching the next block's rows one iteration ahead so the
/// gather's cache misses overlap the current block's FMAs. `row(i)` maps
/// a batch position to its row pointer (contiguous or gathered).
template <typename RowFn>
void BatchLoop(const float* q, std::size_t dim, std::size_t n, RowFn row,
               float* out, X1Fn one, X4Fn four) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::size_t ahead_end = std::min(n, i + 8);
    for (std::size_t p = i + 4; p < ahead_end; ++p) {
      PrefetchFloats(row(p), dim);
    }
    four(q, row(i), row(i + 1), row(i + 2), row(i + 3), dim, out + i);
  }
  for (; i < n; ++i) out[i] = one(q, row(i), dim);
}

}  // namespace

void L2SqBatchGatherScalar(const float* q, const float* base, std::size_t dim,
                           const std::uint32_t* ids, std::size_t n,
                           float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = L2SqScalar(q, base + std::size_t{ids[i]} * dim, dim);
  }
}

void InnerProductBatchGatherScalar(const float* q, const float* base,
                                   std::size_t dim, const std::uint32_t* ids,
                                   std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = InnerProductScalar(q, base + std::size_t{ids[i]} * dim, dim);
  }
}

void L2SqBatchGatherAvx2(const float* q, const float* base, std::size_t dim,
                         const std::uint32_t* ids, std::size_t n,
                         float* out) {
  auto row = [&](std::size_t i) { return base + std::size_t{ids[i]} * dim; };
  BatchLoop(q, dim, n, row, out, &L2SqAvx2, &L2SqX4Avx2);
}

void InnerProductBatchGatherAvx2(const float* q, const float* base,
                                 std::size_t dim, const std::uint32_t* ids,
                                 std::size_t n, float* out) {
  auto row = [&](std::size_t i) { return base + std::size_t{ids[i]} * dim; };
  BatchLoop(q, dim, n, row, out, &InnerProductAvx2, &IpX4Avx2);
}

void L2SqBatchGatherAvx512(const float* q, const float* base, std::size_t dim,
                           const std::uint32_t* ids, std::size_t n,
                           float* out) {
  auto row = [&](std::size_t i) { return base + std::size_t{ids[i]} * dim; };
  BatchLoop(q, dim, n, row, out, &L2SqAvx512, &L2SqX4Avx512);
}

void InnerProductBatchGatherAvx512(const float* q, const float* base,
                                   std::size_t dim, const std::uint32_t* ids,
                                   std::size_t n, float* out) {
  auto row = [&](std::size_t i) { return base + std::size_t{ids[i]} * dim; };
  BatchLoop(q, dim, n, row, out, &InnerProductAvx512, &IpX4Avx512);
}

void L2SqBatchGather(const float* q, const float* base, std::size_t dim,
                     const std::uint32_t* ids, std::size_t n, float* out) {
  switch (ActiveTier()) {
    case DispatchTier::kAvx512:
      return L2SqBatchGatherAvx512(q, base, dim, ids, n, out);
    case DispatchTier::kAvx2:
      return L2SqBatchGatherAvx2(q, base, dim, ids, n, out);
    case DispatchTier::kScalar:
      return L2SqBatchGatherScalar(q, base, dim, ids, n, out);
  }
}

void InnerProductBatchGather(const float* q, const float* base,
                             std::size_t dim, const std::uint32_t* ids,
                             std::size_t n, float* out) {
  switch (ActiveTier()) {
    case DispatchTier::kAvx512:
      return InnerProductBatchGatherAvx512(q, base, dim, ids, n, out);
    case DispatchTier::kAvx2:
      return InnerProductBatchGatherAvx2(q, base, dim, ids, n, out);
    case DispatchTier::kScalar:
      return InnerProductBatchGatherScalar(q, base, dim, ids, n, out);
  }
}

// Short rows, column-major. Below the tier width the single-pair kernel
// is its scalar tail alone: total = 0, then total += d*d per element, one
// rounding for the multiply and one for the add. Here lane r of `acc`
// runs that same sequence for row r, fed one gathered column at a time,
// so every lane equals the single-pair result bit for bit. That holds
// only while the compiler does not fuse mul+add into an FMA, which is
// why this file is built with -ffp-contract=off (src/CMakeLists.txt).

namespace {

__attribute__((target("avx2")))
void L2SqShortRowsAvx2(const float* q, const float* rows, std::size_t dim,
                       std::size_t n, float* out) {
  const __m256i offsets =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int>(dim)));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float* block = rows + i * dim;
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t j = 0; j < dim; ++j) {
      __m256 col = _mm256_i32gather_ps(block + j, offsets, sizeof(float));
      __m256 d = _mm256_sub_ps(_mm256_set1_ps(q[j]), col);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
    }
    _mm256_storeu_ps(out + i, acc);
  }
  for (; i < n; ++i) out[i] = L2SqAvx2(q, rows + i * dim, dim);
}

__attribute__((target("avx512f")))
void L2SqShortRowsAvx512(const float* q, const float* rows, std::size_t dim,
                         std::size_t n, float* out) {
  const __m512i offsets = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(dim)));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const float* block = rows + i * dim;
    __m512 acc = _mm512_setzero_ps();
    for (std::size_t j = 0; j < dim; ++j) {
      __m512 col = _mm512_i32gather_ps(offsets, block + j, sizeof(float));
      __m512 d = _mm512_sub_ps(_mm512_set1_ps(q[j]), col);
      acc = _mm512_add_ps(acc, _mm512_mul_ps(d, d));
    }
    _mm512_storeu_ps(out + i, acc);
  }
  for (; i < n; ++i) out[i] = L2SqAvx512(q, rows + i * dim, dim);
}

}  // namespace

void L2SqBatchScalar(const float* q, const float* rows, std::size_t dim,
                     std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = L2SqScalar(q, rows + i * dim, dim);
  }
}

void L2SqBatchAvx2(const float* q, const float* rows, std::size_t dim,
                   std::size_t n, float* out) {
  if (dim < 8) return L2SqShortRowsAvx2(q, rows, dim, n, out);
  auto row = [&](std::size_t i) { return rows + i * dim; };
  BatchLoop(q, dim, n, row, out, &L2SqAvx2, &L2SqX4Avx2);
}

void L2SqBatchAvx512(const float* q, const float* rows, std::size_t dim,
                     std::size_t n, float* out) {
  if (dim < 16) return L2SqShortRowsAvx512(q, rows, dim, n, out);
  auto row = [&](std::size_t i) { return rows + i * dim; };
  BatchLoop(q, dim, n, row, out, &L2SqAvx512, &L2SqX4Avx512);
}

void L2SqBatch(const float* q, const float* rows, std::size_t dim,
               std::size_t n, float* out) {
  switch (ActiveTier()) {
    case DispatchTier::kAvx512:
      return L2SqBatchAvx512(q, rows, dim, n, out);
    case DispatchTier::kAvx2:
      return L2SqBatchAvx2(q, rows, dim, n, out);
    case DispatchTier::kScalar:
      return L2SqBatchScalar(q, rows, dim, n, out);
  }
}

void InnerProductBatch(const float* q, const float* rows, std::size_t dim,
                       std::size_t n, float* out) {
  auto row = [&](std::size_t i) { return rows + i * dim; };
  switch (ActiveTier()) {
    case DispatchTier::kAvx512:
      return BatchLoop(q, dim, n, row, out, &InnerProductAvx512,
                       &IpX4Avx512);
    case DispatchTier::kAvx2:
      return BatchLoop(q, dim, n, row, out, &InnerProductAvx2, &IpX4Avx2);
    case DispatchTier::kScalar:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = InnerProductScalar(q, row(i), dim);
      }
      return;
  }
}

// ------------------------------------------------------------------ ArgMin

namespace {

/// Scalar first-minimum scan of v[i, n), continuing from (arg, best).
ArgMinResult FinishArgMin(const float* v, std::size_t i, std::size_t n,
                          std::size_t arg, float best) {
  for (; i < n; ++i) {
    if (v[i] < best) {
      best = v[i];
      arg = i;
    }
  }
  ArgMinResult r;
  if (best < std::numeric_limits<float>::infinity()) {
    r.arg = static_cast<std::uint32_t>(arg);
    r.best = best;
  }
  return r;
}

}  // namespace

ArgMinResult ArgMinScalar(const float* v, std::size_t n) {
  return FinishArgMin(v, 0, n, 0, std::numeric_limits<float>::infinity());
}

__attribute__((target("avx512f")))
ArgMinResult ArgMinAvx512(const float* v, std::size_t n) {
  const float inf = std::numeric_limits<float>::infinity();
  // Lane l keeps the first minimum of v[l], v[l+16], ...: strict < and an
  // ordered compare, so later ties and NaNs never replace it.
  __m512 best = _mm512_set1_ps(inf);
  __m512i best_idx = _mm512_setzero_si512();
  __m512i idx =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i step = _mm512_set1_epi32(16);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 x = _mm512_loadu_ps(v + i);
    __mmask16 lt = _mm512_cmp_ps_mask(x, best, _CMP_LT_OQ);
    best = _mm512_mask_mov_ps(best, lt, x);
    best_idx = _mm512_mask_mov_epi32(best_idx, lt, idx);
    idx = _mm512_add_epi32(idx, step);
  }
  // Across lanes: the smallest value, then the lowest index holding it.
  std::size_t arg = 0;
  float low = i == 0 ? inf : _mm512_reduce_min_ps(best);
  if (low < inf) {
    __mmask16 at = _mm512_cmp_ps_mask(best, _mm512_set1_ps(low), _CMP_EQ_OQ);
    arg = _mm512_mask_reduce_min_epu32(at, best_idx);
    low = v[arg];
  }
  return FinishArgMin(v, i, n, arg, low);
}

ArgMinResult ArgMin(const float* v, std::size_t n) {
  return HasAvx512() ? ArgMinAvx512(v, n) : ArgMinScalar(v, n);
}

// ------------------------------------------------------------ FastScan/ADC

VDB_NO_VECTORIZE
void QuickAdcBlockScalar(const unsigned char* luts,
                         const unsigned char* codes, std::size_t m,
                         unsigned short* out) {
  for (int v = 0; v < 32; ++v) out[v] = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const unsigned char* lut = luts + j * 16;
    const unsigned char* row = codes + j * 32;
    for (int v = 0; v < 32; ++v) {
      out[v] = static_cast<unsigned short>(out[v] + lut[row[v] & 0x0F]);
    }
  }
}

__attribute__((target("avx2")))
void QuickAdcBlockAvx2(const unsigned char* luts, const unsigned char* codes,
                       std::size_t m, unsigned short* out) {
  // Two uint16x16 accumulators cover the 32 lanes.
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  const __m256i nibble_mask = _mm256_set1_epi8(0x0F);
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t j = 0; j < m; ++j) {
    // Broadcast the 16-byte LUT into both 128-bit lanes.
    __m128i lut128 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(luts + j * 16));
    __m256i lut = _mm256_broadcastsi128_si256(lut128);
    __m256i code =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + j * 32));
    code = _mm256_and_si256(code, nibble_mask);
    // The register-resident lookup: 32 table probes in one instruction.
    __m256i vals = _mm256_shuffle_epi8(lut, code);
    acc_lo = _mm256_add_epi16(acc_lo, _mm256_unpacklo_epi8(vals, zero));
    acc_hi = _mm256_add_epi16(acc_hi, _mm256_unpackhi_epi8(vals, zero));
  }
  // unpacklo/hi interleave within 128-bit lanes; restore vector order.
  alignas(32) unsigned short lo[16], hi[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lo), acc_lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(hi), acc_hi);
  for (int i = 0; i < 8; ++i) {
    out[i] = lo[i];            // bytes 0..7   (lane 0 low)
    out[i + 8] = hi[i];        // bytes 8..15  (lane 0 high)
    out[i + 16] = lo[i + 8];   // bytes 16..23 (lane 1 low)
    out[i + 24] = hi[i + 8];   // bytes 24..31 (lane 1 high)
  }
}

__attribute__((target("avx2,avx512f,avx512bw")))
void QuickAdcBlockAvx512(const unsigned char* luts,
                         const unsigned char* codes, std::size_t m,
                         unsigned short* out) {
  // One uint16x32 accumulator covers the whole block; the order-preserving
  // zero-extension (vpmovzxbw) replaces the AVX2 path's unpack shuffle
  // dance, so the accumulator can be stored straight to `out`.
  __m512i acc = _mm512_setzero_si512();
  const __m256i nibble_mask = _mm256_set1_epi8(0x0F);
  for (std::size_t j = 0; j < m; ++j) {
    __m128i lut128 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(luts + j * 16));
    __m256i lut = _mm256_broadcastsi128_si256(lut128);
    __m256i code =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + j * 32));
    code = _mm256_and_si256(code, nibble_mask);
    __m256i vals = _mm256_shuffle_epi8(lut, code);
    acc = _mm512_add_epi16(acc, _mm512_cvtepu8_epi16(vals));
  }
  _mm512_storeu_si512(out, acc);
}

void QuickAdcBlock(const unsigned char* luts, const unsigned char* codes,
                   std::size_t m, unsigned short* out) {
  switch (ActiveTier()) {
    case DispatchTier::kAvx512:
      return QuickAdcBlockAvx512(luts, codes, m, out);
    case DispatchTier::kAvx2:
      return QuickAdcBlockAvx2(luts, codes, m, out);
    case DispatchTier::kScalar:
      return QuickAdcBlockScalar(luts, codes, m, out);
  }
}

__attribute__((target("avx512f,avx512bw")))
float AdcLookupAvx512(const float* tables, const unsigned char* codes,
                      std::size_t m, std::size_t ksub) {
  // 16 subspaces per gather: lane l of block j reads
  // tables[(j+l)*ksub + codes[j+l]] = (tables + j*ksub)[l*ksub + code].
  __m512 acc = _mm512_setzero_ps();
  const __m512i lane_ramp = _mm512_mullo_epi32(
      _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
      _mm512_set1_epi32(static_cast<int>(ksub)));
  std::size_t j = 0;
  for (; j + 16 <= m; j += 16) {
    __m128i code8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + j));
    __m512i idx = _mm512_add_epi32(lane_ramp, _mm512_cvtepu8_epi32(code8));
    acc = _mm512_add_ps(
        acc, _mm512_i32gather_ps(idx, tables + j * ksub, sizeof(float)));
  }
  float total = _mm512_reduce_add_ps(acc);
  for (; j < m; ++j) total += tables[j * ksub + codes[j]];
  return total;
}

float AdcLookup(const float* tables, const unsigned char* codes,
                std::size_t m, std::size_t ksub) {
  // The gather amortizes only when a full 16-subspace block exists; for
  // small m the scalar unrolled walk stays ahead of gather latency. The
  // register-resident SIMD shuffle variant (Quick ADC) is modeled in
  // quant/pq.cc via 4-bit codes.
  if (m >= 16 && HasAvx512()) return AdcLookupAvx512(tables, codes, m, ksub);
  float acc0 = 0.0f, acc1 = 0.0f;
  std::size_t j = 0;
  for (; j + 2 <= m; j += 2) {
    acc0 += tables[j * ksub + codes[j]];
    acc1 += tables[(j + 1) * ksub + codes[j + 1]];
  }
  if (j < m) acc0 += tables[j * ksub + codes[j]];
  return acc0 + acc1;
}

}  // namespace vdb::simd
