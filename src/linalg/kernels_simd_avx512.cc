// AVX-512 backend of the SIMD micro-kernel (see simd.h / simd_microkernel.h).
//
// Compiled with a per-file -mavx512f flag (CMakeLists.txt); only AVX-512F
// instructions are used (loads/stores, min/max/add/mul, compare-to-mask,
// maskz moves), so runtime dispatch gates on the avx512f CPUID bit alone.

#include "linalg/simd.h"

#if defined(__AVX512F__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "linalg/simd_microkernel.h"

namespace apspark::linalg {
namespace {

/// 8-lane __m512d vector ops with native k-register tail masks. Min/Max wrap
/// vminpd/vmaxpd — same src2-on-tie/NaN rule as the AVX2 backend.
struct Avx512Ops {
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr std::int64_t kWidth = 8;

  static Vec Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Mask TailMask(std::int64_t cnt) {
    return static_cast<Mask>((1u << cnt) - 1u);
  }
  static Vec MaskLoad(const double* p, Mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void MaskStore(double* p, Mask m, Vec v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
  static Vec Broadcast(double x) { return _mm512_set1_pd(x); }
  static Vec Min(Vec x, Vec y) { return _mm512_min_pd(x, y); }
  static Vec Max(Vec x, Vec y) { return _mm512_max_pd(x, y); }
  static Vec AddPd(Vec x, Vec y) { return _mm512_add_pd(x, y); }
  static Vec MulPd(Vec x, Vec y) { return _mm512_mul_pd(x, y); }
  static Mask LessMask(Vec x, Vec y) {
    return _mm512_cmp_pd_mask(x, y, _CMP_LT_OQ);
  }
  static Vec Blend(Mask m, Vec x, Vec y) {
    return _mm512_mask_blend_pd(m, x, y);
  }
  static Vec BoolOr(Vec x, Vec y) {
    const Vec z = _mm512_setzero_pd();
    const Mask m = static_cast<Mask>(_mm512_cmp_pd_mask(x, z, _CMP_NEQ_UQ) |
                                     _mm512_cmp_pd_mask(y, z, _CMP_NEQ_UQ));
    return _mm512_maskz_mov_pd(m, _mm512_set1_pd(1.0));
  }
  static Vec BoolAnd(Vec x, Vec y) {
    const Vec z = _mm512_setzero_pd();
    const Mask m = static_cast<Mask>(_mm512_cmp_pd_mask(x, z, _CMP_NEQ_UQ) &
                                     _mm512_cmp_pd_mask(y, z, _CMP_NEQ_UQ));
    return _mm512_maskz_mov_pd(m, _mm512_set1_pd(1.0));
  }
};

}  // namespace

bool SimdCompiledAvx512() noexcept { return true; }

void SimdTiledRowsAvx512(SemiringId id, std::int64_t i0, std::int64_t i1,
                         std::int64_t n, std::int64_t k, const double* a,
                         std::int64_t lda, const double* b, std::int64_t ldb,
                         double* c, std::int64_t ldc, std::int64_t tile_j,
                         std::int64_t tile_k) {
  WithSemiring(id, [&](auto s) {
    using S = decltype(s);
    simd_detail::SimdTiledRowsImpl<Avx512Ops, S>(i0, i1, n, k, a, lda, b, ldb,
                                                 c, ldc, tile_j, tile_k);
  });
}

void SimdArgminRowAvx512(const std::pair<std::int64_t, double>* terms,
                         std::size_t count, const double* d, std::int64_t ldd,
                         std::int64_t n, double* out) {
  simd_detail::ArgminRowImpl<Avx512Ops>(terms, count, d, ldd, n, out);
}

}  // namespace apspark::linalg

#else  // stub: flag rejected or non-x86 target

#include <cstdlib>

namespace apspark::linalg {

bool SimdCompiledAvx512() noexcept { return false; }

void SimdTiledRowsAvx512(SemiringId, std::int64_t, std::int64_t, std::int64_t,
                         std::int64_t, const double*, std::int64_t,
                         const double*, std::int64_t, double*, std::int64_t,
                         std::int64_t, std::int64_t) {
  std::abort();  // dispatch never routes here when the backend is absent
}

void SimdArgminRowAvx512(const std::pair<std::int64_t, double>*, std::size_t,
                         const double*, std::int64_t, std::int64_t, double*) {
  std::abort();
}

}  // namespace apspark::linalg

#endif
