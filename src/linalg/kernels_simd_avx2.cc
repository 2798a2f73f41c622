// AVX2 backend of the SIMD micro-kernel (see simd.h / simd_microkernel.h).
//
// Compiled with a per-file -mavx2 flag (CMakeLists.txt) so the rest of the
// library keeps its baseline ISA; when the compiler/target cannot accept the
// flag the entry points degrade to "not compiled" stubs and runtime dispatch
// never selects this backend.

#include "linalg/simd.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "linalg/simd_microkernel.h"

namespace apspark::linalg {
namespace {

/// 4-lane __m256d vector ops. Min/Max wrap vminpd/vmaxpd, whose
/// "return src2 when the compare is false or unordered" rule is what the
/// micro-kernel's operand orders rely on for scalar-bitwise ties/NaN.
struct Avx2Ops {
  using Vec = __m256d;
  using Mask = __m256i;
  static constexpr std::int64_t kWidth = 4;

  static Vec Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Mask TailMask(std::int64_t cnt) {
    return _mm256_set_epi64x(cnt > 3 ? -1 : 0, cnt > 2 ? -1 : 0,
                             cnt > 1 ? -1 : 0, cnt > 0 ? -1 : 0);
  }
  static Vec MaskLoad(const double* p, Mask m) {
    return _mm256_maskload_pd(p, m);
  }
  static void MaskStore(double* p, Mask m, Vec v) {
    _mm256_maskstore_pd(p, m, v);
  }
  static Vec Broadcast(double x) { return _mm256_set1_pd(x); }
  static Vec Min(Vec x, Vec y) { return _mm256_min_pd(x, y); }
  static Vec Max(Vec x, Vec y) { return _mm256_max_pd(x, y); }
  static Vec AddPd(Vec x, Vec y) { return _mm256_add_pd(x, y); }
  static Vec MulPd(Vec x, Vec y) { return _mm256_mul_pd(x, y); }
  static Mask LessMask(Vec x, Vec y) {
    return _mm256_castpd_si256(_mm256_cmp_pd(x, y, _CMP_LT_OQ));
  }
  static Vec Blend(Mask m, Vec x, Vec y) {
    return _mm256_blendv_pd(x, y, _mm256_castsi256_pd(m));
  }
  static Vec BoolOr(Vec x, Vec y) {
    const Vec z = _mm256_setzero_pd();
    const Vec m = _mm256_or_pd(_mm256_cmp_pd(x, z, _CMP_NEQ_UQ),
                               _mm256_cmp_pd(y, z, _CMP_NEQ_UQ));
    return _mm256_and_pd(m, _mm256_set1_pd(1.0));
  }
  static Vec BoolAnd(Vec x, Vec y) {
    const Vec z = _mm256_setzero_pd();
    const Vec m = _mm256_and_pd(_mm256_cmp_pd(x, z, _CMP_NEQ_UQ),
                                _mm256_cmp_pd(y, z, _CMP_NEQ_UQ));
    return _mm256_and_pd(m, _mm256_set1_pd(1.0));
  }
};

}  // namespace

bool SimdCompiledAvx2() noexcept { return true; }

void SimdTiledRowsAvx2(SemiringId id, std::int64_t i0, std::int64_t i1,
                       std::int64_t n, std::int64_t k, const double* a,
                       std::int64_t lda, const double* b, std::int64_t ldb,
                       double* c, std::int64_t ldc, std::int64_t tile_j,
                       std::int64_t tile_k) {
  WithSemiring(id, [&](auto s) {
    using S = decltype(s);
    simd_detail::SimdTiledRowsImpl<Avx2Ops, S>(i0, i1, n, k, a, lda, b, ldb,
                                               c, ldc, tile_j, tile_k);
  });
}

void SimdArgminRowAvx2(const std::pair<std::int64_t, double>* terms,
                       std::size_t count, const double* d, std::int64_t ldd,
                       std::int64_t n, double* out) {
  simd_detail::ArgminRowImpl<Avx2Ops>(terms, count, d, ldd, n, out);
}

}  // namespace apspark::linalg

#else  // stub: flag rejected or non-x86 target

#include <cstdlib>

namespace apspark::linalg {

bool SimdCompiledAvx2() noexcept { return false; }

void SimdTiledRowsAvx2(SemiringId, std::int64_t, std::int64_t, std::int64_t,
                       std::int64_t, const double*, std::int64_t,
                       const double*, std::int64_t, double*, std::int64_t,
                       std::int64_t, std::int64_t) {
  std::abort();  // dispatch never routes here when the backend is absent
}

void SimdArgminRowAvx2(const std::pair<std::int64_t, double>*, std::size_t,
                       const double*, std::int64_t, std::int64_t, double*) {
  std::abort();
}

}  // namespace apspark::linalg

#endif
