// Register-blocked SIMD micro-tile shared by the AVX2 and AVX-512 backends.
//
// This header is included ONLY by kernels_simd_avx2.cc / kernels_simd_avx512.cc
// (which are compiled with per-file ISA flags); it must never leak into the
// baseline-ISA translation units. The two backends instantiate the same
// template with a vector-op wrapper V providing:
//
//   using Vec;  using Mask;  static constexpr std::int64_t kWidth;
//   Load / Store            unaligned full-vector access
//   TailMask(cnt)           mask selecting the first cnt lanes (0 <= cnt <=
//                           kWidth; 0 = no lanes, kWidth = all lanes)
//   MaskLoad / MaskStore    masked access (masked-out lanes read as 0.0 and
//                           are never written)
//   Broadcast(x)            splat a scalar
//   Min(x, y) / Max(x, y)   lane-wise x<y?x:y / x>y?x:y that return y when
//                           the compare is false OR unordered — the x86
//                           min/maxpd rule. With (candidate, accumulator)
//                           operand order this reproduces the scalar
//                           semirings' keep-on-tie, keep-on-NaN Add exactly.
//   AddPd / MulPd           IEEE double add / mul (no FMA: contraction would
//                           change results vs the scalar kernels)
//   BoolOr / BoolAnd        lane-wise (x!=0 || y!=0) ? 1.0 : 0.0 and the &&
//                           twin, built from NEQ_UQ compare masks so NaN
//                           counts as "true" exactly like scalar x != 0.0
//   LessMask(x, y)          lanes where x < y (ordered: false on NaN)
//   Blend(m, x, y)          lane-wise m ? y : x
//
// Shape: a 2x4 (rows x vectors) register micro-tile — eight accumulators
// live in registers across each k chunk, so C traffic is one load + one
// store per strip per chunk and every B load is amortized over two C rows.
// Within a (j0, k0) tile the strip loop is outermost and the row-pair loop
// inner: one strip's packed micro-panel (kn x 4 kWidth doubles: 32 KiB on
// AVX-512, 16 KiB on AVX2 at tile_k = 128) stays L1-resident while every
// row pair of [i0, i1) streams through it, so B is read from L2 once per
// tile rather than once per row pair. Each output element still sees its
// k chunks in ascending order, so the loop order does not change results.
//
// B is repacked per (j0, k0) tile into contiguous per-strip micro-panels
// (GEMM-style): walking a 4-vector column strip down k in the natural
// row-major layout strides by 8 KiB per step at tile_j = 1024, which defeats
// the hardware prefetcher and leaves the micro-tile latency-bound on L2.
// The packed layout makes the inner k loop a sequential read of a
// kn x (4 kWidth) panel, and the pack cost (one pass over the tile) is
// amortized over every row pair of the block. Ragged strip tails are
// zero-padded in the pack so the k loop needs no masked B loads; the dead
// lanes compute garbage that masked C stores never write back.
//
// Bitwise contract (vs the scalar TiledRows in kernels.cc): for each output
// element, candidates S::Multiply(a_ik, b_kj) are folded in ascending-k
// order with keep-on-tie Add, identical per-lane arithmetic, no reassociation
// of Multiply, no FMA. The scalar path's all-annihilator quad skip is
// dropped rather than masked: an annihilator a_ik makes Multiply(a_ik, b)
// another annihilator (or a NaN candidate losing every Add) in all four
// semirings' domains, so folding it is the identity — same function, no
// branch. Aliasing of C with A/B is the caller's problem (kernels.cc routes
// aliased calls to the scalar path).
//
// The same wrappers also instantiate ArgminRowImpl, the successor plane's
// relaxation (graph::SuccessorsFromDistances): a column chunk of best
// distances and hops stays in registers while the row's neighbours fold in
// ascending order through add, ordered less-than and two blends. A select
// written as `hop[j] = via < best[j] ? k : hop[j]` over memory compiles to
// a masked store behind a test-and-jump on every vector instead.

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "linalg/block_pool.h"
#include "linalg/semiring.h"

namespace apspark::linalg::simd_detail {

/// Lane-wise semiring ops over a vector wrapper V: the vector twin of the
/// scalar structs in semiring.h, with operand orders chosen so min/maxpd
/// tie/NaN behaviour matches the scalar branches bit for bit.
template <typename V, typename S>
struct VecAlgebra;

template <typename V>
struct VecAlgebra<V, MinPlusSemiring> {
  using Vec = typename V::Vec;
  // scalar: cand < acc ? cand : acc  — minpd(cand, acc) keeps acc on
  // tie/NaN, the same selection.
  static Vec Add(Vec acc, Vec cand) { return V::Min(cand, acc); }
  static Vec Multiply(Vec a, Vec b) { return V::AddPd(a, b); }
};

template <typename V>
struct VecAlgebra<V, BooleanSemiring> {
  using Vec = typename V::Vec;
  static Vec Add(Vec acc, Vec cand) { return V::BoolOr(acc, cand); }
  static Vec Multiply(Vec a, Vec b) { return V::BoolAnd(a, b); }
};

template <typename V>
struct VecAlgebra<V, MaxMinSemiring> {
  using Vec = typename V::Vec;
  static Vec Add(Vec acc, Vec cand) { return V::Max(cand, acc); }
  // scalar: b < a ? b : a  — minpd(b, a) returns a on tie/NaN, same branch.
  static Vec Multiply(Vec a, Vec b) { return V::Min(b, a); }
};

template <typename V>
struct VecAlgebra<V, MaxTimesSemiring> {
  using Vec = typename V::Vec;
  static Vec Add(Vec acc, Vec cand) { return V::Max(cand, acc); }
  static Vec Multiply(Vec a, Vec b) { return V::MulPd(a, b); }
};

/// One packed 4-vector column strip of one or two C rows: the 2x4 register
/// micro-tile. `bp` points at the strip's packed micro-panel (kn rows of
/// 4*kWidth contiguous doubles). When kMasked, `live` < 4*kWidth columns are
/// real; the per-vector masks gate only the C loads/stores — B reads come
/// from the zero-padded pack at full width, and dead lanes are never written.
template <typename V, typename S, int kRows, bool kMasked>
inline void MicroStrip(std::int64_t kn, std::int64_t live, const double* ap0,
                       const double* ap1, const double* bp, double* cp0,
                       double* cp1) {
  static_assert(kRows == 1 || kRows == 2);
  using A = VecAlgebra<V, S>;
  using Vec = typename V::Vec;
  using Mask = typename V::Mask;
  constexpr std::int64_t W = V::kWidth;
  Mask m0{}, m1{}, m2{}, m3{};
  Vec c00, c01, c02, c03;
  if constexpr (kMasked) {
    m0 = V::TailMask(std::clamp<std::int64_t>(live - 0 * W, 0, W));
    m1 = V::TailMask(std::clamp<std::int64_t>(live - 1 * W, 0, W));
    m2 = V::TailMask(std::clamp<std::int64_t>(live - 2 * W, 0, W));
    m3 = V::TailMask(std::clamp<std::int64_t>(live - 3 * W, 0, W));
    c00 = V::MaskLoad(cp0 + 0 * W, m0);
    c01 = V::MaskLoad(cp0 + 1 * W, m1);
    c02 = V::MaskLoad(cp0 + 2 * W, m2);
    c03 = V::MaskLoad(cp0 + 3 * W, m3);
  } else {
    c00 = V::Load(cp0 + 0 * W);
    c01 = V::Load(cp0 + 1 * W);
    c02 = V::Load(cp0 + 2 * W);
    c03 = V::Load(cp0 + 3 * W);
  }
  Vec c10 = c00, c11 = c01, c12 = c02, c13 = c03;
  if constexpr (kRows == 2) {
    if constexpr (kMasked) {
      c10 = V::MaskLoad(cp1 + 0 * W, m0);
      c11 = V::MaskLoad(cp1 + 1 * W, m1);
      c12 = V::MaskLoad(cp1 + 2 * W, m2);
      c13 = V::MaskLoad(cp1 + 3 * W, m3);
    } else {
      c10 = V::Load(cp1 + 0 * W);
      c11 = V::Load(cp1 + 1 * W);
      c12 = V::Load(cp1 + 2 * W);
      c13 = V::Load(cp1 + 3 * W);
    }
  }
  for (std::int64_t kk = 0; kk < kn; ++kk) {
    const double* bk = bp + kk * 4 * W;
    const Vec b0 = V::Load(bk + 0 * W);
    const Vec b1 = V::Load(bk + 1 * W);
    const Vec b2 = V::Load(bk + 2 * W);
    const Vec b3 = V::Load(bk + 3 * W);
    const Vec a0 = V::Broadcast(ap0[kk]);
    c00 = A::Add(c00, A::Multiply(a0, b0));
    c01 = A::Add(c01, A::Multiply(a0, b1));
    c02 = A::Add(c02, A::Multiply(a0, b2));
    c03 = A::Add(c03, A::Multiply(a0, b3));
    if constexpr (kRows == 2) {
      const Vec a1 = V::Broadcast(ap1[kk]);
      c10 = A::Add(c10, A::Multiply(a1, b0));
      c11 = A::Add(c11, A::Multiply(a1, b1));
      c12 = A::Add(c12, A::Multiply(a1, b2));
      c13 = A::Add(c13, A::Multiply(a1, b3));
    }
  }
  if constexpr (kMasked) {
    V::MaskStore(cp0 + 0 * W, m0, c00);
    V::MaskStore(cp0 + 1 * W, m1, c01);
    V::MaskStore(cp0 + 2 * W, m2, c02);
    V::MaskStore(cp0 + 3 * W, m3, c03);
    if constexpr (kRows == 2) {
      V::MaskStore(cp1 + 0 * W, m0, c10);
      V::MaskStore(cp1 + 1 * W, m1, c11);
      V::MaskStore(cp1 + 2 * W, m2, c12);
      V::MaskStore(cp1 + 3 * W, m3, c13);
    }
  } else {
    V::Store(cp0 + 0 * W, c00);
    V::Store(cp0 + 1 * W, c01);
    V::Store(cp0 + 2 * W, c02);
    V::Store(cp0 + 3 * W, c03);
    if constexpr (kRows == 2) {
      V::Store(cp1 + 0 * W, c10);
      V::Store(cp1 + 1 * W, c11);
      V::Store(cp1 + 2 * W, c12);
      V::Store(cp1 + 3 * W, c13);
    }
  }
}

/// One packed strip over C rows [i0, i1) for the current (j0, k0) tile:
/// row pairs through the 2x4 micro-tile, then a final single row. Every row
/// pair re-reads the strip's micro-panel (kn x 4 kWidth doubles), which
/// therefore stays L1-resident across the rows.
template <typename V, typename S, bool kMasked>
inline void MicroStripRows(std::int64_t i0, std::int64_t i1, std::int64_t kn,
                           std::int64_t live, const double* a,
                           std::int64_t lda, const double* bp, double* c,
                           std::int64_t ldc) {
  std::int64_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    const double* ap0 = a + i * lda;
    double* cp0 = c + i * ldc;
    MicroStrip<V, S, 2, kMasked>(kn, live, ap0, ap0 + lda, bp, cp0,
                                 cp0 + ldc);
  }
  if (i < i1) {
    const double* ap0 = a + i * lda;
    double* cp0 = c + i * ldc;
    MicroStrip<V, S, 1, kMasked>(kn, live, ap0, ap0, bp, cp0, cp0);
  }
}

/// Rows per block of the strip loop: 128 rows of a tile_k = 128 A panel are
/// 128 KiB, which stays L2-resident beside a 1 MiB B pack.
inline constexpr std::int64_t kStripRowBlock = 128;

/// SIMD body of the tiled accumulate over C rows [i0, i1): same tile_j /
/// tile_k blocking and ascending-k candidate order as the scalar TiledRows,
/// with the k loop of every column strip register-resident and B repacked
/// per tile into sequential micro-panels. Degenerates to the panel kernel's
/// whole-reduction-in-registers shape when tile_j >= n and tile_k >= k.
template <typename V, typename S>
void SimdTiledRowsImpl(std::int64_t i0, std::int64_t i1, std::int64_t n,
                       std::int64_t k, const double* a, std::int64_t lda,
                       const double* b, std::int64_t ldb, double* c,
                       std::int64_t ldc, std::int64_t tile_j,
                       std::int64_t tile_k) {
  constexpr std::int64_t SW = 4 * V::kWidth;
  const std::int64_t tj = std::max<std::int64_t>(SW, tile_j);
  const std::int64_t tk = std::max<std::int64_t>(1, tile_k);
  const std::int64_t sn_max = (std::min(tj, n) + SW - 1) / SW;
  const std::int64_t kn_max = std::min(tk, k);
  // This thread's scratch, cache-line aligned so no B load of the k loop
  // splits across two lines.
  double* const pack =
      ThreadScratch(static_cast<std::size_t>(sn_max * kn_max * SW));
  for (std::int64_t j0 = 0; j0 < n; j0 += tj) {
    const std::int64_t jn = std::min(tj, n - j0);
    const std::int64_t sn = (jn + SW - 1) / SW;
    for (std::int64_t k0 = 0; k0 < k; k0 += tk) {
      const std::int64_t kn = std::min(tk, k - k0);
      // Pack the B tile strip-major: pack[(s*kn + kk)*SW ..] holds B row
      // k0+kk, columns j0+s*SW .. +SW, zero-padded past jn. Reads are
      // contiguous B rows; writes land in the L2-resident pack.
      for (std::int64_t kk = 0; kk < kn; ++kk) {
        const double* brow = b + (k0 + kk) * ldb + j0;
        for (std::int64_t s = 0; s < sn; ++s) {
          double* dst = pack + (s * kn + kk) * SW;
          const std::int64_t cols = std::min<std::int64_t>(SW, jn - s * SW);
          std::int64_t t = 0;
          for (; t < cols; ++t) dst[t] = brow[s * SW + t];
          for (; t < SW; ++t) dst[t] = 0.0;
        }
      }
      // Strips outermost within a row block: each strip's micro-panel is
      // loaded into L1 once and reused by every row pair of the block,
      // instead of streaming the whole pack from L2 once per row pair. The
      // row block keeps the A panel it re-reads per strip L2-resident next
      // to the pack.
      for (std::int64_t r0 = i0; r0 < i1; r0 += kStripRowBlock) {
        const std::int64_t r1 = std::min(i1, r0 + kStripRowBlock);
        for (std::int64_t s = 0; s < sn; ++s) {
          const double* bp = pack + s * kn * SW;
          const std::int64_t live = jn - s * SW;
          if (live >= SW) {
            MicroStripRows<V, S, false>(r0, r1, kn, SW, a + k0, lda, bp,
                                        c + j0 + s * SW, ldc);
          } else {
            MicroStripRows<V, S, true>(r0, r1, kn, live, a + k0, lda, bp,
                                       c + j0 + s * SW, ldc);
          }
        }
      }
    }
  }
}

/// One column chunk of ArgminRowImpl: 4 vectors of best distances and 4 of
/// hops stay in registers while every term folds in, then the hops are
/// stored. When kMasked only the first `live` columns are real: dist lanes
/// past them load as 0.0 and their hops are never written.
template <typename V, bool kMasked>
inline void ArgminChunk(const std::pair<std::int64_t, double>* terms,
                        std::size_t count, const double* d, std::int64_t ldd,
                        std::int64_t live, double* out) {
  using Vec = typename V::Vec;
  using Mask = typename V::Mask;
  constexpr std::int64_t W = V::kWidth;
  Mask m0{}, m1{}, m2{}, m3{};
  if constexpr (kMasked) {
    m0 = V::TailMask(std::clamp<std::int64_t>(live - 0 * W, 0, W));
    m1 = V::TailMask(std::clamp<std::int64_t>(live - 1 * W, 0, W));
    m2 = V::TailMask(std::clamp<std::int64_t>(live - 2 * W, 0, W));
    m3 = V::TailMask(std::clamp<std::int64_t>(live - 3 * W, 0, W));
  }
  const Vec inf = V::Broadcast(std::numeric_limits<double>::infinity());
  const Vec none = V::Broadcast(-1.0);
  Vec b0 = inf, b1 = inf, b2 = inf, b3 = inf;
  Vec h0 = none, h1 = none, h2 = none, h3 = none;
  for (std::size_t t = 0; t < count; ++t) {
    const double* dk = d + terms[t].first * ldd;
    const Vec w = V::Broadcast(terms[t].second);
    const Vec k = V::Broadcast(static_cast<double>(terms[t].first));
    Vec x0, x1, x2, x3;
    if constexpr (kMasked) {
      x0 = V::MaskLoad(dk + 0 * W, m0);
      x1 = V::MaskLoad(dk + 1 * W, m1);
      x2 = V::MaskLoad(dk + 2 * W, m2);
      x3 = V::MaskLoad(dk + 3 * W, m3);
    } else {
      x0 = V::Load(dk + 0 * W);
      x1 = V::Load(dk + 1 * W);
      x2 = V::Load(dk + 2 * W);
      x3 = V::Load(dk + 3 * W);
    }
    // via = w + dist(k, j); a lane takes k only when via < best (ordered:
    // a NaN via never wins), so the first k to reach a minimum keeps it.
    const Vec v0 = V::AddPd(w, x0);
    const Vec v1 = V::AddPd(w, x1);
    const Vec v2 = V::AddPd(w, x2);
    const Vec v3 = V::AddPd(w, x3);
    const Mask l0 = V::LessMask(v0, b0);
    const Mask l1 = V::LessMask(v1, b1);
    const Mask l2 = V::LessMask(v2, b2);
    const Mask l3 = V::LessMask(v3, b3);
    b0 = V::Blend(l0, b0, v0);
    b1 = V::Blend(l1, b1, v1);
    b2 = V::Blend(l2, b2, v2);
    b3 = V::Blend(l3, b3, v3);
    h0 = V::Blend(l0, h0, k);
    h1 = V::Blend(l1, h1, k);
    h2 = V::Blend(l2, h2, k);
    h3 = V::Blend(l3, h3, k);
  }
  if constexpr (kMasked) {
    V::MaskStore(out + 0 * W, m0, h0);
    V::MaskStore(out + 1 * W, m1, h1);
    V::MaskStore(out + 2 * W, m2, h2);
    V::MaskStore(out + 3 * W, m3, h3);
  } else {
    V::Store(out + 0 * W, h0);
    V::Store(out + 1 * W, h1);
    V::Store(out + 2 * W, h2);
    V::Store(out + 3 * W, h3);
  }
}

/// SIMD body of the successor argmin over one row: out[j] = the k of the
/// first term (in the given order) minimizing w + d[k * ldd + j] by strict
/// `<`, as a double, or -1.0 when no term is below +inf. Columns go in
/// chunks of 4 vectors, each folded over every term without a branch, so
/// every out[j] is written.
template <typename V>
void ArgminRowImpl(const std::pair<std::int64_t, double>* terms,
                   std::size_t count, const double* d, std::int64_t ldd,
                   std::int64_t n, double* out) {
  constexpr std::int64_t CW = 4 * V::kWidth;
  std::int64_t j0 = 0;
  for (; j0 + CW <= n; j0 += CW) {
    ArgminChunk<V, false>(terms, count, d + j0, ldd, CW, out + j0);
  }
  if (j0 < n) {
    ArgminChunk<V, true>(terms, count, d + j0, ldd, n - j0, out + j0);
  }
}

}  // namespace apspark::linalg::simd_detail
