#include "linalg/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "linalg/semiring.h"
#include "linalg/simd.h"
#include "obs/metrics_registry.h"

namespace apspark::linalg {
namespace {

// The one tile geometry of the tiled kernels, sized for a 48 KiB L1d +
// 2 MiB L2 core. Every value is safe for any shape (ragged edges are handled
// by the kernels); on other caches only the speed changes, never a result.
//
// Columns of B/C per tile: one C-row segment and one B-row segment of this
// width, plus a third of slack for A broadcasts, fit half of L1d
// (3 x 1024 x 8 B = 24 KiB), leaving the other half for the second
// micro-tile row, prefetch streams and stack.
constexpr std::int64_t kTileJ = 1024;
// Rows of B held hot per panel: the kTileK x kTileJ B panel reused across a
// row block fills at most half of L2 (128 x 1024 x 8 B = 1 MiB), so C/A
// traffic does not evict it.
constexpr std::int64_t kTileK = 128;
// Diagonal-tile size of FloydWarshallInPlace's blocked decomposition: the
// three tiles a phase-3 update touches fit half of L2 (3 x 128 KiB).
constexpr std::int64_t kFwBlock = 128;
// Minimum rows per stripe when fanning a kernel out on the pool.
constexpr std::int64_t kParallelGrainRows = 64;

// Always-on kernel-invocation accounting: one sharded-counter increment per
// block-level kernel call, labelled with the resolved ISA and active
// semiring that actually ran. The registry lookup is memoized in a
// thread-local map, so the steady-state cost is a hash probe plus a relaxed
// atomic add — noise next to any block's O(b^3) work.
enum KernelKind {
  kKernelAccumulate = 0,  // square-tiled accumulate (C ⊕= A ⊗ B)
  kKernelPanel = 1,       // narrow-panel rect micro-kernel
  kKernelClosure = 2,     // in-place Floyd-Warshall / Kleene closure
};

constexpr const char* kKernelKindNames[] = {"accumulate", "panel", "closure"};

obs::Counter& KernelCounter(KernelKind kind, SimdIsa isa,
                            SemiringId semiring) {
  const std::uint64_t key = static_cast<std::uint64_t>(kind) |
                            (static_cast<std::uint64_t>(isa) << 4) |
                            (static_cast<std::uint64_t>(semiring) << 8);
  thread_local std::unordered_map<std::uint64_t, obs::Counter*> memo;
  auto it = memo.find(key);
  if (it == memo.end()) {
    const std::string labels =
        std::string("kernel=\"") + kKernelKindNames[kind] + "\",isa=\"" +
        SimdIsaName(isa) + "\",semiring=\"" + SemiringName(semiring) + "\"";
    it = memo.emplace(key, &obs::Registry::Global().GetCounter(
                               "kernel_invocations_total", labels))
             .first;
  }
  return *it->second;
}

void CheckProductShapes(const DenseBlock& a, const DenseBlock& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("min-plus product: inner dimensions differ");
  }
}

/// Phantom of the product/update result shape, preserving the packed
/// representation when every operand carries it — so model runs charge
/// packed bytes exactly like real runs.
DenseBlock PhantomLike(std::int64_t rows, std::int64_t cols, bool packed) {
  return packed ? DenseBlock::PackedPhantom(rows, cols)
                : DenseBlock::Phantom(rows, cols);
}

/// Packed operands are boolean-only payloads; mixing them with dense
/// operands in one kernel call is a routing bug, not a computable case.
void CheckUniformRepresentation(bool a_packed, bool b_packed) {
  if (a_packed != b_packed) {
    throw std::invalid_argument("kernel: packed/dense operand mix");
  }
}

void CheckPackedSemiring() {
  if (GetActiveSemiring() != SemiringId::kBoolean) {
    throw std::invalid_argument(
        "kernel: bit-packed blocks require the boolean semiring");
  }
}

/// Number of row stripes to fan an m x n x k kernel out over: as many as
/// its multiply-adds fill host grains (KernelTuning::parallel_grain_ops),
/// capped by the row grain and the pool width. 1 means "stay sequential".
std::int64_t ParallelStripes(std::int64_t m, std::int64_t n, std::int64_t k,
                             const KernelTuning& tuning) {
  const std::int64_t by_work =
      m * n * k / std::max<std::int64_t>(1, tuning.parallel_grain_ops);
  if (by_work < 2) return 1;
  const std::int64_t by_rows =
      (m + kParallelGrainRows - 1) / kParallelGrainRows;
  const std::int64_t by_threads =
      static_cast<std::int64_t>(KernelThreadPool().num_threads());
  return std::max<std::int64_t>(1, std::min({by_work, by_rows, by_threads}));
}

// ---------------------------------------------------------------------------
// Semiring-templated scalar/tiled workers
// ---------------------------------------------------------------------------
//
// Every worker is a template over a semiring struct S (linalg/semiring.h).
// The tiled kernels reorder only the (+) reduction — candidates
// S::Multiply(a_ik, b_kj) are computed identically, Add is a keep-on-tie
// selection applied in ascending-k order — so both variants produce
// bitwise-identical results under every semiring, and every instantiation
// locks against the scalar oracle in semiring.h.

/// Scalar k-i-j Floyd-Warshall closure on a raw tile: the closure of a tile
/// no wider than kFwBlock and phase 1 of the blocked decomposition.
template <typename S>
void FloydWarshallRawScalar(std::int64_t n, double* a, std::int64_t lda) {
  for (std::int64_t k = 0; k < n; ++k) {
    const double* ak = a + k * lda;
    for (std::int64_t i = 0; i < n; ++i) {
      double* ai = a + i * lda;
      const double aik = ai[k];
      if (S::IsZero(aik)) continue;  // annihilator: no path through k
      for (std::int64_t j = 0; j < n; ++j) {
        ai[j] = S::Add(ai[j], S::Multiply(aik, ak[j]));
      }
    }
  }
}

/// Sequential body of the tiled micro-kernel over a row range [i0, i1).
/// `isa` is the pre-resolved dispatch decision (scalar when an operand
/// shares elements with the output — see AccumulateRawTiled).
template <typename S>
void TiledRows(std::int64_t i0, std::int64_t i1, std::int64_t n,
               std::int64_t k, const double* a, std::int64_t lda,
               const double* b, std::int64_t ldb, double* c, std::int64_t ldc,
               SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx512:
      SimdTiledRowsAvx512(S::kId, i0, i1, n, k, a, lda, b, ldb, c, ldc,
                          kTileJ, kTileK);
      return;
    case SimdIsa::kAvx2:
      SimdTiledRowsAvx2(S::kId, i0, i1, n, k, a, lda, b, ldb, c, ldc, kTileJ,
                        kTileK);
      return;
    case SimdIsa::kScalar:
      break;  // the portable loops below
  }
  for (std::int64_t j0 = 0; j0 < n; j0 += kTileJ) {
    const std::int64_t jn = std::min(kTileJ, n - j0);
    for (std::int64_t k0 = 0; k0 < k; k0 += kTileK) {
      const std::int64_t kn = std::min(kTileK, k - k0);
      for (std::int64_t i = i0; i < i1; ++i) {
        const double* ai = a + i * lda + k0;
        double* ci = c + i * ldc + j0;
        // Register-blocked over k: four B rows are folded into C per pass,
        // so each C segment is loaded and stored once per four k steps
        // instead of once per step. The Add chain applies the k's in
        // ascending order with keep-on-tie semantics, exactly like the
        // scalar loop, so results are bitwise identical. An annihilator
        // a_ik needs no special case inside a quad (Zero (x) b is Zero and
        // Add(c, Zero) keeps c bitwise, in all four semirings' domains),
        // but an all-annihilator quad is skipped outright — the hoisted
        // guard of the scalar loop, four rows at a time.
        std::int64_t kk = 0;
        for (; kk + 4 <= kn; kk += 4) {
          const double a0 = ai[kk + 0];
          const double a1 = ai[kk + 1];
          const double a2 = ai[kk + 2];
          const double a3 = ai[kk + 3];
          if (S::IsZero(a0) && S::IsZero(a1) && S::IsZero(a2) &&
              S::IsZero(a3)) {
            continue;  // no path through any of these four k's
          }
          const double* b0 = b + (k0 + kk + 0) * ldb + j0;
          const double* b1 = b + (k0 + kk + 1) * ldb + j0;
          const double* b2 = b + (k0 + kk + 2) * ldb + j0;
          const double* b3 = b + (k0 + kk + 3) * ldb + j0;
          // Branch-free selection so the compiler emits vector min/maxpd;
          // exact-row aliasing of c with a B row (in-place phase updates)
          // is safe because every lane reads before it writes.
          for (std::int64_t j = 0; j < jn; ++j) {
            double cj = ci[j];
            cj = S::Add(cj, S::Multiply(a0, b0[j]));
            cj = S::Add(cj, S::Multiply(a1, b1[j]));
            cj = S::Add(cj, S::Multiply(a2, b2[j]));
            cj = S::Add(cj, S::Multiply(a3, b3[j]));
            ci[j] = cj;
          }
        }
        for (; kk < kn; ++kk) {
          const double aik = ai[kk];
          if (S::IsZero(aik)) continue;  // hoisted: no path through kk
          const double* bk = b + (k0 + kk) * ldb + j0;
          for (std::int64_t j = 0; j < jn; ++j) {
            ci[j] = S::Add(ci[j], S::Multiply(aik, bk[j]));
          }
        }
      }
    }
  }
}

/// Widest C row segment the panel micro-kernel holds in a local accumulator.
/// 32 doubles fill four AVX-512 (eight AVX2) registers — enough to vectorize
/// while leaving room for the B row and the candidate products.
constexpr std::int64_t kPanelAccWidth = 32;

/// Panels at most this wide take the accumulator micro-kernel; wider ones
/// fall back to the square-tiled path (whose kTileJ/kTileK blocking wins once
/// the B panel no longer fits low cache levels).
constexpr std::int64_t kPanelNarrowWidth = 64;

/// Sequential body of the panel micro-kernel over a row range [i0, i1): the
/// C row segment lives in `acc` across the whole k reduction, so C traffic
/// drops to one load and one store per row. Candidates are applied in the
/// same ascending-k, keep-on-tie order as the scalar loop — bitwise equal.
template <typename S>
void PanelRows(std::int64_t i0, std::int64_t i1, std::int64_t n,
               std::int64_t k, const double* a, std::int64_t lda,
               const double* b, std::int64_t ldb, double* c, std::int64_t ldc,
               SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx512:
      // tile_j >= n and tile_k >= k degenerate the SIMD micro-tile into
      // exactly this kernel's shape: the whole reduction folds into the
      // register accumulator, one C load/store per row strip.
      SimdTiledRowsAvx512(S::kId, i0, i1, n, k, a, lda, b, ldb, c, ldc,
                          /*tile_j=*/n, /*tile_k=*/k);
      return;
    case SimdIsa::kAvx2:
      SimdTiledRowsAvx2(S::kId, i0, i1, n, k, a, lda, b, ldb, c, ldc,
                        /*tile_j=*/n, /*tile_k=*/k);
      return;
    case SimdIsa::kScalar:
      break;  // the portable accumulator loop below
  }
  double acc[kPanelAccWidth];
  for (std::int64_t j0 = 0; j0 < n; j0 += kPanelAccWidth) {
    const std::int64_t jn = std::min(kPanelAccWidth, n - j0);
    for (std::int64_t i = i0; i < i1; ++i) {
      const double* ai = a + i * lda;
      double* ci = c + i * ldc + j0;
      for (std::int64_t j = 0; j < jn; ++j) acc[j] = ci[j];
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const double aik = ai[kk];
        if (S::IsZero(aik)) continue;  // no path through kk
        const double* bk = b + kk * ldb + j0;
        for (std::int64_t j = 0; j < jn; ++j) {
          acc[j] = S::Add(acc[j], S::Multiply(aik, bk[j]));
        }
      }
      for (std::int64_t j = 0; j < jn; ++j) ci[j] = acc[j];
    }
  }
}

/// True when operand [p .. p + (rows-1)*ld + cols) overlaps the output
/// region of C — row striping across host threads is unsafe then (in-place
/// Kleene and phase updates alias operands with their output).
bool OverlapsOutput(const double* p, std::int64_t rows, std::int64_t ld,
                    std::int64_t cols, const double* c, std::int64_t m,
                    std::int64_t ldc, std::int64_t n) {
  const auto lo = reinterpret_cast<std::uintptr_t>(p);
  const auto hi =
      lo + static_cast<std::uintptr_t>((rows - 1) * ld + cols) * sizeof(double);
  const auto clo = reinterpret_cast<std::uintptr_t>(c);
  const auto chi =
      clo + static_cast<std::uintptr_t>((m - 1) * ldc + n) * sizeof(double);
  return lo < chi && clo < hi;
}

/// Element-precise sharing test between operand X (rows_x x cols_x at px,
/// leading dimension ldx) and the output C — the SIMD routing predicate.
/// Address-interval overlap (OverlapsOutput) is too coarse for it: two
/// sub-blocks of one matrix interleave as intervals while touching disjoint
/// elements (the blocked-FW phase-3 updates), and those calls are safe for
/// the register-resident micro-tile. Only genuinely shared elements (the
/// in-place phase-2/Kleene updates) must keep the scalar schedule, whose
/// store cadence the bitwise contract was defined against. Falls back to
/// "shared" whenever the layouts are not commensurate (different leading
/// dimensions, or a column window that wraps a row boundary).
bool SharesElements(const double* px, std::int64_t rows_x, std::int64_t ldx,
                    std::int64_t cols_x, const double* c, std::int64_t m,
                    std::int64_t ldc, std::int64_t n) {
  if (!OverlapsOutput(px, rows_x, ldx, cols_x, c, m, ldc, n)) return false;
  if (ldx != ldc || ldc <= 0) return true;
  // Interval overlap means one allocation in practice, so the pointer
  // difference decomposes into a (row, column) offset of X's origin within
  // C's coordinate frame.
  const std::ptrdiff_t delta = px - c;
  std::ptrdiff_t row_off = delta / ldc;
  std::ptrdiff_t col_off = delta % ldc;
  if (col_off < 0) {
    col_off += ldc;
    row_off -= 1;
  }
  if (col_off + cols_x > ldc) return true;  // wraps a row: assume shared
  const bool rows_overlap = row_off < m && row_off + rows_x > 0;
  const bool cols_overlap = col_off < n;
  return rows_overlap && cols_overlap;
}

/// The per-call dispatch decision of the tiled/panel bodies: the resolved
/// tuning ISA, demoted to scalar when an operand shares elements with the
/// output. The scalar kernel stores C and re-reads B every quad, while the
/// SIMD micro-tile holds C in registers across a whole k chunk — on shared
/// elements the two schedules observe different intermediate values, so
/// aliased in-place updates stay on the scalar path to keep every result
/// reproducible under every ISA.
template <typename S>
SimdIsa ChooseIsa(const KernelTuning& tuning, const double* a, std::int64_t m,
                  std::int64_t lda, std::int64_t k, const double* b,
                  std::int64_t ldb, const double* c, std::int64_t ldc,
                  std::int64_t n) {
  const SimdIsa isa = ResolveSimdIsa(tuning.isa);
  if (isa == SimdIsa::kScalar) return isa;
  if (SharesElements(a, m, lda, k, c, m, ldc, n) ||
      SharesElements(b, k, ldb, n, c, m, ldc, n)) {
    return SimdIsa::kScalar;
  }
  return isa;
}

template <typename S>
void AccumulateRawTiled(std::int64_t m, std::int64_t n, std::int64_t k,
                        const double* a, std::int64_t lda, const double* b,
                        std::int64_t ldb, double* c, std::int64_t ldc,
                        bool parallel) {
  const KernelTuning tuning = GetKernelTuning();
  // Row striping is only safe when no stripe's C rows are another stripe's
  // A/B input (the in-place Kleene and phase updates alias them); overlap
  // forces the sequential path.
  if (parallel && (OverlapsOutput(a, m, lda, k, c, m, ldc, n) ||
                   OverlapsOutput(b, k, ldb, n, c, m, ldc, n))) {
    parallel = false;
  }
  const SimdIsa isa = ChooseIsa<S>(tuning, a, m, lda, k, b, ldb, c, ldc, n);
  KernelCounter(kKernelAccumulate, isa, tuning.semiring).Add();
  const std::int64_t stripes =
      parallel ? ParallelStripes(m, n, k, tuning) : 1;
  if (stripes <= 1) {
    TiledRows<S>(0, m, n, k, a, lda, b, ldb, c, ldc, isa);
    return;
  }
  const std::int64_t rows_per_stripe = (m + stripes - 1) / stripes;
  KernelThreadPool().ParallelForTasks(
      static_cast<std::size_t>(stripes), [&](std::size_t s) {
        const std::int64_t i0 =
            static_cast<std::int64_t>(s) * rows_per_stripe;
        const std::int64_t i1 = std::min(m, i0 + rows_per_stripe);
        if (i0 < i1) {
          TiledRows<S>(i0, i1, n, k, a, lda, b, ldb, c, ldc, isa);
        }
      });
}

template <typename S>
void PanelRawTiled(std::int64_t m, std::int64_t n, std::int64_t k,
                   const double* a, std::int64_t lda, const double* b,
                   std::int64_t ldb, double* c, std::int64_t ldc,
                   bool parallel) {
  if (n > kPanelNarrowWidth) {
    // Wide panel: the square-tiled kernel's cache blocking is the better
    // shape (and stays bitwise-equal — same ascending-k candidate order).
    AccumulateRawTiled<S>(m, n, k, a, lda, b, ldb, c, ldc, parallel);
    return;
  }
  if (parallel && (OverlapsOutput(a, m, lda, k, c, m, ldc, n) ||
                   OverlapsOutput(b, k, ldb, n, c, m, ldc, n))) {
    parallel = false;
  }
  const KernelTuning tuning = GetKernelTuning();
  const SimdIsa isa = ChooseIsa<S>(tuning, a, m, lda, k, b, ldb, c, ldc, n);
  KernelCounter(kKernelPanel, isa, tuning.semiring).Add();
  const std::int64_t stripes =
      parallel ? ParallelStripes(m, n, k, tuning) : 1;
  if (stripes <= 1) {
    PanelRows<S>(0, m, n, k, a, lda, b, ldb, c, ldc, isa);
    return;
  }
  const std::int64_t rows_per_stripe = (m + stripes - 1) / stripes;
  KernelThreadPool().ParallelForTasks(
      static_cast<std::size_t>(stripes), [&](std::size_t s) {
        const std::int64_t i0 =
            static_cast<std::int64_t>(s) * rows_per_stripe;
        const std::int64_t i1 = std::min(m, i0 + rows_per_stripe);
        if (i0 < i1) {
          PanelRows<S>(i0, i1, n, k, a, lda, b, ldb, c, ldc, isa);
        }
      });
}

/// Blocked 3-phase Floyd-Warshall closure over a raw n x n matrix with
/// leading dimension lda. Phase-2/phase-3 tile updates reuse the accumulate
/// micro-kernel; with `parallel` they fan out on the host pool (tiles write
/// disjoint output, so the phases are race-free).
template <typename S>
void BlockedFloydWarshallRaw(std::int64_t n, double* a, std::int64_t lda,
                             std::int64_t block, bool parallel) {
  const std::int64_t q = (n + block - 1) / block;
  auto tile = [&](std::int64_t bi, std::int64_t bj) {
    return a + bi * block * lda + bj * block;
  };
  auto dim = [&](std::int64_t bi) { return std::min(block, n - bi * block); };
  auto update = [&](std::int64_t m2, std::int64_t n2, std::int64_t k2,
                    const double* ta, const double* tb, double* tc) {
    AccumulateRawTiled<S>(m2, n2, k2, ta, lda, tb, lda, tc, lda,
                          /*parallel=*/false);
  };
  for (std::int64_t t = 0; t < q; ++t) {
    const std::int64_t bt = dim(t);
    // Phase 1: close the diagonal tile.
    FloydWarshallRawScalar<S>(bt, tile(t, t), lda);
    // Phase 2: row and column tiles through the diagonal tile.
    auto phase2 = [&](std::int64_t j) {
      if (j == t) return;
      const std::int64_t bj = dim(j);
      // Row tile: A[t][j] = A[t][j] (+) A[t][t] (x) A[t][j].
      update(bt, bj, bt, tile(t, t), tile(t, j), tile(t, j));
      // Column tile: A[j][t] = A[j][t] (+) A[j][t] (x) A[t][t].
      update(bj, bt, bt, tile(j, t), tile(t, t), tile(j, t));
    };
    // Phase 3: remaining tiles through the freshly updated row/column.
    auto phase3 = [&](std::int64_t i) {
      if (i == t) return;
      const std::int64_t bi = dim(i);
      for (std::int64_t j = 0; j < q; ++j) {
        if (j == t) continue;
        update(bi, dim(j), bt, tile(i, t), tile(t, j), tile(i, j));
      }
    };
    if (parallel && q > 1) {
      // Every independent block update of the pivot step is its own unit of
      // host work: 2(q-1) row/column panels in phase 2, (q-1)^2 outer blocks
      // in phase 3 — not just q row-level stripes — merged into stealable
      // groups by the host grain (ForEachByHostWork). Small-block layouts
      // (q large, b small) expose q^2 units of work to the pool instead of
      // q, which is what lets them scale.
      std::vector<std::int64_t> work(static_cast<std::size_t>(2 * q));
      for (std::int64_t j = 0; j < q; ++j) {
        const std::int64_t w = j == t ? 0 : bt * dim(j) * bt;
        work[static_cast<std::size_t>(2 * j)] = w;
        work[static_cast<std::size_t>(2 * j + 1)] = w;
      }
      ForEachByHostWork(work, [&](std::size_t s) {
        const std::int64_t j = static_cast<std::int64_t>(s) / 2;
        if (j == t) return;
        const std::int64_t bj = dim(j);
        if ((s & 1) == 0) {
          // Row tile through the diagonal.
          update(bt, bj, bt, tile(t, t), tile(t, j), tile(t, j));
        } else {
          // Column tile through the diagonal.
          update(bj, bt, bt, tile(j, t), tile(t, t), tile(j, t));
        }
      });
      work.assign(static_cast<std::size_t>(q * q), 0);
      for (std::int64_t i = 0; i < q; ++i) {
        for (std::int64_t j = 0; j < q; ++j) {
          if (i == t || j == t) continue;
          work[static_cast<std::size_t>(i * q + j)] = dim(i) * dim(j) * bt;
        }
      }
      ForEachByHostWork(work, [&](std::size_t s) {
        const std::int64_t i = static_cast<std::int64_t>(s) / q;
        const std::int64_t j = static_cast<std::int64_t>(s) % q;
        if (i == t || j == t) return;
        update(dim(i), dim(j), bt, tile(i, t), tile(t, j), tile(i, j));
      });
    } else {
      for (std::int64_t j = 0; j < q; ++j) phase2(j);
      for (std::int64_t i = 0; i < q; ++i) phase3(i);
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-packed boolean kernels (the word-parallel or/and plane)
// ---------------------------------------------------------------------------
//
// Packed blocks store 64 booleans per word (dense_block.h). One word-or
// processes 64 columns; the (or, and) product c |= a (x) b walks the set
// bits of A's row — exactly the scalar kernel's "skip the annihilator"
// guard, 64 lanes at a time. Or is idempotent and commutative, so candidate
// order cannot matter: equivalence with the dense boolean path is exact by
// construction, which is why one sequential implementation serves both
// registry variants.

/// c |= a (or,and) b over packed blocks.
void BitAccumulate(const DenseBlock& a, const DenseBlock& b, DenseBlock& c) {
  const std::int64_t wpr_b = b.words_per_row();
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    const std::uint64_t* arow = a.WordRow(i);
    std::uint64_t* crow = c.MutableWordRow(i);
    for (std::int64_t w = 0; w < a.words_per_row(); ++w) {
      std::uint64_t word = arow[w];
      while (word != 0) {
        const std::int64_t k = (w << 6) + std::countr_zero(word);
        word &= word - 1;
        const std::uint64_t* brow = b.WordRow(k);
        for (std::int64_t v = 0; v < wpr_b; ++v) crow[v] |= brow[v];
      }
    }
  }
}

/// In-place Floyd-Warshall reachability closure over a packed square block:
/// row_i |= row_k wherever bit (i, k) is set. Updating pivot row k in place
/// is sound because or is idempotent (the same argument the dense closure's
/// static_assert encodes).
void BitClosureRaw(DenseBlock& a) {
  const std::int64_t n = a.rows();
  const std::int64_t wpr = a.words_per_row();
  for (std::int64_t k = 0; k < n; ++k) {
    const std::uint64_t* ak = a.WordRow(k);
    for (std::int64_t i = 0; i < n; ++i) {
      if (!a.GetBit(i, k)) continue;  // no path through k
      std::uint64_t* ai = a.MutableWordRow(i);
      for (std::int64_t w = 0; w < wpr; ++w) ai[w] |= ak[w];
    }
  }
}

/// a |= b element-wise over packed blocks (the boolean MatMin analogue).
void BitElementOrInPlace(DenseBlock& a, const DenseBlock& b) {
  std::uint64_t* pa = a.MutableWordRow(0);
  const std::uint64_t* pb = b.WordRow(0);
  const std::int64_t words = a.rows() * a.words_per_row();
  for (std::int64_t i = 0; i < words; ++i) pa[i] |= pb[i];
}

/// a_ij |= u_i & v_j for packed column vectors u (rows x 1), v (cols x 1):
/// the boolean outer-product update behind 2D Floyd-Warshall.
void BitOuterOrUpdate(DenseBlock& a, const DenseBlock& u,
                      const DenseBlock& v) {
  // Build the v row mask once: bit j of the mask is v_j.
  std::vector<std::uint64_t> mask(
      static_cast<std::size_t>(a.words_per_row()), 0);
  for (std::int64_t j = 0; j < a.cols(); ++j) {
    if (v.GetBit(j, 0)) {
      mask[static_cast<std::size_t>(j >> 6)] |= std::uint64_t{1} << (j & 63);
    }
  }
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    if (!u.GetBit(i, 0)) continue;
    std::uint64_t* ai = a.MutableWordRow(i);
    for (std::int64_t w = 0; w < a.words_per_row(); ++w) ai[w] |= mask[w];
  }
}

}  // namespace

void MinPlusAccumulateRaw(std::int64_t m, std::int64_t n, std::int64_t k,
                          const double* a, std::int64_t lda, const double* b,
                          std::int64_t ldb, double* c, std::int64_t ldc) {
  const bool parallel = GetKernelVariant() == KernelVariant::kTiledParallel;
  WithSemiring(GetActiveSemiring(), [&](auto s) {
    using S = decltype(s);
    AccumulateRawTiled<S>(m, n, k, a, lda, b, ldb, c, ldc, parallel);
  });
}

DenseBlock MinPlusProduct(const DenseBlock& a, const DenseBlock& b) {
  CheckProductShapes(a, b);
  if (a.is_phantom() || b.is_phantom()) {
    return PhantomLike(a.rows(), b.cols(), a.is_packed() && b.is_packed());
  }
  CheckUniformRepresentation(a.is_packed(), b.is_packed());
  if (a.is_packed()) {
    CheckPackedSemiring();
    DenseBlock c = DenseBlock::PackedBoolean(a.rows(), b.cols());
    BitAccumulate(a, b, c);
    return c;
  }
  DenseBlock c(a.rows(), b.cols(), SemiringZeroValue(GetActiveSemiring()));
  MinPlusAccumulateRaw(a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
                       b.data(), b.cols(), c.mutable_data(), c.cols());
  return c;
}

void MinPlusUpdate(const DenseBlock& a, const DenseBlock& b, DenseBlock& c) {
  CheckProductShapes(a, b);
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("min-plus update: output shape mismatch");
  }
  if (a.is_phantom() || b.is_phantom() || c.is_phantom()) {
    c = PhantomLike(a.rows(), b.cols(),
                    a.is_packed() && b.is_packed() && c.is_packed());
    return;
  }
  CheckUniformRepresentation(a.is_packed(), b.is_packed());
  CheckUniformRepresentation(a.is_packed(), c.is_packed());
  if (a.is_packed()) {
    CheckPackedSemiring();
    BitAccumulate(a, b, c);
    return;
  }
  MinPlusAccumulateRaw(a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
                       b.data(), b.cols(), c.mutable_data(), c.cols());
}

void MinPlusUpdateRect(const DenseBlock& a, const DenseBlock& p,
                       DenseBlock& c) {
  CheckProductShapes(a, p);
  if (c.rows() != a.rows() || c.cols() != p.cols()) {
    throw std::invalid_argument("min-plus rect update: output shape mismatch");
  }
  if (a.is_phantom() || p.is_phantom() || c.is_phantom()) {
    c = PhantomLike(a.rows(), p.cols(),
                    a.is_packed() && p.is_packed() && c.is_packed());
    return;
  }
  CheckUniformRepresentation(a.is_packed(), p.is_packed());
  CheckUniformRepresentation(a.is_packed(), c.is_packed());
  if (a.is_packed()) {
    CheckPackedSemiring();
    BitAccumulate(a, p, c);
    return;
  }
  const bool parallel = GetKernelVariant() == KernelVariant::kTiledParallel;
  WithSemiring(GetActiveSemiring(), [&](auto s) {
    using S = decltype(s);
    PanelRawTiled<S>(a.rows(), p.cols(), a.cols(), a.data(), a.cols(),
                     p.data(), p.cols(), c.mutable_data(), c.cols(), parallel);
  });
}

DenseBlock ElementMin(const DenseBlock& a, const DenseBlock& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("element-min: shape mismatch");
  }
  if (a.is_phantom() || b.is_phantom()) {
    return PhantomLike(a.rows(), a.cols(), a.is_packed() && b.is_packed());
  }
  DenseBlock out = a;
  ElementMinInPlace(out, b);
  return out;
}

void ElementMinInPlace(DenseBlock& a, const DenseBlock& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("element-min: shape mismatch");
  }
  if (a.is_phantom() || b.is_phantom()) {
    a = PhantomLike(a.rows(), a.cols(), a.is_packed() && b.is_packed());
    return;
  }
  CheckUniformRepresentation(a.is_packed(), b.is_packed());
  if (a.is_packed()) {
    CheckPackedSemiring();
    BitElementOrInPlace(a, b);
    return;
  }
  WithSemiring(GetActiveSemiring(), [&](auto s) {
    using S = decltype(s);
    double* pa = a.mutable_data();
    const double* pb = b.data();
    const std::int64_t n = a.size();
    for (std::int64_t i = 0; i < n; ++i) pa[i] = S::Add(pa[i], pb[i]);
  });
}

void FloydWarshallRaw(std::int64_t n, double* a, std::int64_t lda) {
  const KernelTuning tuning = GetKernelTuning();
  KernelCounter(kKernelClosure, ResolveSimdIsa(tuning.isa), tuning.semiring)
      .Add();
  WithSemiring(tuning.semiring, [&](auto s) {
    using S = decltype(s);
    if (n <= kFwBlock) {
      FloydWarshallRawScalar<S>(n, a, lda);
      return;
    }
    BlockedFloydWarshallRaw<S>(n, a, lda, kFwBlock,
                               tuning.variant == KernelVariant::kTiledParallel);
  });
}

void FloydWarshallInPlace(DenseBlock& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Floyd-Warshall: block must be square");
  }
  if (a.is_phantom()) return;  // phantom stays phantom, shape unchanged
  if (a.is_packed()) {
    CheckPackedSemiring();
    BitClosureRaw(a);
    return;
  }
  FloydWarshallRaw(a.rows(), a.mutable_data(), a.cols());
}

void OuterSumMinUpdate(DenseBlock& a, const DenseBlock& u,
                       const DenseBlock& v) {
  if (u.rows() != a.rows() || v.rows() != a.cols() || u.cols() != 1 ||
      v.cols() != 1) {
    throw std::invalid_argument("outer-sum update: vector shape mismatch");
  }
  if (a.is_phantom() || u.is_phantom() || v.is_phantom()) {
    a = PhantomLike(a.rows(), a.cols(),
                    a.is_packed() && u.is_packed() && v.is_packed());
    return;
  }
  CheckUniformRepresentation(a.is_packed(), u.is_packed());
  CheckUniformRepresentation(a.is_packed(), v.is_packed());
  if (a.is_packed()) {
    CheckPackedSemiring();
    BitOuterOrUpdate(a, u, v);
    return;
  }
  WithSemiring(GetActiveSemiring(), [&](auto s) {
    using S = decltype(s);
    const double* pu = u.data();
    const double* pv = v.data();
    for (std::int64_t i = 0; i < a.rows(); ++i) {
      const double ui = pu[i];
      if (S::IsZero(ui)) continue;
      double* ai = a.MutableRow(i);
      for (std::int64_t j = 0; j < a.cols(); ++j) {
        ai[j] = S::Add(ai[j], S::Multiply(ui, pv[j]));
      }
    }
  });
}

void BlockedFloydWarshall(DenseBlock& a, std::int64_t block_size) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("blocked Floyd-Warshall: matrix must be square");
  }
  if (block_size <= 0) {
    throw std::invalid_argument("blocked Floyd-Warshall: block size must be > 0");
  }
  if (a.is_phantom()) return;
  if (a.is_packed()) {
    // The word-parallel closure is already the fast shape for packed
    // reachability; block decomposition would only re-tile word-ors.
    CheckPackedSemiring();
    BitClosureRaw(a);
    return;
  }
  const bool parallel = GetKernelVariant() == KernelVariant::kTiledParallel;
  WithSemiring(GetActiveSemiring(), [&](auto s) {
    using S = decltype(s);
    BlockedFloydWarshallRaw<S>(a.rows(), a.mutable_data(), a.cols(),
                               block_size, parallel);
  });
}

std::string DescribeKernelTuning(const KernelTuning& tuning) {
  const SimdIsa resolved = ResolveSimdIsa(tuning.isa);
  std::string out = "variant=";
  out += KernelVariantName(tuning.variant);
  out += " semiring=";
  out += SemiringName(tuning.semiring);
  out += " isa=";
  out += SimdIsaName(resolved);
  out += " (requested ";
  out += SimdIsaName(tuning.isa);
  out += ", host best ";
  out += SimdIsaName(DetectSimdIsa());
  out += ") tiles j=";
  out += std::to_string(kTileJ);
  out += " k=";
  out += std::to_string(kTileK);
  out += " fw=";
  out += std::to_string(kFwBlock);
  return out;
}

}  // namespace apspark::linalg
