// Explicit-SIMD micro-kernel backends with runtime ISA dispatch.
//
// The tiled and panel kernels in kernels.cc, and the successor argmin of
// graph/path_reconstruction.cc, route their inner loops through one of three
// backends, chosen per call from KernelTuning::isa (clamped by
// ResolveSimdIsa in kernel_registry.h):
//
//   scalar  — the portable loops beside each caller (always available).
//   avx2    — 4-lane __m256d micro-tile, kernels_simd_avx2.cc.
//   avx512  — 8-lane __m512d micro-tile, kernels_simd_avx512.cc.
//
// Both SIMD translation units compile the same register-blocked 2x4
// (rows x vectors) micro-tile template (simd_microkernel.h) — they differ
// only in the vector-op wrapper they instantiate it with, and they are built
// with per-file -mavx2 / -mavx512f flags so the rest of the library keeps
// its baseline ISA. On compilers/targets without those flags the entry
// points below still link but report "not compiled"; runtime dispatch then
// never selects them, so non-x86 builds run the scalar path unchanged.
//
// Bitwise contract: for every semiring and every input (including NaN and
// out-of-domain values), the SIMD backends produce results bitwise identical
// to the scalar tiled kernel. min/max lane selection uses the (candidate,
// accumulator) operand order whose NaN/tie behaviour matches the scalar
// `cand < acc ? cand : acc` exactly, the boolean semiring uses compare-mask
// arithmetic (never min/max), and no FMA contraction is permitted. The
// scalar kernel's hoisted all-annihilator quad skip needs no vector
// counterpart: an annihilator candidate folds to a no-op under Add in all
// four semirings' domains, so the branchless form is the same function.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "linalg/kernel_registry.h"

namespace apspark::linalg {

/// True when the translation unit for the backend was compiled with real
/// vector code (the compiler accepted -mavx2 / -mavx512f on an x86 target).
bool SimdCompiledAvx2() noexcept;
bool SimdCompiledAvx512() noexcept;

/// SIMD twin of the scalar TiledRows body in kernels.cc: processes C rows
/// [i0, i1) of C = C (+) A (x) B over the semiring named by `id`, blocking
/// columns by tile_j and the reduction by tile_k, with the k loop of each
/// column strip register-resident in a 2x4 (rows x vectors) micro-tile and
/// masked tails for non-divisible widths. Candidates are applied in
/// ascending-k order with keep-on-tie Add — bitwise equal to the scalar
/// tiled kernel (and, for the product, to the scalar oracle).
///
/// Passing tile_j >= n and tile_k >= k degenerates into the panel kernel's
/// shape: the whole reduction folds into the register accumulator, which is
/// how the rect/panel path reuses this entry point.
///
/// Callers must not pass operands that alias C (the in-place blocked-FW
/// phase updates): the scalar kernel re-reads B between quads while the
/// micro-tile holds C in registers across a whole k chunk, so aliasing
/// would change (only) the aliased schedule. kernels.cc keeps aliased calls
/// on the scalar path. Must only run when the matching SimdIsaAvailable()
/// holds; calling an unavailable backend aborts.
void SimdTiledRowsAvx2(SemiringId id, std::int64_t i0, std::int64_t i1,
                       std::int64_t n, std::int64_t k, const double* a,
                       std::int64_t lda, const double* b, std::int64_t ldb,
                       double* c, std::int64_t ldc, std::int64_t tile_j,
                       std::int64_t tile_k);
void SimdTiledRowsAvx512(SemiringId id, std::int64_t i0, std::int64_t i1,
                         std::int64_t n, std::int64_t k, const double* a,
                         std::int64_t lda, const double* b, std::int64_t ldb,
                         double* c, std::int64_t ldc, std::int64_t tile_j,
                         std::int64_t tile_k);

/// SIMD argmin of one successor row: out[j] = k of the first (k, w) term,
/// in the order given, that minimizes w + d[k * ldd + j] under a strict
/// ordered `<`, stored as a double; -1.0 when no term is below +inf. Every
/// out[j], j < n, is written. Bitwise equal to the scalar fold of the same
/// terms in the same order (graph::SuccessorsFromDistances' scalar body).
/// Same availability rule as the tiled entry points.
void SimdArgminRowAvx2(const std::pair<std::int64_t, double>* terms,
                       std::size_t count, const double* d, std::int64_t ldd,
                       std::int64_t n, double* out);
void SimdArgminRowAvx512(const std::pair<std::int64_t, double>* terms,
                         std::size_t count, const double* d, std::int64_t ldd,
                         std::int64_t n, double* out);

}  // namespace apspark::linalg
