// Dense semiring kernels — the compute core of the engine.
//
// These are the C++ equivalents of the operations the paper offloads from
// pySpark to NumPy/SciPy (Intel MKL) and Numba: semiring matrix product,
// element-wise semiring Add, in-place Floyd-Warshall closure, the rank-1
// outer update used by 2D Floyd-Warshall, and the cache-blocked sequential
// Floyd-Warshall of Venkataraman et al. used both as the diagonal-block
// solver and as the single-core reference (T1) for weak-scaling efficiency.
//
// Every entry point dispatches through the process-global kernel registry
// (linalg/kernel_registry.h) twice over: on the kernel *variant* — the
// cache-tiled fused loops on the calling thread, or the same loops fanned
// out on the host ThreadPool — and on the active *semiring* (SemiringId).
// The entry points keep their historical min-plus names (MinPlusProduct,
// MinPlusUpdate, ...) from when the engine was hardwired to (min, +); under
// ScopedSemiring the same functions evaluate (or, and), (max, min) or
// (max, x). The tiled kernels reorder only the (+) reduction — candidates
// S::Multiply(a_ik, b_kj) are computed identically, Add is a keep-on-tie
// selection applied in ascending-k order — so both variants produce
// bitwise-identical products under every semiring. The one scalar reference
// is the per-semiring oracles of linalg/semiring.h (SemiringClosure,
// SemiringProductAccumulate): tests lock every kernel against them and the
// benches time them as the paper's naive baseline.
//
// Bit-packed boolean blocks (DenseBlock::PackedBoolean) route to dedicated
// word-parallel or/and kernels: a product walks the set bits of A's rows
// and ors 64-column words of B into C. Packed operands require the boolean
// semiring to be active and may not mix with dense operands in one call.
//
// All kernels propagate phantom blocks: if any operand is phantom, the result
// is a phantom of the correct shape — preserving bit-packedness when all
// operands carry it — and no arithmetic is performed (cost accounting happens
// at the building-block layer, see apsp/building_blocks.h).
#pragma once

#include <cstdint>

#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"

namespace apspark::linalg {

/// C = A (x) B under the active semiring (historically min-plus — the name
/// predates the semiring registry). Requires a.cols() == b.rows(). The
/// result is filled with the semiring Zero before accumulation.
DenseBlock MinPlusProduct(const DenseBlock& a, const DenseBlock& b);

/// Fused update: c = c (+) (A (x) B) element-wise, in place — the hot
/// path of every blocked solver. One pass, no intermediate product block.
/// Requires c.rows() == a.rows(), c.cols() == b.cols(), a.cols() == b.rows().
void MinPlusUpdate(const DenseBlock& a, const DenseBlock& b, DenseBlock& c);

/// Rectangular frontier update: c[m x w] = min(c, A[m x k] (min,+) P[k x w])
/// where w — the panel width, i.e. the source count of a batched k-source
/// solve — is typically far smaller than the block size. Dispatches through
/// the registry like MinPlusUpdate. A narrow panel (at most 64 columns)
/// takes a panel micro-kernel that holds each C row segment in a local
/// accumulator across the whole (min, +) reduction (one load + one store of
/// C per row); wider panels take the square-tiled kernel. Under
/// kTiledParallel the m rows stripe over the host pool. Candidates are
/// applied in the oracle's ascending-k order, so results are bitwise
/// identical to SemiringProductAccumulate — provided c does not alias a or
/// p: the deferred C-row writes would observe different intermediate values
/// on an in-place c == p call (compute into a copy instead, as
/// apsp::MinPlusRect does).
void MinPlusUpdateRect(const DenseBlock& a, const DenseBlock& p, DenseBlock& c);

/// Element-wise semiring Add (the paper's MatMin under min-plus).
DenseBlock ElementMin(const DenseBlock& a, const DenseBlock& b);
void ElementMinInPlace(DenseBlock& a, const DenseBlock& b);

/// In-place Floyd-Warshall over a square block: closes paths through the
/// block's own vertices (the paper's FloydWarshall building block). Blocks
/// wider than the fixed 128-wide tile run the 3-phase blocked decomposition
/// on it (BlockedFloydWarshall takes the tile as an argument).
void FloydWarshallInPlace(DenseBlock& a);

/// a_ij = a_ij (+) (u_i (x) v_j) where u is a rows x 1 and v a cols x 1
/// vector (the paper's FloydWarshallUpdate: C = B_Ik 1^T + 1 B_Jk^T, then
/// MatMin, under min-plus).
void OuterSumMinUpdate(DenseBlock& a, const DenseBlock& u, const DenseBlock& v);

/// Sequential cache-blocked Floyd-Warshall (Venkataraman et al. [23]) over a
/// full n x n matrix, tile size `block_size`. This is the "efficient
/// sequential Floyd-Warshall as implemented in SciPy" used for T1. Under
/// kTiledParallel the phase-2/phase-3 tile updates fan out on the host pool.
void BlockedFloydWarshall(DenseBlock& a, std::int64_t block_size);

// --- Raw strided kernels (used by the blocked solvers; exposed for tests) --

/// C[mxn] = C (+) (A[mxk] (x) B[kxn]) with leading dimensions lda/ldb/ldc,
/// under the active semiring: the register/cache-tiled micro-kernel (k and
/// j are tiled so one B panel stays L2-resident and one C/B row segment
/// L1-resident; the annihilator guard S::IsZero is hoisted out of the
/// vectorizable inner loop). kTiledParallel additionally splits the m rows
/// into stripes on the host pool. In-place aliasing of C with A or B rows
/// is supported (the blocked Floyd-Warshall phases rely on it). Raw kernels
/// take dense double payloads only.
void MinPlusAccumulateRaw(std::int64_t m, std::int64_t n, std::int64_t k,
                          const double* a, std::int64_t lda, const double* b,
                          std::int64_t ldb, double* c, std::int64_t ldc);

/// In-place FW on an n x n tile with leading dimension lda (dispatches).
void FloydWarshallRaw(std::int64_t n, double* a, std::int64_t lda);

}  // namespace apspark::linalg
