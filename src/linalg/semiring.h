// Semiring-generalized block kernels.
//
// §2 of the paper notes that "APSP is one of several graph primitives that
// can be directly posed as a linear algebra problem, and solved using matrix
// operations over the semi-ring (min,+)", and that the blocked algorithms
// trace back to transitive closure (Ullman & Yannakakis). This header makes
// that formulation explicit. Four closed, idempotent semirings over double
// share one algebraic interface:
//
//   id        ⊕ (Add)  ⊗ (Multiply)  Zero    One     solves
//   minplus   min      +             +inf    0       shortest paths (APSP)
//   boolean   or       and           0       1       transitive closure
//   maxmin    max      min           -inf    +inf    bottleneck capacity
//   maxtimes  max      *             0       1       widest / most-reliable
//                                                    path over [0, 1]
//
// The engine kernels in kernels.{h,cc} are templates over these structs and
// dispatch on the registry's active SemiringId; the scalar loops here are the
// *oracles* the property suites lock every instantiation against, bitwise,
// and the naive baseline the kernel benches time the tiled engine against.
//
// Contracts the bitwise locks rely on:
//  - Add is a *selection* (min / max / or): it returns one of its operands
//    unchanged, never a rounded combination, and keeps the accumulator on
//    ties — `Add(acc, candidate)` everywhere, oracle and fused paths alike.
//  - IsZero(x) is the annihilator test the fused kernels hoist out of their
//    inner loops. For min-plus it is std::isinf (matching the kernels'
//    historical guard), NOT `x == Zero()`: NaN compares false under == but
//    must not be silently skipped differently in the two paths, and -inf
//    (outside the valid weight domain, which is non-negative) annihilates
//    under isinf in both paths instead of diverging.
//  - kIdempotentAdd: Add(x, x) == x. The in-place closure updates pivot row
//    k while later rows still read it — correct exactly because a second
//    application of an already-applied candidate is a no-op. Non-idempotent
//    semirings (e.g. path counting over (+, x)) are statically rejected.
//  - maxtimes operates on [0, 1] (edge reliabilities); Zero = 0 requires
//    finite operands so 0 * x never produces NaN.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"

namespace apspark::linalg {

/// The tropical (min,+) semiring: APSP path lengths.
struct MinPlusSemiring {
  static constexpr SemiringId kId = SemiringId::kMinPlus;
  static constexpr bool kIdempotentAdd = true;
  static constexpr double Zero() noexcept { return kInf; }  // additive id
  static constexpr double One() noexcept { return 0.0; }    // multiplicative id
  /// Keep-accumulator-on-tie selection: Add(acc, candidate) replaces acc only
  /// when the candidate is strictly better — the fused kernels' exact branch.
  static double Add(double acc, double candidate) noexcept {
    return candidate < acc ? candidate : acc;
  }
  static double Multiply(double a, double b) noexcept { return a + b; }
  /// The fused kernels' annihilator guard (see file comment): isinf, not ==.
  static bool IsZero(double x) noexcept { return std::isinf(x); }
};

/// The boolean (or, and) semiring over {0, 1}: transitive closure.
struct BooleanSemiring {
  static constexpr SemiringId kId = SemiringId::kBoolean;
  static constexpr bool kIdempotentAdd = true;
  static constexpr double Zero() noexcept { return 0.0; }
  static constexpr double One() noexcept { return 1.0; }
  static double Add(double a, double b) noexcept {
    return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
  }
  static double Multiply(double a, double b) noexcept {
    return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
  }
  static bool IsZero(double x) noexcept { return x == 0.0; }
};

/// The bottleneck (max, min) semiring: maximum-capacity paths.
struct MaxMinSemiring {
  static constexpr SemiringId kId = SemiringId::kMaxMin;
  static constexpr bool kIdempotentAdd = true;
  static constexpr double Zero() noexcept {
    return -std::numeric_limits<double>::infinity();
  }
  static constexpr double One() noexcept { return kInf; }
  static double Add(double acc, double candidate) noexcept {
    return candidate > acc ? candidate : acc;
  }
  static double Multiply(double a, double b) noexcept {
    return b < a ? b : a;  // path capacity = weakest edge
  }
  static bool IsZero(double x) noexcept { return x == Zero(); }
};

/// The (max, x) semiring over [0, 1]: widest / most-reliable paths. The
/// canonical graph ingestion maps an integer min-plus weight w to 2^-w, so
/// products stay exact in doubles and widest-path locks bitwise against the
/// same oracles as shortest-path (see SemiringAdjacency).
struct MaxTimesSemiring {
  static constexpr SemiringId kId = SemiringId::kMaxTimes;
  static constexpr bool kIdempotentAdd = true;
  static constexpr double Zero() noexcept { return 0.0; }
  static constexpr double One() noexcept { return 1.0; }
  static double Add(double acc, double candidate) noexcept {
    return candidate > acc ? candidate : acc;
  }
  static double Multiply(double a, double b) noexcept { return a * b; }
  static bool IsZero(double x) noexcept { return x == 0.0; }
};

/// C = C (+) A (x) B over semiring S — the scalar oracle of the fused
/// engine kernels, with the same shape contract: mismatched dimensions throw
/// (before the phantom branch, exactly like kernels.cc), and any phantom
/// operand yields a phantom result of the product shape.
template <typename S>
void SemiringProductAccumulate(const DenseBlock& a, const DenseBlock& b,
                               DenseBlock& c) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument(
        "semiring product: inner dimensions differ");
  }
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument(
        "semiring product: output shape mismatch");
  }
  if (a.is_phantom() || b.is_phantom() || c.is_phantom()) {
    c = DenseBlock::Phantom(a.rows(), b.cols());
    return;
  }
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    double* ci = c.MutableRow(i);
    const double* ai = a.Row(i);
    for (std::int64_t k = 0; k < a.cols(); ++k) {
      const double aik = ai[k];
      if (S::IsZero(aik)) continue;  // annihilator: no contribution
      const double* bk = b.Row(k);
      for (std::int64_t j = 0; j < b.cols(); ++j) {
        ci[j] = S::Add(ci[j], S::Multiply(aik, bk[j]));
      }
    }
  }
}

/// C = A (x) B over semiring S.
template <typename S>
DenseBlock SemiringProduct(const DenseBlock& a, const DenseBlock& b) {
  DenseBlock c(a.rows(), b.cols(), S::Zero());
  SemiringProductAccumulate<S>(a, b, c);
  return c;
}

/// In-place Floyd-Warshall-style closure over semiring S:
/// a_ij = a_ij (+) a_ik (x) a_kj for every k. A non-square block throws
/// std::invalid_argument (before the phantom branch, like the product's
/// shape checks); a phantom block stays phantom.
///
/// Pivot row k is updated in place while later i iterations read it through
/// `ak` — sound only when Add is idempotent (re-applying an already-folded
/// candidate is a no-op), which the static_assert enforces. Non-idempotent
/// semirings would need a pivot-row snapshot and are rejected at compile
/// time rather than silently double-counted.
template <typename S>
void SemiringClosure(DenseBlock& a) {
  static_assert(S::kIdempotentAdd,
                "SemiringClosure updates the pivot row in place; only "
                "idempotent-Add semirings are supported");
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("semiring closure: block must be square");
  }
  if (a.is_phantom()) return;
  const std::int64_t n = a.rows();
  for (std::int64_t k = 0; k < n; ++k) {
    const double* ak = a.Row(k);
    for (std::int64_t i = 0; i < n; ++i) {
      double* ai = a.MutableRow(i);
      const double aik = ai[k];
      if (S::IsZero(aik)) continue;
      for (std::int64_t j = 0; j < n; ++j) {
        ai[j] = S::Add(ai[j], S::Multiply(aik, ak[j]));
      }
    }
  }
}

// --- runtime dispatch helpers -------------------------------------------

/// Calls fn with the semiring struct named by `id` as its argument:
/// `WithSemiring(id, [&](auto s) { using S = decltype(s); ... })`.
template <typename Fn>
decltype(auto) WithSemiring(SemiringId id, Fn&& fn) {
  switch (id) {
    case SemiringId::kMinPlus:
      return fn(MinPlusSemiring{});
    case SemiringId::kBoolean:
      return fn(BooleanSemiring{});
    case SemiringId::kMaxMin:
      return fn(MaxMinSemiring{});
    case SemiringId::kMaxTimes:
      return fn(MaxTimesSemiring{});
  }
  throw std::invalid_argument("unknown semiring id");
}

double SemiringZeroValue(SemiringId id);
double SemiringOneValue(SemiringId id);
bool SemiringIsZeroValue(SemiringId id, double x);

/// True when every entry of a materialized block is the semiring's
/// annihilator — the "this block carries no path at all" predicate behind
/// the KSSP early-exit pivot sweep, routed through S::IsZero so it is
/// correct under every semiring (AllInfinite hardwired the min-plus one).
/// Phantom blocks return false: their structure is unknown, so callers must
/// not skip work. Packed boolean blocks test their words directly.
bool BlockAllZero(const DenseBlock& block, SemiringId id);

/// Scalar-oracle closure under the named semiring (SemiringClosure<S>).
void SemiringClosureDispatch(SemiringId id, DenseBlock& a);

/// Converts the canonical min-plus adjacency matrix (0 diagonal, finite edge
/// weights, +inf missing) into the named semiring's matrix, diagonal = One:
///   minplus  — unchanged
///   boolean  — 1 where reachable in one hop (edge or diagonal), 0 elsewhere
///   maxmin   — edge weight as capacity, -inf missing, +inf diagonal
///   maxtimes — 2^-w reliability per edge, 0 missing, 1 diagonal (exact in
///              doubles for integer w, monotone for all w: widest path under
///              the image ranks exactly like shortest path under w)
/// With `bitpack` (boolean only) the result uses the bit-packed block
/// representation (64 vertices per word). Takes the input by value: the
/// min-plus identity path moves it straight through without a payload copy
/// (the data plane's copy accounting audits this).
DenseBlock SemiringAdjacency(DenseBlock minplus_adjacency, SemiringId id,
                             bool bitpack = false);

/// Boolean reachability matrix of an adjacency matrix (entries 1 where an
/// edge or self-loop exists): the transitive-closure ancestor of the
/// paper's algorithms.
DenseBlock TransitiveClosure(const DenseBlock& adjacency);

}  // namespace apspark::linalg
