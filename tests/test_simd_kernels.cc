// Bitwise-equivalence suite for the SIMD micro-kernel engine
// (linalg/simd.h), plus the host cache probe (linalg/autotune.h).
//
// The contract under test: for in-domain operands every ISA backend
// (scalar / avx2 / avx512) of the tiled and panel kernels produces
// bitwise-identical output under all four semirings, across ragged shapes,
// single-row/column blocks, all-annihilator guards and aliasing-heavy
// blocked Floyd-Warshall runs. "In-domain" matches the existing
// tiled-vs-oracle contract: no -inf entries under min-plus, canonical {0,1}
// under boolean — the annihilator-skip fold is only bitwise-neutral there.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "linalg/autotune.h"
#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"
#include "linalg/semiring.h"
#include "test_support.h"

namespace apspark::linalg {
namespace {

using test::AvailableIsas;

constexpr SemiringId kAllSemirings[] = {
    SemiringId::kMinPlus, SemiringId::kBoolean, SemiringId::kMaxMin,
    SemiringId::kMaxTimes};

/// In-domain random fill for a semiring: finite candidates from the
/// semiring's natural value range plus a sprinkle of *its own* annihilator
/// (so the hoisted IsZero guard and the branchless SIMD path both see
/// Zero entries, which must fold identically).
void FillInDomain(SemiringId id, double* data, std::int64_t count,
                  std::uint64_t seed, double zero_fraction = 0.15) {
  Xoshiro256 rng(seed);
  for (std::int64_t i = 0; i < count; ++i) {
    const bool zero = rng.NextDouble() < zero_fraction;
    switch (id) {
      case SemiringId::kMinPlus:
        data[i] = zero ? kInf : rng.NextDouble(0.0, 50.0);
        break;
      case SemiringId::kBoolean:
        data[i] = zero ? 0.0 : 1.0;
        break;
      case SemiringId::kMaxMin:
        data[i] = zero ? -kInf : rng.NextDouble(0.0, 50.0);
        break;
      case SemiringId::kMaxTimes:
        data[i] = zero ? 0.0 : rng.NextDouble(0.001, 1.0);
        break;
    }
  }
}

DenseBlock InDomainBlock(SemiringId id, std::int64_t rows, std::int64_t cols,
                         std::uint64_t seed, double zero_fraction = 0.15) {
  DenseBlock b(rows, cols, 0.0);
  FillInDomain(id, b.mutable_data(), b.size(), seed, zero_fraction);
  return b;
}

bool BitwiseEqual(const DenseBlock& x, const DenseBlock& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(double)) == 0;
}

struct Shape {
  std::int64_t m, n, k;
};

// Ragged tails (odd m/n/k), exact vector widths, single row/column, a 1x1
// degenerate, shapes wider than one 4-vector micro-strip, and one that
// crosses both fixed tile bounds (1024 columns, 128 reduction rows).
constexpr Shape kShapes[] = {{7, 13, 9},  {33, 65, 17}, {2, 8, 3},
                             {1, 64, 64}, {64, 1, 64},  {64, 64, 1},
                             {1, 1, 1},   {5, 37, 41},  {48, 48, 48},
                             {3, 129, 5}, {3, 1031, 131}};

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(SimdIsaAvailable(SimdIsa::kScalar));
  EXPECT_EQ(ResolveSimdIsa(SimdIsa::kScalar), SimdIsa::kScalar);
}

TEST(SimdDispatch, ResolveClampsToHost) {
  // Whatever the host, resolving any request must land on an available ISA.
  for (const SimdIsa request :
       {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    EXPECT_TRUE(SimdIsaAvailable(ResolveSimdIsa(request)));
  }
  // The detected best resolves to itself.
  EXPECT_EQ(ResolveSimdIsa(DetectSimdIsa()), DetectSimdIsa());
}

TEST(SimdDispatch, ParseNamesRoundTrip) {
  EXPECT_EQ(ParseSimdIsa("scalar"), SimdIsa::kScalar);
  EXPECT_EQ(ParseSimdIsa("none"), SimdIsa::kScalar);
  EXPECT_EQ(ParseSimdIsa("avx2"), SimdIsa::kAvx2);
  EXPECT_EQ(ParseSimdIsa("avx512"), SimdIsa::kAvx512);
  EXPECT_EQ(ParseSimdIsa("avx512f"), SimdIsa::kAvx512);
  EXPECT_FALSE(ParseSimdIsa("sse9").has_value());
  for (const SimdIsa isa :
       {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    EXPECT_EQ(ParseSimdIsa(SimdIsaName(isa)), isa);
  }
}

TEST(SimdDispatch, ScopedSimdIsaRestoresTuning) {
  const KernelTuning before = GetKernelTuning();
  {
    ScopedSimdIsa pin(SimdIsa::kScalar);
    EXPECT_EQ(GetKernelTuning().isa, SimdIsa::kScalar);
  }
  EXPECT_EQ(GetKernelTuning(), before);
}

TEST(SimdDispatch, DescribeKernelTuningMentionsIsaAndTiles) {
  KernelTuning tuning;
  tuning.isa = SimdIsa::kScalar;
  const std::string text = DescribeKernelTuning(tuning);
  EXPECT_NE(text.find("isa=scalar"), std::string::npos);
  EXPECT_NE(text.find("tiles j=1024 k=128 fw=128"), std::string::npos);
}

/// Runs the square-tiled kernel (MinPlusUpdate) on a copy of c0 under `isa`
/// and returns the accumulated C.
DenseBlock RunTiled(SimdIsa isa, const DenseBlock& a, const DenseBlock& b,
                    const DenseBlock& c0, bool parallel = false) {
  ScopedKernelVariant variant(parallel ? KernelVariant::kTiledParallel
                                       : KernelVariant::kTiled);
  ScopedSimdIsa pin(isa);
  DenseBlock c = c0;
  MinPlusUpdate(a, b, c);
  return c;
}

/// Runs the narrow-panel kernel (MinPlusUpdateRect) on a copy of c0 under
/// `isa` and returns the accumulated C.
DenseBlock RunPanel(SimdIsa isa, const DenseBlock& a, const DenseBlock& b,
                    const DenseBlock& c0) {
  ScopedKernelVariant variant(KernelVariant::kTiled);
  ScopedSimdIsa pin(isa);
  DenseBlock c = c0;
  MinPlusUpdateRect(a, b, c);
  return c;
}

TEST(SimdKernels, TiledBitwiseAcrossIsasAllSemiringsAllShapes) {
  const auto isas = AvailableIsas();
  std::uint64_t seed = 100;
  for (const SemiringId id : kAllSemirings) {
    ScopedSemiring ring(id);
    for (const Shape& s : kShapes) {
      const DenseBlock a = InDomainBlock(id, s.m, s.k, ++seed);
      const DenseBlock b = InDomainBlock(id, s.k, s.n, ++seed);
      const DenseBlock c0 = InDomainBlock(id, s.m, s.n, ++seed);

      // Scalar tiled is itself locked to the per-semiring oracle.
      DenseBlock oracle = c0;
      WithSemiring(id, [&](auto ring_tag) {
        using S = decltype(ring_tag);
        SemiringProductAccumulate<S>(a, b, oracle);
      });
      const DenseBlock scalar = RunTiled(SimdIsa::kScalar, a, b, c0);
      ASSERT_TRUE(BitwiseEqual(scalar, oracle))
          << "scalar tiled vs oracle, semiring=" << SemiringName(id)
          << " shape=" << s.m << "x" << s.n << "x" << s.k;

      for (const SimdIsa isa : isas) {
        const DenseBlock got = RunTiled(isa, a, b, c0);
        ASSERT_TRUE(BitwiseEqual(got, scalar))
            << "isa=" << SimdIsaName(isa) << " semiring=" << SemiringName(id)
            << " shape=" << s.m << "x" << s.n << "x" << s.k;
      }
    }
  }
}

TEST(SimdKernels, TiledBitwiseWithStridedLeadingDimensions) {
  // Padded leading dimensions (ld > logical cols) exercise the strided
  // loads/stores and the masked tail without touching the pad lanes.
  const auto isas = AvailableIsas();
  const std::int64_t m = 19, n = 21, k = 15;
  const std::int64_t lda = k + 5, ldb = n + 3, ldc = n + 7;
  std::uint64_t seed = 500;
  for (const SemiringId id : kAllSemirings) {
    ScopedSemiring ring(id);
    std::vector<double> a(static_cast<std::size_t>(m * lda));
    std::vector<double> b(static_cast<std::size_t>(k * ldb));
    std::vector<double> c0(static_cast<std::size_t>(m * ldc));
    FillInDomain(id, a.data(), static_cast<std::int64_t>(a.size()), ++seed);
    FillInDomain(id, b.data(), static_cast<std::int64_t>(b.size()), ++seed);
    FillInDomain(id, c0.data(), static_cast<std::int64_t>(c0.size()), ++seed);

    ScopedKernelVariant variant(KernelVariant::kTiled);
    std::vector<double> scalar = c0;
    {
      ScopedSimdIsa pin(SimdIsa::kScalar);
      MinPlusAccumulateRaw(m, n, k, a.data(), lda, b.data(), ldb,
                           scalar.data(), ldc);
    }
    for (const SimdIsa isa : isas) {
      std::vector<double> c = c0;
      {
        ScopedSimdIsa pin(isa);
        MinPlusAccumulateRaw(m, n, k, a.data(), lda, b.data(), ldb, c.data(),
                             ldc);
      }
      ASSERT_EQ(std::memcmp(c.data(), scalar.data(),
                            c.size() * sizeof(double)),
                0)
          << "isa=" << SimdIsaName(isa) << " semiring=" << SemiringName(id)
          << " (pad lanes must be untouched)";
    }
  }
}

TEST(SimdKernels, PanelBitwiseAcrossIsas) {
  const auto isas = AvailableIsas();
  std::uint64_t seed = 900;
  for (const SemiringId id : kAllSemirings) {
    ScopedSemiring ring(id);
    for (const std::int64_t n : {1, 3, 8, 17, 31}) {
      for (const std::int64_t m : {1, 33, 64}) {
        const std::int64_t k = 47;
        const DenseBlock a = InDomainBlock(id, m, k, ++seed);
        const DenseBlock b = InDomainBlock(id, k, n, ++seed);
        const DenseBlock c0 = InDomainBlock(id, m, n, ++seed);
        const DenseBlock scalar = RunPanel(SimdIsa::kScalar, a, b, c0);
        for (const SimdIsa isa : isas) {
          const DenseBlock got = RunPanel(isa, a, b, c0);
          ASSERT_TRUE(BitwiseEqual(got, scalar))
              << "isa=" << SimdIsaName(isa)
              << " semiring=" << SemiringName(id) << " panel m=" << m
              << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernels, AllAnnihilatorOperandsLeaveCUnchanged) {
  // A (or B) entirely Zero: the scalar kernel skips quads via the hoisted
  // IsZero guard; the branchless SIMD path must fold the same candidates to
  // the same no-op, leaving C bitwise untouched.
  const auto isas = AvailableIsas();
  std::uint64_t seed = 1500;
  for (const SemiringId id : kAllSemirings) {
    ScopedSemiring ring(id);
    const double zero = SemiringZeroValue(id);
    const std::int64_t m = 13, n = 29, k = 11;
    const DenseBlock live_a = InDomainBlock(id, m, k, ++seed, 0.0);
    const DenseBlock live_b = InDomainBlock(id, k, n, ++seed, 0.0);
    const DenseBlock dead_a(m, k, zero);
    const DenseBlock dead_b(k, n, zero);
    const DenseBlock c0 = InDomainBlock(id, m, n, ++seed, 0.0);
    for (const SimdIsa isa : isas) {
      ASSERT_TRUE(BitwiseEqual(RunTiled(isa, dead_a, live_b, c0), c0))
          << "dead A, isa=" << SimdIsaName(isa)
          << " semiring=" << SemiringName(id);
      ASSERT_TRUE(BitwiseEqual(RunTiled(isa, live_a, dead_b, c0), c0))
          << "dead B, isa=" << SimdIsaName(isa)
          << " semiring=" << SemiringName(id);
      ASSERT_TRUE(BitwiseEqual(RunPanel(isa, dead_a, live_b, c0), c0))
          << "panel dead A, isa=" << SimdIsaName(isa)
          << " semiring=" << SemiringName(id);
    }
  }
}

TEST(SimdKernels, ParallelStripingBitwiseAcrossIsas) {
  const auto isas = AvailableIsas();
  ScopedSemiring ring(SemiringId::kMinPlus);
  const DenseBlock a = InDomainBlock(SemiringId::kMinPlus, 200, 170, 21);
  const DenseBlock b = InDomainBlock(SemiringId::kMinPlus, 170, 190, 22);
  const DenseBlock c0 = InDomainBlock(SemiringId::kMinPlus, 200, 190, 23);
  const DenseBlock serial_scalar =
      RunTiled(SimdIsa::kScalar, a, b, c0, /*parallel=*/false);
  for (const SimdIsa isa : isas) {
    ASSERT_TRUE(BitwiseEqual(RunTiled(isa, a, b, c0, /*parallel=*/true),
                             serial_scalar))
        << "parallel stripes, isa=" << SimdIsaName(isa);
  }
}

TEST(SimdKernels, PackedBooleanDoesNotRouteThroughSimd) {
  // Bit-packed boolean blocks use the word-parallel or/and kernels, which
  // must be unaffected by the ISA knob and agree with the dense result.
  const auto isas = AvailableIsas();
  ScopedSemiring ring(SemiringId::kBoolean);
  const std::int64_t m = 37, n = 130, k = 66;  // non-multiple-of-64 words
  const DenseBlock dense_a = InDomainBlock(SemiringId::kBoolean, m, k, 31);
  const DenseBlock dense_b = InDomainBlock(SemiringId::kBoolean, k, n, 32);
  DenseBlock packed_a = DenseBlock::PackedBoolean(m, k, 0.0);
  DenseBlock packed_b = DenseBlock::PackedBoolean(k, n, 0.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < k; ++j) packed_a.Set(i, j, dense_a.At(i, j));
  }
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < n; ++j) packed_b.Set(i, j, dense_b.At(i, j));
  }

  const DenseBlock dense_ref = [&] {
    ScopedSimdIsa pin(SimdIsa::kScalar);
    return MinPlusProduct(dense_a, dense_b);
  }();
  for (const SimdIsa isa : isas) {
    ScopedSimdIsa pin(isa);
    const DenseBlock packed = MinPlusProduct(packed_a, packed_b);
    ASSERT_TRUE(packed.is_packed());
    const DenseBlock unpacked = packed.Unpacked();
    ASSERT_TRUE(BitwiseEqual(unpacked, dense_ref))
        << "packed boolean, isa=" << SimdIsaName(isa);
    const DenseBlock dense = MinPlusProduct(dense_a, dense_b);
    ASSERT_TRUE(BitwiseEqual(dense, dense_ref))
        << "dense boolean, isa=" << SimdIsaName(isa);
  }
}

TEST(SimdKernels, BlockedFloydWarshallBitwiseAcrossIsas) {
  // The blocked FW phases alias C with A/B (phase 2) and hand out
  // element-disjoint sub-blocks of one matrix (phase 3) — the aliasing
  // demotion must keep every ISA bitwise-locked to the *scalar* tiled run.
  // (The blocked decomposition itself is only ApproxEquals to the plain
  // k-i-j reference — it reorders float additions — matching the contract
  // the existing BlockedFwSweep suite asserts.)
  const auto isas = AvailableIsas();
  ScopedSemiring ring(SemiringId::kMinPlus);
  for (const std::int64_t n : {96, 97}) {  // block-divisible and ragged
    DenseBlock init = InDomainBlock(SemiringId::kMinPlus, n, n, 41, 0.3);
    for (std::int64_t i = 0; i < n; ++i) init.Set(i, i, 0.0);

    DenseBlock ref = init;
    SemiringClosure<MinPlusSemiring>(ref);

    DenseBlock blocked_scalar = init;
    DenseBlock in_place_scalar = init;
    {
      ScopedSimdIsa pin(SimdIsa::kScalar);
      BlockedFloydWarshall(blocked_scalar, 32);
      FloydWarshallInPlace(in_place_scalar);
    }
    EXPECT_TRUE(blocked_scalar.ApproxEquals(ref, 1e-9)) << "n=" << n;
    EXPECT_TRUE(in_place_scalar.ApproxEquals(ref, 1e-9)) << "n=" << n;

    for (const SimdIsa isa : isas) {
      ScopedSimdIsa pin(isa);
      DenseBlock blocked = init;
      BlockedFloydWarshall(blocked, 32);
      ASSERT_TRUE(BitwiseEqual(blocked, blocked_scalar))
          << "blocked FW n=" << n << " isa=" << SimdIsaName(isa);
      DenseBlock in_place = init;
      FloydWarshallInPlace(in_place);
      ASSERT_TRUE(BitwiseEqual(in_place, in_place_scalar))
          << "FW in-place n=" << n << " isa=" << SimdIsaName(isa);
    }
  }
}

// ------------------------------------------------------------ cache probe

TEST(CacheProbe, DetectCacheHierarchyReportsPositiveSizes) {
  const CacheHierarchy caches = DetectCacheHierarchy(/*seed=*/42);
  EXPECT_GT(caches.l1d_bytes, 0);
  EXPECT_GT(caches.l2_bytes, 0);
  EXPECT_GT(caches.l3_bytes, 0);
  EXPECT_GE(caches.l2_bytes, caches.l1d_bytes);
}

}  // namespace
}  // namespace apspark::linalg
