// Figure 2: effect of block size on the execution time of the sequential
// building blocks — FloydWarshall, and MatProd combined with MatMin
// ("MinPlus" in the figure) — plus the kernel-engine comparison that tracks
// this repository's perf trajectory.
//
// Section 1 reproduces the paper figure: host-measured time next to the
// paper-calibrated cost model's prediction (0.762 Gops sequential FW with an
// L3 knee around b = 1810). The paper's shape to reproduce: ~b^3 growth,
// fast below the cache knee, rapidly growing past it.
//
// Section 2 races the kernel variants (tiled+fused, tiled+parallel) against
// the paper's naive baseline — the scalar per-semiring oracle of
// linalg/semiring.h, recorded as variant "naive" — on the MinPlus and
// FloydWarshall building blocks, and checks the min-plus results are
// bitwise-identical to the oracle.
// Section 3 races the work-stealing block-task scheduler on one task
// batch's worth of independent block updates (q^2 updates at b = 128, the
// small-block layout that row striping alone cannot scale).
// Section 4 races the semiring engine: the fused closure in each algebra
// (one generic engine, four instantiations) against that algebra's scalar
// oracle, and the headline bit-packed
// boolean record — word-parallel or/and closure vs the dense-double boolean
// closure at the same b.
// Section 5 races the SIMD backends against forced-scalar dispatch.
//
// Results go to BENCH_kernels.json (path overridable via APSPARK_BENCH_JSON;
// APSPARK_FIG2_MAX_B caps the measured block size). The tracked records
// declare their gates (GatesFor below), which bench/check_gates.py evaluates
// against the committed file; the bench itself exits non-zero only when a
// result loses bitwise equality or FW diverges from its reference.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "linalg/cost_model.h"
#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"
#include "linalg/semiring.h"

namespace {

using namespace apspark;

linalg::DenseBlock RandomBlock(std::int64_t b, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  linalg::DenseBlock block(b, b, 0.0);
  for (std::int64_t i = 0; i < block.size(); ++i) {
    block.mutable_data()[i] = rng.NextDouble(1.0, 100.0);
  }
  return block;
}

bool BitwiseEqual(const linalg::DenseBlock& a, const linalg::DenseBlock& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

struct KernelResult {
  std::string kernel;   // "minplus" or "floyd_warshall"
  std::string variant;  // registry variant name, or "naive" (see kRaceRows)
  std::int64_t b = 0;
  double seconds = 0;
  double gops = 0;          // b^3 / seconds / 1e9
  double speedup = 1.0;     // vs the naive row at the same b
  bool bitwise_equal = true;  // vs the scalar reference result
};

/// The rows of a variant race: the scalar oracle (no registry variant),
/// recorded as "naive" — the paper's baseline — then the registry variants.
constexpr std::optional<linalg::KernelVariant> kRaceRows[] = {
    std::nullopt, linalg::KernelVariant::kTiled,
    linalg::KernelVariant::kTiledParallel};

const char* RowName(std::optional<linalg::KernelVariant> row) {
  return row ? linalg::KernelVariantName(*row) : "naive";
}

/// Times fn() `reps` times and returns the best (minimum) wall time.
template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    const double s = t.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

/// The gates a record declares. Same-host values hold on the machine that
/// produced the committed BENCH_kernels.json; other-host values are for
/// shared CI runners (2 reps, no -march=native), which differ from it in ISA
/// and caches, so even the same-run speedup ratios move there.
std::vector<bench::Gate> GatesFor(const KernelResult& r) {
  using bench::Better;
  if (r.kernel == "minplus" && r.variant == "tiled" && r.b == 1024) {
    return {
        // The fused tiled engine's acceptance bar: 2x the seed's unfused
        // naive path; 1.5x leaves headroom for shared-runner noise.
        bench::Bound("minplus_tiled_speedup_floor", "speedup_vs_naive",
                     Better::kHigher, 2.0, 1.5),
        // The perf trajectory. Other hosts get 0.69, the band once set so
        // that it implied the 1.5x bar above.
        bench::Relative("minplus_tiled_speedup", "speedup_vs_naive",
                        Better::kHigher, 0.10, 0.69),
        // Absolute throughput compares only on the baseline machine.
        bench::Relative("minplus_tiled_gops", "gops", Better::kHigher, 0.10,
                        std::nullopt),
    };
  }
  if (r.kernel == "sched_batch" && r.variant == "work_steal" &&
      linalg::KernelThreadPool().num_threads() > 1) {
    // Work stealing across a task batch's block updates must beat running
    // them one after another at b = 128, q = 8. On a single-core host both
    // modes are the same sequential loop, so the gate is not emitted there.
    return {bench::Bound("sched_work_steal_speedup_floor", "speedup_vs_naive",
                         Better::kHigher, 1.3, 1.2, /*optional=*/true)};
  }
  if (r.kernel == "boolean_packed" && r.variant == "bitpacked" &&
      r.b == 1024) {
    // The semiring engine's headline: word-parallel or/and retires 64 lanes
    // per op against the dense boolean plane, so 2x is a deliberately loose
    // floor everywhere; the relative band tracks the committed speedup.
    return {
        bench::Bound("boolean_packed_speedup_floor", "speedup_vs_naive",
                     Better::kHigher, 2.0, 2.0),
        bench::Relative("boolean_packed_speedup", "speedup_vs_naive",
                        Better::kHigher, 0.10, 0.69),
    };
  }
  if (r.kernel == "minplus_simd" && r.b == 1024) {
    std::vector<bench::Gate> gates;
    // The host's best SIMD backend must beat forced-scalar tiled dispatch
    // (the micro-tile's acceptance bar). Not emitted when the best ISA is
    // scalar: the record set is then the scalar baseline alone.
    if (r.variant == linalg::SimdIsaName(linalg::DetectSimdIsa()) &&
        r.variant != "scalar") {
      gates.push_back(bench::Bound("minplus_simd_best_speedup_floor",
                                   "speedup_vs_naive", Better::kHigher, 1.3,
                                   1.2, /*optional=*/true));
    }
    // AVX2 is the lowest common denominator of x86 CI runners, so its
    // record compares like with like across hosts; a host without AVX2
    // emits no record.
    if (r.variant == "avx2") {
      gates.push_back(bench::Relative("minplus_simd_avx2_speedup",
                                      "speedup_vs_naive", Better::kHigher,
                                      0.10, 0.69, /*optional=*/true));
    }
    return gates;
  }
  return {};
}

bool WriteJson(const std::vector<KernelResult>& results) {
  std::vector<bench::Record> records;
  for (const KernelResult& r : results) {
    records.push_back(
        {bench::Format("\"kernel\": \"%s\", \"variant\": \"%s\", \"b\": %lld, "
                       "\"seconds\": %.6f, \"gops\": %.3f, "
                       "\"speedup_vs_naive\": %.2f, "
                       "\"bitwise_equal_to_reference\": %s",
                       r.kernel.c_str(), r.variant.c_str(),
                       static_cast<long long>(r.b), r.seconds, r.gops,
                       r.speedup, r.bitwise_equal ? "true" : "false"),
         GatesFor(r)});
  }
  return bench::WriteBenchJson("bench_fig2_kernels", "BENCH_kernels.json",
                               records);
}

/// Section 2: the kernel-engine race. Returns all measurements.
std::vector<KernelResult> RunKernelComparison(std::int64_t max_b) {
  bench::PrintHeader(
      "Kernel engine — naive scalar vs tiled+fused vs tiled+parallel\n"
      "(MinPlus = min(A, A \xe2\x8a\x97 B); naive is the scalar oracle's "
      "product+element-min path)");
  std::vector<KernelResult> results;
  // This section races *variants* (loop structure), so the micro-kernel ISA
  // is pinned to scalar: the tiled/naive/parallel records keep meaning what
  // they always meant. Section 5 races the ISAs against each other.
  linalg::ScopedSimdIsa isa_scope(linalg::SimdIsa::kScalar);

  std::printf("%16s %8s %16s %16s %10s %10s  %s\n", "kernel", "b", "variant",
              "time", "Gops", "speedup", "exact");
  for (std::int64_t b : {256, 512, 1024}) {
    if (b > max_b) continue;
    const int reps = b >= 1024 ? 2 : 3;
    const linalg::DenseBlock lhs = RandomBlock(b, 2);
    const linalg::DenseBlock rhs = RandomBlock(b, 3);
    const double ops = static_cast<double>(b) * b * b;

    // --- MinPlus building block -------------------------------------
    linalg::DenseBlock reference(0, 0);
    double naive_seconds = 0;
    for (const auto row : kRaceRows) {
      std::optional<linalg::ScopedKernelVariant> scope;
      if (row) scope.emplace(*row);
      KernelResult r;
      r.kernel = "minplus";
      r.variant = RowName(row);
      r.b = b;
      linalg::DenseBlock out(0, 0);
      if (!row) {
        // The paper's unfused path on the scalar oracle: materialize the
        // product, then a second element-min pass against the resident
        // block.
        r.seconds = BestOf(reps, [&] {
          linalg::DenseBlock prod =
              linalg::SemiringProduct<linalg::MinPlusSemiring>(lhs, rhs);
          linalg::ElementMinInPlace(prod, lhs);
          out = std::move(prod);
        });
        naive_seconds = r.seconds;
        reference = out;
      } else {
        // The fused path the engine now runs: one pass, no product block.
        r.seconds = BestOf(reps, [&] {
          linalg::DenseBlock c = lhs;
          linalg::MinPlusUpdate(lhs, rhs, c);
          out = std::move(c);
        });
      }
      r.gops = ops / r.seconds / 1e9;
      r.speedup = naive_seconds / r.seconds;
      r.bitwise_equal = BitwiseEqual(out, reference);
      std::printf("%16s %8lld %16s %16s %10.3f %9.2fx  %s\n", "minplus",
                  static_cast<long long>(b), r.variant.c_str(),
                  FormatSeconds(r.seconds, 3).c_str(), r.gops, r.speedup,
                  r.bitwise_equal ? "yes" : "NO");
      results.push_back(r);
    }

    // --- FloydWarshall building block -------------------------------
    const linalg::DenseBlock adj = [&] {
      linalg::DenseBlock m = RandomBlock(b, 4);
      for (std::int64_t i = 0; i < b; ++i) m.Set(i, i, 0.0);
      return m;
    }();
    linalg::DenseBlock fw_reference = adj;
    linalg::SemiringClosure<linalg::MinPlusSemiring>(fw_reference);
    double fw_naive_seconds = 0;
    for (const auto row : kRaceRows) {
      std::optional<linalg::ScopedKernelVariant> scope;
      if (row) scope.emplace(*row);
      KernelResult r;
      r.kernel = "floyd_warshall";
      r.variant = RowName(row);
      r.b = b;
      linalg::DenseBlock out(0, 0);
      r.seconds = BestOf(reps, [&] {
        linalg::DenseBlock m = adj;
        if (row) {
          linalg::FloydWarshallInPlace(m);
        } else {
          linalg::SemiringClosure<linalg::MinPlusSemiring>(m);
        }
        out = std::move(m);
      });
      if (!row) fw_naive_seconds = r.seconds;
      r.gops = ops / r.seconds / 1e9;
      r.speedup = fw_naive_seconds / r.seconds;
      // Blocked FW reorders relaxations; allow last-ulp differences but
      // report whether the result is in fact bit-identical.
      r.bitwise_equal = BitwiseEqual(out, fw_reference);
      if (!out.ApproxEquals(fw_reference, 1e-9)) {
        std::fprintf(stderr, "FW variant %s DIVERGED from reference!\n",
                     r.variant.c_str());
        std::exit(1);
      }
      std::printf("%16s %8lld %16s %16s %10.3f %9.2fx  %s\n",
                  "floyd_warshall", static_cast<long long>(b),
                  r.variant.c_str(), FormatSeconds(r.seconds, 3).c_str(),
                  r.gops, r.speedup, r.bitwise_equal ? "yes" : "~ulp");
      results.push_back(r);
    }
  }
  return results;
}

/// Section 3: one sparklet task batch's independent block updates
/// C_uv = min(C_uv, A_u (min,+) B_v) — q^2 updates at a small block size.
/// "row_stripe" runs the updates sequentially with only each update's rows
/// striped over the pool (the pre-scheduler behavior); "work_steal" makes
/// every block update a stealable task (the production path of the batch
/// unpackers). Both run under kTiledParallel and must stay bitwise-equal to
/// the sequential scalar loop.
std::vector<KernelResult> RunSchedulerComparison() {
  constexpr std::int64_t kB = 128;
  constexpr std::int64_t kQ = 8;
  bench::PrintHeader(
      "Block-task scheduler — 64 independent 128x128 block updates\n"
      "(row striping within one update vs work-stealing across updates)");
  std::vector<KernelResult> results;

  std::vector<linalg::DenseBlock> lhs;
  std::vector<linalg::DenseBlock> rhs;
  std::vector<linalg::DenseBlock> base;
  for (std::int64_t i = 0; i < kQ; ++i) {
    lhs.push_back(RandomBlock(kB, 100 + static_cast<std::uint64_t>(i)));
    rhs.push_back(RandomBlock(kB, 200 + static_cast<std::uint64_t>(i)));
  }
  for (std::int64_t u = 0; u < kQ * kQ; ++u) {
    base.push_back(RandomBlock(kB, 300 + static_cast<std::uint64_t>(u)));
  }
  // Scalar oracle, sequential.
  std::vector<linalg::DenseBlock> reference = base;
  for (std::int64_t u = 0; u < kQ * kQ; ++u) {
    linalg::SemiringProductAccumulate<linalg::MinPlusSemiring>(
        lhs[static_cast<std::size_t>(u / kQ)],
        rhs[static_cast<std::size_t>(u % kQ)],
        reference[static_cast<std::size_t>(u)]);
  }

  const double ops = static_cast<double>(kQ) * kQ * kB * kB * kB;
  linalg::ScopedKernelVariant scope(linalg::KernelVariant::kTiledParallel);
  auto run_update = [&](std::vector<linalg::DenseBlock>& out, std::size_t u) {
    linalg::MinPlusUpdate(lhs[u / static_cast<std::size_t>(kQ)],
                          rhs[u % static_cast<std::size_t>(kQ)], out[u]);
  };

  std::printf("%16s %8s %16s %10s %10s  %s\n", "mode", "b", "time", "Gops",
              "speedup", "exact");
  double stripe_seconds = 0;
  // "row_stripe" leaves the fan-out to each update's own kernel. The host
  // grain (KernelTuning::parallel_grain_ops) keeps a b = 128 update below
  // two grains inline, so that baseline now runs on the calling thread; the
  // record name stays for the committed baselines.
  for (const char* mode : {"row_stripe", "work_steal"}) {
    std::vector<linalg::DenseBlock> out;
    KernelResult r;
    r.kernel = "sched_batch";
    r.variant = mode;
    r.b = kB;
    r.seconds = BestOf(7, [&] {
      out = base;
      if (std::string(mode) == "row_stripe") {
        for (std::size_t u = 0; u < static_cast<std::size_t>(kQ * kQ); ++u) {
          run_update(out, u);
        }
      } else {
        linalg::KernelThreadPool().ParallelForTasks(
            static_cast<std::size_t>(kQ * kQ),
            [&](std::size_t u) { run_update(out, u); });
      }
    });
    if (std::string(mode) == "row_stripe") stripe_seconds = r.seconds;
    r.gops = ops / r.seconds / 1e9;
    r.speedup = stripe_seconds / r.seconds;
    r.bitwise_equal = true;
    for (std::size_t u = 0; u < static_cast<std::size_t>(kQ * kQ); ++u) {
      r.bitwise_equal =
          r.bitwise_equal && BitwiseEqual(out[u], reference[u]);
    }
    std::printf("%16s %8lld %16s %10.3f %9.2fx  %s\n", r.variant.c_str(),
                static_cast<long long>(r.b),
                FormatSeconds(r.seconds, 3).c_str(), r.gops, r.speedup,
                r.bitwise_equal ? "yes" : "NO");
    results.push_back(r);
  }
  return results;
}

/// Section 4: the semiring engine. One record per semiring (fused tiled
/// closure vs the naive row, that algebra's scalar oracle), plus the headline
/// "boolean_packed"/"bitpacked" record: the word-parallel bit plane against
/// the dense-double boolean closure. Bitwise equality is against the scalar
/// oracle of each semiring (SemiringClosureDispatch).
std::vector<KernelResult> RunSemiringComparison(std::int64_t max_b) {
  constexpr std::int64_t kB = 1024;
  std::vector<KernelResult> results;
  if (kB > max_b) return results;
  // Variant comparison again — ISA pinned to scalar (see Section 2 note).
  linalg::ScopedSimdIsa isa_scope(linalg::SimdIsa::kScalar);
  bench::PrintHeader(
      "Semiring engine — fused closure per algebra at b = 1024\n"
      "(one generic kernel engine; boolean additionally runs the bit-packed "
      "64-per-word plane)");

  // A min-plus adjacency with ~30% missing edges; each semiring ingests its
  // own image of it, so every algebra sees the same reachability structure.
  const linalg::DenseBlock minplus_adj = [&] {
    Xoshiro256 rng(11);
    linalg::DenseBlock m(kB, kB, linalg::kInf);
    for (std::int64_t i = 0; i < kB; ++i) {
      for (std::int64_t j = 0; j < kB; ++j) {
        if (i == j) {
          m.Set(i, j, 0.0);
        } else if (rng.NextDouble() < 0.7) {
          m.Set(i, j, std::floor(rng.NextDouble(1.0, 10.0)));
        }
      }
    }
    return m;
  }();

  const linalg::SemiringId semirings[] = {
      linalg::SemiringId::kMinPlus, linalg::SemiringId::kBoolean,
      linalg::SemiringId::kMaxMin, linalg::SemiringId::kMaxTimes};
  std::printf("%16s %8s %16s %16s %10s %10s  %s\n", "kernel", "b", "variant",
              "time", "Gops", "speedup", "exact");
  const double ops = static_cast<double>(kB) * kB * kB;

  double boolean_dense_seconds = 0;
  for (const linalg::SemiringId id : semirings) {
    const linalg::DenseBlock base =
        linalg::SemiringAdjacency(minplus_adj, id);
    linalg::DenseBlock oracle = base;
    linalg::SemiringClosureDispatch(id, oracle);
    const std::string name = std::string("semiring_") +
                             linalg::SemiringName(id);
    double naive_seconds = 0;
    // The oracle and the single-thread tiled closure: the first two rows.
    for (const auto row : std::span(kRaceRows).first(2)) {
      std::optional<linalg::ScopedKernelVariant> kernel_scope;
      if (row) kernel_scope.emplace(*row);
      linalg::ScopedSemiring semiring_scope(id);
      KernelResult r;
      r.kernel = name;
      r.variant = RowName(row);
      r.b = kB;
      linalg::DenseBlock out(0, 0);
      r.seconds = BestOf(1, [&] {
        linalg::DenseBlock m = base;
        if (row) {
          linalg::FloydWarshallInPlace(m);
        } else {
          linalg::SemiringClosureDispatch(id, m);
        }
        out = std::move(m);
      });
      if (!row) naive_seconds = r.seconds;
      if (id == linalg::SemiringId::kBoolean && row) {
        boolean_dense_seconds = r.seconds;
      }
      r.gops = ops / r.seconds / 1e9;
      r.speedup = naive_seconds / r.seconds;
      r.bitwise_equal = BitwiseEqual(out, oracle);
      std::printf("%16s %8lld %16s %16s %10.3f %9.2fx  %s\n",
                  r.kernel.c_str(), static_cast<long long>(r.b),
                  r.variant.c_str(), FormatSeconds(r.seconds, 3).c_str(),
                  r.gops, r.speedup, r.bitwise_equal ? "yes" : "~ulp");
      results.push_back(r);
    }
  }

  // --- Headline: the bit-packed boolean plane. speedup_vs_naive is the
  // packed closure against the *dense tiled* boolean closure — the fair
  // same-variant comparison the memory plane replaces.
  {
    linalg::ScopedSemiring semiring_scope(linalg::SemiringId::kBoolean);
    const linalg::DenseBlock dense_base =
        linalg::SemiringAdjacency(minplus_adj, linalg::SemiringId::kBoolean);
    linalg::DenseBlock oracle = dense_base;
    linalg::SemiringClosureDispatch(linalg::SemiringId::kBoolean, oracle);
    const linalg::DenseBlock packed_base = dense_base.BitPacked();
    KernelResult r;
    r.kernel = "boolean_packed";
    r.variant = "bitpacked";
    r.b = kB;
    linalg::DenseBlock out(0, 0);
    r.seconds = BestOf(3, [&] {
      linalg::DenseBlock m = packed_base;
      linalg::FloydWarshallInPlace(m);
      out = std::move(m);
    });
    r.gops = ops / r.seconds / 1e9;
    r.speedup = boolean_dense_seconds / r.seconds;
    r.bitwise_equal = BitwiseEqual(out.Unpacked(), oracle);
    std::printf("%16s %8lld %16s %16s %10.3f %9.2fx  %s\n", r.kernel.c_str(),
                static_cast<long long>(r.b), r.variant.c_str(),
                FormatSeconds(r.seconds, 3).c_str(), r.gops, r.speedup,
                r.bitwise_equal ? "yes" : "NO");
    results.push_back(r);
  }
  return results;
}

/// Section 5: the SIMD micro-kernel race. Forced-scalar tiled dispatch vs
/// every SIMD backend this host can execute, on the fused min-plus update at
/// the headline block size. Records carry kernel="minplus_simd" and
/// variant=<isa name>; speedup_vs_naive is actually vs the forced-*scalar*
/// tiled run at the same b (1.00 for the scalar record itself), and bitwise
/// equality is vs that scalar result — the lock the register micro-tile
/// must never break.
std::vector<KernelResult> RunSimdComparison(std::int64_t max_b) {
  std::vector<KernelResult> results;
  std::int64_t b = 0;
  for (const std::int64_t candidate : {256, 512, 1024}) {
    if (candidate <= max_b) b = candidate;
  }
  if (b == 0) return results;
  bench::PrintHeader(
      "SIMD micro-kernel — forced-scalar vs runtime-dispatched backends\n"
      "(2x4 register micro-tile; min-plus fused update, tiled variant)");
  std::printf("detected host ISA: %s\n",
              linalg::SimdIsaName(linalg::DetectSimdIsa()));

  const linalg::DenseBlock lhs = RandomBlock(b, 21);
  const linalg::DenseBlock rhs = RandomBlock(b, 22);
  const double ops = static_cast<double>(b) * b * b;
  const int reps = b >= 1024 ? 3 : 5;
  linalg::ScopedKernelVariant variant_scope(linalg::KernelVariant::kTiled);

  std::vector<linalg::SimdIsa> isas = {linalg::SimdIsa::kScalar};
  if (linalg::SimdIsaAvailable(linalg::SimdIsa::kAvx2)) {
    isas.push_back(linalg::SimdIsa::kAvx2);
  }
  if (linalg::SimdIsaAvailable(linalg::SimdIsa::kAvx512)) {
    isas.push_back(linalg::SimdIsa::kAvx512);
  }

  std::printf("%16s %8s %16s %16s %10s %10s  %s\n", "kernel", "b", "isa",
              "time", "Gops", "speedup", "exact");
  double scalar_seconds = 0;
  linalg::DenseBlock scalar_out(0, 0);
  for (const linalg::SimdIsa isa : isas) {
    linalg::ScopedSimdIsa isa_scope(isa);
    KernelResult r;
    r.kernel = "minplus_simd";
    r.variant = linalg::SimdIsaName(isa);
    r.b = b;
    linalg::DenseBlock out(0, 0);
    r.seconds = BestOf(reps, [&] {
      linalg::DenseBlock c = lhs;
      linalg::MinPlusUpdate(lhs, rhs, c);
      out = std::move(c);
    });
    if (isa == linalg::SimdIsa::kScalar) {
      scalar_seconds = r.seconds;
      scalar_out = out;
    }
    r.gops = ops / r.seconds / 1e9;
    r.speedup = scalar_seconds / r.seconds;
    r.bitwise_equal = BitwiseEqual(out, scalar_out);
    std::printf("%16s %8lld %16s %16s %10.3f %9.2fx  %s\n", r.kernel.c_str(),
                static_cast<long long>(r.b), r.variant.c_str(),
                FormatSeconds(r.seconds, 3).c_str(), r.gops, r.speedup,
                r.bitwise_equal ? "yes" : "NO");
    results.push_back(r);
  }
  return results;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 2 — sequential kernel time vs block size b\n"
      "(host-measured up to the feasible size; model curve to b = 10000)");

  const linalg::CostModel model;  // paper-calibrated defaults

  std::int64_t max_measured = 1024;
  if (const char* env = std::getenv("APSPARK_FIG2_MAX_B")) {
    const std::string_view text(env);
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, max_measured);
    if (text.empty() || ec != std::errc() || ptr != end || max_measured < 1) {
      std::fprintf(stderr,
                   "bench_fig2_kernels: APSPARK_FIG2_MAX_B expects a number "
                   ">= 1, got '%s'\n",
                   env);
      return 2;
    }
  }

  std::printf("%8s %16s %16s %16s %16s\n", "b", "FW measured", "FW model",
              "MinPlus measured", "MinPlus model");
  // The model columns are calibrated against the sequential *scalar* kernels
  // (0.762 Gops, L3 knee at b = 1810): time the scalar oracles so measured
  // and model compare like with like. Section 2 below races the tiled engine.
  const std::int64_t sizes[] = {128,  256,  384,  512,  768, 1024,
                                1536, 2048, 3072, 4096, 6144, 8192, 10000};
  for (std::int64_t b : sizes) {
    const double fw_model = model.FloydWarshallSeconds(b);
    const double mp_model =
        model.MinPlusSeconds(b, b, b) +
        model.ElementwiseSeconds(b * b);
    std::string fw_meas = "-";
    std::string mp_meas = "-";
    if (b <= max_measured) {
      linalg::DenseBlock fw = RandomBlock(b, 1);
      WallTimer t1;
      linalg::SemiringClosure<linalg::MinPlusSemiring>(fw);
      fw_meas = FormatSeconds(t1.ElapsedSeconds(), 3);

      const linalg::DenseBlock lhs = RandomBlock(b, 2);
      const linalg::DenseBlock rhs = RandomBlock(b, 3);
      WallTimer t2;
      linalg::DenseBlock prod = lhs;
      linalg::SemiringProductAccumulate<linalg::MinPlusSemiring>(lhs, rhs,
                                                                 prod);
      mp_meas = FormatSeconds(t2.ElapsedSeconds(), 3);
    }
    std::printf("%8lld %16s %16s %16s %16s\n",
                static_cast<long long>(b), fw_meas.c_str(),
                FormatSeconds(fw_model, 3).c_str(), mp_meas.c_str(),
                FormatSeconds(mp_model, 3).c_str());
  }

  std::printf(
      "\nPaper reference points: T1(n=256) = 0.022s (0.762 Gops); cache knee"
      " near b = 1810;\nb = 10000 Floyd-Warshall runs into ~1.3e3 s (Fig. 2"
      " top of scale ~1.4e3 s).\n");
  std::printf("Model check: FW(256) = %s, FW(10000) = %s\n",
              FormatSeconds(model.FloydWarshallSeconds(256), 3).c_str(),
              FormatDuration(model.FloydWarshallSeconds(10000)).c_str());

  auto results = RunKernelComparison(max_measured);
  const auto sched_results = RunSchedulerComparison();
  results.insert(results.end(), sched_results.begin(), sched_results.end());
  const auto semiring_results = RunSemiringComparison(max_measured);
  results.insert(results.end(), semiring_results.begin(),
                 semiring_results.end());
  const auto simd_results = RunSimdComparison(max_measured);
  results.insert(results.end(), simd_results.begin(), simd_results.end());
  if (!WriteJson(results)) return 1;

  // Correctness locks (the speed bars are the records' gates): every
  // min-plus variant, scheduler mode, semiring closure and SIMD backend must
  // stay bit-exact against its scalar oracle. Blocked FW reorders
  // relaxations, so it is only checked for divergence (Section 2).
  for (const KernelResult& r : results) {
    if (r.kernel != "floyd_warshall" && !r.bitwise_equal) {
      std::fprintf(stderr, "FAIL: %s %s b=%lld not bitwise equal to its "
                   "scalar oracle\n",
                   r.kernel.c_str(), r.variant.c_str(),
                   static_cast<long long>(r.b));
      return 1;
    }
  }
  return 0;
}
