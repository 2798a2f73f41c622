// Kernel variant registry.
//
// The linalg layer ships three interchangeable implementations of every hot
// kernel (min-plus product/update, Floyd-Warshall):
//
//   kNaive         — the scalar triple loops the seed shipped with; kept as
//                    a measured baseline and as the dispatch target when a
//                    caller wants zero tiling machinery.
//   kTiled         — cache-tiled, fused, vectorizable loops on the calling
//                    thread: the single-thread baseline.
//   kTiledParallel — kTiled with independent block updates scheduled as
//                    stealable tasks on the host ThreadPool's work-stealing
//                    deques (row stripes nest through the same scheduler);
//                    the default. The solver batches, closure tiles, matrix
//                    assembly and the successor plane fan out through the
//                    same pool under one host-work grain (ForEachByHostWork).
//                    Only host wall time changes: virtual cluster accounting
//                    always charges the calibrated cost model, never host
//                    threads.
//
// The active variant and its tuning parameters are process-global: the
// engine executes all record processing from the driver thread (see
// sparklet/rdd.h), so a plain global is race-free as long as callers select
// the variant before kicking off a solve — which is what apsp::SolveBlocks
// does from sparklet::ClusterConfig::kernel_variant. Pool workers only read
// it while running tasks the driver submitted after the selection.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace apspark {
class ThreadPool;
}  // namespace apspark

namespace apspark::linalg {

enum class KernelVariant {
  kNaive,
  kTiled,
  kTiledParallel,
};

/// Instruction set the tiled/panel micro-kernels dispatch to at run time.
///
/// The SIMD backends (linalg/simd.h) are compiled unconditionally into their
/// own translation units with per-file ISA flags; which one actually runs is
/// decided per kernel call from `KernelTuning::isa`, clamped to what the
/// host CPU supports (ResolveSimdIsa). kScalar is always available and is
/// bitwise-identical to the SIMD paths by contract — pin it (`--isa scalar`
/// or APSPARK_FORCE_ISA=scalar) when bisecting a kernel bug.
enum class SimdIsa {
  kScalar,  // portable C++ loops (the pre-SIMD tiled kernels)
  kAvx2,    // 4-lane __m256d micro-tile (requires AVX2)
  kAvx512,  // 8-lane __m512d micro-tile (requires AVX-512F)
};

/// Best ISA the host CPU supports among the compiled backends, probed once
/// via CPUID and memoized. Non-x86 builds always return kScalar.
SimdIsa DetectSimdIsa() noexcept;

/// True when the host can execute `isa` AND the backend was compiled in.
bool SimdIsaAvailable(SimdIsa isa) noexcept;

/// Clamps a requested ISA to something executable on this host: a request
/// the CPU cannot run falls back to the next-widest available backend
/// (avx512 -> avx2 -> scalar). kScalar always resolves to itself.
SimdIsa ResolveSimdIsa(SimdIsa requested) noexcept;

/// Process-default ISA: APSPARK_FORCE_ISA (scalar|avx2|avx512) when set and
/// resolvable, otherwise DetectSimdIsa(). Read once and memoized — this is
/// what a default-constructed KernelTuning carries.
SimdIsa DefaultSimdIsa() noexcept;

const char* SimdIsaName(SimdIsa isa) noexcept;
std::optional<SimdIsa> ParseSimdIsa(std::string_view name);

/// The semiring the engine's kernels evaluate (see linalg/semiring.h for the
/// algebraic definitions). One tiled/work-stealing/zero-copy engine serves
/// all four: the kernels are templates over the semiring struct, and the
/// block-level entry points dispatch on this registry id.
enum class SemiringId {
  kMinPlus,   // (min, +): APSP path lengths — the paper's default
  kBoolean,   // (or, and): transitive closure / reachability
  kMaxMin,    // (max, min): bottleneck (maximum-capacity) paths
  kMaxTimes,  // (max, x): widest / most-reliable paths over [0, 1]
};

/// Tiling / parallelism parameters of the tiled kernels. Defaults target a
/// 48 KiB L1d + 2 MiB L2 AVX machine; all values are safe for any shape
/// (ragged edges are handled by the kernels).
struct KernelTuning {
  KernelVariant variant = KernelVariant::kTiledParallel;
  /// Semiring the kernels evaluate. Part of the tuning so ScopedKernelVariant
  /// / ScopedSemiring restore it together with the variant: one run's algebra
  /// cannot leak into unrelated work in the same process.
  SemiringId semiring = SemiringId::kMinPlus;
  /// Micro-kernel instruction set. Defaults to the CPUID-detected best (or
  /// APSPARK_FORCE_ISA); clamped per call by ResolveSimdIsa, so carrying
  /// kAvx512 on an AVX2 host silently runs the AVX2 backend. All ISAs are
  /// bitwise-identical on every semiring — this knob trades speed only.
  SimdIsa isa = DefaultSimdIsa();

  /// Columns of B/C processed per tile: one C-row segment plus one B-row
  /// segment of this width must stay L1-resident (2 x 8 KiB at 1024).
  std::int64_t tile_j = 1024;
  /// Rows of B held hot per panel: tile_k x tile_j doubles should fit L2
  /// (128 x 1024 x 8 B = 1 MiB).
  std::int64_t tile_k = 128;
  /// Diagonal-tile size of the tiled Floyd-Warshall decomposition.
  std::int64_t fw_block = 128;

  /// Minimum rows per stripe when fanning a kernel out on the pool.
  std::int64_t parallel_grain_rows = 64;
  /// The one host fan-out grain: the least host work, in multiply-adds, a
  /// stealable unit must carry. Kernels stripe into at most work / grain
  /// row stripes, and batches of independent units (block updates, closure
  /// tiles, assembly blocks, successor rows) are merged into groups of at
  /// least this much work — see ForEachByHostWork. On the reference host
  /// (4-core AVX-512 VM) one fan-out costs about 100 µs of wake-up and
  /// join (a 2-task batch of 50 µs units takes 150 µs against 100 µs
  /// inline) while a tiled multiply-add takes about 0.1 ns per thread
  /// (8-12 G/s at b = 64..256), so 2^22 ≈ 4.2e6 multiply-adds (~0.4 ms) is
  /// about four fan-out costs: a b = 256 update (1.7e7) stripes 4 ways,
  /// b <= 128 kernels (<= 2.1e6) and small b = 64 batches run inline.
  /// Values below 1 act as 1 (the finest fan-out).
  std::int64_t parallel_grain_ops = std::int64_t{1} << 22;
  /// True when this tuning came out of AutoTune() rather than the static
  /// defaults — surfaced by the CLI banner so bench JSONs and CI logs record
  /// what actually ran.
  bool auto_tuned = false;

  bool operator==(const KernelTuning&) const = default;

  /// Cache-aware self-tuning (linalg/autotune.cc): probes the host L1/L2/L3
  /// sizes (sysfs, with a measured pointer-chase fallback), derives
  /// tile_j/tile_k/fw_block from them, optionally confirms the choice with a
  /// short seeded race among neighbouring geometries (every candidate is
  /// verified bitwise against the scalar oracle before it may win), and
  /// memoizes the result per seed. Deterministic given a seed when the race
  /// is disabled; with the race, the memo pins the first outcome for the
  /// rest of the process. variant/semiring/isa of the current tuning are
  /// preserved. Callers publish it via the existing SetKernelTuning path.
  static KernelTuning AutoTune(std::uint64_t seed = 42,
                               bool confirm_race = true);
};

const KernelTuning& GetKernelTuning() noexcept;
void SetKernelTuning(const KernelTuning& tuning) noexcept;

/// Convenience: swaps only the variant, keeping the tuning parameters.
void SetKernelVariant(KernelVariant variant) noexcept;
KernelVariant GetKernelVariant() noexcept;

/// Pool used by kTiledParallel. Passing nullptr restores the lazily created
/// default pool (hardware concurrency). The pool must outlive any kernel
/// calls that use it.
void SetKernelThreadPool(ThreadPool* pool) noexcept;
ThreadPool& KernelThreadPool();

/// The one host fan-out rule. Runs run_one(i) for every i in
/// [0, work.size()), where work[i] is unit i's host work in multiply-adds
/// (or their equivalent). Under kTiledParallel, contiguous runs of units
/// are merged until each group carries KernelTuning::parallel_grain_ops
/// (a trailing light run joins the last group) and the groups run as
/// stealable tasks on KernelThreadPool(); a single group — and every naive
/// or tiled run — executes inline in index order. Units must be
/// independent; their results are then identical however they are grouped.
void ForEachByHostWork(const std::vector<std::int64_t>& work,
                       const std::function<void(std::size_t)>& run_one);

/// Convenience: swaps only the semiring, keeping the tuning parameters.
void SetActiveSemiring(SemiringId semiring) noexcept;
SemiringId GetActiveSemiring() noexcept;

const char* KernelVariantName(KernelVariant variant) noexcept;
std::optional<KernelVariant> ParseKernelVariant(std::string_view name);

const char* SemiringName(SemiringId semiring) noexcept;
std::optional<SemiringId> ParseSemiring(std::string_view name);

/// RAII: pins a kernel variant for a scope, restoring the full previous
/// tuning on destruction. Used by solvers, benchmarks, and tests so one
/// caller's selection cannot leak into unrelated work in the same process.
class ScopedKernelVariant {
 public:
  explicit ScopedKernelVariant(KernelVariant variant)
      : saved_(GetKernelTuning()) {
    SetKernelVariant(variant);
  }
  ~ScopedKernelVariant() { SetKernelTuning(saved_); }
  ScopedKernelVariant(const ScopedKernelVariant&) = delete;
  ScopedKernelVariant& operator=(const ScopedKernelVariant&) = delete;

 private:
  KernelTuning saved_;
};

/// RAII: pins the active semiring for a scope, restoring the full previous
/// tuning on destruction — the semiring twin of ScopedKernelVariant.
class ScopedSemiring {
 public:
  explicit ScopedSemiring(SemiringId semiring) : saved_(GetKernelTuning()) {
    SetActiveSemiring(semiring);
  }
  ~ScopedSemiring() { SetKernelTuning(saved_); }
  ScopedSemiring(const ScopedSemiring&) = delete;
  ScopedSemiring& operator=(const ScopedSemiring&) = delete;

 private:
  KernelTuning saved_;
};

/// RAII: pins the micro-kernel ISA for a scope, restoring the full previous
/// tuning on destruction. Benches and the bitwise-equivalence suites use it
/// to race/compare forced-scalar against forced-SIMD dispatch.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa) : saved_(GetKernelTuning()) {
    KernelTuning tuning = saved_;
    tuning.isa = isa;
    SetKernelTuning(tuning);
  }
  ~ScopedSimdIsa() { SetKernelTuning(saved_); }
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;

 private:
  KernelTuning saved_;
};

/// One-line human-readable rendering of a tuning, e.g.
///   "variant=tiled semiring=minplus isa=avx512 (requested avx512, host best
///    avx512) tiles j=1024 k=128 fw=128 [auto-tuned]"
/// — what `apspark_cli plan` and the solve banner print so logs record the
/// geometry and ISA that actually ran.
std::string DescribeKernelTuning(const KernelTuning& tuning);

}  // namespace apspark::linalg
