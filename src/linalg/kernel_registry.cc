#include "linalg/kernel_registry.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "linalg/simd.h"

namespace apspark::linalg {
namespace {

/// CPUID feature probe. __builtin_cpu_supports is a GCC/clang builtin that
/// is only meaningful on x86; every other target runs scalar.
bool CpuSupports(SimdIsa isa) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimdIsa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return isa == SimdIsa::kScalar;
#endif
}

KernelTuning& MutableTuning() {
  static KernelTuning tuning;
  return tuning;
}

ThreadPool*& OverridePool() {
  static ThreadPool* pool = nullptr;
  return pool;
}

}  // namespace

bool SimdIsaAvailable(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx2:
      return SimdCompiledAvx2() && CpuSupports(SimdIsa::kAvx2);
    case SimdIsa::kAvx512:
      return SimdCompiledAvx512() && CpuSupports(SimdIsa::kAvx512);
  }
  return false;
}

SimdIsa DetectSimdIsa() noexcept {
  static const SimdIsa best = [] {
    if (SimdIsaAvailable(SimdIsa::kAvx512)) return SimdIsa::kAvx512;
    if (SimdIsaAvailable(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
    return SimdIsa::kScalar;
  }();
  return best;
}

SimdIsa ResolveSimdIsa(SimdIsa requested) noexcept {
  // Fall back down the width ladder: a request the host cannot execute runs
  // the next-widest available backend instead of crashing or going scalar
  // outright (an avx512 tuning carried onto an AVX2 host should still
  // vectorize).
  if (requested == SimdIsa::kAvx512 && !SimdIsaAvailable(SimdIsa::kAvx512)) {
    requested = SimdIsa::kAvx2;
  }
  if (requested == SimdIsa::kAvx2 && !SimdIsaAvailable(SimdIsa::kAvx2)) {
    requested = SimdIsa::kScalar;
  }
  return requested;
}

SimdIsa DefaultSimdIsa() noexcept {
  static const SimdIsa def = [] {
    if (const char* forced = std::getenv("APSPARK_FORCE_ISA")) {
      if (const auto parsed = ParseSimdIsa(forced)) {
        return ResolveSimdIsa(*parsed);
      }
      std::fprintf(stderr,
                   "apspark: ignoring unknown APSPARK_FORCE_ISA='%s' "
                   "(want scalar|avx2|avx512)\n",
                   forced);
    }
    return DetectSimdIsa();
  }();
  return def;
}

const char* SimdIsaName(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

std::optional<SimdIsa> ParseSimdIsa(std::string_view name) {
  if (name == "scalar" || name == "none") return SimdIsa::kScalar;
  if (name == "avx2") return SimdIsa::kAvx2;
  if (name == "avx512" || name == "avx512f") return SimdIsa::kAvx512;
  if (name == "auto") return DefaultSimdIsa();
  return std::nullopt;
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
  out += std::to_string(tuning.tile_j);
  out += " k=";
  out += std::to_string(tuning.tile_k);
  out += " fw=";
  out += std::to_string(tuning.fw_block);
  out += tuning.auto_tuned ? " [auto-tuned]" : " [default]";
  return out;
}

const KernelTuning& GetKernelTuning() noexcept { return MutableTuning(); }

void SetKernelTuning(const KernelTuning& tuning) noexcept {
  MutableTuning() = tuning;
}

void SetKernelVariant(KernelVariant variant) noexcept {
  MutableTuning().variant = variant;
}

KernelVariant GetKernelVariant() noexcept { return MutableTuning().variant; }

void SetActiveSemiring(SemiringId semiring) noexcept {
  MutableTuning().semiring = semiring;
}

SemiringId GetActiveSemiring() noexcept { return MutableTuning().semiring; }

void SetKernelThreadPool(ThreadPool* pool) noexcept { OverridePool() = pool; }

ThreadPool& KernelThreadPool() {
  if (OverridePool() != nullptr) return *OverridePool();
  static std::unique_ptr<ThreadPool> default_pool =
      std::make_unique<ThreadPool>(0);
  return *default_pool;
}

void ForEachByHostWork(const std::vector<std::int64_t>& work,
                       const std::function<void(std::size_t)>& run_one) {
  if (GetKernelVariant() != KernelVariant::kTiledParallel) {
    for (std::size_t i = 0; i < work.size(); ++i) run_one(i);
    return;
  }
  const std::int64_t grain = GetKernelTuning().parallel_grain_ops;
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  std::size_t begin = 0;
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    acc += work[i];
    if (acc >= grain) {
      groups.emplace_back(begin, i + 1);
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < work.size()) {
    // Trailing light run: fold it into the previous group rather than pay
    // a dispatch for leftovers below the grain.
    if (groups.empty()) {
      groups.emplace_back(begin, work.size());
    } else {
      groups.back().second = work.size();
    }
  }
  if (groups.size() <= 1) {
    for (std::size_t i = 0; i < work.size(); ++i) run_one(i);
    return;
  }
  KernelThreadPool().ParallelForTasks(groups.size(), [&](std::size_t g) {
    for (std::size_t i = groups[g].first; i < groups[g].second; ++i) {
      run_one(i);
    }
  });
}

const char* KernelVariantName(KernelVariant variant) noexcept {
  switch (variant) {
    case KernelVariant::kNaive:
      return "naive";
    case KernelVariant::kTiled:
      return "tiled";
    case KernelVariant::kTiledParallel:
      return "tiled_parallel";
  }
  return "?";
}

std::optional<KernelVariant> ParseKernelVariant(std::string_view name) {
  if (name == "naive") return KernelVariant::kNaive;
  if (name == "tiled") return KernelVariant::kTiled;
  if (name == "tiled_parallel" || name == "parallel") {
    return KernelVariant::kTiledParallel;
  }
  return std::nullopt;
}

const char* SemiringName(SemiringId semiring) noexcept {
  switch (semiring) {
    case SemiringId::kMinPlus:
      return "minplus";
    case SemiringId::kBoolean:
      return "boolean";
    case SemiringId::kMaxMin:
      return "maxmin";
    case SemiringId::kMaxTimes:
      return "maxtimes";
  }
  return "?";
}

std::optional<SemiringId> ParseSemiring(std::string_view name) {
  if (name == "minplus" || name == "min-plus") return SemiringId::kMinPlus;
  if (name == "boolean" || name == "or-and") return SemiringId::kBoolean;
  if (name == "maxmin" || name == "max-min") return SemiringId::kMaxMin;
  if (name == "maxtimes" || name == "max-times") return SemiringId::kMaxTimes;
  return std::nullopt;
}

}  // namespace apspark::linalg
