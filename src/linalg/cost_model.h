// Calibrated compute-cost model.
//
// The virtual cluster reports *modelled* time, not host wall time (the host
// here may have a single core; the paper's cluster had 1,024). Every kernel
// invocation charges this model. Default constants are calibrated to the
// paper's own sequential reference point: Floyd-Warshall on n = 256 takes
// T1 = 0.022 s, i.e. 256^3 / 0.022 = 0.762 Gops (paper §5.4). A cache-knee
// multiplier reproduces the inflection the paper reports around b ≈ 1810
// (the largest block fitting Skylake L3, §5.2 / Figure 2).
//
// Calibrate() optionally re-fits the leading constants to the machine the
// benchmarks actually run on, so host-measured curves (Figure 2) and modelled
// projections stay mutually consistent.
#pragma once

#include <cstdint>
#include <vector>

namespace apspark::linalg {

struct CostModel {
  // Seconds per elementary (compare+add) operation, below the cache knee.
  double fw_op_seconds = 1.311e-9;     // Floyd-Warshall inner op
  double minplus_op_seconds = 1.10e-9;  // min-plus product inner op
  // Bandwidth-bound per-element costs (O(b^2) kernels).
  double elementwise_op_seconds = 4.0e-10;  // MatMin / outer-sum update
  // Cache model: ops on blocks larger than the knee pay a penalty that ramps
  // from 1.0 to cache_penalty across one octave of block size.
  double cache_knee_elems = 1810.0 * 1810.0;  // paper: b=1810 fills L3
  double cache_penalty = 1.25;  // tiled kernels degrade mildly past the knee
  // Intra-task parallelism: cores of one executor cooperating on one task's
  // blocks. 1 (the default) charges every task sequentially — the classic
  // Spark executor model. Stamped from ClusterConfig::intra_task_cores by
  // the engine; individual kernels still charge their sequential time, but
  // a task's *batch* of independent block updates is scheduled onto this
  // many virtual cores via IntraTaskSpan.
  int intra_task_cores = 1;
  // Modelled speedup of the bit-packed boolean kernels over the dense double
  // loops: one 64-bit word-or retires 64 boolean lanes where the dense path
  // retires one double, so packed kernel charges scale by ~1/64. Applied by
  // the building-block charge sites via BitpackScale when an operand block
  // is bit-packed; real and phantom runs charge identically because phantom
  // blocks preserve packedness.
  double bitpack_op_scale = 1.0 / 64.0;

  /// Multiplier applied to O(b^3) kernels for a block of `elems` elements.
  double CacheFactor(double elems) const noexcept;

  /// Charge multiplier for a kernel whose operands are bit-packed (see
  /// bitpack_op_scale); 1.0 for dense operands.
  double BitpackScale(bool packed) const noexcept {
    return packed ? bitpack_op_scale : 1.0;
  }

  /// Modelled time of FloydWarshall on a b x b block.
  double FloydWarshallSeconds(std::int64_t b) const noexcept;

  /// Modelled time of a (m x k) (min,+) (k x n) product.
  double MinPlusSeconds(std::int64_t m, std::int64_t n,
                        std::int64_t k) const noexcept;

  /// Modelled time of an element-wise kernel over `elems` elements
  /// (MatMin, FloydWarshallUpdate outer-sum, ExtractCol copies).
  double ElementwiseSeconds(std::int64_t elems) const noexcept;

  /// Effective sequential Gops (n^3 / FloydWarshallSeconds(n)) — the paper's
  /// performance metric.
  double SequentialGops(std::int64_t n) const noexcept;

  /// Modelled time of one task that performs `piece_seconds` independent
  /// block updates with intra_task_cores cores cooperating on them (LPT list
  /// schedule — the same discipline the virtual cluster applies across
  /// tasks). With intra_task_cores == 1 this is the plain ordered sum, so
  /// sequential charging is reproduced bitwise.
  double IntraTaskSpan(std::vector<double> piece_seconds) const;

  /// Re-fits fw_op_seconds / minplus_op_seconds / elementwise_op_seconds by
  /// timing the real kernels on this host at block size `b` (materialized
  /// random blocks). Returns the fitted model. Intended for benchmarks that
  /// want host-faithful absolute numbers; tests use the paper defaults.
  static CostModel Calibrate(std::int64_t b = 512, std::uint64_t seed = 42);
};

}  // namespace apspark::linalg
