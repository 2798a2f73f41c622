// Block buffer pool: process-wide recycling of dense block payloads.
//
// A blocked solve is a long run of block updates, and every update, every
// transpose and the final n x n assembly used to take a fresh buffer from
// the allocator. Buffers of block size sit above glibc's mmap threshold, so
// the allocator hands them back to the OS on free and the next one
// page-faults on first touch: at n = 2048, b = 256 about a quarter of the
// solve's wall time went to zero-filling pages rather than to updates.
//
// DenseBlock recycles its dense payload through this pool instead. A buffer
// is keyed by its exact element count, so a recycled buffer never changes
// size (the reallocate-only-when-the-size-changes idiom). Only payloads of
// at least kBlockPoolMinBytes are pooled: smaller ones stay on the
// allocator's free lists anyway. Packed word payloads and phantoms carry no
// pooled payload. Idle bytes are bounded by kBlockPoolIdleCapBytes; a buffer
// that would push them past the cap is freed.
//
// The pool is process-wide rather than per solve because the first
// generation of a solve's blocks and its assembly are themselves the
// faults: only buffers that outlive one solve save them for the next. It
// replaces a process-wide malloc setting (raised trim/mmap thresholds)
// that would change every allocation in the process, not just block data.
//
// Recycling never changes results: DenseBlock still writes its fill into
// a recycled buffer and still copies every element of a copy.
//
// Under AddressSanitizer idle buffers are poisoned, so a read through a
// dangling block payload still reports (as use-after-poison).
//
// Metrics (obs::Registry::Global()): counters block_pool_reused_total and
// block_pool_fresh_total (pooled-size buffers taken from the pool / newly
// allocated) and the gauge block_pool_idle_bytes.
#pragma once

#include <cstddef>
#include <vector>

namespace apspark::linalg {

/// Smallest pooled payload: glibc's default mmap threshold.
inline constexpr std::size_t kBlockPoolMinBytes = std::size_t{128} << 10;
/// Upper bound on the bytes of idle buffers the pool keeps.
inline constexpr std::size_t kBlockPoolIdleCapBytes = std::size_t{256} << 20;

/// True when a payload of `count` doubles goes through the pool.
inline bool BlockPoolEligible(std::size_t count) noexcept {
  return count * sizeof(double) >= kBlockPoolMinBytes;
}

/// An idle buffer of exactly `count` doubles with unspecified contents, or
/// an empty vector when `count` is not pooled or no such buffer is idle
/// (the caller then allocates; that counts as block_pool_fresh_total).
std::vector<double> TakeBlockBuffer(std::size_t count);

/// Hands a payload back: pooled-size buffers become idle (or are freed when
/// the cap is reached), others are freed. Leaves `buf` empty.
void ReleaseBlockBuffer(std::vector<double>& buf) noexcept;

/// This thread's cache-line-aligned scratch of at least `count` doubles
/// (contents unspecified), reallocated only when a larger one is asked for:
/// a kernel that needs a temporary per call (the SIMD micro-kernel's B
/// pack) touches fresh pages once per thread rather than once per call.
/// Valid until this thread's next call.
double* ThreadScratch(std::size_t count);

/// Bytes currently held in idle buffers.
std::size_t BlockPoolIdleBytes();

/// Frees every idle buffer (tests).
void TrimBlockPool();

}  // namespace apspark::linalg
