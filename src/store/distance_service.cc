#include "store/distance_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <span>
#include <utility>

#include "graph/path_reconstruction.h"

namespace apspark::store {

namespace {

/// Monotonic nanoseconds for the serve-path latency histograms.
std::uint64_t NowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One stable counting-sort pass: `out` receives `in` ordered by
/// key(in[k]) (every key below `buckets`), ties in their `in` order.
template <typename Key>
void StableCountingPass(Key key, std::size_t buckets,
                        std::span<const std::uint32_t> in,
                        std::span<std::uint32_t> out) {
  std::vector<std::uint32_t> next(buckets + 1, 0);
  for (const std::uint32_t i : in) ++next[key(i) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  for (const std::uint32_t i : in) out[next[key(i)]++] = i;
}

}  // namespace

Result<std::unique_ptr<DistanceService>> DistanceService::Open(
    const std::string& dir, const Options& options) {
  auto store = BlockStore::Open(dir, options.store_options);
  if (!store.ok()) return store.status();
  return std::unique_ptr<DistanceService>(
      new DistanceService(std::move(*store), options.num_threads));
}

Result<const BlockView*> DistanceService::FetchVia(
    PinMemo& memo, Plane plane, std::int64_t I, std::int64_t J) {
  if (memo.pin.valid() && memo.plane == plane && memo.I == I && memo.J == J) {
    return &memo.pin.block();
  }
  auto pin = store_->Fetch(plane, I, J);
  if (!pin.ok()) return pin.status();
  memo.plane = plane;
  memo.I = I;
  memo.J = J;
  memo.pin = std::move(*pin);
  return &memo.pin.block();
}

Status DistanceService::CheckQuery(graph::VertexId s,
                                   graph::VertexId t) const {
  const std::int64_t nn = n();
  if (s < 0 || t < 0 || s >= nn || t >= nn) {
    return InvalidArgumentError("query (" + std::to_string(s) + ", " +
                                std::to_string(t) + ") outside [0, " +
                                std::to_string(nn) + ")");
  }
  return Status();
}

DistanceService::Cell DistanceService::Locate(graph::VertexId s,
                                              graph::VertexId t) const
    noexcept {
  const std::int64_t b = store_->manifest().block_size;
  Cell cell{s / b, t / b, s % b, t % b};
  if (!store_->manifest().directed && cell.I > cell.J) {
    // Undirected storage holds the canonical upper triangle; distances are
    // symmetric, so read the mirrored element of the mirrored block.
    std::swap(cell.I, cell.J);
    std::swap(cell.li, cell.lj);
  }
  return cell;
}

Result<double> DistanceService::Distance(graph::VertexId s,
                                         graph::VertexId t) {
  const std::uint64_t t0 = NowNs();
  if (Status valid = CheckQuery(s, t); !valid.ok()) return valid;
  const Cell cell = Locate(s, t);
  auto pin = store_->Fetch(Plane::kDistance, cell.I, cell.J);
  if (!pin.ok()) return pin.status();
  const double d = pin->block().At(cell.li, cell.lj);
  point_latency_->Record(NowNs() - t0);
  return d;
}

Result<std::vector<double>> DistanceService::DistanceBatch(
    const std::vector<Query>& queries) {
  const std::size_t count = queries.size();
  if (count > std::numeric_limits<std::uint32_t>::max()) {
    return InvalidArgumentError("batch of " + std::to_string(count) +
                                " queries exceeds 2^32 - 1");
  }
  std::vector<double> answers(count);
  if (count == 0) return answers;
  const std::uint64_t batch_t0 = NowNs();

  // Keying and lookups both cut their sequence into equal chunks, a few per
  // worker so stealing can level the load.
  const std::size_t num_chunks =
      std::min(count, 4 * std::max<std::size_t>(pool_.num_threads(), 1));
  const std::size_t chunk = (count + num_chunks - 1) / num_chunks;

  // Three u32 arrays of `count`: the block keys, then two index arrays for
  // the grouping. A batch running alongside another one brings its own.
  std::unique_lock<std::mutex> scratch_lock(scratch_mu_, std::try_to_lock);
  std::vector<std::uint32_t> own_scratch;
  std::vector<std::uint32_t>& scratch =
      scratch_lock.owns_lock() ? scratch_ : own_scratch;
  scratch.resize(3 * count);
  const std::span<std::uint32_t> block(scratch.data(), count);
  const std::span<std::uint32_t> by_j(scratch.data() + count, count);
  const std::span<std::uint32_t> by_block(scratch.data() + 2 * count, count);

  // Validate the whole batch and locate every query once, on the pool and
  // before any fetch, so a rejected batch leaves the cache untouched. The
  // store caps a layout at 4096 blocks per side and b at 2^24, so a block
  // key I << 16 | J fits 32 bits and so does an element coordinate inside a
  // block. A query's two element coordinates wait in its answer slot until
  // the lookup overwrites them with the answer.
  const auto nn = static_cast<std::uint64_t>(n());
  std::vector<std::size_t> first_invalid(num_chunks, count);
  pool_.ParallelForTasks(num_chunks, [&](std::size_t c) {
    const std::size_t end = std::min(count, (c + 1) * chunk);
    for (std::size_t i = c * chunk; i < end; ++i) {
      const Query& query = queries[i];
      // A negative vertex wraps to a huge unsigned value.
      if (static_cast<std::uint64_t>(query.s) >= nn ||
          static_cast<std::uint64_t>(query.t) >= nn) {
        first_invalid[c] = i;
        return;
      }
      const Cell cell = Locate(query.s, query.t);
      block[i] = static_cast<std::uint32_t>(cell.I << 16 | cell.J);
      const std::uint64_t local = static_cast<std::uint64_t>(cell.li) |
                                  static_cast<std::uint64_t>(cell.lj) << 32;
      std::memcpy(&answers[i], &local, sizeof local);
    }
  });
  if (const std::size_t i =
          *std::min_element(first_invalid.begin(), first_invalid.end());
      i < count) {
    return InvalidArgumentError(
        "batch query " + std::to_string(i) + ": " +
        CheckQuery(queries[i].s, queries[i].t).message());
  }

  // Group by block: two stable counting passes, over J and then over I, sort
  // the query indices by (I, J) in O(count + q) time and memory, with no
  // q^2 table.
  const auto q = static_cast<std::size_t>(store_->manifest().q());
  std::iota(by_block.begin(), by_block.end(), std::uint32_t{0});
  StableCountingPass([&](std::uint32_t i) { return block[i] & 0xffffu; }, q,
                     by_block, by_j);
  StableCountingPass([&](std::uint32_t i) { return block[i] >> 16; }, q, by_j,
                     by_block);

  // Coldest runs first, so the hottest blocks are admitted last and stay
  // resident after the batch.
  struct Run {
    std::uint32_t block = 0;
    std::size_t begin = 0;   // in by_block
    std::size_t size = 0;
    std::size_t end = 0;     // exclusive, in the final layout
  };
  std::vector<Run> runs;
  for (std::size_t k = 0; k < count;) {
    const std::uint32_t key = block[by_block[k]];
    std::size_t end = k + 1;
    while (end < count && block[by_block[end]] == key) ++end;
    runs.push_back({key, k, end - k, 0});
    k = end;
  }
  std::stable_sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.size < b.size;
  });
  // by_j is free again; it takes the final run layout.
  const std::span<std::uint32_t> order = by_j;
  std::size_t placed = 0;
  for (Run& run : runs) {
    std::copy_n(by_block.begin() + static_cast<std::ptrdiff_t>(run.begin),
                run.size, order.begin() + static_cast<std::ptrdiff_t>(placed));
    placed += run.size;
    run.end = placed;
  }

  // Each chunk walks the runs it overlaps: one fetch per run, then a tight
  // read of the run's queries out of the pinned block. The first query's
  // latency sample covers the fetch; the rest of the run record their mean
  // read time in one bulk sample.
  std::mutex err_mu;
  Status first_error;
  pool_.ParallelForTasks(num_chunks, [&](std::size_t c) {
    PinMemo memo;
    std::size_t k = c * chunk;
    const std::size_t end = std::min(count, k + chunk);
    auto run = std::ranges::upper_bound(runs, k, {}, &Run::end);
    std::uint64_t t0 = NowNs();
    for (; k < end; ++run) {
      const std::size_t stop = std::min(end, run->end);
      auto fetched = FetchVia(memo, Plane::kDistance, run->block >> 16,
                              run->block & 0xffffu);
      if (!fetched.ok()) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (first_error.ok()) first_error = fetched.status();
        return;
      }
      const BlockView& view = **fetched;
      const auto read = [&](std::size_t i) {
        std::uint64_t local = 0;
        std::memcpy(&local, &answers[i], sizeof local);
        answers[i] = view.At(static_cast<std::int64_t>(local & 0xffffffffu),
                             static_cast<std::int64_t>(local >> 32));
      };
      read(order[k]);
      const std::uint64_t t1 = NowNs();
      point_latency_->Record(t1 - t0);
      const std::size_t rest = stop - ++k;
      for (; k < stop; ++k) read(order[k]);
      t0 = NowNs();
      if (rest > 0) point_latency_->Record((t0 - t1 + rest / 2) / rest, rest);
    }
  });
  batch_latency_->Record(NowNs() - batch_t0);
  if (!first_error.ok()) return first_error;
  return answers;
}

Result<std::vector<graph::VertexId>> DistanceService::Path(
    graph::VertexId s, graph::VertexId t) {
  if (!has_paths()) {
    return FailedPreconditionError(
        "store was persisted without a successor plane (--no-paths?)");
  }
  const std::int64_t b = store_->manifest().block_size;
  PinMemo memo;
  Status walk_error;
  // The successor plane is always full q^2, so no mirroring here.
  auto next_of = [&](graph::VertexId i,
                     graph::VertexId target) -> std::int64_t {
    auto block = FetchVia(memo, Plane::kNext, i / b, target / b);
    if (!block.ok()) {
      if (walk_error.ok()) walk_error = block.status();
      return -1;
    }
    return static_cast<std::int64_t>((*block)->At(i % b, target % b));
  };
  const std::uint64_t t0 = NowNs();
  auto path = graph::ExtractPathWithLookup(n(), s, t, next_of);
  path_latency_->Record(NowNs() - t0);
  if (!walk_error.ok()) return walk_error;
  return path;
}

}  // namespace apspark::store
