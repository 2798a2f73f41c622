#include "store/distance_service.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>
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
/// key[in[k]] (every key below `buckets`), ties in their `in` order.
void StableCountingPass(const std::vector<std::uint16_t>& key,
                        std::size_t buckets,
                        const std::vector<std::size_t>& in,
                        std::vector<std::size_t>& out) {
  std::vector<std::size_t> next(buckets + 1, 0);
  for (const std::size_t i : in) ++next[key[i] + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  for (const std::size_t i : in) out[next[key[i]]++] = i;
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
  auto d = [&]() -> Result<double> {
    if (Status valid = CheckQuery(s, t); !valid.ok()) return valid;
    const Cell cell = Locate(s, t);
    auto pin = store_->Fetch(Plane::kDistance, cell.I, cell.J);
    if (!pin.ok()) return pin.status();
    return pin->block().At(cell.li, cell.lj);
  }();
  point_latency_->Record(NowNs() - t0);
  return d;
}

Result<std::vector<double>> DistanceService::DistanceBatch(
    const std::vector<Query>& queries) {
  const std::size_t count = queries.size();
  std::vector<double> answers(count);
  if (count == 0) return answers;
  const std::uint64_t batch_t0 = NowNs();

  // Validate the whole batch and key every query by its stored block before
  // any fetch, so a rejected batch leaves the cache untouched. The store
  // caps a layout at 4096 blocks per side, so a block coordinate fits 16
  // bits.
  const auto q = static_cast<std::size_t>(store_->manifest().q());
  std::vector<std::uint16_t> block_i(count);
  std::vector<std::uint16_t> block_j(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Status valid = CheckQuery(queries[i].s, queries[i].t);
    if (!valid.ok()) {
      return InvalidArgumentError("batch query " + std::to_string(i) + ": " +
                                  valid.message());
    }
    const Cell cell = Locate(queries[i].s, queries[i].t);
    block_i[i] = static_cast<std::uint16_t>(cell.I);
    block_j[i] = static_cast<std::uint16_t>(cell.J);
  }

  // Group by block: two stable counting passes, over J and then over I, sort
  // the query indices by (I, J) in O(count + q) time and memory, with no
  // q^2 table.
  std::vector<std::size_t> by_j(count);
  std::vector<std::size_t> by_block(count);
  std::iota(by_block.begin(), by_block.end(), std::size_t{0});
  StableCountingPass(block_j, q, by_block, by_j);
  StableCountingPass(block_i, q, by_j, by_block);

  // Coldest runs first, so the hottest blocks are admitted last and stay
  // resident after the batch.
  struct Run {
    std::size_t begin = 0;
    std::size_t size = 0;
  };
  std::vector<Run> runs;
  for (std::size_t k = 0; k < count;) {
    const std::size_t first = by_block[k];
    std::size_t end = k + 1;
    while (end < count && block_i[by_block[end]] == block_i[first] &&
           block_j[by_block[end]] == block_j[first]) {
      ++end;
    }
    runs.push_back({k, end - k});
    k = end;
  }
  std::stable_sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.size < b.size;
  });
  // by_j is free again; it takes the final run layout.
  std::vector<std::size_t>& order = by_j;
  std::size_t placed = 0;
  for (const Run& run : runs) {
    std::copy_n(by_block.begin() + static_cast<std::ptrdiff_t>(run.begin),
                run.size, order.begin() + static_cast<std::ptrdiff_t>(placed));
    placed += run.size;
  }

  // Equal chunks of the run sequence, a few per worker so stealing can level
  // the load; each chunk's pin memo fetches a run's block once.
  const std::size_t num_chunks =
      std::min(count, 4 * std::max<std::size_t>(pool_.num_threads(), 1));
  const std::size_t chunk = (count + num_chunks - 1) / num_chunks;

  std::mutex err_mu;
  Status first_error;
  pool_.ParallelForTasks(num_chunks, [&](std::size_t c) {
    PinMemo memo;
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = order[k];
      const std::uint64_t t0 = NowNs();
      const Cell cell = Locate(queries[i].s, queries[i].t);
      auto block = FetchVia(memo, Plane::kDistance, cell.I, cell.J);
      if (!block.ok()) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (first_error.ok()) first_error = block.status();
        return;
      }
      answers[i] = (*block)->At(cell.li, cell.lj);
      point_latency_->Record(NowNs() - t0);
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
