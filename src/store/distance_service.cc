#include "store/distance_service.h"

#include <algorithm>
#include <chrono>
#include <mutex>
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

Result<double> DistanceService::DistanceVia(PinMemo& memo, graph::VertexId s,
                                            graph::VertexId t) {
  const std::int64_t nn = n();
  if (s < 0 || t < 0 || s >= nn || t >= nn) {
    return InvalidArgumentError("query (" + std::to_string(s) + ", " +
                                std::to_string(t) + ") outside [0, " +
                                std::to_string(nn) + ")");
  }
  const std::int64_t b = store_->manifest().block_size;
  std::int64_t I = s / b;
  std::int64_t J = t / b;
  std::int64_t li = s % b;
  std::int64_t lj = t % b;
  if (!store_->manifest().directed && I > J) {
    // Undirected storage holds the canonical upper triangle; distances are
    // symmetric, so read the mirrored element of the mirrored block.
    std::swap(I, J);
    std::swap(li, lj);
  }
  auto block = FetchVia(memo, Plane::kDistance, I, J);
  if (!block.ok()) return block.status();
  return (*block)->At(li, lj);
}

Result<double> DistanceService::Distance(graph::VertexId s,
                                         graph::VertexId t) {
  const std::uint64_t t0 = NowNs();
  PinMemo memo;
  auto d = DistanceVia(memo, s, t);
  point_latency_->Record(NowNs() - t0);
  return d;
}

Result<std::vector<double>> DistanceService::DistanceBatch(
    const std::vector<Query>& queries) {
  std::vector<double> answers(queries.size());
  if (queries.empty()) return answers;
  const std::uint64_t batch_t0 = NowNs();

  // Contiguous chunks, a few per worker so stealing can level the load; each
  // chunk carries its own pin memo, so a hot block is fetched once per chunk.
  const std::size_t num_chunks =
      std::min(queries.size(),
               4 * std::max<std::size_t>(pool_.num_threads(), 1));
  const std::size_t chunk = (queries.size() + num_chunks - 1) / num_chunks;

  std::mutex err_mu;
  Status first_error;
  pool_.ParallelForTasks(num_chunks, [&](std::size_t c) {
    PinMemo memo;
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(queries.size(), begin + chunk);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t t0 = NowNs();
      auto d = DistanceVia(memo, queries[i].s, queries[i].t);
      point_latency_->Record(NowNs() - t0);
      if (!d.ok()) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (first_error.ok()) first_error = d.status();
        return;
      }
      answers[i] = *d;
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
