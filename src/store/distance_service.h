// Distance-serving front end over a sealed BlockStore.
//
// A solve ends; serving begins: the service answers point-to-point distance
// queries and reconstructs shortest-path vertex sequences against the
// block-resident planes, fetching (and pinning) only the blocks a query
// touches, and a lookup is a read through the store's mapping.
//
// Geometry: a distance query (s, t) maps to block (s/b, t/b) and local
// offsets (s%b, t%b). Undirected stores hold only the canonical upper
// triangle, so when s/b > t/b the service fetches the mirrored block and
// reads the transposed element — element-level transposition, never a block
// copy. The successor plane is always full q^2 (first hops are not
// symmetric), and a path walk fetches along next(i, t) until it lands on t.
//
// Batches are block-major multigets, the serving-side form of the paper's
// rule that a per-block cost must pay for b^2 elements of work. A batch is
// validated whole on the service pool, which also records each query's
// stored block and its element inside the block, once. The queries are
// then grouped by canonical stored block (two stable counting passes, over
// J and then over I: O(batch + q)). The block runs are laid out coldest
// first — ascending query count, ties in (I, J) order — so the batch's
// hottest blocks are admitted last and stay resident for the traffic that
// follows. The run sequence is cut into a few equal chunks per pool worker;
// a chunk fetches each run's block once and reads every query of the run
// out of it in a tight loop, so a batch touching D blocks makes at most
// D + chunks - 1 fetches. Answers land at their input positions, bitwise
// equal to point queries.
//
// Latency samples follow the same per-run rule: a run's first query (in its
// chunk) is timed together with the run's fetch, and the rest of the run
// each record the run's mean read time, rounded to the nearest ns, in one
// bulk Histogram::Record — no clock read or histogram atomic per query.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "obs/metrics_registry.h"
#include "store/block_store.h"

namespace apspark::store {

class DistanceService {
 public:
  struct Options {
    /// Lookup worker threads for DistanceBatch (0 = hardware concurrency).
    std::size_t num_threads = 0;
    /// Forwarded to BlockStore::Open (cache cap, accountant).
    BlockStore::Options store_options;
  };

  /// One point-to-point distance question.
  struct Query {
    graph::VertexId s = 0;
    graph::VertexId t = 0;
  };

  static Result<std::unique_ptr<DistanceService>> Open(const std::string& dir,
                                                       const Options& options);
  static Result<std::unique_ptr<DistanceService>> Open(
      const std::string& dir) {
    return Open(dir, Options{});
  }

  /// dist(s, t); +inf when t is unreachable from s.
  Result<double> Distance(graph::VertexId s, graph::VertexId t);

  /// Answers every query (answers[i] is queries[i]'s distance) block by
  /// block, fanning the block runs out across the service's thread pool (see
  /// the file comment). Every query is validated before the store is
  /// touched: a batch with an invalid query fails kInvalidArgument naming
  /// the lowest-index one and moves no cache counter, and so does a batch of
  /// more than 2^32 - 1 queries. A store error fails the whole batch. Each
  /// answered query adds one PointLatency() sample: the run's first query in
  /// its chunk is timed with the fetch of the run's block, and the rest of
  /// the run each record the run's mean element-read time. The service keeps
  /// the largest batch's index scratch (12 bytes a query) for the next one.
  Result<std::vector<double>> DistanceBatch(const std::vector<Query>& queries);

  /// The vertex sequence of a shortest s->t path (endpoints inclusive).
  /// kNotFound when unreachable; kFailedPrecondition when the store was
  /// persisted without a successor plane.
  Result<std::vector<graph::VertexId>> Path(graph::VertexId s,
                                            graph::VertexId t);

  std::int64_t n() const noexcept { return store_->manifest().n; }
  bool has_paths() const noexcept { return store_->manifest().has_paths; }
  const BlockStore& store() const noexcept { return *store_; }

  /// Quantiles of one always-on serve-path latency histogram, in seconds.
  /// Derived from the service's log-bucketed histograms (<= 12.5% bucket
  /// error), not from bench-side sampling — what a production scrape reads.
  struct LatencySnapshot {
    std::uint64_t count = 0;
    double p50_seconds = 0;
    double p95_seconds = 0;
    double p99_seconds = 0;
    double p999_seconds = 0;
  };
  /// Per-query latency, one sample per query answered: a Distance() call
  /// that returns a distance, or a batched query, where the rest of a block
  /// run after its first query share the run's mean read time (see
  /// DistanceBatch). Rejected queries and failed fetches add none.
  LatencySnapshot PointLatency() const { return Snapshot(*point_latency_); }
  /// Whole-batch latency, one sample per DistanceBatch call that passes
  /// validation.
  LatencySnapshot BatchLatency() const { return Snapshot(*batch_latency_); }
  /// Path() reconstruction latency, one sample per answered call: a
  /// returned path or kNotFound. Rejected endpoints and walks whose fetch
  /// fails add none.
  LatencySnapshot PathLatency() const { return Snapshot(*path_latency_); }

 private:
  DistanceService(std::unique_ptr<BlockStore> store, std::size_t num_threads)
      : store_(std::move(store)),
        pool_(num_threads),
        point_latency_(
            &obs::Registry::Global().GetHistogram("serve_point_latency_ns")),
        batch_latency_(
            &obs::Registry::Global().GetHistogram("serve_batch_latency_ns")),
        path_latency_(
            &obs::Registry::Global().GetHistogram("serve_path_latency_ns")) {}

  static LatencySnapshot Snapshot(const obs::Histogram& h) {
    LatencySnapshot s;
    s.count = h.count();
    s.p50_seconds = h.QuantileSeconds(0.50);
    s.p95_seconds = h.QuantileSeconds(0.95);
    s.p99_seconds = h.QuantileSeconds(0.99);
    s.p999_seconds = h.QuantileSeconds(0.999);
    return s;
  }

  /// Cached last fetch so consecutive lookups into one block skip the store.
  struct PinMemo {
    Plane plane = Plane::kDistance;
    std::int64_t I = -1;
    std::int64_t J = -1;
    BlockStore::Pin pin;
  };

  /// Where a distance query reads: stored block (I, J) of the distance
  /// plane, canonical when the store is undirected, and the element (li, lj)
  /// inside it.
  struct Cell {
    std::int64_t I = 0;
    std::int64_t J = 0;
    std::int64_t li = 0;
    std::int64_t lj = 0;
  };

  /// kInvalidArgument unless s and t are both vertices of the store.
  Status CheckQuery(graph::VertexId s, graph::VertexId t) const;
  /// The cell answering a checked query (s, t).
  Cell Locate(graph::VertexId s, graph::VertexId t) const noexcept;
  /// Pins (or reuses from `memo`) the block covering (I, J) of `plane`.
  Result<const BlockView*> FetchVia(PinMemo& memo, Plane plane,
                                    std::int64_t I, std::int64_t J);

  std::unique_ptr<BlockStore> store_;
  ThreadPool pool_;
  // Always-on serve-path latency histograms, shared with the global
  // registry (stable pointers; the registry never deletes metrics).
  obs::Histogram* point_latency_;
  obs::Histogram* batch_latency_;
  obs::Histogram* path_latency_;
  // DistanceBatch's index scratch, kept at the largest batch's size so a
  // steady stream of batches page-faults none of it.
  std::mutex scratch_mu_;
  std::vector<std::uint32_t> scratch_;
};

}  // namespace apspark::store
