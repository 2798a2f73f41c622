// Unit tests for the common utilities: RNG, formatting, serialization,
// status/result, thread pool + work-stealing scheduler, arithmetic helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <thread>

#include "common/bytes.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "test_support.h"

namespace apspark {
namespace {

// --- RNG -------------------------------------------------------------

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, DoubleRangeRespectsBounds) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble(3.0, 5.5);
    EXPECT_GE(d, 3.0);
    EXPECT_LT(d, 5.5);
  }
}

TEST(Xoshiro, BoundedIsUnbiasedEnough) {
  Xoshiro256 rng(9);
  std::vector<int> counts(10, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 10, kSamples / 100);  // within 10% relative
  }
}

TEST(Xoshiro, BoundedZeroReturnsZero) {
  Xoshiro256 rng(10);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(Xoshiro, GeometricMeanMatchesDistribution) {
  Xoshiro256 rng(11);
  const double p = 0.2;
  double sum = 0;
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.NextGeometric(p));
  }
  // E[failures before success] = (1-p)/p = 4.
  EXPECT_NEAR(sum / kSamples, 4.0, 0.1);
}

TEST(Xoshiro, GeometricWithPOneIsZero) {
  Xoshiro256 rng(12);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextGeometric(1.0), 0u);
}

TEST(Xoshiro, GaussianMoments) {
  Xoshiro256 rng(13);
  double sum = 0, sum2 = 0;
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kSamples, 1.0, 0.03);
}

TEST(Xoshiro, JumpCreatesDisjointStream) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  b.Jump();
  std::set<std::uint64_t> first;
  for (int i = 0; i < 1000; ++i) first.insert(a.Next());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) collisions += first.count(b.Next());
  EXPECT_EQ(collisions, 0);
}

TEST(Mix64, InjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

// --- formatting --------------------------------------------------------

TEST(FormatDuration, PaperStyle) {
  EXPECT_EQ(FormatDuration(0.022), "22ms");
  EXPECT_EQ(FormatDuration(45), "45s");
  EXPECT_EQ(FormatDuration(143), "2m23s");
  EXPECT_EQ(FormatDuration(4500), "1h15m");
  EXPECT_EQ(FormatDuration(836400), "9d16h");
  EXPECT_EQ(FormatDuration(std::numeric_limits<double>::infinity()), "inf");
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(4 * kKiB), "4.0KiB");
  EXPECT_EQ(FormatBytes(kGiB + kGiB / 2), "1.5GiB");
  EXPECT_EQ(FormatBytes(kTiB), "1.0TiB");
}

TEST(FormatRate, Units) { EXPECT_EQ(FormatRate(125.0e6), "119.2MiB/s"); }

// --- serialization ------------------------------------------------------

TEST(Serial, RoundTripScalars) {
  BinaryWriter w;
  w.Write<std::int64_t>(-7);
  w.Write<double>(3.25);
  w.WriteString("hello");
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.Read<std::int64_t>(), -7);
  EXPECT_EQ(*r.Read<double>(), 3.25);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serial, RoundTripVector) {
  BinaryWriter w;
  w.WriteVector(std::vector<double>{1.0, 2.0, 3.0});
  BinaryReader r(w.buffer());
  auto v = r.ReadVector<double>();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Serial, ReadPastEndFails) {
  BinaryWriter w;
  w.Write<std::int32_t>(1);
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.Read<std::int64_t>().status().code() ==
              StatusCode::kOutOfRange);
}

TEST(Serial, TruncatedStringFails) {
  BinaryWriter w;
  w.Write<std::uint64_t>(100);  // claims 100 bytes, provides none
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

// --- status / result ------------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = ResourceExhaustedError("disk full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.ToString(), "RESOURCE_EXHAUSTED: disk full");
  EXPECT_THROW(s.CheckOk(), std::runtime_error);
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> bad(NotFoundError("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_THROW(bad.value(), std::runtime_error);
}

// --- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelForTasks(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelForTasks(4,
                                     [](std::size_t i) {
                                       if (i == 2) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
               std::runtime_error);
}

// --- work-stealing scheduler ----------------------------------------------

TEST(WorkStealing, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelForTasks(kCount, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkStealing, NestedParallelForInsideStolenTasks) {
  // Each outer task — wherever it was stolen to — fans out again; the
  // nested calls schedule through the executing thread's own deque instead
  // of running inline.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.ParallelForTasks(8, [&](std::size_t) {
    pool.ParallelForTasks(16, [&](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 8 * 16);
}

TEST(WorkStealing, ThreeLevelNestingOnSmallPool) {
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  pool.ParallelForTasks(4, [&](std::size_t) {
    pool.ParallelForTasks(4, [&](std::size_t) {
      pool.ParallelForTasks(4, [&](std::size_t) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(WorkStealing, OversubscriptionManyMoreTasksThanWorkers) {
  ThreadPool pool(2);
  constexpr std::int64_t kCount = 5000;
  std::atomic<std::int64_t> sum{0};
  pool.ParallelForTasks(static_cast<std::size_t>(kCount),
                        [&](std::size_t i) {
                          sum += static_cast<std::int64_t>(i);
                        });
  EXPECT_EQ(sum.load(), kCount * (kCount - 1) / 2);
}

TEST(WorkStealing, ConcurrentExternalSubmitters) {
  // Two driver-side threads race batches through the injection queue; each
  // joiner helps with whatever tasks it can take, including the other's.
  ThreadPool pool(4);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread t1([&] { pool.ParallelForTasks(300, [&](std::size_t) { ++a; }); });
  std::thread t2([&] { pool.ParallelForTasks(300, [&](std::size_t) { ++b; }); });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 300);
  EXPECT_EQ(b.load(), 300);
}

TEST(WorkStealing, ExceptionFirstOneWinsAndPoolSurvives) {
  // The thread_pool.h contract: exceptions are rethrown, first one wins;
  // tasks of the same call that have not started are skipped.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  try {
    pool.ParallelForTasks(64, [&](std::size_t i) {
      ++started;
      throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).substr(0, 5), "task ");
  }
  EXPECT_GE(started.load(), 1);
  // The pool stays fully usable after a failed batch.
  std::atomic<int> counter{0};
  pool.ParallelForTasks(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(WorkStealing, NestedExceptionPropagatesThroughOuterJoin) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelForTasks(8,
                                     [&](std::size_t) {
                                       pool.ParallelForTasks(
                                           8, [](std::size_t j) {
                                             if (j == 3) {
                                               throw std::logic_error("inner");
                                             }
                                           });
                                     }),
               std::logic_error);
}

namespace taskgraph {

/// Sequential shadow of SpawnGraph: the expected leaf count of the random
/// task graph rooted at (depth, seed).
std::int64_t CountLeaves(int depth, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto fanout = static_cast<std::int64_t>(1 + rng.NextBounded(5));
  if (depth == 0) return fanout;
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < fanout; ++i) {
    total += CountLeaves(depth - 1,
                         Mix64(seed ^ static_cast<std::uint64_t>(i + 1)));
  }
  return total;
}

/// Spawns the same random task graph on the pool: every node fans out into
/// 1..5 stealable tasks, children derive their shape from Mix64'd seeds.
void SpawnGraph(ThreadPool& pool, std::atomic<std::int64_t>& leaves,
                int depth, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto fanout = static_cast<std::size_t>(1 + rng.NextBounded(5));
  if (depth == 0) {
    leaves.fetch_add(static_cast<std::int64_t>(fanout));
    return;
  }
  pool.ParallelForTasks(fanout, [&, depth, seed](std::size_t i) {
    SpawnGraph(pool, leaves, depth - 1,
               Mix64(seed ^ static_cast<std::uint64_t>(i + 1)));
  });
}

}  // namespace taskgraph

TEST(WorkStealing, SeededRandomTaskGraphShapes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed);
    ThreadPool pool(2 + rng.NextBounded(4));
    const int depth = static_cast<int>(1 + rng.NextBounded(3));
    const std::uint64_t shape_seed = Mix64(seed * 977);
    std::atomic<std::int64_t> leaves{0};
    taskgraph::SpawnGraph(pool, leaves, depth, shape_seed);
    EXPECT_EQ(leaves.load(), taskgraph::CountLeaves(depth, shape_seed));
  }
}

// --- math ------------------------------------------------------------------

TEST(MathUtils, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(1, 100), 1);
}

TEST(MathUtils, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(256), 8);
  EXPECT_EQ(CeilLog2(262144), 18);  // the paper's largest n
}

TEST(MathUtils, UpperTriangularCount) {
  EXPECT_EQ(UpperTriangularCount(1), 1);
  EXPECT_EQ(UpperTriangularCount(4), 10);
  EXPECT_EQ(UpperTriangularCount(1024), 524800);
}

TEST(MathUtils, LptMakespan) {
  // One machine: the ordered sum (the sequential-charging degenerate case).
  EXPECT_DOUBLE_EQ(LptMakespan({0.1, 0.2, 0.3}, 1), 0.1 + 0.2 + 0.3);
  EXPECT_DOUBLE_EQ(LptMakespan({1, 1, 1, 1}, 2), 2.0);
  EXPECT_DOUBLE_EQ(LptMakespan({2, 3, 2}, 2), 4.0);
  EXPECT_DOUBLE_EQ(LptMakespan({10, 0.1, 0.1}, 8), 10.0);
  EXPECT_DOUBLE_EQ(LptMakespan({}, 4), 0.0);
}

}  // namespace
}  // namespace apspark
