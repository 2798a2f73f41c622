// Engine tests for sparklet: RDD semantics (laziness, fusion, union,
// shuffles), partitioners (including the pySpark portable_hash replica),
// virtual-cluster accounting, fault injection and lineage recomputation,
// shared storage, and the discrete-event scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "sparklet/rdd.h"

namespace apspark::sparklet {
namespace {

using IntPair = std::pair<std::int64_t, std::int64_t>;

SparkletContext MakeCtx() { return SparkletContext(ClusterConfig::TinyTest()); }

std::vector<std::int64_t> Iota(std::int64_t n) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// --- portable hash -------------------------------------------------------

TEST(PortableHash, MatchesCPython2Golden) {
  // Golden values computed with the CPython 2 int/tuple hash algorithm,
  // which pyspark.rdd.portable_hash implements for (I, J) keys.
  EXPECT_EQ(PortableHashTuple2(0, 0), 3713080549408328131LL);
  EXPECT_EQ(PortableHashTuple2(0, 1), 3713080549409410656LL);
  EXPECT_EQ(PortableHashTuple2(1, 0), 3713081631936575706LL);
  EXPECT_EQ(PortableHashTuple2(3, 7), 3713083796998483481LL);
  EXPECT_EQ(PortableHashTuple2(127, 511), 3712958223254113981LL);
  EXPECT_EQ(PortableHashTuple2(-1, -1), 3713082714462658231LL);
}

TEST(PortableHash, IntHashMatchesCPython2) {
  EXPECT_EQ(PortableHashInt(5), 5);
  EXPECT_EQ(PortableHashInt(0), 0);
  EXPECT_EQ(PortableHashInt(-1), -2);  // CPython reserves -1 for errors
}

TEST(PortableHash, NonNegativeMod) {
  EXPECT_EQ(NonNegativeMod(7, 4), 3);
  EXPECT_EQ(NonNegativeMod(-7, 4), 1);
  EXPECT_EQ(NonNegativeMod(-4, 4), 0);
  for (std::int64_t h : {-100LL, -1LL, 0LL, 99999LL}) {
    const int m = NonNegativeMod(h, 7);
    EXPECT_GE(m, 0);
    EXPECT_LT(m, 7);
  }
}

// --- RDD semantics ---------------------------------------------------------

TEST(Rdd, ParallelizeAndCollectPreservesData) {
  auto ctx = MakeCtx();
  auto rdd = ctx.Parallelize("data", Iota(100), 7);
  EXPECT_EQ(rdd->num_partitions(), 7);
  auto out = rdd->Collect();
  EXPECT_EQ(out, Iota(100));
}

TEST(Rdd, MapAndFilterCompose) {
  auto ctx = MakeCtx();
  auto rdd = ctx.Parallelize("data", Iota(10), 3);
  auto result = rdd->Map("x2",
                         [](const std::int64_t& x, TaskContext&) {
                           return x * 2;
                         })
                    ->Filter("gt8", [](const std::int64_t& x) { return x > 8; })
                    ->Collect();
  EXPECT_EQ(result, (std::vector<std::int64_t>{10, 12, 14, 16, 18}));
}

TEST(Rdd, FlatMapExpands) {
  auto ctx = MakeCtx();
  auto rdd = ctx.Parallelize("data", Iota(3), 2);
  auto result = rdd->FlatMap<std::int64_t>(
                       "dup",
                       [](const std::int64_t& x, TaskContext&,
                          std::vector<std::int64_t>& out) {
                         out.push_back(x);
                         out.push_back(x + 100);
                       })
                    ->Collect();
  EXPECT_EQ(result.size(), 6u);
}

TEST(Rdd, MapPartitionsSeesWholePartition) {
  auto ctx = MakeCtx();
  auto rdd = ctx.Parallelize("data", Iota(10), 2);
  auto sums = rdd->MapPartitions<std::int64_t>(
                     "sum",
                     [](std::vector<std::int64_t>&& part, TaskContext&) {
                       std::int64_t s = 0;
                       for (auto x : part) s += x;
                       return std::vector<std::int64_t>{s};
                     })
                  ->Collect();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0] + sums[1], 45);
}

TEST(Rdd, UnionConcatenatesPartitions) {
  auto ctx = MakeCtx();
  auto a = ctx.Parallelize("a", Iota(4), 2);
  auto b = ctx.Parallelize("b", Iota(6), 3);
  auto u = ctx.Union("u", {a, b});
  // Spark semantics: union preserves component partitioning (the partition
  // blow-up the paper discusses in §5.2).
  EXPECT_EQ(u->num_partitions(), 5);
  EXPECT_EQ(u->Count(), 10);
}

TEST(Rdd, CountMatchesCollectSize) {
  auto ctx = MakeCtx();
  auto rdd = ctx.Parallelize("data", Iota(37), 4);
  EXPECT_EQ(rdd->Count(), 37);
}

TEST(Rdd, LazinessTransformationsRunOnlyOnAction) {
  auto ctx = MakeCtx();
  int calls = 0;
  auto rdd = ctx.Parallelize("data", Iota(5), 1)
                 ->Map("count-calls", [&calls](const std::int64_t& x,
                                               TaskContext&) {
                   ++calls;
                   return x;
                 });
  EXPECT_EQ(calls, 0);  // nothing ran yet
  rdd->Collect();
  EXPECT_EQ(calls, 5);
}

TEST(Rdd, UnpersistedChainRecomputesPersistedDoesNot) {
  auto ctx = MakeCtx();
  int calls = 0;
  auto mapped = ctx.Parallelize("data", Iota(4), 1)
                    ->Map("count", [&calls](const std::int64_t& x,
                                            TaskContext&) {
                      ++calls;
                      return x;
                    });
  mapped->Collect();
  mapped->Collect();
  EXPECT_EQ(calls, 8);  // recomputed per action, like un-cached Spark RDDs

  calls = 0;
  mapped->Persist();
  mapped->Collect();
  mapped->Collect();
  EXPECT_EQ(calls, 4);  // materialized once
}

TEST(Rdd, ActionOnPersistedRddReadsItsCacheNotItsUnpersistedParent) {
  auto ctx = MakeCtx();
  int prev_calls = 0;
  auto prev = ctx.Parallelize("data", Iota(4), 2)
                  ->Map("prev",
                        [&prev_calls](const std::int64_t& x, TaskContext&) {
                          ++prev_calls;
                          return x;
                        })
                  ->Persist();
  auto next = prev->Map("next", [](const std::int64_t& x, TaskContext&) {
                    return x + 1;
                  })->Persist();
  prev->EnsureMaterialized();
  next->EnsureMaterialized();
  prev->Unpersist();

  const auto& acct = ctx.cluster().accountant();
  std::vector<std::uint64_t> ledger;
  for (int n = 0; n < acct.num_nodes(); ++n) {
    ledger.push_back(acct.node_live_bytes(n));
  }
  prev_calls = 0;
  const std::uint64_t stages = ctx.metrics().stages;

  EXPECT_EQ(next->Collect(), (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(ctx.metrics().stages, stages + 1);  // the collect stage alone
  EXPECT_EQ(next->Count(), 4);
  EXPECT_EQ(ctx.metrics().stages, stages + 2);
  EXPECT_EQ(prev_calls, 0);  // the unpersisted parent is never re-run
  for (int n = 0; n < acct.num_nodes(); ++n) {
    EXPECT_EQ(acct.node_live_bytes(n), ledger[static_cast<std::size_t>(n)])
        << "node " << n;
  }
}

// --- shuffles ----------------------------------------------------------

TEST(Shuffle, ReduceByKeyAggregates) {
  auto ctx = MakeCtx();
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 20; ++i) data.push_back({i % 4, 1});
  auto rdd = ctx.Parallelize("pairs", data, 3);
  auto reduced = ReduceByKey(
      rdd, MakePortableHash<std::int64_t>(4), "sum",
      [](const std::int64_t& a, const std::int64_t& b, TaskContext&) {
        return a + b;
      });
  auto out = reduced->Collect();
  ASSERT_EQ(out.size(), 4u);
  for (const auto& [k, v] : out) EXPECT_EQ(v, 5);
}

TEST(Shuffle, PartitionByPlacesKeysPerPartitioner) {
  auto ctx = MakeCtx();
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 16; ++i) data.push_back({i, i});
  auto part = MakePortableHash<std::int64_t>(4);
  auto shuffled = PartitionBy(ctx.Parallelize("pairs", data, 2), part);
  shuffled->EnsureMaterialized();
  TaskContext tc = ctx.MakeTaskContext();
  for (int p = 0; p < 4; ++p) {
    for (const auto& [k, v] : shuffled->ComputeOrRead(p, tc)) {
      EXPECT_EQ(part->PartitionOf(k), p);
    }
  }
  EXPECT_EQ(shuffled->Count(), 16);
}

TEST(Shuffle, CombineByKeyBuildsLists) {
  auto ctx = MakeCtx();
  std::vector<IntPair> data{{1, 10}, {1, 11}, {2, 20}, {1, 12}};
  auto combined = CombineByKey<std::int64_t, std::int64_t,
                               std::vector<std::int64_t>>(
      ctx.Parallelize("pairs", data, 2),
      MakePortableHash<std::int64_t>(3), "lists",
      [](std::int64_t&& v) { return std::vector<std::int64_t>{v}; },
      [](std::vector<std::int64_t>& list, std::int64_t&& v, TaskContext&) {
        list.push_back(v);
      },
      [](std::vector<std::int64_t>& list, std::vector<std::int64_t>&& other,
         TaskContext&) {
        for (auto v : other) list.push_back(v);
      });
  auto out = combined->Collect();
  ASSERT_EQ(out.size(), 2u);
  for (auto& [k, list] : out) {
    std::sort(list.begin(), list.end());
    if (k == 1) {
      EXPECT_EQ(list, (std::vector<std::int64_t>{10, 11, 12}));
    } else {
      EXPECT_EQ(list, (std::vector<std::int64_t>{20}));
    }
  }
}

TEST(Shuffle, AccountsBytesAndStages) {
  auto ctx = MakeCtx();
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 100; ++i) data.push_back({i, i});
  auto shuffled =
      PartitionBy(ctx.Parallelize("pairs", data, 4),
                  MakePortableHash<std::int64_t>(4));
  shuffled->EnsureMaterialized();
  const SimMetrics& m = ctx.metrics();
  EXPECT_GT(m.shuffle_bytes, 0u);
  EXPECT_GT(m.stages, 0u);
  EXPECT_GT(m.tasks, 0u);
  EXPECT_GT(ctx.now_seconds(), 0.0);
}

TEST(Shuffle, LocalStorageExhaustionAborts) {
  auto cfg = ClusterConfig::TinyTest();
  cfg.local_storage_bytes = 64;  // absurdly small
  SparkletContext ctx(cfg);
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 1000; ++i) data.push_back({i, i});
  auto shuffled = PartitionBy(ctx.Parallelize("pairs", data, 4),
                              MakePortableHash<std::int64_t>(4));
  try {
    shuffled->EnsureMaterialized();
    FAIL() << "expected SparkletAbort";
  } catch (const SparkletAbort& abort) {
    EXPECT_EQ(abort.status().code(), StatusCode::kResourceExhausted);
  }
}

// --- fault injection / lineage ------------------------------------------

TEST(Fault, TaskRetrySucceedsWithinBudget) {
  auto ctx = MakeCtx();
  auto rdd = ctx.Parallelize("data", Iota(10), 2)
                 ->Map("slow", [](const std::int64_t& x, TaskContext&) {
                   return x + 1;
                 });
  ctx.fault_injector().FailTask("slow", 0, 2);
  auto out = rdd->Collect();
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(ctx.metrics().task_failures, 2u);
  EXPECT_EQ(ctx.metrics().task_retries, 2u);
}

TEST(Fault, ExceedingMaxFailuresAborts) {
  auto cfg = ClusterConfig::TinyTest();
  cfg.max_task_failures = 3;
  SparkletContext ctx(cfg);
  auto rdd = ctx.Parallelize("data", Iota(4), 1)
                 ->Map("doomed", [](const std::int64_t& x, TaskContext&) {
                   return x;
                 });
  ctx.fault_injector().FailTask("doomed", 0, 10);
  try {
    rdd->Collect();
    FAIL() << "expected SparkletAbort";
  } catch (const SparkletAbort& abort) {
    EXPECT_EQ(abort.status().code(), StatusCode::kAborted);
  }
}

TEST(Fault, DroppedShufflePartitionRecomputesFromShuffleFiles) {
  auto ctx = MakeCtx();
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 50; ++i) data.push_back({i, i * i});
  auto shuffled = PartitionBy(ctx.Parallelize("pairs", data, 4),
                              MakePortableHash<std::int64_t>(4));
  auto before = shuffled->Collect();
  shuffled->DropPartition(2);  // simulated executor loss
  auto after = shuffled->Collect();
  auto key_sorted = [](std::vector<IntPair> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(key_sorted(before), key_sorted(after));
}

// --- shared storage ----------------------------------------------------

TEST(SharedStorage, PutGetAndAccounting) {
  SharedStorage storage;
  storage.Put("a", {1, 2, 3}, 1000);
  EXPECT_TRUE(storage.Contains("a"));
  EXPECT_EQ(storage.total_logical_bytes(), 1000u);
  auto obj = storage.Get("a");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->payload->size(), 3u);
  EXPECT_EQ(obj->logical_bytes, 1000u);
  storage.Put("a", {9}, 500);  // overwrite adjusts accounting
  EXPECT_EQ(storage.total_logical_bytes(), 500u);
  EXPECT_FALSE(storage.Get("missing").ok());
}

TEST(SharedStorage, ErasePrefix) {
  SharedStorage storage;
  storage.Put("rs/0/1", {1}, 10);
  storage.Put("rs/0/2", {1}, 10);
  storage.Put("cb/0", {1}, 10);
  EXPECT_EQ(storage.ErasePrefix("rs/"), 2u);
  EXPECT_EQ(storage.object_count(), 1u);
  EXPECT_EQ(storage.total_logical_bytes(), 10u);
}

TEST(SharedStorage, TaskReadsChargeTime) {
  auto ctx = MakeCtx();
  ctx.DriverWriteShared("blob", std::vector<std::uint8_t>(16, 1),
                        1 * kMiB);
  TaskContext tc = ctx.MakeTaskContext();
  tc.SetStageConcurrency(1);
  auto obj = tc.ReadShared("blob");
  ASSERT_TRUE(obj.ok());
  EXPECT_GT(tc.task_seconds(), 0.0);
  EXPECT_EQ(tc.shared_read_bytes(), 1 * kMiB);
  EXPECT_GT(ctx.metrics().shared_fs_written_bytes, 0u);
}

// --- scheduler / cluster model -------------------------------------------

TEST(Scheduler, ListScheduleMakespanBasics) {
  EXPECT_EQ(ListScheduleMakespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({1, 2, 3}, 1), 6.0);
  // 4 unit tasks on 2 machines -> 2 rounds.
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({1, 1, 1, 1}, 2), 2.0);
  // LPT: {3, 2, 2} on 2 machines -> max(3+0, 2+2) ... LPT gives 4.
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({2, 3, 2}, 2), 4.0);
  // Makespan is at least the largest task.
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({10, 0.1, 0.1}, 8), 10.0);
}

TEST(Scheduler, StageTimeDeterministic) {
  VirtualCluster a(ClusterConfig::TinyTest());
  VirtualCluster b(ClusterConfig::TinyTest());
  const std::vector<double> tasks(16, 0.5);
  a.RunStage(tasks);
  b.RunStage(tasks);
  EXPECT_DOUBLE_EQ(a.now_seconds(), b.now_seconds());
}

TEST(Scheduler, StragglerJitterBoundsStageTime) {
  auto cfg = ClusterConfig::TinyTest();
  cfg.straggler_spread = 0.5;
  cfg.stage_overhead_seconds = 0;
  cfg.task_overhead_seconds = 0;
  VirtualCluster cluster(cfg);
  cluster.RunStage(std::vector<double>(4, 1.0));  // 4 tasks on 4 cores
  EXPECT_GE(cluster.now_seconds(), 1.0);
  EXPECT_LE(cluster.now_seconds(), 1.5);
}

TEST(Scheduler, IntraTaskCoresShrinkSlots) {
  auto cfg = ClusterConfig::TinyTest();  // 2 nodes x 2 cores = 4 cores
  EXPECT_EQ(cfg.concurrent_task_slots(), 4);
  cfg.intra_task_cores = 2;
  EXPECT_EQ(cfg.concurrent_task_slots(), 2);
  cfg.intra_task_cores = 64;  // more than the cluster has: one slot, never 0
  EXPECT_EQ(cfg.concurrent_task_slots(), 1);
  cfg.intra_task_cores = 2;
  EXPECT_NE(cfg.Summary().find("cores/task"), std::string::npos);
}

TEST(Scheduler, IntraTaskCoresTradeSlotsForTaskSpeed) {
  // Same per-task seconds, half the slots: the stage makespan doubles. The
  // win must come from the per-task charges shrinking (the cost model's
  // intra-task schedule), not from free parallelism.
  auto cfg = ClusterConfig::TinyTest();
  cfg.straggler_spread = 0.0;
  cfg.stage_overhead_seconds = 0;
  cfg.task_overhead_seconds = 0;
  VirtualCluster four_slots(cfg);
  cfg.intra_task_cores = 2;
  VirtualCluster two_slots(cfg);
  const std::vector<double> tasks(4, 1.0);
  four_slots.RunStage(tasks);
  two_slots.RunStage(tasks);
  EXPECT_DOUBLE_EQ(four_slots.now_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(two_slots.now_seconds(), 2.0);
}

TEST(Cluster, BroadcastAndCollectCharges) {
  VirtualCluster cluster(ClusterConfig::Paper());
  cluster.ChargeBroadcast(10 * kMiB);
  const double after_bcast = cluster.now_seconds();
  EXPECT_GT(after_bcast, 0.0);
  cluster.ChargeCollect(100 * kMiB, 64);
  EXPECT_GT(cluster.now_seconds(), after_bcast);
  EXPECT_EQ(cluster.metrics().broadcast_bytes, 10 * kMiB);
  EXPECT_EQ(cluster.metrics().collect_bytes, 100 * kMiB);
}

TEST(Cluster, ShuffleSpillAccumulatesAcrossCalls) {
  VirtualCluster cluster(ClusterConfig::TinyTest());
  const std::vector<std::uint64_t> per_part(4, 1 * kMiB);
  ASSERT_TRUE(cluster.ChargeShuffle(per_part).ok());
  const auto first = cluster.MaxLocalStorageUsed();
  ASSERT_TRUE(cluster.ChargeShuffle(per_part).ok());
  EXPECT_EQ(cluster.MaxLocalStorageUsed(), 2 * first);
}

TEST(Cluster, ConfigSummaries) {
  EXPECT_FALSE(ClusterConfig::Paper().Summary().empty());
  EXPECT_EQ(ClusterConfig::Paper().total_cores(), 1024);
  EXPECT_EQ(ClusterConfig::PaperWithCores(256).nodes, 8);
  SimMetrics m;
  m.compute_seconds = 1;
  EXPECT_FALSE(m.Summary().empty());
}

}  // namespace
}  // namespace apspark::sparklet
