// Combine-step wiring of the shuffle plane.
//
// The shuffle pivot functions ShuffleUpdateCross / ShuffleUpdateRest
// (solvers/blocked_inmemory.cc, matrix-block keys), which the Blocked
// In-Memory round loop and the shuffle k-source sweep both call, and that
// sweep's frontier rounds A/B (frontier-panel keys) gather tagged replicas
// per target key with the same combineByKey(ListAppend) pattern and tag
// their resident records for it. This header holds that wiring.
#pragma once

#include <string>
#include <utility>

#include "apsp/block_key.h"
#include "sparklet/rdd.h"

namespace apspark::apsp {

/// combineByKey(ListAppend): gathers the tagged blocks destined for one key
/// (the paper's ListAppend combiner pattern). K is the target key type:
/// BlockKey for matrix combine steps, std::int64_t for frontier panels.
template <typename K>
sparklet::RddPtr<std::pair<K, TaggedList>> GatherLists(
    sparklet::RddPtr<std::pair<K, TaggedBlock>> rdd,
    sparklet::PartitionerPtr<K> partitioner, std::string op_name) {
  return sparklet::CombineByKey<K, TaggedBlock, TaggedList>(
      std::move(rdd), std::move(partitioner), std::move(op_name),
      [](TaggedBlock&& t) {
        TaggedList list;
        list.push_back(std::move(t));
        return list;
      },
      [](TaggedList& list, TaggedBlock&& t, sparklet::TaskContext&) {
        list.push_back(std::move(t));
      },
      [](TaggedList& list, TaggedList&& other, sparklet::TaskContext&) {
        for (auto& t : other) list.push_back(std::move(t));
      });
}

/// Tags resident records (A blocks or frontier panels) as kOriginal for the
/// combine steps.
template <typename K>
sparklet::RddPtr<std::pair<K, TaggedBlock>> TagOriginals(
    sparklet::RddPtr<std::pair<K, linalg::BlockRef>> rdd, std::string op_name) {
  return rdd->Map(std::move(op_name),
                  [](const std::pair<K, linalg::BlockRef>& rec,
                     sparklet::TaskContext&) -> std::pair<K, TaggedBlock> {
                    return {rec.first, {BlockRole::kOriginal, rec.second}};
                  });
}

}  // namespace apspark::apsp
