// Shared persistent storage side channel (the paper's GPFS).
//
// The impure solvers (Repeated Squaring, Blocked Collect/Broadcast, staged
// KSSP) bypass Spark's shuffle by writing blocks to a shared file system from
// the driver and reading them back inside executor tasks ("we do not
// broadcast the column, but rather store its blocks in a shared file system
// available to driver and executor nodes", §4.2). This class emulates that
// channel with two object kinds:
//  * byte objects — serialized buffers (checkpoints, manifests: payloads
//    that must survive a real durability round-trip);
//  * block objects — immutable ref-counted BlockRefs, the zero-copy path of
//    the staging protocol. The virtual cluster is still charged the full
//    logical bytes the real file would occupy; only the *host-side* copy
//    (serialize on write, deserialize per reading task) is gone.
//
// Because writes happen outside the RDD lineage they are side effects, which
// is precisely what makes those solvers non-fault-tolerant; the engine tags
// reads so tests can demonstrate the hazard. Each block write is stamped
// with a fresh generation, so the engine can tell a task that reads the very
// blocks an earlier run of it read from one whose inputs were rewritten.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "linalg/block_ref.h"

namespace apspark::sparklet {

class SharedStorage {
 public:
  struct Object {
    std::shared_ptr<const std::vector<std::uint8_t>> payload;
    /// Size charged for accounting; for phantom blocks the payload is just a
    /// header but logical_bytes reflects the real block.
    std::uint64_t logical_bytes = 0;
  };

  /// Stores `bytes` under `key`, overwriting any previous object.
  void Put(const std::string& key, std::vector<std::uint8_t> bytes,
           std::uint64_t logical_bytes);

  /// Stores a block as a shared immutable ref (no serialization; the
  /// logical size is the ref's cached serialized_bytes()).
  void PutBlock(const std::string& key, linalg::BlockRef block);

  /// Fetches the object stored under `key`.
  Result<Object> Get(const std::string& key) const;

  /// Fetches the block stored under `key`; fails when the key is missing or
  /// holds a byte object.
  Result<linalg::BlockRef> GetBlock(const std::string& key) const;

  /// Generation of the block stored under `key`: unique to the PutBlock
  /// that stored it (0 for a byte object or a missing key).
  std::uint64_t BlockGeneration(const std::string& key) const;

  bool Contains(const std::string& key) const;

  /// Removes every object (e.g. between solver iterations/tests). Models an
  /// external cleanup; no time is charged.
  void Clear();

  /// Deletes all keys with the given prefix; returns how many were removed.
  std::size_t ErasePrefix(const std::string& prefix);

  std::size_t object_count() const noexcept { return objects_.size(); }
  std::uint64_t total_logical_bytes() const noexcept { return total_bytes_; }

 private:
  struct Entry {
    Object object;
    linalg::BlockRef block;
    std::uint64_t generation = 0;
  };
  std::unordered_map<std::string, Entry> objects_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t generations_ = 0;
};

}  // namespace apspark::sparklet
