#include "sparklet/shared_storage.h"

namespace apspark::sparklet {

void SharedStorage::Put(const std::string& key,
                        std::vector<std::uint8_t> bytes,
                        std::uint64_t logical_bytes) {
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    total_bytes_ -= it->second.object.logical_bytes;
    objects_.erase(it);
  }
  Entry entry;
  entry.object.payload =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  entry.object.logical_bytes = logical_bytes;
  total_bytes_ += logical_bytes;
  objects_.emplace(key, std::move(entry));
}

void SharedStorage::PutBlock(const std::string& key, linalg::BlockRef block) {
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    total_bytes_ -= it->second.object.logical_bytes;
    objects_.erase(it);
  }
  Entry entry;
  entry.object.logical_bytes = block.serialized_bytes();
  entry.block = std::move(block);
  entry.generation = ++generations_;
  total_bytes_ += entry.object.logical_bytes;
  objects_.emplace(key, std::move(entry));
}

Result<SharedStorage::Object> SharedStorage::Get(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("shared storage: no object '" + key + "'");
  }
  if (it->second.block) {
    // Mirror of GetBlock's kind guard: serving a block entry as an Object
    // would hand the caller a null payload to dereference.
    return FailedPreconditionError("shared storage: object '" + key +
                                   "' is a block, not a byte object");
  }
  return it->second.object;
}

Result<linalg::BlockRef> SharedStorage::GetBlock(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("shared storage: no object '" + key + "'");
  }
  if (!it->second.block) {
    return FailedPreconditionError("shared storage: object '" + key +
                                   "' is a byte object, not a block");
  }
  return it->second.block;
}

std::uint64_t SharedStorage::BlockGeneration(const std::string& key) const {
  auto it = objects_.find(key);
  return it == objects_.end() ? 0 : it->second.generation;
}

bool SharedStorage::Contains(const std::string& key) const {
  return objects_.count(key) > 0;
}

void SharedStorage::Clear() {
  objects_.clear();
  total_bytes_ = 0;
}

std::size_t SharedStorage::ErasePrefix(const std::string& prefix) {
  std::size_t removed = 0;
  for (auto it = objects_.begin(); it != objects_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      total_bytes_ -= it->second.object.logical_bytes;
      it = objects_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

}  // namespace apspark::sparklet
