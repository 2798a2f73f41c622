#include "common/status.h"

namespace apspark {

const char* StatusCodeName(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kAborted:
      return "ABORTED";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kStoreCorrupt:
      return "STORE_CORRUPT";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void Status::CheckOk() const {
  if (!ok()) throw std::runtime_error(ToString());
}

}  // namespace apspark
