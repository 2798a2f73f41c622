// Lightweight status / result types used across the library.
//
// We deliberately avoid exceptions on hot paths (per C++ Core Guidelines E.x
// advice for performance-critical code with recoverable conditions): engine
// operations that can fail for *modelled* reasons (e.g. a virtual node running
// out of local storage, which the paper observes for the Blocked In-Memory
// solver) return Status/Result values that callers must consume.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace apspark {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,  // e.g. virtual local storage overflow
  kNotFound,
  kInternal,
  kAborted,   // e.g. injected task failure that exhausted retries
  kDataLoss,  // executor loss destroyed state the lineage cannot replay
  kStoreCorrupt,  // persisted block store failed validation (bad magic,
                  // checksum mismatch, truncated file, malformed manifest)
};

/// Human-readable name of a status code ("RESOURCE_EXHAUSTED", ...).
const char* StatusCodeName(StatusCode code) noexcept;

/// A success-or-error value. Cheap to copy on the success path.
class [[nodiscard]] Status {
 public:
  Status() noexcept = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return Status(); }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// Formats as "OK" or "CODE: message".
  std::string ToString() const;

  /// Throws std::runtime_error if not ok. For call sites where failure is a
  /// programming error rather than a modelled condition.
  void CheckOk() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status InvalidArgumentError(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status OutOfRangeError(std::string msg) {
  return {StatusCode::kOutOfRange, std::move(msg)};
}
inline Status FailedPreconditionError(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status ResourceExhaustedError(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
inline Status NotFoundError(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status InternalError(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}
inline Status AbortedError(std::string msg) {
  return {StatusCode::kAborted, std::move(msg)};
}
inline Status DataLossError(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
inline Status StoreCorruptError(std::string msg) {
  return {StatusCode::kStoreCorrupt, std::move(msg)};
}

/// Result<T>: either a value or an error Status (never both).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    if (std::get<Status>(data_).ok()) {
      data_ = Status(StatusCode::kInternal,
                     "Result constructed from OK status without a value");
    }
  }

  bool ok() const noexcept { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(data_);
  }

  T& value() & {
    EnsureOk();
    return std::get<T>(data_);
  }
  const T& value() const& {
    EnsureOk();
    return std::get<T>(data_);
  }
  T&& value() && {
    EnsureOk();
    return std::get<T>(std::move(data_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void EnsureOk() const {
    if (!ok()) {
      throw std::runtime_error("Result accessed with error: " +
                               std::get<Status>(data_).ToString());
    }
  }

  std::variant<T, Status> data_;
};

}  // namespace apspark
