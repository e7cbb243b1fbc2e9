#ifndef CLOUDYBENCH_UTIL_STATUS_H_
#define CLOUDYBENCH_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace cloudybench::util {

/// Error categories used across CloudyBench. The set intentionally mirrors
/// the failure modes of a database testbed rather than a generic RPC system.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed a bad parameter or config value.
  kNotFound,          ///< Row, table, tenant, or config key does not exist.
  kAlreadyExists,     ///< Insert of a duplicate primary key, duplicate name.
  kAborted,           ///< Transaction aborted (conflict, lock timeout).
  kUnavailable,       ///< Node/service is down (fail-over in progress).
  kResourceExhausted, ///< Resource budget (IOPS, capacity) exceeded.
  kFailedPrecondition,///< Operation not valid in the current state.
  kInternal,          ///< Invariant violation; indicates a bug.
  kUnimplemented,     ///< Feature not supported by this SUT profile.
};

/// Returns a stable human-readable name, e.g. "ABORTED".
const char* StatusCodeToString(StatusCode code);

/// Value-type error carrier in the style of absl::Status / rocksdb::Status.
///
/// CloudyBench does not use exceptions (per the project style); every
/// fallible operation returns a Status or a Result<T>. Status is cheap to
/// copy in the OK case (no allocation) and cheap enough otherwise.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace cloudybench::util

/// Propagates a non-OK Status to the caller. Usable in functions returning
/// Status. `expr` is evaluated exactly once.
#define CB_RETURN_IF_ERROR(expr)                          \
  do {                                                    \
    ::cloudybench::util::Status _cb_status = (expr);      \
    if (!_cb_status.ok()) return _cb_status;              \
  } while (false)

#endif  // CLOUDYBENCH_UTIL_STATUS_H_
