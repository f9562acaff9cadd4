// Error handling: Status codes and Result<T>, used instead of exceptions on
// all failure paths (POSIX-flavoured, since LibFS exposes a POSIX-ish API).

#ifndef SRC_SIM_RESULT_H_
#define SRC_SIM_RESULT_H_

#include <string>
#include <utility>
#include <variant>

#include "src/sim/check.h"

namespace linefs {

enum class ErrorCode {
  kOk = 0,
  kNotFound,      // ENOENT
  kExists,        // EEXIST
  kPermission,    // EACCES
  kInvalid,       // EINVAL
  kNoSpace,       // ENOSPC
  kIo,            // EIO
  kNotDir,        // ENOTDIR
  kIsDir,         // EISDIR
  kNotEmpty,      // ENOTEMPTY
  kBadFd,         // EBADF
  kStale,         // ESTALE (lease expired / epoch mismatch)
  kUnavailable,   // host or service down
  kTimeout,
  kCorrupt,       // validation / CRC failure
  kBusy,          // lease held by another client
};

const char* ErrorCodeName(ErrorCode code);

class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  explicit Status(ErrorCode code, std::string message = "")
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Error(ErrorCode code, std::string message = "") {
    return Status(code, std::move(message));
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    std::string s = ErrorCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : var_(std::move(value)) {}                    // NOLINT(runtime/explicit)
  Result(Status status) : var_(std::move(status)) {              // NOLINT(runtime/explicit)
    LINEFS_CHECK(!std::get<Status>(var_).ok() && "Result constructed from OK status");
  }
  Result(ErrorCode code, std::string message = "")               // NOLINT(runtime/explicit)
      : var_(Status(code, std::move(message))) {}

  bool ok() const { return std::holds_alternative<T>(var_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    LINEFS_CHECK(ok());
    return std::get<T>(var_);
  }
  T& value() & {
    LINEFS_CHECK(ok());
    return std::get<T>(var_);
  }
  T&& value() && {
    LINEFS_CHECK(ok());
    return std::get<T>(std::move(var_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(var_);
  }
  ErrorCode code() const { return ok() ? ErrorCode::kOk : std::get<Status>(var_).code(); }

 private:
  std::variant<T, Status> var_;
};

}  // namespace linefs

#endif  // SRC_SIM_RESULT_H_
