#ifndef CPR_UTIL_STATUS_H_
#define CPR_UTIL_STATUS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>

namespace cpr {

// Operation result codes used across the library. The library does not use
// exceptions; fallible functions return a Status (or a small enum where the
// set of outcomes is fixed, e.g. per-operation OpStatus).
class Status {
 public:
  enum class Code : uint8_t {
    kOk = 0,
    kNotFound,
    kAborted,        // transaction aborted (conflict or CPR shift)
    kIoError,
    kCorruption,
    kInvalidArgument,
    kBusy,           // resource temporarily unavailable
    kOutOfMemory,
    kFailedPrecondition,  // state on disk this build refuses to act on
  };

  Status() : code_(Code::kOk) {}
  Status(Code code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m = "") {
    return Status(Code::kNotFound, std::move(m));
  }
  static Status Aborted(std::string m = "") {
    return Status(Code::kAborted, std::move(m));
  }
  static Status IoError(std::string m = "") {
    return Status(Code::kIoError, std::move(m));
  }
  static Status Corruption(std::string m = "") {
    return Status(Code::kCorruption, std::move(m));
  }
  static Status InvalidArgument(std::string m = "") {
    return Status(Code::kInvalidArgument, std::move(m));
  }
  static Status Busy(std::string m = "") {
    return Status(Code::kBusy, std::move(m));
  }
  static Status OutOfMemory(std::string m = "") {
    return Status(Code::kOutOfMemory, std::move(m));
  }
  static Status FailedPrecondition(std::string m = "") {
    return Status(Code::kFailedPrecondition, std::move(m));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

 private:
  Code code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

}  // namespace cpr

#endif  // CPR_UTIL_STATUS_H_
