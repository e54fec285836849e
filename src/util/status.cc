#include "util/status.h"

namespace cpr {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kAborted:
      return "Aborted";
    case Status::Code::kIoError:
      return "IoError";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kBusy:
      return "Busy";
    case Status::Code::kOutOfMemory:
      return "OutOfMemory";
    case Status::Code::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  std::string s = CodeName(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace cpr
