#ifndef CPR_IO_RETRY_H_
#define CPR_IO_RETRY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/status.h"

namespace cpr {

// Runs `attempt` up to `attempts` times (at least once) until it returns Ok,
// sleeping backoff_ms, 2*backoff_ms, ... (capped at 1 s) between failures.
// Returns the last failure when every attempt fails. Every checkpoint,
// manifest and log flush write that must ride out a transient device error
// goes through this one loop.
template <typename Attempt>
Status RetryWithBackoff(uint32_t attempts, uint32_t backoff_ms,
                        Attempt&& attempt) {
  attempts = std::max<uint32_t>(1, attempts);
  uint64_t delay = backoff_ms;
  Status s;
  for (uint32_t i = 0; i < attempts; ++i) {
    if (i > 0 && delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      delay = std::min<uint64_t>(delay * 2, 1000);
    }
    s = attempt();
    if (s.ok()) return s;
  }
  return s;
}

}  // namespace cpr

#endif  // CPR_IO_RETRY_H_
