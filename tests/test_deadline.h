#ifndef CPR_TESTS_TEST_DEADLINE_H_
#define CPR_TESTS_TEST_DEADLINE_H_

// Bounded waits for regression tests of hangs. A hang inside one call
// cannot be timed out from the thread that made it, so AbortAfter runs a
// guard thread that reports `what` and aborts the test binary once `limit`
// passes; destroying the guard in time disarms it.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

namespace cpr::testing {

class AbortAfter {
 public:
  AbortAfter(std::chrono::seconds limit, std::string what)
      : what_(std::move(what)), guard_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return disarmed_; })) {
            std::fprintf(stderr, "deadline of %llds passed: %s\n",
                         static_cast<long long>(limit.count()), what_.c_str());
            std::abort();
          }
        }) {}

  ~AbortAfter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
    guard_.join();
  }

  AbortAfter(const AbortAfter&) = delete;
  AbortAfter& operator=(const AbortAfter&) = delete;

 private:
  const std::string what_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread guard_;  // last: starts after the state it reads
};

}  // namespace cpr::testing

#endif  // CPR_TESTS_TEST_DEADLINE_H_
