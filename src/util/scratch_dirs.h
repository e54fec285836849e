#ifndef CPR_UTIL_SCRATCH_DIRS_H_
#define CPR_UTIL_SCRATCH_DIRS_H_

// Process-wide registry of scratch directories (test stores, bench stores).
// Every directory handed out is removed when the process exits through
// main's return or exit(), whether the run succeeded or failed; an abort()
// leaves them for a post-mortem.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace cpr {

class ScratchDirRegistry {
 public:
  static ScratchDirRegistry& Instance() {
    static ScratchDirRegistry registry;
    return registry;
  }

  // Returns "<base>/<stem>_<pid>_<n>", emptied of any leftover and
  // registered for removal at exit; the directory itself is not created.
  // The pid and a per-process counter keep concurrent processes and calls
  // apart. Safe to call concurrently.
  std::string Fresh(const std::string& base, const std::string& stem) {
    const std::string dir = base + "/" + stem + "_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(counter_.fetch_add(1));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::lock_guard<std::mutex> lock(mu_);
    dirs_.push_back(dir);
    return dir;
  }

  ~ScratchDirRegistry() {
    for (const std::string& dir : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

 private:
  std::atomic<int> counter_{0};
  std::mutex mu_;
  std::vector<std::string> dirs_;
};

}  // namespace cpr

#endif  // CPR_UTIL_SCRATCH_DIRS_H_
