#ifndef CPR_TESTS_TEST_DIRS_H_
#define CPR_TESTS_TEST_DIRS_H_

// Shared scratch-directory helper for tests.
//
// Historically each test file rolled its own FreshDir() that wrote under
// /tmp (or, worse, flattened the path into a relative "_tmp_cpr_*" directory
// that littered the repo root) and never cleaned up. All tests now route
// through FreshTestDir(prefix): directories are created under the build
// tree (CPR_TEST_SCRATCH_DIR, injected by CMake; overridable with the
// CPR_TEST_TMPDIR environment variable) and every directory created by a
// test binary is removed when that binary exits.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "util/scratch_dirs.h"

namespace cpr::testing {

class ScratchDirs {
 public:
  // Returns a fresh, existing, empty directory named after the currently
  // running test (and, through the registry, the process id, so parallel
  // runs of one test binary never share a store). Safe to call
  // concurrently; removed when the binary exits, after all test fixtures
  // (and the stores they own) are destroyed.
  static std::string Fresh(const std::string& prefix) {
    std::string name = "global";
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    if (info != nullptr) {
      name = std::string(info->test_suite_name()) + "_" + info->name();
    }
    // Parameterized test names contain '/': flatten inside the leaf name
    // only, never in the base path.
    for (char& c : name) {
      if (c == '/' || c == '.') c = '_';
    }
    const std::string dir =
        ScratchDirRegistry::Instance().Fresh(Base(), prefix + "_" + name);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
  }

 private:
  static std::string Base() {
    if (const char* env = std::getenv("CPR_TEST_TMPDIR")) {
      return env;
    }
#ifdef CPR_TEST_SCRATCH_DIR
    return CPR_TEST_SCRATCH_DIR;
#else
    return "cpr_test_scratch";
#endif
  }
};

inline std::string FreshTestDir(const std::string& prefix) {
  return ScratchDirs::Fresh(prefix);
}

}  // namespace cpr::testing

#endif  // CPR_TESTS_TEST_DIRS_H_
