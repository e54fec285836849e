#include <gtest/gtest.h>

#include "test_dirs.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "faster/faster.h"
#include "io/fault_injection.h"

namespace cpr::faster {
namespace {

std::string FreshDir() { return cpr::testing::FreshTestDir("cpr_fckpt"); }

FasterKv::Options BaseOptions(const std::string& dir) {
  FasterKv::Options o;
  o.dir = dir;
  o.index_buckets = 1 << 10;
  o.value_size = 8;
  o.page_bits = 14;
  o.memory_pages = 8;
  o.ro_lag_pages = 2;
  return o;
}

int64_t ReadOrDie(FasterKv& kv, Session& s, uint64_t key) {
  int64_t out = 0;
  OpStatus st = kv.Read(s, key, &out);
  if (st == OpStatus::kPending) {
    int64_t async_val = 0;
    bool found = false;
    s.set_async_callback([&](const AsyncResult& r) {
      if (r.kind == OpKind::kRead && r.key == key) {
        found = r.found;
        if (r.found) std::memcpy(&async_val, r.value.data(), 8);
      }
    });
    kv.CompletePending(s, /*wait_for_all=*/true);
    s.set_async_callback(nullptr);
    EXPECT_TRUE(found) << "key " << key;
    return async_val;
  }
  EXPECT_EQ(st, OpStatus::kOk) << "key " << key;
  return out;
}

using CkptParam = std::tuple<CommitVariant, CheckpointLocking>;

class CheckpointParamTest : public ::testing::TestWithParam<CkptParam> {
 protected:
  CommitVariant variant() const { return std::get<0>(GetParam()); }
  CheckpointLocking locking() const { return std::get<1>(GetParam()); }
};

TEST_P(CheckpointParamTest, CheckpointRecoverRoundTrip) {
  const std::string dir = FreshDir();
  constexpr uint64_t kKeys = 2000;
  uint64_t session_guid = 0;
  uint64_t session_serial = 0;
  {
    FasterKv::Options o = BaseOptions(dir);
    o.locking = locking();
    FasterKv kv(o);
    Session* s = kv.StartSession();
    session_guid = s->guid();
    for (uint64_t k = 0; k < kKeys; ++k) {
      const int64_t v = static_cast<int64_t>(k * 7 + 3);
      ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk);
    }
    session_serial = s->serial();
    uint64_t token = 0;
    ASSERT_TRUE(kv.Checkpoint(variant(), /*include_index=*/true, nullptr,
                              &token));
    // Drive the state machine from the session thread.
    while (kv.CheckpointInProgress()) kv.Refresh(*s);
    kv.StopSession(s);
  }
  // Recover into a fresh instance.
  FasterKv::Options o = BaseOptions(dir);
  o.locking = locking();
  FasterKv kv(o);
  ASSERT_TRUE(kv.Recover().ok());
  uint64_t recovered_serial = 0;
  ASSERT_TRUE(kv.ContinueSession(session_guid, &recovered_serial).ok());
  EXPECT_EQ(recovered_serial, session_serial);
  Session* s = kv.StartSession(session_guid);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(ReadOrDie(kv, *s, k), static_cast<int64_t>(k * 7 + 3)) << k;
  }
  kv.StopSession(s);
}

TEST_P(CheckpointParamTest, PostCommitUpdatesAreNotInTheCheckpoint) {
  const std::string dir = FreshDir();
  uint64_t guid = 0;
  {
    FasterKv::Options o = BaseOptions(dir);
    o.locking = locking();
    FasterKv kv(o);
    Session* s = kv.StartSession();
    guid = s->guid();
    for (uint64_t k = 0; k < 100; ++k) {
      const int64_t v = 1;
      ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk);
    }
    ASSERT_TRUE(kv.Checkpoint(variant(), true));
    while (kv.CheckpointInProgress()) kv.Refresh(*s);
    // These updates happen after the commit completed: they must be lost.
    for (uint64_t k = 0; k < 100; ++k) {
      const int64_t v = 2;
      ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk);
    }
    kv.StopSession(s);
  }
  FasterKv::Options o = BaseOptions(dir);
  o.locking = locking();
  FasterKv kv(o);
  ASSERT_TRUE(kv.Recover().ok());
  Session* s = kv.StartSession(guid);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(ReadOrDie(kv, *s, k), 1) << k;
  }
  kv.StopSession(s);
}

TEST_P(CheckpointParamTest, SecondIncrementalCheckpointRecovers) {
  const std::string dir = FreshDir();
  {
    FasterKv::Options o = BaseOptions(dir);
    o.locking = locking();
    FasterKv kv(o);
    Session* s = kv.StartSession();
    for (uint64_t k = 0; k < 500; ++k) {
      const int64_t v = 10;
      ASSERT_EQ(kv.Upsert(*s, k, &v), OpStatus::kOk);
    }
    ASSERT_TRUE(kv.Checkpoint(variant(), /*include_index=*/true));
    while (kv.CheckpointInProgress()) kv.Refresh(*s);
    // Update half the keys, then take a log-only commit (reuses the index
    // checkpoint — the paper's frequent-commit mode).
    for (uint64_t k = 0; k < 250; ++k) {
      // Just after a commit a session with a stale thread-local phase may
      // still park an update (coarse-grained handoff); it completes below.
      const OpStatus st = kv.Rmw(*s, k, 5);
      ASSERT_TRUE(st == OpStatus::kOk || st == OpStatus::kPending);
    }
    kv.CompletePending(*s, true);
    ASSERT_TRUE(kv.Checkpoint(variant(), /*include_index=*/false));
    while (kv.CheckpointInProgress()) kv.Refresh(*s);
    kv.StopSession(s);
  }
  FasterKv::Options o = BaseOptions(dir);
  o.locking = locking();
  FasterKv kv(o);
  ASSERT_TRUE(kv.Recover().ok());
  Session* s = kv.StartSession();
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(ReadOrDie(kv, *s, k), k < 250 ? 15 : 10) << k;
  }
  kv.StopSession(s);
}

TEST_P(CheckpointParamTest, CheckpointWithConcurrentTraffic) {
  const std::string dir = FreshDir();
  uint64_t guid = 0;
  uint64_t commit_point = 0;
  std::atomic<bool> got_cb{false};
  {
    FasterKv::Options o = BaseOptions(dir);
    o.locking = locking();
    o.refresh_interval = 8;
    FasterKv kv(o);
    Session* s = kv.StartSession();
    guid = s->guid();
    // Single key incremented once per op: the recovered value must equal
    // the session's reported commit point exactly (CPR Definition 1).
    uint64_t token = 0;
    ASSERT_TRUE(kv.Checkpoint(
        variant(), true,
        [&](uint64_t, const std::vector<SessionCommitPoint>& pts) {
          ASSERT_EQ(pts.size(), 1u);
          commit_point = pts[0].serial;
          got_cb = true;
        },
        &token));
    int64_t issued = 0;
    while (kv.CheckpointInProgress()) {
      // Coarse-grained locking parks (v+1) RMWs during the handoff
      // (App. C); both outcomes are legal mid-commit.
      const OpStatus st = kv.Rmw(*s, 1, 1);
      ASSERT_TRUE(st == OpStatus::kOk || st == OpStatus::kPending);
      ++issued;
      kv.Refresh(*s);
    }
    ASSERT_TRUE(got_cb.load());
    ASSERT_LE(static_cast<int64_t>(commit_point), issued);
    kv.CompletePending(*s, true);
    kv.StopSession(s);
  }
  FasterKv::Options o = BaseOptions(dir);
  o.locking = locking();
  FasterKv kv(o);
  ASSERT_TRUE(kv.Recover().ok());
  Session* s = kv.StartSession(guid);
  if (commit_point == 0) {
    int64_t out;
    EXPECT_EQ(kv.Read(*s, 1, &out), OpStatus::kNotFound);
  } else {
    EXPECT_EQ(ReadOrDie(kv, *s, 1), static_cast<int64_t>(commit_point));
  }
  kv.StopSession(s);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndLocking, CheckpointParamTest,
    ::testing::Combine(::testing::Values(CommitVariant::kFoldOver,
                                         CommitVariant::kSnapshot),
                       ::testing::Values(CheckpointLocking::kFineGrained,
                                         CheckpointLocking::kCoarseGrained)),
    [](const ::testing::TestParamInfo<CkptParam>& info) {
      std::string name =
          std::get<0>(info.param) == CommitVariant::kFoldOver ? "FoldOver"
                                                              : "Snapshot";
      name += std::get<1>(info.param) == CheckpointLocking::kFineGrained
                  ? "Fine"
                  : "Coarse";
      return name;
    });

TEST(CheckpointTest, RejectsConcurrentCheckpointRequests) {
  FasterKv kv(BaseOptions(FreshDir()));
  Session* s = kv.StartSession();
  const int64_t v = 1;
  kv.Upsert(*s, 1, &v);
  ASSERT_TRUE(kv.Checkpoint(CommitVariant::kFoldOver, true));
  EXPECT_FALSE(kv.Checkpoint(CommitVariant::kFoldOver, true));
  while (kv.CheckpointInProgress()) kv.Refresh(*s);
  kv.StopSession(s);
}

TEST(CheckpointTest, VersionAdvancesPerCommit) {
  FasterKv kv(BaseOptions(FreshDir()));
  Session* s = kv.StartSession();
  EXPECT_EQ(kv.CurrentVersion(), 1u);
  const int64_t v = 1;
  kv.Upsert(*s, 1, &v);
  ASSERT_TRUE(kv.Checkpoint(CommitVariant::kFoldOver, true));
  while (kv.CheckpointInProgress()) kv.Refresh(*s);
  EXPECT_EQ(kv.CurrentVersion(), 2u);
  ASSERT_TRUE(kv.Checkpoint(CommitVariant::kSnapshot, false));
  while (kv.CheckpointInProgress()) kv.Refresh(*s);
  EXPECT_EQ(kv.CurrentVersion(), 3u);
  kv.StopSession(s);
}

TEST(CheckpointTest, WaitForCheckpointFromCoordinatorThread) {
  FasterKv kv(BaseOptions(FreshDir()));
  Session* s = kv.StartSession();
  const int64_t v = 9;
  kv.Upsert(*s, 1, &v);
  kv.StopSession(s);  // no sessions: the commit must still complete
  uint64_t token = 0;
  ASSERT_TRUE(kv.Checkpoint(CommitVariant::kFoldOver, true, nullptr, &token));
  EXPECT_TRUE(kv.WaitForCheckpoint(token).ok());
  EXPECT_FALSE(kv.CheckpointInProgress());
}

TEST(CheckpointTest, RecoverWithoutCheckpointFails) {
  FasterKv kv(BaseOptions(FreshDir()));
  EXPECT_EQ(kv.Recover().code(), Status::Code::kNotFound);
}

TEST(CheckpointTest, RecoverRejectsMismatchedIndexSize) {
  const std::string dir = FreshDir();
  {
    FasterKv kv(BaseOptions(dir));
    Session* s = kv.StartSession();
    const int64_t v = 1;
    kv.Upsert(*s, 1, &v);
    kv.StopSession(s);
    uint64_t token = 0;
    ASSERT_TRUE(
        kv.Checkpoint(CommitVariant::kFoldOver, true, nullptr, &token));
    ASSERT_TRUE(kv.WaitForCheckpoint(token).ok());
  }
  FasterKv::Options o = BaseOptions(dir);
  o.index_buckets = 1 << 8;  // different size than the checkpoint's
  FasterKv kv(o);
  EXPECT_EQ(kv.Recover().code(), Status::Code::kInvalidArgument);
}

TEST(CheckpointTest, StandaloneIndexCheckpointSupportsLogOnlyCommits) {
  const std::string dir = FreshDir();
  {
    FasterKv kv(BaseOptions(dir));
    Session* s = kv.StartSession();
    for (uint64_t k = 0; k < 100; ++k) {
      const int64_t v = 4;
      kv.Upsert(*s, k, &v);
    }
    ASSERT_TRUE(kv.CheckpointIndex());
    // Log-only commit referencing the standalone index checkpoint.
    ASSERT_TRUE(kv.Checkpoint(CommitVariant::kFoldOver,
                              /*include_index=*/false));
    while (kv.CheckpointInProgress()) kv.Refresh(*s);
    kv.StopSession(s);
  }
  FasterKv kv(BaseOptions(dir));
  ASSERT_TRUE(kv.Recover().ok());
  Session* s = kv.StartSession();
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(ReadOrDie(kv, *s, k), 4);
  }
  kv.StopSession(s);
}

// A standalone index checkpoint still being written when the next commit
// starts makes that commit write its own index image too. When the older
// image lands last, the commit must still see its own image as complete
// (the completed-index token only moves forward) instead of waiting
// forever for a token the older write overwrote.
TEST(CheckpointTest, IndexWritesCompletingOutOfOrderStillCommit) {
  const std::string dir = FreshDir();
  // The standalone image lands 300 ms late, after the commit's own image;
  // the commit's log flush lands later still, so the commit is still
  // waiting when the older image completes.
  FaultInjector inj;
  FaultRule slow;
  slow.any_op = false;
  slow.op = FaultOp::kWrite;
  slow.path_substr = "/index.";
  slow.nth = 1;  // only the standalone image's first write
  slow.action = FaultAction::kNone;
  slow.delay_ms = 300;
  inj.AddRule(slow);
  slow.path_substr = "/hlog.dat";
  slow.delay_ms = 600;
  inj.AddRule(slow);
  FaultInjector::Install(&inj);
  {
    FasterKv kv(BaseOptions(dir));
    Session* s = kv.StartSession();
    for (uint64_t k = 0; k < 100; ++k) {
      const int64_t v = 5;
      kv.Upsert(*s, k, &v);
    }
    ASSERT_TRUE(kv.CheckpointIndex());
    ASSERT_TRUE(kv.Checkpoint(CommitVariant::kFoldOver,
                              /*include_index=*/false));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (kv.CheckpointInProgress() &&
           std::chrono::steady_clock::now() < deadline) {
      kv.Refresh(*s);
    }
    const bool committed = !kv.CheckpointInProgress();
    FaultInjector::Install(nullptr);
    if (!committed) {
      // Leave the store without stopping the session: teardown must not
      // wait on the wedged checkpoint.
      FAIL() << "checkpoint still in progress 5 s after the index writes";
    }
    kv.StopSession(s);
  }
  FaultInjector::Install(nullptr);
  FasterKv kv(BaseOptions(dir));
  ASSERT_TRUE(kv.Recover().ok());
  Session* s = kv.StartSession();
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(ReadOrDie(kv, *s, k), 5);
  }
  kv.StopSession(s);
}

}  // namespace
}  // namespace cpr::faster
