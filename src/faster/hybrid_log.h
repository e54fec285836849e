#ifndef CPR_FASTER_HYBRID_LOG_H_
#define CPR_FASTER_HYBRID_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "epoch/epoch.h"
#include "faster/address.h"
#include "io/file.h"
#include "io/io_pool.h"
#include "util/status.h"

namespace cpr::faster {

// HybridLog (paper §5.1): a log-structured record store over a logical
// address space spanning disk and memory.
//
//      0 ...... head ...... safe_ro ...... read_only ...... tail
//      [ on disk ][   in memory, immutable   ][  mutable, in-place ]
//
// * tail      next free address; records are allocated here
// * read_only below it, records are immutable (and being flushed)
// * safe_ro   largest read-only offset seen by *all* threads (epoch-lagged);
//             [safe_ro, read_only) is the fuzzy region where some thread may
//             still be updating in place, so copy-on-update must not source
//             from it — such operations go pending
// * head      smallest address resident in memory
//
// In-memory pages live in a circular set of frames; a frame is recycled only
// after its page is flushed and the head shift that excludes it is
// epoch-safe. All offset shifts are coordinated through the epoch framework,
// never by blocking worker threads.
class HybridLog {
 public:
  struct Config {
    uint32_t page_bits = 20;     // 1 MiB pages
    uint32_t memory_pages = 32;  // in-memory frame count
    uint32_t ro_lag_pages = 4;   // read_only trails tail by this many pages
    std::string path;            // backing log file
    bool sync = false;
  };

  HybridLog(const Config& config, EpochFramework* epoch, IoPool* io);
  ~HybridLog();

  HybridLog(const HybridLog&) = delete;
  HybridLog& operator=(const HybridLog&) = delete;

  uint64_t page_size() const { return uint64_t{1} << config_.page_bits; }

  // Smallest live address. Starts at one page (address 0 stays invalid) and
  // advances monotonically when the log is truncated: records below it are
  // logically deleted and chain traversal treats them as absent.
  Address begin_address() const {
    return begin_.load(std::memory_order_acquire);
  }

  // Truncates the log: records below `new_begin` become unreachable. Only
  // the disk-resident region may be truncated (new_begin <= head).
  Status ShiftBeginAddress(Address new_begin);

  // Why a page rollover cannot hand out its frame yet.
  enum class Stall : uint8_t {
    kNone,
    // Needs an epoch-safe head shift or a flush not yet issued (it waits
    // on an epoch-safe read-only shift), both of which wait for other
    // sessions to refresh; or a snapshot still pins the frame.
    kAwaitEpochs,
    // Waits only for flush I/O already issued, which completes without
    // any session's help.
    kAwaitFlush,
  };

  // Allocates `size` bytes at the tail and returns the address, or
  // kInvalidAddress when the allocation must stall for a page rollover
  // (flush/eviction in progress): the caller should Refresh its epoch and
  // retry. `stall`, when given, receives why. The returned memory is zeroed.
  Address Allocate(uint32_t size, Stall* stall = nullptr);

  // In-memory pointer for `address`; the caller must have checked
  // address >= head() while epoch-protected.
  char* Ptr(Address address) {
    const uint64_t page = address >> config_.page_bits;
    return frames_[page % config_.memory_pages].get() +
           (address & page_mask_);
  }

  Address tail() const { return tail_.load(std::memory_order_acquire); }
  Address read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }
  Address safe_read_only() const {
    return safe_read_only_.load(std::memory_order_acquire);
  }
  Address head() const { return head_.load(std::memory_order_acquire); }
  Address flushed_until() const {
    return flushed_until_.load(std::memory_order_acquire);
  }

  // Advances the read-only offset to `desired` (monotonic); the safe
  // read-only offset follows once the shift is epoch-safe, which also
  // triggers the flush of the newly immutable region.
  void ShiftReadOnly(Address desired);

  // Fold-over commit: shifts read-only to the current tail. Returns that
  // tail address (the checkpoint's Lhe).
  Address ShiftReadOnlyToTail();

  // Blocks frame eviction at or above `floor` (used while a snapshot commit
  // copies the volatile region). kMaxAddress lifts the restriction.
  void SetEvictionFloor(Address floor) {
    eviction_floor_.store(floor, std::memory_order_release);
  }

  // Synchronous positional I/O against the backing log file (used by the
  // async read jobs and by recovery).
  Status ReadRaw(Address address, void* buf, uint32_t len) const;
  Status WriteRaw(Address address, const void* buf, uint32_t len);

  // Reinitializes offsets after recovery: the log file holds [begin, end),
  // the page containing `end` is loaded into memory, and allocation resumes
  // at `end`.
  Status ResetForRecovery(Address end);

  // Total bytes ever allocated (log growth metric, Fig. 12d / 18d).
  uint64_t TailMinusBegin() const { return tail() - begin_address(); }

 private:
  // Rollover into page `new_page`; returns kNone when the frame is ready
  // and tail may move into it, otherwise what the rollover waits on.
  Stall TryPreparePage(uint64_t new_page);
  void IssueFlushUpTo(Address to);
  void OnFlushRangeDone(Address from, Address to);

  Config config_;
  uint64_t page_mask_;
  EpochFramework* epoch_;
  IoPool* io_;
  File file_;

  std::vector<std::unique_ptr<char[]>> frames_;
  // Page number materialized in frames_[i]; kNoPage when empty.
  std::vector<std::atomic<uint64_t>> frame_page_;
  static constexpr uint64_t kNoPage = ~uint64_t{0};

  std::atomic<Address> begin_;
  alignas(kCacheLineBytes) std::atomic<Address> tail_;
  alignas(kCacheLineBytes) std::atomic<Address> read_only_;
  alignas(kCacheLineBytes) std::atomic<Address> safe_read_only_;
  alignas(kCacheLineBytes) std::atomic<Address> head_;
  alignas(kCacheLineBytes) std::atomic<Address> safe_head_;
  alignas(kCacheLineBytes) std::atomic<Address> flushed_until_;
  std::atomic<Address> eviction_floor_{kMaxAddress};

  // Rollover is rare (once per page); a mutex keeps its logic simple. No
  // blocking happens while it is held.
  std::mutex rollover_mu_;

  // Flush bookkeeping: issued watermark plus out-of-order completions merged
  // into the contiguous flushed_until_ prefix.
  std::mutex flush_mu_;
  Address flush_issued_;
  std::vector<std::pair<Address, Address>> flush_done_ranges_;
};

}  // namespace cpr::faster

#endif  // CPR_FASTER_HYBRID_LOG_H_
