#include "faster/hybrid_log.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace cpr::faster {

HybridLog::HybridLog(const Config& config, EpochFramework* epoch, IoPool* io)
    : config_(config),
      page_mask_(page_size() - 1),
      epoch_(epoch),
      io_(io),
      frame_page_(config.memory_pages) {
  assert(config_.ro_lag_pages + 2 <= config_.memory_pages &&
         "read-only lag must leave room for frame recycling");
  // Never truncate: an existing log is the recovery source.
  Status s = File::Open(config_.path, /*create=*/!FileExists(config_.path),
                        &file_);
  assert(s.ok());
  (void)s;
  frames_.reserve(config_.memory_pages);
  for (uint32_t i = 0; i < config_.memory_pages; ++i) {
    frames_.push_back(std::make_unique<char[]>(page_size()));
    frame_page_[i].store(kNoPage, std::memory_order_relaxed);
  }
  // Addresses start at page 1 so that 0 stays the invalid address.
  begin_.store(page_size(), std::memory_order_relaxed);
  const Address start = page_size();
  std::memset(frames_[1 % config_.memory_pages].get(), 0, page_size());
  frame_page_[1 % config_.memory_pages].store(1, std::memory_order_release);
  tail_.store(start);
  read_only_.store(start);
  safe_read_only_.store(start);
  head_.store(start);
  safe_head_.store(start);
  flushed_until_.store(start);
  flush_issued_ = start;
}

HybridLog::~HybridLog() { io_->Drain(); }

Address HybridLog::Allocate(uint32_t size, Stall* stall) {
  assert(size <= page_size());
  while (true) {
    Address t = tail_.load(std::memory_order_acquire);
    const uint64_t offset = t & page_mask_;
    const uint64_t page = t >> config_.page_bits;
    if (offset == 0 && frame_page_[page % config_.memory_pages].load(
                           std::memory_order_acquire) != page) {
      // First allocation in this page (reached either by an exact fill of
      // the previous page or by a rollover): the frame must be ready.
      const Stall why = TryPreparePage(page);
      if (why != Stall::kNone) {
        if (stall != nullptr) *stall = why;
        return kInvalidAddress;  // caller refreshes its epoch and retries
      }
    }
    if (offset + size <= page_size()) {
      if (tail_.compare_exchange_weak(t, t + size,
                                      std::memory_order_acq_rel)) {
        return t;
      }
      continue;  // raced, retry
    }
    // Page full: move the tail to the next page boundary (wasting the
    // remainder, which stays zeroed and scans as padding) and retry; the
    // next iteration prepares the new page's frame.
    Address expected = t;
    tail_.compare_exchange_strong(expected, (page + 1) << config_.page_bits,
                                  std::memory_order_acq_rel);
  }
}

HybridLog::Stall HybridLog::TryPreparePage(uint64_t new_page) {
  std::lock_guard<std::mutex> lock(rollover_mu_);
  // Someone else may have finished while we waited for the mutex.
  if (frame_page_[new_page % config_.memory_pages].load(
          std::memory_order_acquire) == new_page) {
    return Stall::kNone;
  }

  // 1. Keep the read-only offset at its lag distance behind the new page.
  if (new_page > config_.ro_lag_pages) {
    const Address desired_ro = (new_page - config_.ro_lag_pages)
                               << config_.page_bits;
    ShiftReadOnly(desired_ro);
  }

  // 2. Ensure the frame we are about to recycle is reclaimable: the page it
  // holds must be excluded by the head, that exclusion must be epoch-safe,
  // and its bytes must be flushed.
  if (new_page >= config_.memory_pages) {
    const Address required_head =
        (new_page - config_.memory_pages + 1) << config_.page_bits;
    if (required_head > eviction_floor_.load(std::memory_order_acquire)) {
      return Stall::kAwaitEpochs;  // snapshot in progress pins this region
    }
    Address head = head_.load(std::memory_order_acquire);
    if (head < required_head) {
      head_.store(required_head, std::memory_order_release);
      epoch_->BumpEpoch([this, required_head] {
        Address prev = safe_head_.load(std::memory_order_acquire);
        while (prev < required_head &&
               !safe_head_.compare_exchange_weak(prev, required_head,
                                                 std::memory_order_acq_rel)) {
        }
      });
    }
    if (safe_head_.load(std::memory_order_acquire) < required_head) {
      return Stall::kAwaitEpochs;
    }
    if (flushed_until_.load(std::memory_order_acquire) < required_head) {
      std::lock_guard<std::mutex> flush_lock(flush_mu_);
      return flush_issued_ >= required_head ? Stall::kAwaitFlush
                                            : Stall::kAwaitEpochs;
    }
  }

  // 3. Materialize the frame.
  char* frame = frames_[new_page % config_.memory_pages].get();
  std::memset(frame, 0, page_size());
  frame_page_[new_page % config_.memory_pages].store(
      new_page, std::memory_order_release);
  return Stall::kNone;
}

void HybridLog::ShiftReadOnly(Address desired) {
  Address current = read_only_.load(std::memory_order_acquire);
  bool advanced = false;
  while (current < desired) {
    if (read_only_.compare_exchange_weak(current, desired,
                                         std::memory_order_acq_rel)) {
      advanced = true;
      break;
    }
  }
  if (!advanced) return;
  // Once every thread has seen the new read-only offset, no in-place update
  // can touch [old_safe_ro, desired): publish safe_read_only and flush.
  epoch_->BumpEpoch([this, desired] {
    Address prev = safe_read_only_.load(std::memory_order_acquire);
    while (prev < desired &&
           !safe_read_only_.compare_exchange_weak(prev, desired,
                                                  std::memory_order_acq_rel)) {
    }
    IssueFlushUpTo(desired);
  });
}

Address HybridLog::ShiftReadOnlyToTail() {
  const Address t = tail_.load(std::memory_order_acquire);
  ShiftReadOnly(t);
  return t;
}

void HybridLog::IssueFlushUpTo(Address to) {
  std::lock_guard<std::mutex> lock(flush_mu_);
  while (flush_issued_ < to) {
    const Address from = flush_issued_;
    const Address page_end = (from & ~page_mask_) + page_size();
    const Address chunk_end = std::min<Address>(to, page_end);
    flush_issued_ = chunk_end;
    char* src = Ptr(from);
    const uint32_t len = static_cast<uint32_t>(chunk_end - from);
    io_->Submit([this, from, chunk_end, src, len] {
      // The source frame cannot be recycled: eviction requires
      // flushed_until_ to pass this range first.
      file_.WriteAt(from, src, len);
      if (config_.sync) file_.Sync();
      OnFlushRangeDone(from, chunk_end);
    });
  }
}

void HybridLog::OnFlushRangeDone(Address from, Address to) {
  std::lock_guard<std::mutex> lock(flush_mu_);
  flush_done_ranges_.emplace_back(from, to);
  // Merge the contiguous prefix into flushed_until_.
  Address flushed = flushed_until_.load(std::memory_order_acquire);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = flush_done_ranges_.begin();
         it != flush_done_ranges_.end(); ++it) {
      if (it->first == flushed) {
        flushed = it->second;
        flush_done_ranges_.erase(it);
        progressed = true;
        break;
      }
    }
  }
  flushed_until_.store(flushed, std::memory_order_release);
}

Status HybridLog::ReadRaw(Address address, void* buf, uint32_t len) const {
  return file_.ReadAt(address, buf, len);
}

Status HybridLog::WriteRaw(Address address, const void* buf, uint32_t len) {
  return file_.WriteAt(address, buf, len);
}

Status HybridLog::ShiftBeginAddress(Address new_begin) {
  if (new_begin > head_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "can only truncate the disk-resident region (new_begin <= head)");
  }
  Address prev = begin_.load(std::memory_order_acquire);
  while (prev < new_begin &&
         !begin_.compare_exchange_weak(prev, new_begin,
                                       std::memory_order_acq_rel)) {
  }
  return Status::Ok();
}

Status HybridLog::ResetForRecovery(Address end) {
  const uint64_t end_page = end >> config_.page_bits;
  char* frame = frames_[end_page % config_.memory_pages].get();
  std::memset(frame, 0, page_size());
  const Address page_start = end_page << config_.page_bits;
  if (end > page_start) {
    Status s = file_.ReadAt(page_start, frame,
                            static_cast<uint32_t>(end - page_start));
    if (!s.ok()) return s;
  }
  for (uint32_t i = 0; i < config_.memory_pages; ++i) {
    frame_page_[i].store(kNoPage, std::memory_order_relaxed);
  }
  frame_page_[end_page % config_.memory_pages].store(
      end_page, std::memory_order_release);
  tail_.store(end);
  head_.store(page_start);
  safe_head_.store(page_start);
  read_only_.store(end);
  safe_read_only_.store(end);
  flushed_until_.store(end);
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_issued_ = end;
    flush_done_ranges_.clear();
  }
  return Status::Ok();
}

}  // namespace cpr::faster
