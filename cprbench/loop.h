#ifndef CPRBENCH_LOOP_H_
#define CPRBENCH_LOOP_H_

// The closed loop every live client session runs, shared by the KV and
// TPC-C workloads. A session keeps `window` operations in flight: it tops
// the window up, flushes, waits for at least one ack and takes whatever
// else is already readable. Latency runs from enqueue to the moment the
// ack is handed back by CprClient.
//
// An executed-ack session waits by polling TryDrain: its acks return within
// microseconds, and a thread that sleeps in recv for each of them adds the
// scheduler's wake-up delay to every window, which on a shared VM swings
// the latency tail several-fold between runs. A durable-ack session waits
// for a checkpoint, so it blocks in Drain.
//
// The loop also plays the session's part in the closing crash check (see
// Phase): it fixes its fold point, learns its commit point after the
// controller's checkpoint, sends a fixed tail, and after the crash drains
// every outstanding ack so the pre-crash state is quiesced.
//
// Driver D supplies the workload: EnqueueOp(c), EnqueueCommitPoint(c),
// Fold(), Error(msg), and OnResult(result, &enqueue_ns) -> Ack.

#include <thread>
#include <vector>

#include "bench.h"

namespace cprbench {

constexpr uint64_t kPollTimeoutNs = 10'000'000'000;  // CprClient's default

template <typename D>
void SessionLoop(D& d, cpr::client::CprClient& c, Control& ctl,
                 const Timeline& tl, uint32_t window, uint32_t tail_ops,
                 bool poll, std::vector<Slice>& slices, ClientLayer& cl,
                 SpanLog& spans, uint32_t tid) {
  using cpr::client::CprClient;
  size_t inflight = 0;
  bool folded = false;
  bool tail_started = false;
  uint32_t tail_left = 0;
  uint64_t window_id = (uint64_t{tid} << 40) + 1;
  std::vector<CprClient::Result> res;

  auto process = [&](uint64_t now) {
    const int slice = tl.SliceOf(now);
    for (const CprClient::Result& r : res) {
      uint64_t t_enq = 0;
      const Ack ack = d.OnResult(r, &t_enq);
      --inflight;
      CountAck(ack, slice, now, now - t_enq, slices);
    }
    res.clear();
  };
  auto fail = [&](const char* what, const cpr::Status& st) {
    d.Error(std::string(what) + ": " + st.message());
    ctl.failed_hard.store(true);
  };

  while (true) {
    const int ph = ctl.phase.load(std::memory_order_acquire);
    if (ph >= kFold && !folded) {
      d.Fold();
      folded = true;
      ctl.folded.fetch_add(1);
    }
    if (ph >= kTail && !tail_started) {
      d.EnqueueCommitPoint(c);
      ++inflight;
      tail_started = true;
      tail_left = tail_ops;
    }
    if (tail_started && tail_left == 0) break;

    const uint64_t t0 = NowNs();
    const int slice = tl.SliceOf(t0);
    const bool traced = tl.Traced(slice);
    size_t n = 0;
    while (inflight < window && (!tail_started || tail_left > 0)) {
      d.EnqueueOp(c);
      ++inflight;
      ++n;
      if (tail_started) --tail_left;
    }
    const uint64_t t1 = NowNs();
    cpr::Status st = c.Flush();
    const uint64_t t2 = NowNs();
    if (!st.ok()) {
      fail("flush", st);
      break;
    }
    if (tail_started && tail_left == 0) {
      // The tail is on the wire; its acks are collected after the crash.
      break;
    }
    if (poll) {
      // Gives up after the client's own receive timeout, as Drain would.
      const uint64_t give_up = t2 + kPollTimeoutNs;
      while (st.ok() && res.empty()) {
        st = c.TryDrain(&res);
        if (st.ok() && res.empty() && NowNs() > give_up) {
          st = cpr::Status::IoError("no ack within the receive timeout");
        }
      }
    } else {
      st = c.Drain(&res, 1);
    }
    const uint64_t t3 = NowNs();
    if (st.ok()) st = c.TryDrain(&res);
    const uint64_t t4 = NowNs();
    if (!st.ok()) {
      fail("drain", st);
      break;
    }
    process(t4);
    if (traced) {
      const uint64_t id = window_id++;
      spans.Add({"client.window", tid, t0, t4, id, 0});
      spans.Add({"client.enqueue", tid, t0, t1, id, id});
      spans.Add({"client.flush", tid, t1, t2, id, id});
      spans.Add({"client.drain", tid, t2, t4, id, id});
      ++cl.flushes;
      cl.flush_ns += t2 - t1;
      cl.flushed_ops += n;
      ++cl.drain_waits;
      cl.drain_wait_ns += t3 - t2;
    }
  }

  ctl.tail_sent.fetch_add(1);
  while (ctl.phase.load(std::memory_order_acquire) < kCrashed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!ctl.failed_hard.load() && inflight > 0) {
    const cpr::Status st = c.Drain(&res);
    if (!st.ok()) {
      fail("tail drain", st);
    } else {
      process(NowNs());
    }
  }
  c.Close();
  ctl.done.fetch_add(1);
}

// Connects the session's client and runs SessionLoop on it. A session that
// cannot connect fails the run and still plays its part in the closing
// protocol, so the controller never waits on it.
template <typename D>
void RunSession(D& d, const cpr::client::CprClient::Options& options,
                Control& ctl, const Timeline& tl, uint32_t window,
                uint32_t tail_ops, std::vector<Slice>& slices,
                ClientLayer& cl, SpanLog& spans, uint32_t tid) {
  cpr::client::CprClient c(options);
  const cpr::Status st = c.Connect();
  if (!st.ok()) {
    d.Error("connect: " + st.message());
    ctl.failed_hard.store(true);
    ctl.folded.fetch_add(1);
    ctl.tail_sent.fetch_add(1);
    ctl.done.fetch_add(1);
    return;
  }
  d.guid = c.guid();
  d.serial = d.acked = c.recovered_serial();
  const bool poll = options.ack_mode == cpr::net::AckMode::kExecuted;
  SessionLoop(d, c, ctl, tl, window, tail_ops, poll, slices, cl, spans, tid);
}

}  // namespace cprbench

#endif  // CPRBENCH_LOOP_H_
