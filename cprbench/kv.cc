// The three KV workloads (kv_mem, kv_wide, kv_durable): a ShardedKv behind
// the in-process wire server, driven over loopback by closed-loop
// CprClient sessions, ending in the closing crash check.
//
// The model. Every key is owned by exactly one session (its slice); only the
// owner upserts or RMWs it, so a key's value is a function of its owner's
// serial alone. The benchmark applies each write to its model when it
// enqueues it (ops of one session execute in serial order), so an own-slice
// read must return the model value current at its enqueue. For the closing
// check each session fixes a fold point F (its last acked serial) before
// the controller's checkpoint; every write after F goes to a tail log with
// the key's value before and after it. The state recovered at serial R is
// then exact: the tail entry of the key at or below R, else the value before
// its first tail entry, else the model value.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "loop.h"
#include "util/random.h"

namespace cprbench {
namespace {

using cpr::client::CprClient;
namespace net = cpr::net;

// Maps key indices to owning sessions. Without parked sessions index i
// belongs to live session i % L. With parked sessions the even indices are
// shared out among the live sessions and the odd ones among the parked
// ones. `id` maps an index to the key sent over the wire.
struct Keyspace {
  uint64_t n = 0;
  uint32_t live = 1;
  uint32_t parked = 0;
  std::vector<uint64_t> id;

  uint32_t sessions() const { return live + parked; }
  uint32_t Owner(uint64_t k) const {
    if (parked == 0) return static_cast<uint32_t>(k % live);
    const uint64_t h = k / 2;
    return (k & 1) == 0 ? static_cast<uint32_t>(h % live)
                        : live + static_cast<uint32_t>(h % parked);
  }
  uint64_t SliceSize(uint32_t s) const {
    if (parked == 0) return n / live;
    return s < live ? n / 2 / live : n / 2 / parked;
  }
  uint64_t Key(uint32_t s, uint64_t i) const {
    if (parked == 0) return i * live + s;
    return s < live ? 2 * (i * live + s) : 2 * (i * parked + (s - live)) + 1;
  }
};

int64_t InitialValue(uint64_t seed, uint64_t k) {
  return static_cast<int64_t>(Mix64(seed * 0x100000001B3ULL ^ k) >> 16);
}

struct TailRec {
  uint64_t serial;
  uint64_t key;
  int64_t before;
  int64_t after;
};

// Shared model state: one value per key, written only by the key's owner.
struct Model {
  std::vector<int64_t> value;
  std::vector<int64_t> prev;  // value before the key's latest write
};

enum OpKind : uint8_t { kRead, kUpsert, kRmw, kCommitPoint };

struct InFlight {
  uint64_t t_enq = 0;
  uint64_t serial = 0;
  uint64_t key = 0;
  int64_t before = 0;
  int64_t after = 0;  // write: new value; checked read: expected value
  OpKind kind = kRead;
  bool check = false;
};

// One session's workload driver and model bookkeeping.
struct KvSession {
  const KvConfig* cfg = nullptr;
  const Keyspace* ks = nullptr;
  Model* model = nullptr;
  uint32_t index = 0;
  bool durable = false;
  cpr::Rng rng{1};
  std::unique_ptr<cpr::ZipfianGenerator> zipf_all, zipf_slice;

  uint64_t guid = 0;
  uint64_t serial = 0;       // last serial issued
  uint64_t acked = 0;        // last serial acked
  uint64_t fold = 0;         // fold point F
  bool folded = false;
  uint64_t commit_point = 0; // learned after the closing checkpoint
  uint64_t durable_max = 0;  // highest durable-acked update serial
  std::vector<TailRec> tail;
  std::deque<InFlight> inflight;
  std::vector<std::string> errors;
  uint64_t ryw_checked = 0;
  bool corrupt_ryw = false;
  std::vector<net::Request>* sample = nullptr;  // every 64th op, if set
  uint64_t ops = 0;
  // Own-slice keys of the session's latest `spacing` ops. A key is not
  // drawn again while it is among them, and at most `window` <= spacing ops
  // are in flight, so one key never has two ops of this session in flight
  // at once: the server runs an op that follows a pending one on the same
  // key out of serial order (CHANGES.md, FOUND). The spacing depends on the
  // op stream alone, so the stream stays a function of the seed.
  uint32_t spacing = 0;
  std::deque<uint64_t> recent;
  std::unordered_map<uint64_t, uint32_t> recent_count;

  void Error(const std::string& e) {
    if (errors.size() < 8) errors.push_back(e);
  }

  uint64_t Draw(cpr::ZipfianGenerator* z, uint64_t n) {
    if (z == nullptr) return rng.Uniform(n);
    return cpr::ScrambleKey(z->Next(rng), n);
  }

  bool Recent(uint64_t k) const { return recent_count.count(k) != 0; }

  // Records the key of the op being issued (own-slice keys only) and ages
  // out the key `spacing` ops back.
  void Remember(uint64_t k, bool own) {
    recent.push_back(own ? k : ~uint64_t{0});
    if (own) ++recent_count[k];
    if (recent.size() > spacing) {
      const uint64_t old = recent.front();
      recent.pop_front();
      if (old != ~uint64_t{0} && --recent_count[old] == 0) {
        recent_count.erase(old);
      }
    }
  }

  void Sample(net::Op op, uint64_t key, int64_t delta, int64_t value) {
    if (sample == nullptr || (ops++ & 63) != 0 || sample->size() >= 4096) {
      return;
    }
    net::Request r;
    r.op = op;
    r.seq = static_cast<uint32_t>(ops);
    r.key = key;
    r.delta = delta;
    if (op == net::Op::kUpsert) {
      r.value.resize(8);
      std::memcpy(r.value.data(), &value, 8);
    }
    sample->push_back(std::move(r));
  }

  void EnqueueOp(CprClient& c) {
    InFlight f;
    f.t_enq = NowNs();
    f.serial = ++serial;
    const uint32_t r = static_cast<uint32_t>(rng.Uniform(100));
    if (r < cfg->read_pct) {
      f.kind = kRead;
      do {
        f.key = Draw(zipf_all.get(), ks->n);
        f.check = ks->Owner(f.key) == index;
      } while (f.check && Recent(f.key));
      Remember(f.key, f.check);
      if (f.check) f.after = model->value[f.key];
      c.EnqueueRead(ks->id[f.key]);
      Sample(net::Op::kRead, ks->id[f.key], 0, 0);
    } else {
      do {
        f.key = ks->Key(index, Draw(zipf_slice.get(), ks->SliceSize(index)));
      } while (Recent(f.key));
      Remember(f.key, true);
      f.before = model->value[f.key];
      if (r < cfg->read_pct + cfg->upsert_pct) {
        f.kind = kUpsert;
        f.after = static_cast<int64_t>(rng.Next() >> 2);
        c.EnqueueUpsert(ks->id[f.key], &f.after);
        Sample(net::Op::kUpsert, ks->id[f.key], 0, f.after);
      } else {
        f.kind = kRmw;
        const int64_t d = 1 + static_cast<int64_t>(rng.Uniform(100));
        f.after = f.before + d;
        c.EnqueueRmw(ks->id[f.key], d);
        Sample(net::Op::kRmw, ks->id[f.key], d, 0);
      }
      model->prev[f.key] = f.before;
      model->value[f.key] = f.after;
      if (folded) tail.push_back({f.serial, f.key, f.before, f.after});
    }
    inflight.push_back(f);
  }

  void EnqueueCommitPoint(CprClient& c) {
    InFlight f;
    f.kind = kCommitPoint;
    f.t_enq = NowNs();
    c.EnqueueCommitPoint();
    inflight.push_back(f);
  }

  void Fold() {
    fold = acked;
    folded = true;
    for (const InFlight& f : inflight) {
      if (f.kind == kUpsert || f.kind == kRmw) {
        tail.push_back({f.serial, f.key, f.before, f.after});
      }
    }
  }

  Ack OnResult(const CprClient::Result& r, uint64_t* t_enq) {
    if (inflight.empty()) {
      Error("ack without a request in flight");
      return Ack::kFailed;
    }
    const InFlight f = inflight.front();
    inflight.pop_front();
    *t_enq = f.t_enq;
    if (f.kind == kCommitPoint) {
      if (r.status != net::WireStatus::kOk) Error("COMMIT_POINT failed");
      commit_point = r.commit_serial;
      return Ack::kUncounted;
    }
    if (r.serial != f.serial) {
      Error("ack serial " + std::to_string(r.serial) + " for predicted " +
            std::to_string(f.serial));
    }
    acked = f.serial;
    if (r.status != net::WireStatus::kOk) return Ack::kFailed;
    if (durable && f.kind != kRead) durable_max = f.serial;
    if (f.kind == kRead && f.check) {
      int64_t got = 0;
      if (r.value.size() >= 8) std::memcpy(&got, r.value.data(), 8);
      if (corrupt_ryw && ryw_checked == 0) got += 1;
      ++ryw_checked;
      if (got != f.after) {
        Error("read-your-writes: session " + std::to_string(index) +
              " key " + std::to_string(f.key) + " read " +
              std::to_string(got) + " expected " + std::to_string(f.after));
      }
    }
    return Ack::kOk;
  }
};

// Reads every key of `ks` over one pipelined session into `out`, by index.
cpr::Status ReadAll(uint16_t port, const Keyspace& ks,
                    std::vector<int64_t>* out) {
  const uint64_t n = ks.n;
  CprClient::Options o;
  o.port = port;
  o.track_replay = false;
  CprClient c(o);
  cpr::Status st = c.Connect();
  if (!st.ok()) return st;
  out->assign(n, 0);
  std::vector<CprClient::Result> res;
  constexpr uint64_t kWindow = 512;
  for (uint64_t base = 0; base < n; base += kWindow) {
    const uint64_t end = std::min(n, base + kWindow);
    for (uint64_t k = base; k < end; ++k) c.EnqueueRead(ks.id[k]);
    res.clear();
    st = c.Flush();
    if (st.ok()) st = c.Drain(&res);
    if (!st.ok()) return st;
    for (uint64_t k = base; k < end; ++k) {
      const CprClient::Result& r = res[k - base];
      if (r.status != net::WireStatus::kOk || r.value.size() < 8) {
        return cpr::Status::Corruption("read of key " + std::to_string(k) +
                                       " failed: " +
                                       net::StatusName(r.status));
      }
      std::memcpy(&(*out)[k], r.value.data(), 8);
    }
  }
  c.Close();
  return cpr::Status::Ok();
}

struct Store {
  std::unique_ptr<cpr::kv::ShardedKv> backend;
  std::unique_ptr<cpr::server::KvServer> server;
  uint16_t port = 0;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    backend.reset();
  }
};

cpr::Status StartServer(Store* s, const KvConfig& cfg) {
  s->server = std::make_unique<cpr::server::KvServer>(
      s->backend.get(), BaseServerOptions(cfg.checkpoint_ms));
  cpr::Status st = s->server->Start();
  s->port = s->server->port();
  return st;
}

// Setup: build the store, preload every key in-process, serve it, create
// the parked sessions (one connection at a time: connect, disconnect) and
// take the initial checkpoint over the wire.
cpr::Status Setup(const KvConfig& cfg, const Keyspace& ks, uint64_t seed,
                  const std::string& dir, Store* s,
                  std::vector<KvSession>* sessions) {
  s->backend = std::make_unique<cpr::kv::ShardedKv>(KvStoreOptions(cfg, dir));
  cpr::kv::Session* ses = s->backend->StartSession(0);
  if (ses == nullptr) return cpr::Status::Busy("no session slot");
  for (uint64_t k = 0; k < ks.n; ++k) {
    const int64_t v = InitialValue(seed, k);
    s->backend->Upsert(*ses, ks.id[k], &v);
  }
  s->backend->CompletePending(*ses, true);
  s->backend->StopSession(ses);
  cpr::Status st = StartServer(s, cfg);
  if (!st.ok()) return st;
  for (uint32_t i = cfg.live_sessions; i < sessions->size(); ++i) {
    KvSession& p = (*sessions)[i];
    CprClient::Options o;
    o.port = s->port;
    o.track_replay = false;
    CprClient c(o);
    if (!(st = c.Connect()).ok()) return st;
    p.guid = c.guid();
    p.serial = p.acked = c.recovered_serial();
    c.Close();
  }
  CprClient::Options o;
  o.port = s->port;
  o.track_replay = false;
  CprClient c(o);
  if (!(st = c.Connect()).ok()) return st;
  st = c.Checkpoint(nullptr, nullptr, false, true);
  c.Close();
  return st;
}

}  // namespace

int RunKv(const Args& args, RunResult* out) {
  KvConfig cfg;
  KvConfigFor(args.workload, &cfg);
  Keyspace ks{cfg.keys, cfg.live_sessions, cfg.parked_sessions,
              ChainFreeKeys(cfg, cfg.keys)};
  const uint32_t nsess = ks.sessions();

  Model model;
  std::vector<KvSession> sessions(nsess);
  auto init_sessions = [&] {
    model.value.resize(ks.n);
    model.prev.resize(ks.n);
    for (uint64_t k = 0; k < ks.n; ++k) {
      model.value[k] = model.prev[k] = InitialValue(args.seed, k);
    }
    for (uint32_t i = 0; i < nsess; ++i) {
      KvSession& s = sessions[i];
      s = KvSession();
      s.cfg = &cfg;
      s.ks = &ks;
      s.model = &model;
      s.index = i;
      s.durable = cfg.durable && i < cfg.live_sessions;
      s.rng = cpr::Rng(args.seed * 7919 + i + 1);
      if (cfg.zipf_theta > 0) {
        s.zipf_all =
            std::make_unique<cpr::ZipfianGenerator>(ks.n, cfg.zipf_theta);
        s.zipf_slice = std::make_unique<cpr::ZipfianGenerator>(
            ks.SliceSize(i), cfg.zipf_theta);
      }
      s.corrupt_ryw = args.corrupt == Corrupt::kReadYourWrites;
      s.spacing = 2 * std::max(cfg.window, cfg.burst);
    }
  };

  // -- Setup, kSetups times; the median is setup_s and the last one serves.
  Store store;
  std::vector<double> setup_s;
  std::string dir;
  for (int rep = 0; rep < kSetups; ++rep) {
    init_sessions();
    dir = args.dir + "/store-" + std::to_string(rep);
    const uint64_t t0 = NowNs();
    const cpr::Status st = Setup(cfg, ks, args.seed, dir, &store, &sessions);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) {
      out->Fail("setup: " + st.message());
      store.Stop();
      return 1;
    }
    if (rep + 1 < kSetups) {
      store.Stop();
      ReleaseFreedMemory();
      RemoveDir(dir);
    }
  }

  Log("setup done: median %.3f s of %d", Median(setup_s), kSetups);

  // -- Measured interval ---------------------------------------------------
  Control ctl;
  Timeline tl;
  tl.slice_ns = uint64_t{cfg.slice_ms} * 1'000'000;
  tl.slices = args.seconds * 1000 / cfg.slice_ms;
  tl.trace = args.trace;
  const uint32_t participants = cfg.live_sessions + (cfg.parked_sessions > 0);
  std::vector<std::vector<Slice>> slices(participants,
                                         std::vector<Slice>(tl.slices));
  std::vector<ClientLayer> client_layer(participants);
  std::vector<SpanLog> span_logs(participants);
  std::vector<net::Request> sample;
  sessions[0].sample = args.trace ? &sample : nullptr;

  CprClient::Options copt;
  copt.port = store.port;
  copt.track_replay = false;
  copt.ack_mode = cfg.durable ? net::AckMode::kDurable : net::AckMode::kExecuted;
  CprClient::Options ctl_opt;
  ctl_opt.port = store.port;
  CprClient control(ctl_opt);
  if (!control.Connect().ok()) {
    out->Fail("control connect");
    store.Stop();
    return 1;
  }

  constexpr uint64_t kWarmupNs = 1'000'000'000;
  tl.start_ns = NowNs() + kWarmupNs;
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < cfg.live_sessions; ++i) {
    threads.emplace_back([&, i] {
      RunSession(sessions[i], copt, ctl, tl, cfg.window, cfg.tail_ops,
                 slices[i], client_layer[i], span_logs[i], i + 1);
    });
  }
  if (cfg.parked_sessions > 0) {
    const uint32_t slot = cfg.live_sessions;
    threads.emplace_back([&, slot] {
      // Resumes the parked sessions in turn, one connection at a time.
      uint32_t next = cfg.live_sessions;
      std::vector<CprClient::Result> res;
      CprClient::Options o = copt;
      o.ack_mode = net::AckMode::kExecuted;
      uint64_t due = NowNs();
      while (ctl.phase.load(std::memory_order_acquire) == kRun &&
             !ctl.failed_hard.load()) {
        due += uint64_t{cfg.resume_every_ms} * 1'000'000;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        KvSession& p = sessions[next];
        next = next + 1 < nsess ? next + 1 : cfg.live_sessions;
        o.guid = p.guid;
        CprClient c(o);
        cpr::Status st = c.Connect();
        if (st.ok() && c.recovered_serial() != p.serial) {
          p.Error("resumed at serial " + std::to_string(c.recovered_serial()) +
                  ", expected " + std::to_string(p.serial));
        }
        const uint64_t t0 = NowNs();
        for (uint32_t i = 0; st.ok() && i < cfg.burst; ++i) p.EnqueueOp(c);
        const uint64_t t1 = NowNs();
        if (st.ok()) st = c.Flush();
        const uint64_t t2 = NowNs();
        res.clear();
        if (st.ok()) st = c.Drain(&res);
        const uint64_t now = NowNs();
        if (!st.ok()) {
          p.Error("parked burst: " + st.message());
          ctl.failed_hard.store(true);
          break;
        }
        const int si = tl.SliceOf(now);
        for (const CprClient::Result& r : res) {
          uint64_t t_enq = 0;
          const Ack ack = p.OnResult(r, &t_enq);
          CountAck(ack, si, now, now - t_enq, slices[slot]);
        }
        if (tl.Traced(si)) {
          const uint64_t id = (uint64_t{slot + 1} << 40) + p.serial;
          span_logs[slot].Add({"client.burst", slot + 1, t0, now, id, 0});
          span_logs[slot].Add({"client.flush", slot + 1, t1, t2, id, id});
          span_logs[slot].Add({"client.drain", slot + 1, t2, now, id, id});
          ClientLayer& cl = client_layer[slot];
          ++cl.flushes;
          cl.flush_ns += t2 - t1;
          cl.flushed_ops += cfg.burst;
          ++cl.drain_waits;
          cl.drain_wait_ns += now - t2;
        }
        c.Close();
      }
      for (uint32_t i = cfg.live_sessions; i < nsess; ++i) sessions[i].Fold();
      ctl.folded.fetch_add(1);
      ctl.tail_sent.fetch_add(1);
      ctl.done.fetch_add(1);
    });
  }

  LayerInputs layers;
  layers.kv = &cfg;
  layers.sessions = nsess + 1;
  auto covered = [&] {
    for (const KvSession& s : sessions) {
      uint64_t point = 0;
      if (s.fold > 0 &&
          (!store.backend->DurableCommitPoint(s.guid, &point).ok() ||
           point < s.fold)) {
        return false;
      }
    }
    return true;
  };
  bool ok = MeasureAndCrash(tl, ctl, participants, *store.backend, control,
                            cfg.shards, covered, args.trace ? dir : "",
                            &layers, out);
  for (auto& t : threads) t.join();
  for (KvSession& s : sessions) {
    for (const std::string& e : s.errors) out->Fail(e);
  }

  const SliceStats ss = Summarize(slices, tl);
  out->attempted = ss.attempted;
  out->failed = ss.failed;
  layers.ops_untraced = ss.ops_per_s_untraced;
  layers.ops_traced = ss.ops_per_s_traced;
  for (const ClientLayer& cl : client_layer) layers.client.Merge(cl);

  // Quiesced pre-crash state: every acked operation applied.
  if (ok) {
    std::vector<int64_t> got;
    const cpr::Status st = ReadAll(store.port, ks, &got);
    if (!st.ok()) {
      out->Fail("pre-crash read: " + st.message());
      ok = false;
    }
    for (uint64_t k = 0; ok && k < ks.n; ++k) {
      if (got[k] != model.value[k]) {
        out->Fail("pre-crash key " + std::to_string(k) + " = " +
                  std::to_string(got[k]) + ", model " +
                  std::to_string(model.value[k]));
        ok = false;
      }
    }
  }
  store.Stop();
  ThawPersistence();
  if (!ok) {
    out->Fail("closing crash check did not complete");
    return 1;
  }

  // 4. Recover (timed) from copies of the crashed directory.
  const double recover_s = TimedRecoveries(
      dir, args.dir,
      [&](const std::string& rdir) {
        store.backend =
            std::make_unique<cpr::kv::ShardedKv>(KvStoreOptions(cfg, rdir));
        return store.backend->Recover();
      },
      [&] { store.Stop(); }, out);
  if (recover_s < 0) {
    store.Stop();
    return 1;
  }
  cpr::Status st = StartServer(&store, cfg);
  if (!st.ok()) {
    out->Fail("restart: " + st.message());
    store.Stop();
    return 1;
  }

  // Reconnect every session, live and parked: HELLO reports R.
  std::vector<uint64_t> recovered(nsess, 0);
  for (uint32_t i = 0; i < nsess; ++i) {
    CprClient::Options o;
    o.port = store.port;
    o.guid = sessions[i].guid;
    o.track_replay = false;
    CprClient c(o);
    st = c.Connect();
    if (!st.ok()) {
      out->Fail("reconnect session " + std::to_string(i) + ": " +
                st.message());
      store.Stop();
      return 1;
    }
    recovered[i] = c.recovered_serial();
    c.Close();
  }
  if (args.corrupt == Corrupt::kSerialBelowAck) {
    recovered[0] = sessions[0].durable_max > 0 ? sessions[0].durable_max - 1
                                               : 0;
  }
  for (uint32_t i = 0; i < nsess; ++i) {
    const KvSession& s = sessions[i];
    const std::string who = "session " + std::to_string(i) + ": recovered " +
                            std::to_string(recovered[i]);
    if (recovered[i] < s.fold) {
      out->Fail(who + " < fold point " + std::to_string(s.fold));
    }
    if (recovered[i] < s.commit_point) {
      out->Fail(who + " < commit point " + std::to_string(s.commit_point));
    }
    if (recovered[i] < s.durable_max) {
      out->Fail(who + " < durable ack " + std::to_string(s.durable_max));
    }
    if (recovered[i] > s.serial) {
      out->Fail(who + " > last issued " + std::to_string(s.serial));
    }
  }

  // 5. The recovered state equals the model at each owner's R.
  std::unordered_map<uint64_t, int64_t> tail_expect;
  for (uint32_t i = 0; i < nsess; ++i) {
    std::unordered_map<uint64_t, bool> seen;
    for (const TailRec& t : sessions[i].tail) {
      const bool first = seen.emplace(t.key, true).second;
      if (first) tail_expect[t.key] = t.before;
      if (t.serial <= recovered[i]) tail_expect[t.key] = t.after;
    }
  }
  if (args.corrupt == Corrupt::kLostOp) {
    // Undo the latest write of one key session 0 wrote before its fold.
    for (uint64_t k = 0; k < ks.n; ++k) {
      if (ks.Owner(k) != 0 || tail_expect.count(k) != 0 ||
          model.prev[k] == model.value[k]) {
        continue;
      }
      CprClient::Options o;
      o.port = store.port;
      o.track_replay = false;
      CprClient c(o);
      if (c.Connect().ok()) c.Upsert(ks.id[k], &model.prev[k]);
      break;
    }
  }
  std::vector<int64_t> got;
  st = ReadAll(store.port, ks, &got);
  if (!st.ok()) {
    out->Fail("recovered read: " + st.message());
  } else {
    uint64_t bad = 0;
    for (uint64_t k = 0; k < ks.n; ++k) {
      const auto it = tail_expect.find(k);
      const int64_t want = it != tail_expect.end() ? it->second : model.value[k];
      if (got[k] != want && bad++ < 5) {
        out->Fail("recovered key " + std::to_string(k) + " (session " +
                  std::to_string(ks.Owner(k)) + ") = " +
                  std::to_string(got[k]) + ", model " + std::to_string(want));
      }
    }
  }

  Log("recovered state checked");
  if (args.trace) {
    layers.sample = std::move(sample);
    SpanLog spans;
    for (const SpanLog& l : span_logs) spans.Merge(l);
    ReportLayers(layers, args.dir + "/probe", &spans, out);
    if (!args.out_dir.empty()) {
      spans.WriteChromeJson(args.out_dir + "/" + args.workload + "-seed" +
                            std::to_string(args.seed) + ".trace.json");
    }
  } else {
    out->Metric("ops_per_s", ss.ops_per_s, "1/s");
    out->Metric("lat_p50_us", ss.lat_p50_us, "us");
    out->Metric("lat_p99_us", ss.lat_p99_us, "us");
    out->Metric("setup_s", Median(setup_s), "s");
    out->Metric("recover_s", recover_s, "s");
  }
  store.Stop();
  return out->correct ? 0 : 1;
}

}  // namespace cprbench
