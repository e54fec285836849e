// txn_tpcc: TPC-C New-Order/Payment as TXN frames to a TxDbBackend under the
// CPR provider, with periodic CPR commits during the measured interval and
// executed acks, ending in the closing crash check.
//
// The model. Transactions come from a per-session pool generated from the
// seed and issued in a cycle; a NO-WAIT conflict re-issues the same
// transaction under the next serial. Every kAdd (warehouse and district YTD,
// customer balance, stock quantity) commutes, so a row's value is its
// loaded value plus the deltas of the committed transactions within each
// session's prefix, whatever the interleaving. Rows the transactions write
// (orders, new orders, order lines, history) are recycled slots several
// sessions may write, so such a row must hold the value of one committed
// write within the prefix, or its loaded value if there is none. Values
// are compared on their first 8 bytes, the column the transactions set.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "bench.h"
#include "loop.h"
#include "txdb/txdb_backend.h"
#include "util/random.h"
#include "workloads/tpcc.h"

namespace cprbench {
namespace {

using cpr::client::CprClient;
namespace net = cpr::net;

constexpr uint32_t kSessions = 2;
constexpr uint32_t kWindow = 16;
constexpr uint32_t kTailTxns = 16;
constexpr uint32_t kPlansPerSession = 2048;
constexpr uint32_t kPaymentPct = 50;
constexpr uint32_t kCommitMs = 100;

cpr::txdb::TxDbBackend::Options BackendOptions(const std::string& dir) {
  cpr::txdb::TxDbBackend::Options o;
  o.db.durability_dir = dir;
  o.db.max_threads = 64;
  o.tables = {cpr::txdb::TxDbBackend::TableSpec{1 << 10, 8}};
  return o;
}

// Row layout of the whole database as one flat index.
struct Rows {
  std::vector<uint64_t> offset;  // by table id
  uint64_t total = 0;
  uint64_t Flat(uint32_t table, uint64_t row) const {
    return offset[table] + row;
  }
};

Rows LayoutOf(cpr::txdb::TransactionalDb& db) {
  Rows r;
  for (uint32_t t = 0; t < db.num_tables(); ++t) {
    r.offset.push_back(r.total);
    r.total += db.table(t).rows();
  }
  return r;
}

// Flat first-8-byte image of a DUMP.
std::vector<int64_t> Flatten(const cpr::certify::StateDump& d,
                             const Rows& rows) {
  std::vector<int64_t> v(rows.total, 0);
  for (uint32_t t = 0; t < d.tables.size() && t < rows.offset.size(); ++t) {
    for (const net::DumpRow& r : d.tables[t].rows) {
      int64_t x = 0;
      std::memcpy(&x, r.value.data(), std::min<size_t>(8, r.value.size()));
      v[rows.Flat(t, r.row)] = x;
    }
  }
  return v;
}

struct Plan {
  std::vector<net::TxnWireOp> ops;
  std::vector<std::pair<uint64_t, int64_t>> adds;    // flat row, delta
  std::vector<std::pair<uint64_t, int64_t>> writes;  // flat row, value
};

Plan ToPlan(const cpr::txdb::Transaction& txn, cpr::txdb::TransactionalDb& db,
            const Rows& rows) {
  Plan p;
  for (const cpr::txdb::TxnOp& op : txn.ops) {
    net::TxnWireOp w;
    w.table = op.table_id;
    w.row = op.row;
    switch (op.type) {
      case cpr::txdb::OpType::kRead:
        w.kind = net::TxnOpKind::kRead;
        break;
      case cpr::txdb::OpType::kAdd:
        w.kind = net::TxnOpKind::kAdd;
        w.delta = op.delta;
        p.adds.push_back({rows.Flat(op.table_id, op.row), op.delta});
        break;
      case cpr::txdb::OpType::kWrite: {
        w.kind = net::TxnOpKind::kWrite;
        const char* v = static_cast<const char*>(op.value);
        w.value.assign(v, v + db.table(op.table_id).value_size());
        int64_t x = 0;
        std::memcpy(&x, v, std::min<size_t>(8, w.value.size()));
        p.writes.push_back({rows.Flat(op.table_id, op.row), x});
        break;
      }
    }
    p.ops.push_back(std::move(w));
  }
  return p;
}

struct TailTxn {
  uint64_t serial;
  uint32_t plan;
};

enum Kind : uint8_t { kTxn, kCommitPoint };

struct InFlight {
  uint64_t t_enq = 0;
  uint64_t serial = 0;
  uint32_t plan = 0;
  Kind kind = kTxn;
};

struct TpccSession {
  const std::vector<Plan>* plans = nullptr;
  uint32_t next = 0;
  std::deque<uint32_t> retry;
  uint64_t guid = 0;
  uint64_t serial = 0;
  uint64_t acked = 0;
  uint64_t fold = 0;
  bool folded = false;
  uint64_t commit_point = 0;
  std::vector<int64_t> fold_add;       // committed deltas up to the fold
  std::vector<uint8_t> fold_committed; // plan committed up to the fold
  std::vector<TailTxn> tail;           // committed after the fold
  std::deque<InFlight> inflight;
  std::vector<std::string> errors;
  uint64_t committed = 0, conflicts = 0;  // measured interval
  const Timeline* tl = nullptr;
  std::vector<net::Request>* sample = nullptr;

  void Error(const std::string& e) {
    if (errors.size() < 8) errors.push_back(e);
  }

  void EnqueueOp(CprClient& c) {
    InFlight f;
    if (!retry.empty()) {
      f.plan = retry.front();
      retry.pop_front();
    } else {
      f.plan = next;
      next = (next + 1) % plans->size();
    }
    f.serial = ++serial;
    f.t_enq = NowNs();
    c.EnqueueTxn((*plans)[f.plan].ops);
    if (sample != nullptr && (serial & 15) == 0 && sample->size() < 1024) {
      net::Request r;
      r.op = net::Op::kTxn;
      r.seq = static_cast<uint32_t>(serial);
      r.txn_ops = (*plans)[f.plan].ops;
      sample->push_back(std::move(r));
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
    const bool measured = tl->SliceOf(NowNs()) >= 0;
    if (r.status == net::WireStatus::kTxnConflict) {
      retry.push_back(f.plan);
      if (measured) ++conflicts;
      return Ack::kUncounted;
    }
    if (r.status != net::WireStatus::kOk) return Ack::kFailed;
    if (measured) ++committed;
    const Plan& p = (*plans)[f.plan];
    if (folded) {
      tail.push_back({f.serial, f.plan});
    } else {
      for (const auto& [row, d] : p.adds) fold_add[row] += d;
      fold_committed[f.plan] = 1;
    }
    return Ack::kOk;
  }
};

// Checks `got` against the model with session i's prefix ending at
// prefix[i]. Reports at most a few mismatches.
void CheckState(const std::vector<int64_t>& got,
                const std::vector<int64_t>& baseline,
                const std::vector<TpccSession>& sessions,
                const std::vector<std::vector<Plan>>& plans,
                const std::vector<uint64_t>& prefix, const char* what,
                RunResult* out) {
  const uint64_t n = baseline.size();
  std::vector<int64_t> want = baseline;
  // Candidate values of written rows: (row, value) of committed writes.
  std::vector<std::pair<uint64_t, int64_t>> cands;
  std::vector<uint8_t> written(n, 0);
  for (uint32_t s = 0; s < sessions.size(); ++s) {
    const TpccSession& ses = sessions[s];
    std::vector<uint8_t> committed = ses.fold_committed;
    for (uint64_t r = 0; r < n; ++r) want[r] += ses.fold_add[r];
    for (const TailTxn& t : ses.tail) {
      if (t.serial > prefix[s]) continue;
      committed[t.plan] = 1;
      for (const auto& [row, d] : plans[s][t.plan].adds) want[row] += d;
    }
    for (uint32_t p = 0; p < plans[s].size(); ++p) {
      for (const auto& w : plans[s][p].writes) {
        written[w.first] = 1;
        if (committed[p]) cands.push_back(w);
      }
    }
  }
  std::sort(cands.begin(), cands.end());
  uint64_t bad = 0;
  auto report = [&](uint64_t row, const std::string& expect) {
    if (bad++ < 5) {
      out->Fail(std::string(what) + " row " + std::to_string(row) + " = " +
                std::to_string(got[row]) + ", model " + expect);
    }
  };
  for (uint64_t r = 0; r < n; ++r) {
    if (!written[r]) {
      if (got[r] != want[r]) report(r, std::to_string(want[r]));
      continue;
    }
    const auto lo = std::lower_bound(cands.begin(), cands.end(),
                                     std::make_pair(r, INT64_MIN));
    if (lo == cands.end() || lo->first != r) {
      if (got[r] != baseline[r]) report(r, std::to_string(baseline[r]));
      continue;
    }
    bool match = false;
    for (auto it = lo; it != cands.end() && it->first == r; ++it) {
      match = match || it->second == got[r];
    }
    if (!match) report(r, "one committed write");
  }
}

cpr::Status Dump(uint16_t port, const Rows& rows, std::vector<int64_t>* out) {
  CprClient::Options o;
  o.port = port;
  o.track_replay = false;
  CprClient c(o);
  cpr::certify::StateDump d;
  cpr::Status st = c.Connect();
  if (st.ok()) st = c.DumpState(&d);
  if (st.ok()) *out = Flatten(d, rows);
  return st;
}

struct Store {
  std::unique_ptr<cpr::txdb::TxDbBackend> backend;
  std::unique_ptr<cpr::workloads::TpccWorkload> tpcc;
  std::unique_ptr<cpr::server::KvServer> server;
  uint16_t port = 0;

  // Builds the backend and declares (and loads) the TPC-C tables.
  void Build(const std::string& dir) {
    backend = std::make_unique<cpr::txdb::TxDbBackend>(BackendOptions(dir));
    tpcc = std::make_unique<cpr::workloads::TpccWorkload>(&backend->db(),
                                                          TpccMakeUp());
  }
  cpr::Status Serve() {
    server = std::make_unique<cpr::server::KvServer>(
        backend.get(), BaseServerOptions(kCommitMs));
    const cpr::Status st = server->Start();
    port = server->port();
    return st;
  }
  void Stop() {
    if (server) server->Stop();
    server.reset();
    tpcc.reset();
    backend.reset();
  }
};

}  // namespace

int RunTpcc(const Args& args, RunResult* out) {
  // -- Setup, kSetups times; the median is setup_s and the last one serves.
  Store store;
  std::vector<double> setup_s;
  std::string dir;
  for (int rep = 0; rep < kSetups; ++rep) {
    dir = args.dir + "/store-" + std::to_string(rep);
    const uint64_t t0 = NowNs();
    store.Build(dir);
    cpr::Status st = store.Serve();
    if (st.ok()) {
      CprClient::Options o;
      o.port = store.port;
      o.track_replay = false;
      CprClient c(o);
      st = c.Connect();
      if (st.ok()) st = c.Checkpoint();
    }
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

  const Rows rows = LayoutOf(store.backend->db());
  std::vector<int64_t> baseline;
  cpr::Status st = Dump(store.port, rows, &baseline);
  if (!st.ok()) {
    out->Fail("baseline dump: " + st.message());
    store.Stop();
    return 1;
  }
  // Transactions, pre-generated from the seed in one thread so the order
  // slots they claim are deterministic.
  std::vector<std::vector<Plan>> plans(kSessions);
  {
    cpr::txdb::Transaction txn;
    for (uint32_t s = 0; s < kSessions; ++s) {
      cpr::Rng rng(args.seed * 7919 + s + 1);
      for (uint32_t i = 0; i < kPlansPerSession; ++i) {
        if (rng.Uniform(100) >= kPaymentPct) {
          store.tpcc->MakeNewOrder(rng, &txn);
        } else {
          store.tpcc->MakePayment(rng, &txn);
        }
        plans[s].push_back(ToPlan(txn, store.backend->db(), rows));
      }
    }
  }

  Control ctl;
  Timeline tl;
  tl.slices = args.seconds;
  tl.trace = args.trace;
  std::vector<TpccSession> sessions(kSessions);
  std::vector<std::vector<Slice>> slices(kSessions,
                                         std::vector<Slice>(tl.slices));
  std::vector<ClientLayer> client_layer(kSessions);
  std::vector<SpanLog> span_logs(kSessions);
  std::vector<net::Request> sample;
  for (uint32_t s = 0; s < kSessions; ++s) {
    sessions[s].plans = &plans[s];
    sessions[s].fold_add.assign(rows.total, 0);
    sessions[s].fold_committed.assign(plans[s].size(), 0);
    sessions[s].tl = &tl;
  }
  sessions[0].sample = args.trace ? &sample : nullptr;

  CprClient::Options copt;
  copt.port = store.port;
  copt.track_replay = false;
  CprClient control(copt);
  if (!(st = control.Connect()).ok()) {
    out->Fail("control connect: " + st.message());
    store.Stop();
    return 1;
  }
  constexpr uint64_t kWarmupNs = 1'000'000'000;
  tl.start_ns = NowNs() + kWarmupNs;
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      RunSession(sessions[i], copt, ctl, tl, kWindow, kTailTxns, slices[i],
                 client_layer[i], span_logs[i], i + 1);
    });
  }

  LayerInputs layers;
  KvConfig probe_kv;
  KvConfigFor("kv_mem", &probe_kv);
  layers.kv = &probe_kv;
  layers.sessions = kSessions + 1;
  layers.round_is_txdb = true;
  auto covered = [&] {
    for (const TpccSession& s : sessions) {
      uint64_t point = 0;
      if (s.fold > 0 &&
          (!store.backend->DurableCommitPoint(s.guid, &point).ok() ||
           point < s.fold)) {
        return false;
      }
    }
    return true;
  };
  bool ok = MeasureAndCrash(tl, ctl, kSessions, *store.backend, control, 0,
                            covered, args.trace ? dir : "", &layers, out);
  for (auto& t : threads) t.join();
  for (TpccSession& s : sessions) {
    for (const std::string& e : s.errors) out->Fail(e);
    layers.txn_committed += s.committed;
    layers.txn_conflicts += s.conflicts;
  }
  const SliceStats ss = Summarize(slices, tl);
  out->attempted = ss.attempted;
  out->failed = ss.failed;
  layers.ops_untraced = ss.ops_per_s_untraced;
  layers.ops_traced = ss.ops_per_s_traced;
  for (const ClientLayer& cl : client_layer) layers.client.Merge(cl);

  // Quiesced pre-crash state: every committed transaction applied.
  const std::vector<uint64_t> everything(kSessions, ~uint64_t{0});
  if (ok) {
    std::vector<int64_t> got;
    st = Dump(store.port, rows, &got);
    if (!st.ok()) {
      out->Fail("pre-crash dump: " + st.message());
      ok = false;
    } else {
      CheckState(got, baseline, sessions, plans, everything, "pre-crash",
                 out);
    }
  }
  store.Stop();
  ThawPersistence();
  if (!ok) return 1;

  const double recover_s = TimedRecoveries(
      dir, args.dir,
      [&](const std::string& rdir) {
        store.Build(rdir);
        return store.backend->Recover();
      },
      [&] { store.Stop(); }, out);
  if (recover_s < 0 || !(st = store.Serve()).ok()) {
    if (!st.ok()) out->Fail("restart: " + st.message());
    store.Stop();
    return 1;
  }

  // Reconnect every session: HELLO reports R.
  std::vector<uint64_t> recovered(kSessions, 0);
  for (uint32_t i = 0; i < kSessions; ++i) {
    CprClient::Options o = copt;
    o.port = store.port;
    o.guid = sessions[i].guid;
    CprClient c(o);
    if (!(st = c.Connect()).ok()) {
      out->Fail("reconnect session " + std::to_string(i) + ": " +
                st.message());
      store.Stop();
      return 1;
    }
    recovered[i] = c.recovered_serial();
    c.Close();
    const TpccSession& s = sessions[i];
    const std::string who = "session " + std::to_string(i) + ": recovered " +
                            std::to_string(recovered[i]);
    if (recovered[i] < s.fold) {
      out->Fail(who + " < fold point " + std::to_string(s.fold));
    }
    if (recovered[i] < s.commit_point) {
      out->Fail(who + " < commit point " + std::to_string(s.commit_point));
    }
    if (recovered[i] > s.serial) {
      out->Fail(who + " > last issued " + std::to_string(s.serial));
    }
  }
  if (args.corrupt == Corrupt::kTpccLostAdd) {
    // Take back one committed delta of session 0.
    for (uint32_t p = 0; p < plans[0].size(); ++p) {
      if (!sessions[0].fold_committed[p]) continue;
      for (const net::TxnWireOp& op : plans[0][p].ops) {
        if (op.kind != net::TxnOpKind::kAdd) continue;
        net::TxnWireOp undo = op;
        undo.delta = -op.delta;
        CprClient::Options o = copt;
        o.port = store.port;
        CprClient c(o);
        if (c.Connect().ok()) c.Txn({undo});
        break;
      }
      break;
    }
  }
  std::vector<int64_t> got;
  st = Dump(store.port, rows, &got);
  if (!st.ok()) {
    out->Fail("recovered dump: " + st.message());
  } else {
    CheckState(got, baseline, sessions, plans, recovered, "recovered", out);
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
