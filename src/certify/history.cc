#include "certify/history.h"

#include "io/blob.h"
#include "util/pod.h"

namespace cpr::certify {
namespace {

void AppendBytes(std::vector<char>* out, const std::vector<char>& bytes) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(bytes.size()));
  out->insert(out->end(), bytes.begin(), bytes.end());
}

// Reads the AppendBytes form: u32 length, then the bytes.
bool ReadBytes(PodReader* r, std::vector<char>* out) {
  uint32_t len = 0;
  return r->Pod(&len) && r->Bytes(len, out);
}

void AppendEventOp(std::vector<char>* out, const EventOp& op) {
  PutPod<uint64_t>(out, op.serial);
  PutPod<uint8_t>(out, static_cast<uint8_t>(op.op));
  PutPod<uint8_t>(out, static_cast<uint8_t>(op.status));
  PutPod<uint64_t>(out, op.key);
  PutPod<int64_t>(out, op.delta);
  AppendBytes(out, op.value);
  PutPod<uint32_t>(out, static_cast<uint32_t>(op.txn_ops.size()));
  for (const net::TxnWireOp& top : op.txn_ops) {
    PutPod<uint8_t>(out, static_cast<uint8_t>(top.kind));
    PutPod<uint32_t>(out, top.table);
    PutPod<uint64_t>(out, top.row);
    PutPod<int64_t>(out, top.delta);
    AppendBytes(out, top.value);
  }
  PutPod<uint32_t>(out, static_cast<uint32_t>(op.txn_reads.size()));
  for (const std::vector<char>& read : op.txn_reads) {
    AppendBytes(out, read);
  }
  PutPod<uint8_t>(out, op.resolved_by_recovery ? 1 : 0);
}

bool ReadEventOp(PodReader* r, EventOp* op) {
  uint8_t op_byte = 0;
  uint8_t status_byte = 0;
  if (!r->Pod(&op->serial) || !r->Pod(&op_byte) || !r->Pod(&status_byte) ||
      !r->Pod(&op->key) || !r->Pod(&op->delta)) {
    return false;
  }
  if (op_byte < static_cast<uint8_t>(net::Op::kHello) ||
      op_byte > static_cast<uint8_t>(net::Op::kDump) ||
      status_byte > net::kMaxWireStatus) {
    return false;
  }
  op->op = static_cast<net::Op>(op_byte);
  op->status = static_cast<net::WireStatus>(status_byte);
  if (!ReadBytes(r, &op->value)) return false;
  uint32_t n_ops = 0;
  if (!r->Pod(&n_ops)) return false;
  if (n_ops > net::kMaxTxnOpsLogical) return false;
  op->txn_ops.resize(n_ops);
  for (net::TxnWireOp& top : op->txn_ops) {
    uint8_t kind = 0;
    if (!r->Pod(&kind) || kind > net::kMaxTxnOpKind) return false;
    top.kind = static_cast<net::TxnOpKind>(kind);
    if (!r->Pod(&top.table) || !r->Pod(&top.row) || !r->Pod(&top.delta) ||
        !ReadBytes(r, &top.value)) {
      return false;
    }
  }
  uint32_t n_reads = 0;
  if (!r->Pod(&n_reads)) return false;
  if (n_reads > net::kMaxTxnOpsLogical) return false;
  op->txn_reads.resize(n_reads);
  for (std::vector<char>& read : op->txn_reads) {
    if (!ReadBytes(r, &read)) return false;
  }
  uint8_t resolved = 0;
  if (!r->Pod(&resolved) || resolved > 1) return false;
  op->resolved_by_recovery = resolved != 0;
  return true;
}

}  // namespace

void HistoryRecorder::OnHello(uint64_t guid, net::AckMode mode,
                              uint64_t recovered_serial) {
  history_.guid = guid;
  history_.ack_mode = mode;
  Event e;
  e.kind = Event::Kind::kHello;
  e.recovered_serial = recovered_serial;
  history_.events.push_back(std::move(e));
}

void HistoryRecorder::OnOp(const EventOp& op) {
  Event e;
  e.kind = Event::Kind::kOp;
  e.op = op;
  history_.events.push_back(std::move(e));
}

void HistoryRecorder::OnDurable(uint64_t serial) {
  Event e;
  e.kind = Event::Kind::kDurable;
  e.durable_serial = serial;
  history_.events.push_back(std::move(e));
}

Status HistoryRecorder::WriteFile(const std::string& path) const {
  std::vector<char> payload;
  PutPod<uint64_t>(&payload, history_.guid);
  PutPod<uint8_t>(&payload, static_cast<uint8_t>(history_.ack_mode));
  PutPod<uint32_t>(&payload, static_cast<uint32_t>(history_.events.size()));
  for (const Event& e : history_.events) {
    PutPod<uint8_t>(&payload, static_cast<uint8_t>(e.kind));
    switch (e.kind) {
      case Event::Kind::kHello:
        PutPod<uint64_t>(&payload, e.recovered_serial);
        break;
      case Event::Kind::kOp:
        AppendEventOp(&payload, e.op);
        break;
      case Event::Kind::kDurable:
        PutPod<uint64_t>(&payload, e.durable_serial);
        break;
    }
  }
  return WriteCheckedBlob(path, kHistoryMagic, payload, /*sync=*/false);
}

Status ReadHistoryFile(const std::string& path, History* out) {
  *out = History{};
  std::vector<char> payload;
  Status st = ReadCheckedBlob(path, kHistoryMagic, &payload);
  if (!st.ok()) return st;
  PodReader r(payload);
  uint8_t mode = 0;
  uint32_t n_events = 0;
  if (!r.Pod(&out->guid) || !r.Pod(&mode) || !r.Pod(&n_events) ||
      mode > static_cast<uint8_t>(net::AckMode::kDurable)) {
    return Status::Corruption("bad history header");
  }
  out->ack_mode = static_cast<net::AckMode>(mode);
  out->events.resize(n_events);
  for (Event& e : out->events) {
    uint8_t kind = 0;
    if (!r.Pod(&kind) || kind > static_cast<uint8_t>(Event::Kind::kDurable)) {
      return Status::Corruption("bad history event kind");
    }
    e.kind = static_cast<Event::Kind>(kind);
    bool ok = true;
    switch (e.kind) {
      case Event::Kind::kHello:
        ok = r.Pod(&e.recovered_serial);
        break;
      case Event::Kind::kOp:
        ok = ReadEventOp(&r, &e.op);
        break;
      case Event::Kind::kDurable:
        ok = r.Pod(&e.durable_serial);
        break;
    }
    if (!ok) return Status::Corruption("truncated history event");
  }
  if (!r.AtEnd()) return Status::Corruption("trailing history bytes");
  return Status::Ok();
}

Status WriteStateDumpFile(const std::string& path, const StateDump& dump) {
  std::vector<char> payload;
  PutPod<uint32_t>(&payload, static_cast<uint32_t>(dump.tables.size()));
  for (const StateDump::TableDump& t : dump.tables) {
    PutPod<uint32_t>(&payload, t.value_size);
    PutPod<uint64_t>(&payload, t.rows_total);
    PutPod<uint64_t>(&payload, static_cast<uint64_t>(t.rows.size()));
    for (const net::DumpRow& row : t.rows) {
      PutPod<uint64_t>(&payload, row.row);
      payload.insert(payload.end(), row.value.begin(), row.value.end());
    }
  }
  return WriteCheckedBlob(path, kStateDumpMagic, payload, /*sync=*/false);
}

Status ReadStateDumpFile(const std::string& path, StateDump* out) {
  *out = StateDump{};
  std::vector<char> payload;
  Status st = ReadCheckedBlob(path, kStateDumpMagic, &payload);
  if (!st.ok()) return st;
  PodReader r(payload);
  uint32_t n_tables = 0;
  if (!r.Pod(&n_tables)) return Status::Corruption("bad dump header");
  out->tables.resize(n_tables);
  for (StateDump::TableDump& t : out->tables) {
    uint64_t n_rows = 0;
    if (!r.Pod(&t.value_size) || !r.Pod(&t.rows_total) || !r.Pod(&n_rows) ||
        t.value_size == 0 || n_rows > t.rows_total) {
      return Status::Corruption("bad dump table header");
    }
    t.rows.resize(n_rows);
    for (net::DumpRow& row : t.rows) {
      if (!r.Pod(&row.row)) return Status::Corruption("truncated dump row");
      if (!r.Bytes(t.value_size, &row.value)) {
        return Status::Corruption("truncated dump value");
      }
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing dump bytes");
  return Status::Ok();
}

}  // namespace cpr::certify
