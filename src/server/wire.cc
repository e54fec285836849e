#include "server/wire.h"

#include <cstring>

#include "util/pod.h"

namespace cpr::net {
namespace {

// Patches the frame length header once the payload is fully appended.
class FrameWriter {
 public:
  explicit FrameWriter(std::vector<char>* out) : out_(out), start_(out->size()) {
    PutPod<uint32_t>(out_, 0);
  }
  ~FrameWriter() {
    const uint32_t len =
        static_cast<uint32_t>(out_->size() - start_ - kFrameHeaderBytes);
    std::memcpy(out_->data() + start_, &len, sizeof(len));
  }

 private:
  std::vector<char>* out_;
  size_t start_;
};

// Appends the TXN op-list wire form (count + ops) for ops[begin, end).
void AppendTxnOps(std::vector<char>* out, const std::vector<TxnWireOp>& ops,
                  size_t begin, size_t end) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(end - begin));
  for (size_t i = begin; i < end; ++i) {
    const TxnWireOp& top = ops[i];
    PutPod<uint8_t>(out, static_cast<uint8_t>(top.kind));
    PutPod<uint32_t>(out, top.table);
    PutPod<uint64_t>(out, top.row);
    switch (top.kind) {
      case TxnOpKind::kRead:
        break;
      case TxnOpKind::kWrite:
        PutPod<uint32_t>(out, static_cast<uint32_t>(top.value.size()));
        out->insert(out->end(), top.value.begin(), top.value.end());
        break;
      case TxnOpKind::kAdd:
        PutPod<int64_t>(out, top.delta);
        break;
    }
  }
}

// Decodes a TXN op-list (count + ops) with per-frame validation.
bool ReadTxnOps(PodReader* r, std::vector<TxnWireOp>* out) {
  uint32_t n_ops = 0;
  if (!r->Pod(&n_ops)) return false;
  if (n_ops == 0 || n_ops > kMaxTxnOps) return false;
  out->resize(n_ops);
  for (TxnWireOp& top : *out) {
    uint8_t kind = 0;
    if (!r->Pod(&kind) || kind > kMaxTxnOpKind) return false;
    top.kind = static_cast<TxnOpKind>(kind);
    if (!r->Pod(&top.table) || !r->Pod(&top.row)) return false;
    switch (top.kind) {
      case TxnOpKind::kRead:
        break;
      case TxnOpKind::kWrite: {
        uint32_t len = 0;
        if (!r->Pod(&len)) return false;
        if (len == 0 || !r->Bytes(len, &top.value)) return false;
        break;
      }
      case TxnOpKind::kAdd:
        if (!r->Pod(&top.delta)) return false;
        break;
    }
  }
  return true;
}

// True iff `op` may appear inside a BATCH frame. Data ops only: everything
// else (session control, checkpoints, sessionless ops, nested BATCH) has
// framing or ordering semantics that batching would obscure.
bool IsBatchableOp(Op op) {
  switch (op) {
    case Op::kRead:
    case Op::kUpsert:
    case Op::kRmw:
    case Op::kDelete:
      return true;
    default:
      return false;
  }
}

// Decodes a BATCH sub-message list: u32 n, then n × (u32 len, len-byte
// payload). `decode_sub` decodes one sub-payload into the i-th output slot.
// Rejects nested BATCH by peeking the sub-payload's op byte BEFORE recursing,
// so a hostile frame cannot nest decoders arbitrarily deep.
template <typename Msg, typename DecodeSub>
bool ReadBatch(PodReader* r, std::vector<Msg>* out, DecodeSub decode_sub) {
  uint32_t n = 0;
  if (!r->Pod(&n)) return false;
  if (n == 0 || n > kMaxBatchOps) return false;
  out->resize(n);
  for (Msg& sub : *out) {
    uint32_t len = 0;
    if (!r->Pod(&len)) return false;
    std::string_view sub_payload;
    if (len == 0 || !r->View(len, &sub_payload)) return false;
    if (static_cast<uint8_t>(sub_payload[0]) ==
        static_cast<uint8_t>(Op::kBatch)) {
      return false;  // nested BATCH
    }
    if (!decode_sub(sub_payload, &sub)) return false;
    if (!IsBatchableOp(sub.op)) return false;
  }
  return true;
}

}  // namespace

FrameResult TryExtractFrame(const char* data, size_t size,
                            std::string_view* payload, size_t* consumed) {
  if (size < kFrameHeaderBytes) return FrameResult::kNeedMore;
  uint32_t len = 0;
  std::memcpy(&len, data, sizeof(len));
  if (len == 0 || len > kMaxFrameBytes) return FrameResult::kBadFrame;
  if (size < kFrameHeaderBytes + len) return FrameResult::kNeedMore;
  *payload = std::string_view(data + kFrameHeaderBytes, len);
  *consumed = kFrameHeaderBytes + len;
  return FrameResult::kFrame;
}

void EncodeRequest(const Request& req, std::vector<char>* out) {
  FrameWriter frame(out);
  PutPod<uint8_t>(out, static_cast<uint8_t>(req.op));
  PutPod<uint32_t>(out, req.seq);
  switch (req.op) {
    case Op::kHello:
      PutPod<uint64_t>(out, req.guid);
      PutPod<uint8_t>(out, static_cast<uint8_t>(req.ack_mode));
      break;
    case Op::kRead:
    case Op::kDelete:
      PutPod<uint64_t>(out, req.key);
      break;
    case Op::kUpsert:
      PutPod<uint64_t>(out, req.key);
      out->insert(out->end(), req.value.begin(), req.value.end());
      break;
    case Op::kRmw:
      PutPod<uint64_t>(out, req.key);
      PutPod<int64_t>(out, req.delta);
      break;
    case Op::kCheckpoint:
      PutPod<uint8_t>(out, req.variant);
      PutPod<uint8_t>(out, req.include_index ? 1 : 0);
      break;
    case Op::kCommitPoint:
      break;
    case Op::kStats:
      PutPod<uint8_t>(out, static_cast<uint8_t>(req.stats_kind));
      break;
    case Op::kTxn:
      AppendTxnOps(out, req.txn_ops, 0, req.txn_ops.size());
      break;
    case Op::kTxnChunk:
      PutPod<uint32_t>(out, req.chunk_index);
      AppendTxnOps(out, req.txn_ops, 0, req.txn_ops.size());
      break;
    case Op::kDump:
      PutPod<uint32_t>(out, req.table);
      PutPod<uint64_t>(out, req.start_row);
      PutPod<uint32_t>(out, req.max_rows);
      break;
    case Op::kProvider:
      PutPod<uint8_t>(out, static_cast<uint8_t>(req.provider_action));
      PutPod<uint8_t>(out, static_cast<uint8_t>(req.provider_kind));
      break;
    case Op::kBatch:
      // Each sub-request travels as u32 len + payload — byte-identical to a
      // standalone frame, so recursing appends exactly the sub-message form
      // and the outer FrameWriter's length patch covers everything.
      PutPod<uint32_t>(out, static_cast<uint32_t>(req.batch.size()));
      for (const Request& sub : req.batch) EncodeRequest(sub, out);
      break;
  }
}

void EncodeTxnChunked(const Request& req, std::vector<char>* out) {
  if (req.txn_ops.size() <= kMaxTxnOps) {
    EncodeRequest(req, out);
    return;
  }
  // Emit full TXN_CHUNK frames while more than one frame's worth remains,
  // so the final TXN frame always carries 1..kMaxTxnOps ops.
  size_t pos = 0;
  uint32_t chunk_index = 0;
  while (req.txn_ops.size() - pos > kMaxTxnOps) {
    FrameWriter frame(out);
    PutPod<uint8_t>(out, static_cast<uint8_t>(Op::kTxnChunk));
    PutPod<uint32_t>(out, req.seq);
    PutPod<uint32_t>(out, chunk_index++);
    AppendTxnOps(out, req.txn_ops, pos, pos + kMaxTxnOps);
    pos += kMaxTxnOps;
  }
  FrameWriter frame(out);
  PutPod<uint8_t>(out, static_cast<uint8_t>(Op::kTxn));
  PutPod<uint32_t>(out, req.seq);
  AppendTxnOps(out, req.txn_ops, pos, req.txn_ops.size());
}

size_t BeginBatchResponse(uint32_t seq, uint64_t max_serial, uint32_t n,
                          std::vector<char>* out) {
  const size_t start = out->size();
  PutPod<uint32_t>(out, 0);  // patched by EndBatchResponse
  PutPod<uint8_t>(out, static_cast<uint8_t>(Op::kBatch));
  PutPod<uint8_t>(out, static_cast<uint8_t>(WireStatus::kOk));
  PutPod<uint32_t>(out, seq);
  PutPod<uint64_t>(out, max_serial);
  PutPod<uint32_t>(out, n);
  return start;
}

void EndBatchResponse(size_t start, std::vector<char>* out) {
  const uint32_t len =
      static_cast<uint32_t>(out->size() - start - kFrameHeaderBytes);
  std::memcpy(out->data() + start, &len, sizeof(len));
}

void EncodeResponse(const Response& resp, std::vector<char>* out) {
  FrameWriter frame(out);
  PutPod<uint8_t>(out, static_cast<uint8_t>(resp.op));
  PutPod<uint8_t>(out, static_cast<uint8_t>(resp.status));
  PutPod<uint32_t>(out, resp.seq);
  PutPod<uint64_t>(out, resp.serial);
  switch (resp.op) {
    case Op::kHello:
      PutPod<uint64_t>(out, resp.guid);
      PutPod<uint64_t>(out, resp.recovered_serial);
      PutPod<uint32_t>(out, resp.value_size);
      break;
    case Op::kRead:
      if (resp.status == WireStatus::kOk) {
        out->insert(out->end(), resp.value.begin(), resp.value.end());
      }
      break;
    case Op::kUpsert:
    case Op::kRmw:
    case Op::kDelete:
      break;
    case Op::kCheckpoint:
      PutPod<uint64_t>(out, resp.token);
      PutPod<uint64_t>(out, resp.commit_serial);
      break;
    case Op::kCommitPoint:
      PutPod<uint64_t>(out, resp.commit_serial);
      break;
    case Op::kStats:
      // Explicit size (not frame-implied): the payload may be empty, and a
      // future version may append fields after the bytes.
      PutPod<uint32_t>(out, static_cast<uint32_t>(resp.stats.size()));
      out->insert(out->end(), resp.stats.begin(), resp.stats.end());
      break;
    case Op::kTxn:
      // Read results travel only on commit; an aborted or rejected
      // transaction has no observable effects to report.
      if (resp.status == WireStatus::kOk) {
        PutPod<uint32_t>(out, static_cast<uint32_t>(resp.txn_reads.size()));
        for (const std::vector<char>& read : resp.txn_reads) {
          PutPod<uint32_t>(out, static_cast<uint32_t>(read.size()));
          out->insert(out->end(), read.begin(), read.end());
        }
      }
      break;
    case Op::kTxnChunk:
      // Never a response op: chunk errors answer as op TXN. Empty body.
      break;
    case Op::kDump:
      if (resp.status == WireStatus::kOk) {
        PutPod<uint32_t>(out, resp.value_size);
        PutPod<uint64_t>(out, resp.dump_rows_total);
        PutPod<uint64_t>(out, resp.dump_next_row);
        PutPod<uint32_t>(out, static_cast<uint32_t>(resp.dump_rows.size()));
        for (const DumpRow& row : resp.dump_rows) {
          PutPod<uint64_t>(out, row.row);
          out->insert(out->end(), row.value.begin(), row.value.end());
        }
      }
      break;
    case Op::kProvider:
      PutPod<uint8_t>(out, static_cast<uint8_t>(resp.provider_kind));
      PutPod<uint8_t>(out, resp.provider_pending ? 1 : 0);
      PutPod<uint64_t>(out, resp.provider_switches);
      PutPod<uint64_t>(out, resp.provider_last_boundary);
      break;
    case Op::kBatch:
      // Sub-responses travel only on OK, like TXN reads: a batch-level
      // failure (BAD_REQUEST echo) has no per-op results to report.
      if (resp.status == WireStatus::kOk) {
        PutPod<uint32_t>(out, static_cast<uint32_t>(resp.batch.size()));
        for (const Response& sub : resp.batch) EncodeResponse(sub, out);
      }
      break;
  }
}

bool DecodeRequest(std::string_view payload, Request* out) {
  *out = Request{};  // decoders fully overwrite: no residue on reused structs
  PodReader r(payload);
  uint8_t op = 0;
  if (!r.Pod(&op) || !r.Pod(&out->seq)) return false;
  if (op < static_cast<uint8_t>(Op::kHello) ||
      op > static_cast<uint8_t>(Op::kBatch)) {
    return false;
  }
  out->op = static_cast<Op>(op);
  switch (out->op) {
    case Op::kHello: {
      uint8_t mode = 0;
      if (!r.Pod(&out->guid) || !r.Pod(&mode)) return false;
      if (mode > static_cast<uint8_t>(AckMode::kDurable)) return false;
      out->ack_mode = static_cast<AckMode>(mode);
      break;
    }
    case Op::kRead:
    case Op::kDelete:
      if (!r.Pod(&out->key)) return false;
      break;
    case Op::kUpsert:
      if (!r.Pod(&out->key)) return false;
      r.Rest(&out->value);  // length validated against value_size by server
      if (out->value.empty()) return false;
      break;
    case Op::kRmw:
      if (!r.Pod(&out->key) || !r.Pod(&out->delta)) return false;
      break;
    case Op::kCheckpoint: {
      uint8_t include = 0;
      if (!r.Pod(&out->variant) || !r.Pod(&include)) return false;
      if (out->variant > 1) return false;
      out->include_index = include != 0;
      break;
    }
    case Op::kCommitPoint:
      break;
    case Op::kStats: {
      uint8_t kind = 0;
      if (!r.Pod(&kind) || kind > kMaxStatsKind) return false;
      out->stats_kind = static_cast<StatsKind>(kind);
      break;
    }
    case Op::kTxn:
      if (!ReadTxnOps(&r, &out->txn_ops)) return false;
      break;
    case Op::kTxnChunk:
      if (!r.Pod(&out->chunk_index)) return false;
      if (!ReadTxnOps(&r, &out->txn_ops)) return false;
      break;
    case Op::kDump:
      if (!r.Pod(&out->table) || !r.Pod(&out->start_row) ||
          !r.Pod(&out->max_rows)) {
        return false;
      }
      if (out->max_rows == 0) return false;
      break;
    case Op::kProvider: {
      uint8_t action = 0;
      uint8_t kind = 0;
      if (!r.Pod(&action) || !r.Pod(&kind)) return false;
      if (action > kMaxProviderAction ||
          kind > durability::kMaxProviderKind) {
        return false;
      }
      out->provider_action = static_cast<ProviderAction>(action);
      out->provider_kind = static_cast<durability::ProviderKind>(kind);
      break;
    }
    case Op::kBatch:
      if (!ReadBatch(&r, &out->batch, DecodeRequest)) return false;
      break;
  }
  return r.AtEnd();
}

bool DecodeResponse(std::string_view payload, Response* out) {
  *out = Response{};
  PodReader r(payload);
  uint8_t op = 0;
  uint8_t status = 0;
  if (!r.Pod(&op) || !r.Pod(&status) || !r.Pod(&out->seq) ||
      !r.Pod(&out->serial)) {
    return false;
  }
  if (op < static_cast<uint8_t>(Op::kHello) ||
      op > static_cast<uint8_t>(Op::kBatch) ||
      op == static_cast<uint8_t>(Op::kTxnChunk) ||  // never a response op
      status > kMaxWireStatus) {
    return false;
  }
  out->op = static_cast<Op>(op);
  out->status = static_cast<WireStatus>(status);
  switch (out->op) {
    case Op::kHello:
      if (!r.Pod(&out->guid) || !r.Pod(&out->recovered_serial) ||
          !r.Pod(&out->value_size)) {
        return false;
      }
      break;
    case Op::kRead:
      if (out->status == WireStatus::kOk) {
        r.Rest(&out->value);
        if (out->value.empty()) return false;
      }
      break;
    case Op::kUpsert:
    case Op::kRmw:
    case Op::kDelete:
      break;
    case Op::kCheckpoint:
      if (!r.Pod(&out->token) || !r.Pod(&out->commit_serial)) return false;
      break;
    case Op::kCommitPoint:
      if (!r.Pod(&out->commit_serial)) return false;
      break;
    case Op::kStats: {
      uint32_t size = 0;
      if (!r.Pod(&size)) return false;
      if (!r.Bytes(size, &out->stats)) return false;
      break;
    }
    case Op::kTxn:
      if (out->status == WireStatus::kOk) {
        uint32_t n_reads = 0;
        if (!r.Pod(&n_reads)) return false;
        if (n_reads > kMaxTxnOps) return false;
        out->txn_reads.resize(n_reads);
        for (std::vector<char>& read : out->txn_reads) {
          uint32_t len = 0;
          if (!r.Pod(&len)) return false;
          if (!r.Bytes(len, &read)) return false;
        }
      }
      break;
    case Op::kTxnChunk:
      return false;  // rejected above; keeps the switch exhaustive
    case Op::kDump:
      if (out->status == WireStatus::kOk) {
        uint32_t n_rows = 0;
        if (!r.Pod(&out->value_size) || !r.Pod(&out->dump_rows_total) ||
            !r.Pod(&out->dump_next_row) || !r.Pod(&n_rows)) {
          return false;
        }
        if (out->value_size == 0 || out->value_size > kMaxFrameBytes) {
          return false;
        }
        // A row costs at least 8 header bytes; cap before resize so a
        // hostile count cannot balloon memory.
        if (n_rows > kMaxFrameBytes / 8) return false;
        out->dump_rows.resize(n_rows);
        for (DumpRow& row : out->dump_rows) {
          if (!r.Pod(&row.row)) return false;
          if (!r.Bytes(out->value_size, &row.value)) return false;
        }
      }
      break;
    case Op::kProvider: {
      uint8_t kind = 0;
      uint8_t pending = 0;
      if (!r.Pod(&kind) || !r.Pod(&pending) ||
          !r.Pod(&out->provider_switches) ||
          !r.Pod(&out->provider_last_boundary)) {
        return false;
      }
      if (kind > durability::kMaxProviderKind || pending > 1) return false;
      out->provider_kind = static_cast<durability::ProviderKind>(kind);
      out->provider_pending = pending != 0;
      break;
    }
    case Op::kBatch:
      if (out->status == WireStatus::kOk) {
        if (!ReadBatch(&r, &out->batch, DecodeResponse)) return false;
      }
      break;
  }
  return r.AtEnd();
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kHello: return "HELLO";
    case Op::kRead: return "READ";
    case Op::kUpsert: return "UPSERT";
    case Op::kRmw: return "RMW";
    case Op::kDelete: return "DELETE";
    case Op::kCheckpoint: return "CHECKPOINT";
    case Op::kCommitPoint: return "COMMIT_POINT";
    case Op::kStats: return "STATS";
    case Op::kTxn: return "TXN";
    case Op::kTxnChunk: return "TXN_CHUNK";
    case Op::kDump: return "DUMP";
    case Op::kProvider: return "PROVIDER";
    case Op::kBatch: return "BATCH";
  }
  return "?";
}

const char* StatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kNotFound: return "NOT_FOUND";
    case WireStatus::kBadRequest: return "BAD_REQUEST";
    case WireStatus::kNoSession: return "NO_SESSION";
    case WireStatus::kBusy: return "BUSY";
    case WireStatus::kError: return "ERROR";
    case WireStatus::kNotDurable: return "NOT_DURABLE";
    case WireStatus::kTxnConflict: return "TXN_CONFLICT";
    case WireStatus::kRecovering: return "RECOVERING";
  }
  return "?";
}

}  // namespace cpr::net
