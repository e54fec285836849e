#include "certify/checker.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>

namespace cpr::certify {
namespace {

int64_t First8(const std::vector<char>& v) {
  int64_t x = 0;
  std::memcpy(&x, v.data(), std::min<size_t>(8, v.size()));
  return x;
}

bool TailEquals(const std::vector<char>& a, const std::vector<char>& b) {
  if (a.size() != b.size()) return false;
  if (a.size() <= 8) return true;  // whole value lives in the accumulator
  return std::memcmp(a.data() + 8, b.data() + 8, a.size() - 8) == 0;
}

// One committed effect on a row.
struct RowEffect {
  enum class Kind : uint8_t { kWrite, kAdd };
  Kind kind = Kind::kWrite;
  uint64_t guid = 0;
  uint64_t serial = 0;
  std::vector<char> value;  // kWrite payload (DELETE writes zeros)
  int64_t delta = 0;        // kAdd
  // Resolved-by-recovery effect whose application is unknowable: the op's
  // serial is committed, but its outcome could have branched (a TXN may
  // have hit a NO-WAIT conflict, a DELETE may have missed). Phase 2/3 must
  // accept both the applied and the not-applied world.
  bool maybe = false;
};

struct RowState {
  std::vector<RowEffect> effects;
  bool conflict_touched = false;  // a conflicted TXN targeted this row
};

// One committed read observation.
struct Observation {
  uint64_t guid = 0;
  uint64_t serial = 0;
  uint32_t table = 0;
  uint64_t row = 0;
  std::vector<char> value;
};

using RowKey = std::pair<uint32_t, uint64_t>;

class CheckerState {
 public:
  CheckerState(const StateDump& baseline, const StateDump& final_state)
      : baseline_(baseline), final_(final_state) {}

  std::vector<Violation> Run(const std::vector<History>& histories);

 private:
  void Report(Violation::Code code, uint64_t guid, uint64_t serial,
              uint32_t table, uint64_t row, std::string detail) {
    Violation v;
    v.code = code;
    v.guid = guid;
    v.serial = serial;
    v.table = table;
    v.row = row;
    v.detail = std::move(detail);
    out_.push_back(std::move(v));
  }

  bool CheckDumpShapes();
  void CheckSessionPrefix(const History& h);
  void CollectCommitted(const History& h);
  void ApplyCommittedOp(uint64_t guid, const EventOp& op);
  void CheckState();
  void CheckReads();

  const std::vector<char>* DumpValue(const StateDump& dump, uint32_t table,
                                     uint64_t row) const {
    const StateDump::TableDump& t = dump.tables[table];
    // Rows are sparse and ascending.
    auto it = std::lower_bound(
        t.rows.begin(), t.rows.end(), row,
        [](const net::DumpRow& r, uint64_t want) { return r.row < want; });
    if (it == t.rows.end() || it->row != row) return nullptr;
    return &it->value;
  }

  std::vector<char> BaseValue(uint32_t table, uint64_t row) const {
    const std::vector<char>* v = DumpValue(baseline_, table, row);
    if (v != nullptr) return *v;
    return std::vector<char>(baseline_.tables[table].value_size, 0);
  }

  std::vector<char> FinalValue(uint32_t table, uint64_t row) const {
    const std::vector<char>* v = DumpValue(final_, table, row);
    if (v != nullptr) return *v;
    return std::vector<char>(final_.tables[table].value_size, 0);
  }

  bool ValidRow(uint32_t table, uint64_t row) const {
    return table < baseline_.tables.size() &&
           row < baseline_.tables[table].rows_total;
  }

  const StateDump& baseline_;
  const StateDump& final_;
  std::vector<Violation> out_;
  std::map<RowKey, RowState> rows_;
  std::vector<Observation> observations_;
};

bool CheckerState::CheckDumpShapes() {
  if (baseline_.tables.empty() ||
      baseline_.tables.size() != final_.tables.size()) {
    Report(Violation::Code::kBadHistory, 0, 0, 0, 0,
           "baseline/final dump table counts differ or are empty");
    return false;
  }
  for (size_t t = 0; t < baseline_.tables.size(); ++t) {
    if (baseline_.tables[t].value_size != final_.tables[t].value_size ||
        baseline_.tables[t].rows_total != final_.tables[t].rows_total) {
      Report(Violation::Code::kBadHistory, 0, 0, static_cast<uint32_t>(t), 0,
             "baseline/final dump table shapes differ");
      return false;
    }
  }
  return true;
}

// Phase 1: per-session serial contiguity and durable-prefix closure.
void CheckerState::CheckSessionPrefix(const History& h) {
  if (h.events.empty() || h.events[0].kind != Event::Kind::kHello) {
    Report(Violation::Code::kBadHistory, h.guid, 0, 0, 0,
           "history does not start with HELLO");
    return;
  }
  bool first_hello = true;
  uint64_t expected = 0;
  uint64_t max_issued = 0;
  uint64_t cur_durable = 0;
  for (const Event& e : h.events) {
    switch (e.kind) {
      case Event::Kind::kHello: {
        const uint64_t r = e.recovered_serial;
        if (r < cur_durable) {
          std::ostringstream os;
          os << "reconnect resumed at serial " << r
             << " below notified durable point " << cur_durable;
          Report(Violation::Code::kLostDurable, h.guid, r, 0, 0, os.str());
        }
        if (first_hello) {
          // Resuming a pre-existing session: accept the server's serial.
          max_issued = std::max(max_issued, r);
          first_hello = false;
        } else if (r > max_issued) {
          Report(Violation::Code::kBadHistory, h.guid, r, 0, 0,
                 "server reported serials the session never issued");
        }
        expected = r + 1;
        break;
      }
      case Event::Kind::kOp: {
        const uint64_t s = e.op.serial;
        if (s != expected) {
          std::ostringstream os;
          os << "ack serial " << s << " where " << expected << " was expected";
          Report(s > expected ? Violation::Code::kSerialGap
                              : Violation::Code::kAckOrder,
                 h.guid, s, 0, 0, os.str());
        }
        expected = s + 1;
        max_issued = std::max(max_issued, s);
        break;
      }
      case Event::Kind::kDurable:
        if (e.durable_serial > max_issued) {
          Report(Violation::Code::kBadHistory, h.guid, e.durable_serial, 0, 0,
                 "durable notification above the highest issued serial");
        }
        cur_durable = std::max(cur_durable, e.durable_serial);
        break;
    }
  }
}

// Collects the committed prefix of one history into rows_/observations_.
// The last occurrence of a serial wins: replayed operations re-record under
// their original serials, and the replay's outcome is what the recovered
// server actually holds. Serials above the final incarnation's recovered
// point that were never replayed were legitimately lost (executed-mode
// acks); durable-mode losses were already flagged in phase 1.
void CheckerState::CollectCommitted(const History& h) {
  size_t n_hellos = 0;
  uint64_t final_recovered = 0;
  for (const Event& e : h.events) {
    if (e.kind == Event::Kind::kHello) {
      ++n_hellos;
      final_recovered = e.recovered_serial;
    }
  }
  if (n_hellos == 0) return;  // flagged as kBadHistory already
  const size_t final_segment = n_hellos - 1;

  std::map<uint64_t, std::pair<size_t, const EventOp*>> last;
  size_t seg = std::numeric_limits<size_t>::max();
  for (const Event& e : h.events) {
    if (e.kind == Event::Kind::kHello) {
      ++seg;
    } else if (e.kind == Event::Kind::kOp) {
      last[e.op.serial] = {seg, &e.op};
    }
  }
  for (const auto& [serial, where] : last) {
    const auto& [op_seg, op] = where;
    if (serial > final_recovered && op_seg != final_segment) continue;
    ApplyCommittedOp(h.guid, *op);
  }
}

void CheckerState::ApplyCommittedOp(uint64_t guid, const EventOp& op) {
  const auto add_effect = [&](uint32_t table, uint64_t row, RowEffect eff) {
    if (!ValidRow(table, row)) {
      Report(Violation::Code::kBadHistory, guid, op.serial, table, row,
             "committed op targets a row outside the dumped tables");
      return;
    }
    eff.guid = guid;
    eff.serial = op.serial;
    rows_[{table, row}].effects.push_back(std::move(eff));
  };
  const auto add_observation = [&](uint32_t table, uint64_t row,
                                   const std::vector<char>& value) {
    if (!ValidRow(table, row)) {
      Report(Violation::Code::kBadHistory, guid, op.serial, table, row,
             "committed read targets a row outside the dumped tables");
      return;
    }
    Observation o;
    o.guid = guid;
    o.serial = op.serial;
    o.table = table;
    o.row = row;
    o.value = value;
    observations_.push_back(std::move(o));
  };

  // Single-key ops address table 0; key K maps to row K % rows.
  const uint64_t kv_rows = baseline_.tables[0].rows_total;
  const uint64_t kv_row = kv_rows == 0 ? 0 : op.key % kv_rows;
  const uint32_t kv_size = baseline_.tables[0].value_size;

  switch (op.status) {
    case net::WireStatus::kOk:
    case net::WireStatus::kNotDurable:
      break;  // effectful (NOT_DURABLE executed on the then-live store; if
              // it survived to the final incarnation it is in the dump)
    case net::WireStatus::kNotFound:
      return;  // read/delete miss: no effect, no observable value
    case net::WireStatus::kTxnConflict:
      // Nothing may have been applied; remember the targets so a mismatch
      // there is attributed to the conflict.
      for (const net::TxnWireOp& top : op.txn_ops) {
        if (top.kind == net::TxnOpKind::kRead) continue;
        if (!ValidRow(top.table, top.row)) continue;
        rows_[{top.table, top.row}].conflict_touched = true;
      }
      return;
    case net::WireStatus::kRecovering:
      // A RECOVERING rejection burned the serial with zero effects (the
      // op's shard was still restoring); the serial is accounted for, but
      // nothing was applied and nothing was observed.
      return;
    default:
      Report(Violation::Code::kBadHistory, guid, op.serial, 0, 0,
             std::string("recorded status cannot consume a serial: ") +
                 net::StatusName(op.status));
      return;
  }

  // Resolved-by-recovery ops were journaled from the client's own request
  // at reconnect: the commit point proves they executed exactly once, but
  // the client never saw the result. Their read results do not exist (no
  // observations, and a committed TXN without them is not "missing" reads)
  // and any effect that depends on a status branch the client never
  // observed is ambiguous.
  const bool resolved = op.resolved_by_recovery;

  switch (op.op) {
    case net::Op::kRead:
      if (resolved) return;  // the value was never observed
      add_observation(0, kv_row, op.value);
      return;
    case net::Op::kUpsert: {
      RowEffect eff;
      eff.kind = RowEffect::Kind::kWrite;
      eff.value = op.value;
      add_effect(0, kv_row, std::move(eff));
      return;
    }
    case net::Op::kRmw: {
      RowEffect eff;
      eff.kind = RowEffect::Kind::kAdd;
      eff.delta = op.delta;
      add_effect(0, kv_row, std::move(eff));
      return;
    }
    case net::Op::kDelete: {
      RowEffect eff;
      eff.kind = RowEffect::Kind::kWrite;
      eff.value.assign(kv_size, 0);
      eff.maybe = resolved;  // may have been a kNotFound miss (no effect)
      add_effect(0, kv_row, std::move(eff));
      return;
    }
    case net::Op::kTxn: {
      size_t read_idx = 0;
      for (const net::TxnWireOp& top : op.txn_ops) {
        switch (top.kind) {
          case net::TxnOpKind::kRead:
            if (resolved || op.status == net::WireStatus::kNotDurable) {
              // Results lost with the un-delivered ack, or never sent: the
              // wire carries a TXN's read results only on an OK ack.
              ++read_idx;
              break;
            }
            if (read_idx < op.txn_reads.size()) {
              add_observation(top.table, top.row, op.txn_reads[read_idx]);
            } else {
              Report(Violation::Code::kBadHistory, guid, op.serial, top.table,
                     top.row, "committed TXN is missing a read result");
            }
            ++read_idx;
            break;
          case net::TxnOpKind::kWrite: {
            RowEffect eff;
            eff.kind = RowEffect::Kind::kWrite;
            eff.value = top.value;
            eff.maybe = resolved;  // may have hit a NO-WAIT conflict
            add_effect(top.table, top.row, std::move(eff));
            break;
          }
          case net::TxnOpKind::kAdd: {
            RowEffect eff;
            eff.kind = RowEffect::Kind::kAdd;
            eff.delta = top.delta;
            eff.maybe = resolved;
            add_effect(top.table, top.row, std::move(eff));
            break;
          }
        }
      }
      return;
    }
    default:
      Report(Violation::Code::kBadHistory, guid, op.serial, 0, 0,
             std::string("recorded op cannot consume a serial: ") +
                 net::OpName(op.op));
      return;
  }
}

// Phase 2: the final state must be reachable from the baseline by SOME
// interleaving of the committed effects.
void CheckerState::CheckState() {
  // Every row that differs from baseline or was touched needs a verdict.
  std::set<RowKey> candidates;
  for (const auto& [key, state] : rows_) {
    (void)state;
    candidates.insert(key);
  }
  for (size_t t = 0; t < final_.tables.size(); ++t) {
    for (const net::DumpRow& r : final_.tables[t].rows) {
      candidates.insert({static_cast<uint32_t>(t), r.row});
    }
    for (const net::DumpRow& r : baseline_.tables[t].rows) {
      candidates.insert({static_cast<uint32_t>(t), r.row});
    }
  }

  for (const RowKey& key : candidates) {
    const auto& [table, row] = key;
    const std::vector<char> base = BaseValue(table, row);
    const std::vector<char> fin = FinalValue(table, row);
    auto it = rows_.find(key);
    const RowState* state = it == rows_.end() ? nullptr : &it->second;

    const auto mismatch = [&](const std::string& detail) {
      const bool conflict = state != nullptr && state->conflict_touched;
      Report(conflict ? Violation::Code::kConflictEffect
                      : Violation::Code::kStateMismatch,
             0, 0, table, row, detail);
    };

    std::vector<const RowEffect*> writes;
    std::vector<const RowEffect*> maybe_writes;
    int64_t sum_pos = 0;
    int64_t sum_neg = 0;
    int64_t maybe_pos = 0;
    int64_t maybe_neg = 0;
    std::set<uint64_t> writer_guids;
    if (state != nullptr) {
      for (const RowEffect& eff : state->effects) {
        if (eff.kind == RowEffect::Kind::kWrite) {
          if (eff.maybe) {
            maybe_writes.push_back(&eff);
          } else {
            writes.push_back(&eff);
            writer_guids.insert(eff.guid);
          }
        } else if (eff.maybe) {
          if (eff.delta >= 0) {
            maybe_pos += eff.delta;
          } else {
            maybe_neg += eff.delta;
          }
        } else if (eff.delta >= 0) {
          sum_pos += eff.delta;
        } else {
          sum_neg += eff.delta;
        }
      }
    }
    const bool ambiguous =
        !maybe_writes.empty() || maybe_pos != 0 || maybe_neg != 0;

    if (writes.empty() && maybe_writes.empty()) {
      // Adds only (or untouched): exact expectation, widened by any
      // resolved-by-recovery adds whose application is unknowable.
      std::vector<char> expect = base;
      if (expect.size() >= 8) {
        int64_t v8 = First8(expect);
        v8 += sum_pos + sum_neg;
        std::memcpy(expect.data(), &v8, sizeof(v8));
      }
      if (!ambiguous) {
        if (fin != expect) {
          std::ostringstream os;
          os << "expected baseline";
          if (sum_pos + sum_neg != 0) os << " + " << (sum_pos + sum_neg);
          mismatch(os.str());
        }
        continue;
      }
      if (!TailEquals(fin, expect)) {
        mismatch("adds-only row tail diverged");
        continue;
      }
      if (fin.size() >= 8) {
        const int64_t f8 = First8(fin);
        const int64_t e8 = First8(expect);
        if (f8 < e8 + maybe_neg || f8 > e8 + maybe_pos) {
          std::ostringstream os;
          os << "accumulator " << f8 << " outside recovery-resolved envelope ["
             << e8 + maybe_neg << ", " << e8 + maybe_pos << "]";
          mismatch(os.str());
        }
      }
      continue;
    }

    if (ambiguous) {
      // Writes mixed with ambiguous effects: the widest sound envelope.
      // The final tail must carry some write that may have applied — or
      // the base if every write on the row is ambiguous — and the
      // accumulator must be reachable by some subset of the ambiguous
      // effects combined with some interleaving of the definite ones.
      std::vector<const std::vector<char>*> tails;
      for (const RowEffect* w : writes) tails.push_back(&w->value);
      for (const RowEffect* w : maybe_writes) tails.push_back(&w->value);
      if (writes.empty()) tails.push_back(&base);
      bool tail_ok = false;
      int64_t min8 = std::numeric_limits<int64_t>::max();
      int64_t max8 = std::numeric_limits<int64_t>::min();
      for (const std::vector<char>* t : tails) {
        if (TailEquals(fin, *t)) tail_ok = true;
        min8 = std::min(min8, First8(*t));
        max8 = std::max(max8, First8(*t));
      }
      if (!tail_ok) {
        mismatch("value matches no committed or recovery-resolved write");
        continue;
      }
      if (fin.size() >= 8) {
        const int64_t f8 = First8(fin);
        if (f8 < min8 + sum_neg + maybe_neg ||
            f8 > max8 + sum_pos + maybe_pos) {
          std::ostringstream os;
          os << "accumulator " << f8 << " outside ["
             << min8 + sum_neg + maybe_neg << ", "
             << max8 + sum_pos + maybe_pos << "]";
          mismatch(os.str());
        }
      }
      continue;
    }

    if (writer_guids.size() == 1) {
      // One writer session: its writes and adds are totally ordered by
      // serial, so its final value is exact; foreign adds either landed
      // after the last write (applied) or before it (overwritten).
      const uint64_t writer = *writer_guids.begin();
      std::vector<const RowEffect*> own;
      int64_t foreign_pos = 0;
      int64_t foreign_neg = 0;
      for (const RowEffect& eff : state->effects) {
        if (eff.guid == writer) {
          own.push_back(&eff);
        } else if (eff.delta >= 0) {
          foreign_pos += eff.delta;
        } else {
          foreign_neg += eff.delta;
        }
      }
      std::sort(own.begin(), own.end(),
                [](const RowEffect* a, const RowEffect* b) {
                  return a->serial < b->serial;
                });
      std::vector<char> expect = base;
      for (const RowEffect* eff : own) {
        if (eff->kind == RowEffect::Kind::kWrite) {
          expect = eff->value;
        } else if (expect.size() >= 8) {
          int64_t v8 = First8(expect);
          v8 += eff->delta;
          std::memcpy(expect.data(), &v8, sizeof(v8));
        }
      }
      if (foreign_pos == 0 && foreign_neg == 0) {
        if (fin != expect) mismatch("single-writer row diverged");
        continue;
      }
      if (!TailEquals(fin, expect)) {
        mismatch("single-writer row tail diverged");
        continue;
      }
      const int64_t f8 = First8(fin);
      const int64_t e8 = First8(expect);
      if (f8 < e8 + foreign_neg || f8 > e8 + foreign_pos) {
        std::ostringstream os;
        os << "accumulator " << f8 << " outside [" << e8 + foreign_neg << ", "
           << e8 + foreign_pos << "]";
        mismatch(os.str());
      }
      continue;
    }

    // Multiple writer sessions: the final value must carry one committed
    // write's payload (the last one applied), with the accumulator within
    // the envelope any interleaving of the adds could reach.
    bool tail_ok = false;
    int64_t min8 = std::numeric_limits<int64_t>::max();
    int64_t max8 = std::numeric_limits<int64_t>::min();
    for (const RowEffect* w : writes) {
      if (TailEquals(fin, w->value)) tail_ok = true;
      min8 = std::min(min8, First8(w->value));
      max8 = std::max(max8, First8(w->value));
    }
    if (!tail_ok) {
      mismatch("value matches no committed write");
      continue;
    }
    if (fin.size() >= 8) {
      const int64_t f8 = First8(fin);
      if (f8 < min8 + sum_neg || f8 > max8 + sum_pos) {
        std::ostringstream os;
        os << "accumulator " << f8 << " outside [" << min8 + sum_neg << ", "
           << max8 + sum_pos << "]";
        mismatch(os.str());
      }
    }
  }
}

// Phase 3: every committed read observation must be producible by some
// serialization of the committed effects on its row.
void CheckerState::CheckReads() {
  for (const Observation& obs : observations_) {
    const RowKey key{obs.table, obs.row};
    const uint32_t value_size = baseline_.tables[obs.table].value_size;
    if (obs.value.size() != value_size) {
      std::ostringstream os;
      os << "observed " << obs.value.size() << " bytes on a " << value_size
         << "-byte table";
      Report(Violation::Code::kUnjustifiedRead, obs.guid, obs.serial,
             obs.table, obs.row, os.str());
      continue;
    }
    auto it = rows_.find(key);
    const RowState* state = it == rows_.end() ? nullptr : &it->second;
    std::vector<const std::vector<char>*> candidates;
    const std::vector<char> base = BaseValue(obs.table, obs.row);
    candidates.push_back(&base);
    int64_t sum_pos = 0;
    int64_t sum_neg = 0;
    if (state != nullptr) {
      for (const RowEffect& eff : state->effects) {
        if (eff.kind == RowEffect::Kind::kWrite) {
          candidates.push_back(&eff.value);
        } else if (eff.delta >= 0) {
          sum_pos += eff.delta;
        } else {
          sum_neg += eff.delta;
        }
      }
    }
    bool justified = false;
    for (const std::vector<char>* cand : candidates) {
      if (!TailEquals(obs.value, *cand)) continue;
      if (value_size < 8) {
        justified = true;  // TailEquals compared the whole value
        break;
      }
      const int64_t o8 = First8(obs.value);
      const int64_t c8 = First8(*cand);
      if (o8 >= c8 + sum_neg && o8 <= c8 + sum_pos) {
        justified = true;
        break;
      }
    }
    if (!justified) {
      Report(Violation::Code::kUnjustifiedRead, obs.guid, obs.serial,
             obs.table, obs.row,
             "no serialization of the committed prefix produces this value");
    }
  }
}

std::vector<Violation> CheckerState::Run(
    const std::vector<History>& histories) {
  if (!CheckDumpShapes()) return std::move(out_);
  for (const History& h : histories) {
    CheckSessionPrefix(h);
    CollectCommitted(h);
  }
  CheckState();
  CheckReads();
  return std::move(out_);
}

}  // namespace

const char* ViolationCodeName(Violation::Code code) {
  switch (code) {
    case Violation::Code::kBadHistory: return "BAD_HISTORY";
    case Violation::Code::kSerialGap: return "SERIAL_GAP";
    case Violation::Code::kAckOrder: return "ACK_ORDER";
    case Violation::Code::kLostDurable: return "LOST_DURABLE";
    case Violation::Code::kStateMismatch: return "STATE_MISMATCH";
    case Violation::Code::kConflictEffect: return "CONFLICT_EFFECT";
    case Violation::Code::kUnjustifiedRead: return "UNJUSTIFIED_READ";
  }
  return "?";
}

std::vector<Violation> CheckHistories(const StateDump& baseline,
                                      const StateDump& final_state,
                                      const std::vector<History>& histories) {
  CheckerState state(baseline, final_state);
  return state.Run(histories);
}

}  // namespace cpr::certify
