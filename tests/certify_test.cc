// Mutation self-tests for the crash-consistency certifier (src/certify).
//
// Each test hand-builds a small scenario — baseline dump, per-client
// histories, final dump derived by replaying the committed prefix — and
// asserts the checker passes it. Then it mutates exactly one element
// (drops a committed write from the final state, records a phantom read,
// leaks an effect from a "neutralized" conflicted TXN, reorders acks, ...)
// and asserts the checker flags exactly the violation class that mutation
// models. This is the certifier certifying itself: a checker that cannot
// detect seeded violations proves nothing about runs that pass it.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "certify/checker.h"
#include "certify/history.h"
#include "test_dirs.h"

namespace cpr::certify {
namespace {

using net::AckMode;
using net::Op;
using net::TxnOpKind;
using net::TxnWireOp;
using net::WireStatus;

constexpr uint32_t kValueSize = 16;
constexpr uint64_t kRows = 64;

std::vector<char> Value(int64_t first8, char tail_fill = 0) {
  std::vector<char> v(kValueSize, tail_fill);
  std::memcpy(v.data(), &first8, sizeof(first8));
  return v;
}

StateDump EmptyDump() {
  StateDump d;
  d.tables.resize(1);
  d.tables[0].value_size = kValueSize;
  d.tables[0].rows_total = kRows;
  return d;
}

void SetRow(StateDump* d, uint64_t row, std::vector<char> value) {
  auto& rows = d->tables[0].rows;
  for (auto& r : rows) {
    if (r.row == row) {
      r.value = std::move(value);
      return;
    }
  }
  net::DumpRow dr;
  dr.row = row;
  dr.value = std::move(value);
  // Keep rows ascending, as DUMP produces them.
  auto it = rows.begin();
  while (it != rows.end() && it->row < dr.row) ++it;
  rows.insert(it, std::move(dr));
}

Event Hello(uint64_t recovered) {
  Event e;
  e.kind = Event::Kind::kHello;
  e.recovered_serial = recovered;
  return e;
}

Event Durable(uint64_t serial) {
  Event e;
  e.kind = Event::Kind::kDurable;
  e.durable_serial = serial;
  return e;
}

Event OpEvent(EventOp op) {
  Event e;
  e.kind = Event::Kind::kOp;
  e.op = std::move(op);
  return e;
}

EventOp Upsert(uint64_t serial, uint64_t key, std::vector<char> value) {
  EventOp op;
  op.serial = serial;
  op.op = Op::kUpsert;
  op.status = WireStatus::kOk;
  op.key = key;
  op.value = std::move(value);
  return op;
}

EventOp Read(uint64_t serial, uint64_t key, std::vector<char> observed) {
  EventOp op;
  op.serial = serial;
  op.op = Op::kRead;
  op.status = WireStatus::kOk;
  op.key = key;
  op.value = std::move(observed);
  return op;
}

EventOp Rmw(uint64_t serial, uint64_t key, int64_t delta) {
  EventOp op;
  op.serial = serial;
  op.op = Op::kRmw;
  op.status = WireStatus::kOk;
  op.key = key;
  op.delta = delta;
  return op;
}

TxnWireOp TxnRead(uint64_t row) {
  TxnWireOp op;
  op.kind = TxnOpKind::kRead;
  op.table = 0;
  op.row = row;
  return op;
}

TxnWireOp TxnWrite(uint64_t row, std::vector<char> value) {
  TxnWireOp op;
  op.kind = TxnOpKind::kWrite;
  op.table = 0;
  op.row = row;
  op.value = std::move(value);
  return op;
}

TxnWireOp TxnAdd(uint64_t row, int64_t delta) {
  TxnWireOp op;
  op.kind = TxnOpKind::kAdd;
  op.table = 0;
  op.row = row;
  op.delta = delta;
  return op;
}

EventOp Txn(uint64_t serial, WireStatus status, std::vector<TxnWireOp> ops,
            std::vector<std::vector<char>> reads = {}) {
  EventOp op;
  op.serial = serial;
  op.op = Op::kTxn;
  op.status = status;
  op.txn_ops = std::move(ops);
  op.txn_reads = std::move(reads);
  return op;
}

// The reference scenario: one client, one crash. Pre-crash the client
// upserts row 3, reads it back, RMWs row 5, commits a TXN that reads row 3
// and writes/adds rows 12/5, and has a TXN neutralized by a conflict that
// targeted row 11. A commit-point notification covers everything, the
// server crashes, and the reconnect HELLO recovers the full prefix.
struct Scenario {
  StateDump baseline;
  StateDump final_state;
  std::vector<History> histories;
};

constexpr uint64_t kGuid = 0x1001;
const int64_t kRow3Value = 42;
const int64_t kRow12Value = 77;

Scenario MakeScenario() {
  Scenario s;
  s.baseline = EmptyDump();

  History h;
  h.guid = kGuid;
  h.ack_mode = AckMode::kDurable;
  h.events.push_back(Hello(0));
  h.events.push_back(OpEvent(Upsert(1, 3, Value(kRow3Value))));
  h.events.push_back(OpEvent(Read(2, 3, Value(kRow3Value))));
  h.events.push_back(OpEvent(Rmw(3, 5, 7)));
  h.events.push_back(OpEvent(
      Txn(4, WireStatus::kOk,
          {TxnRead(3), TxnAdd(5, 3), TxnWrite(12, Value(kRow12Value))},
          {Value(kRow3Value)})));
  h.events.push_back(OpEvent(
      Txn(5, WireStatus::kTxnConflict, {TxnWrite(11, Value(999))})));
  h.events.push_back(Durable(5));
  // Crash + reconnect: the server recovered the whole prefix.
  h.events.push_back(Hello(5));
  s.histories.push_back(std::move(h));

  s.final_state = EmptyDump();
  SetRow(&s.final_state, 3, Value(kRow3Value));
  SetRow(&s.final_state, 5, Value(7 + 3));
  SetRow(&s.final_state, 12, Value(kRow12Value));
  return s;
}

std::vector<Violation> Check(const Scenario& s) {
  return CheckHistories(s.baseline, s.final_state, s.histories);
}

bool HasCode(const std::vector<Violation>& vs, Violation::Code code) {
  for (const auto& v : vs) {
    if (v.code == code) return true;
  }
  return false;
}

std::string Describe(const std::vector<Violation>& vs) {
  std::string out;
  for (const auto& v : vs) {
    out += ViolationCodeName(v.code);
    out += ": ";
    out += v.detail;
    out += "\n";
  }
  return out;
}

TEST(CertifyChecker, ReferenceScenarioCertifiesClean) {
  const Scenario s = MakeScenario();
  const auto vs = Check(s);
  EXPECT_TRUE(vs.empty()) << Describe(vs);
}

// Mutation 1 (dropped committed write): the recovered state lost an acked,
// durable upsert — the canonical CPR violation.
TEST(CertifyChecker, DroppedCommittedWriteIsStateMismatch) {
  Scenario s = MakeScenario();
  SetRow(&s.final_state, 3, Value(0));  // row 3's write vanished
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kStateMismatch)) << Describe(vs);
}

// A lost RMW accumulator is equally a state mismatch.
TEST(CertifyChecker, DroppedCommittedAddIsStateMismatch) {
  Scenario s = MakeScenario();
  SetRow(&s.final_state, 5, Value(7));  // TXN's +3 never applied
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kStateMismatch)) << Describe(vs);
}

// Mutation 2 (phantom read): the client observed a value no serialization
// of the committed prefix can produce.
TEST(CertifyChecker, PhantomReadIsUnjustified) {
  Scenario s = MakeScenario();
  s.histories[0].events[2] = OpEvent(Read(2, 3, Value(31337)));
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kUnjustifiedRead)) << Describe(vs);
}

// A committed TXN's read result is held to the same justification.
TEST(CertifyChecker, PhantomTxnReadIsUnjustified) {
  Scenario s = MakeScenario();
  auto& txn = s.histories[0].events[4].op;
  txn.txn_reads[0] = Value(31337);
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kUnjustifiedRead)) << Describe(vs);
}

// A committed TXN's ack must carry its read results...
TEST(CertifyChecker, CommittedTxnWithoutReadsIsBadHistory) {
  Scenario s = MakeScenario();
  s.histories[0].events[4].op.txn_reads.clear();
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kBadHistory)) << Describe(vs);
}

// ...but a NOT_DURABLE ack (a durable-gated TXN released at server
// shutdown) carries none on the wire. Its effects still count.
TEST(CertifyChecker, NotDurableTxnCarriesNoReads) {
  Scenario s = MakeScenario();
  auto& txn = s.histories[0].events[4].op;
  txn.status = WireStatus::kNotDurable;
  txn.txn_reads.clear();
  auto vs = Check(s);
  EXPECT_TRUE(vs.empty()) << Describe(vs);
  SetRow(&s.final_state, 12, Value(0));  // its write must still be there
  vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kStateMismatch)) << Describe(vs);
}

// Mutation 3 (effectful "neutralized" conflict): a TXN the server reported
// as TXN_CONFLICT must contribute nothing; if its target row diverges, the
// mismatch is attributed to the conflict.
TEST(CertifyChecker, EffectfulNeutralizedConflictIsFlagged) {
  Scenario s = MakeScenario();
  SetRow(&s.final_state, 11, Value(999));  // the aborted write leaked
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kConflictEffect)) << Describe(vs);
}

// Mutation 4 (non-prefix ack order): a duplicated/regressed ack serial.
TEST(CertifyChecker, RegressedAckSerialIsAckOrder) {
  Scenario s = MakeScenario();
  s.histories[0].events[3].op.serial = 2;  // RMW re-acked under serial 2
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kAckOrder)) << Describe(vs);
}

// A session that skips ahead is the complementary ordering violation.
TEST(CertifyChecker, SkippedAckSerialIsSerialGap) {
  Scenario s = MakeScenario();
  s.histories[0].events[3].op.serial = 9;
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kSerialGap)) << Describe(vs);
}

// A reconnect resuming below a durable point the client was already
// notified of breaks prefix-closure of the committed set.
TEST(CertifyChecker, RecoveredSerialBelowDurablePointIsLostDurable) {
  Scenario s = MakeScenario();
  s.histories[0].events.back() = Hello(3);  // durable point was 5
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kLostDurable)) << Describe(vs);
}

// A journal that does not start with HELLO is incoherent, not certifiable.
TEST(CertifyChecker, HistoryWithoutHelloIsBadHistory) {
  Scenario s = MakeScenario();
  s.histories[0].events.erase(s.histories[0].events.begin());
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kBadHistory)) << Describe(vs);
}

// Ops acked after the final crash but never re-acked in the final
// incarnation are uncommitted: their effects must NOT be in the final
// state (exactly-once, not at-least-once).
TEST(CertifyChecker, UncommittedSuffixMustNotSurvive) {
  Scenario s = MakeScenario();
  // The reconnect only recovered up to serial 3: the TXN at serial 4 is
  // uncommitted, so rows 5 and 12 must show only the pre-TXN effects.
  s.histories[0].events[6] = Durable(3);
  s.histories[0].events.back() = Hello(3);
  SetRow(&s.final_state, 5, Value(7));
  SetRow(&s.final_state, 12, Value(0));
  {
    const auto vs = Check(s);
    EXPECT_TRUE(vs.empty()) << Describe(vs);
  }
  // If the uncommitted TXN's write is nonetheless present, that is a
  // mismatch (at-least-once application).
  SetRow(&s.final_state, 12, Value(kRow12Value));
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kStateMismatch)) << Describe(vs);
}

// Multi-writer accumulators: two sessions RMW the same row; every committed
// interleaving sums the deltas, so the checker accepts exactly the sum and
// rejects anything else.
TEST(CertifyChecker, MultiWriterAddsSumExactly) {
  Scenario s = MakeScenario();
  History h2;
  h2.guid = kGuid + 1;
  h2.ack_mode = AckMode::kDurable;
  h2.events.push_back(Hello(0));
  h2.events.push_back(OpEvent(Rmw(1, 5, 100)));
  h2.events.push_back(Durable(1));
  h2.events.push_back(Hello(1));
  s.histories.push_back(std::move(h2));

  SetRow(&s.final_state, 5, Value(7 + 3 + 100));
  {
    const auto vs = Check(s);
    EXPECT_TRUE(vs.empty()) << Describe(vs);
  }

  SetRow(&s.final_state, 5, Value(7 + 3 + 100 + 1));  // phantom increment
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kStateMismatch)) << Describe(vs);
}

EventOp Resolved(EventOp op) {
  op.resolved_by_recovery = true;
  return op;
}

// The ack gap CPR creates by construction: a checkpoint committed serials
// whose durable-gated acks never reached the client before the crash. A
// journal that simply skips them is incoherent — the HELLO reports a
// commit point past anything the session ever saw issued.
TEST(CertifyChecker, AckGapWithoutResolutionIsBadHistory) {
  History h;
  h.guid = kGuid;
  h.ack_mode = AckMode::kDurable;
  h.events.push_back(Hello(0));
  h.events.push_back(OpEvent(Upsert(1, 3, Value(kRow3Value))));
  h.events.push_back(Hello(5));  // serials 2..5 committed but never journaled
  Scenario s;
  s.baseline = EmptyDump();
  s.final_state = EmptyDump();
  SetRow(&s.final_state, 3, Value(kRow3Value));
  s.histories.push_back(std::move(h));
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kBadHistory)) << Describe(vs);
}

// Resolved-by-recovery events close that gap: the client journals the
// trimmed replay-buffer ops (intent known, result never observed) before
// the HELLO. Single-key upserts/RMWs have only one committed outcome, so
// the checker holds the final state to them exactly; a resolved READ
// contributes no observation (its value was lost with the ack).
TEST(CertifyChecker, ResolvedOpsFillTheAckGap) {
  History h;
  h.guid = kGuid;
  h.ack_mode = AckMode::kDurable;
  h.events.push_back(Hello(0));
  h.events.push_back(OpEvent(Upsert(1, 3, Value(kRow3Value))));
  h.events.push_back(OpEvent(Resolved(Upsert(2, 7, Value(55)))));
  h.events.push_back(OpEvent(Resolved(Rmw(3, 5, 7))));
  h.events.push_back(OpEvent(Resolved(Read(4, 3, {}))));
  h.events.push_back(Hello(4));
  Scenario s;
  s.baseline = EmptyDump();
  s.final_state = EmptyDump();
  SetRow(&s.final_state, 3, Value(kRow3Value));
  SetRow(&s.final_state, 7, Value(55));
  SetRow(&s.final_state, 5, Value(7));
  s.histories.push_back(std::move(h));
  {
    const auto vs = Check(s);
    EXPECT_TRUE(vs.empty()) << Describe(vs);
  }
  // A resolved upsert is still committed: dropping it is the same CPR
  // violation as dropping an acked one.
  SetRow(&s.final_state, 7, Value(0));
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kStateMismatch)) << Describe(vs);
}

// A resolved TXN may have committed or hit a NO-WAIT conflict — the client
// can no longer tell. The checker must accept both worlds (and not demand
// read results that were lost with the ack), but nothing outside them.
TEST(CertifyChecker, ResolvedTxnEffectsAreOptionalButBounded) {
  Scenario s;
  s.baseline = EmptyDump();
  History h;
  h.guid = kGuid;
  h.ack_mode = AckMode::kDurable;
  h.events.push_back(Hello(0));
  h.events.push_back(OpEvent(Resolved(
      Txn(1, WireStatus::kOk,
          {TxnRead(3), TxnAdd(5, 3), TxnWrite(12, Value(kRow12Value))}))));
  h.events.push_back(Hello(1));
  s.histories.push_back(std::move(h));

  // World A: the TXN conflicted — zero effects.
  s.final_state = EmptyDump();
  {
    const auto vs = Check(s);
    EXPECT_TRUE(vs.empty()) << Describe(vs);
  }
  // World B: the TXN committed — all effects.
  SetRow(&s.final_state, 5, Value(3));
  SetRow(&s.final_state, 12, Value(kRow12Value));
  {
    const auto vs = Check(s);
    EXPECT_TRUE(vs.empty()) << Describe(vs);
  }
  // Outside both worlds: an accumulator no outcome of the TXN reaches.
  SetRow(&s.final_state, 5, Value(6));
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kStateMismatch)) << Describe(vs);
}

// A resolved DELETE may have found its key (wrote zeros) or missed
// (NOT_FOUND, no effect); both survive, a third value does not.
TEST(CertifyChecker, ResolvedDeleteMayHaveMissed) {
  Scenario s;
  s.baseline = EmptyDump();
  SetRow(&s.baseline, 9, Value(5));
  History h;
  h.guid = kGuid;
  h.ack_mode = AckMode::kDurable;
  h.events.push_back(Hello(0));
  EventOp del;
  del.serial = 1;
  del.op = Op::kDelete;
  del.status = WireStatus::kOk;
  del.key = 9;
  h.events.push_back(OpEvent(Resolved(std::move(del))));
  h.events.push_back(Hello(1));
  s.histories.push_back(std::move(h));

  s.final_state = s.baseline;  // the delete missed
  {
    const auto vs = Check(s);
    EXPECT_TRUE(vs.empty()) << Describe(vs);
  }
  s.final_state = EmptyDump();
  SetRow(&s.final_state, 9, Value(0));  // the delete landed
  {
    const auto vs = Check(s);
    EXPECT_TRUE(vs.empty()) << Describe(vs);
  }
  SetRow(&s.final_state, 9, Value(6));  // neither world
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kStateMismatch)) << Describe(vs);
}

// The resolved flag itself must survive the journal file format.
TEST(CertifyChecker, ResolvedFlagRoundTripsThroughBlob) {
  const std::string path = cpr::testing::FreshTestDir("certify_resolved") +
                           "/history.blob";
  HistoryRecorder rec;
  rec.OnHello(kGuid, AckMode::kDurable, 0);
  rec.OnOp(Upsert(1, 3, Value(kRow3Value)));
  rec.OnOp(Resolved(Rmw(2, 5, 7)));
  rec.OnHello(kGuid, AckMode::kDurable, 2);
  ASSERT_TRUE(rec.WriteFile(path).ok());
  History h;
  ASSERT_TRUE(ReadHistoryFile(path, &h).ok());
  ASSERT_EQ(h.events.size(), 4u);
  EXPECT_FALSE(h.events[1].op.resolved_by_recovery);
  EXPECT_TRUE(h.events[2].op.resolved_by_recovery);
}

// Dump shape mismatches (schema drift between baseline and final) are
// rejected outright rather than producing nonsense row comparisons.
TEST(CertifyChecker, DumpShapeMismatchIsBadHistory) {
  Scenario s = MakeScenario();
  s.final_state.tables[0].rows_total = kRows * 2;
  const auto vs = Check(s);
  ASSERT_TRUE(HasCode(vs, Violation::Code::kBadHistory)) << Describe(vs);
}

// History and state-dump blobs round-trip through their checked-blob files,
// and a corrupted byte is rejected at load instead of certifying garbage.
TEST(CertifyChecker, BlobFilesRoundTripAndRejectCorruption) {
  const Scenario s = MakeScenario();
  const std::string dir = cpr::testing::FreshTestDir("certify");
  const std::string hist_path = dir + "/certify_test_history.blob";
  const std::string dump_path = dir + "/certify_test_dump.blob";

  HistoryRecorder rec;
  rec.OnHello(kGuid, AckMode::kDurable, 0);
  for (const auto& e : s.histories[0].events) {
    switch (e.kind) {
      case Event::Kind::kHello:
        rec.OnHello(kGuid, AckMode::kDurable, e.recovered_serial);
        break;
      case Event::Kind::kOp:
        rec.OnOp(e.op);
        break;
      case Event::Kind::kDurable:
        rec.OnDurable(e.durable_serial);
        break;
    }
  }
  ASSERT_TRUE(rec.WriteFile(hist_path).ok());
  ASSERT_TRUE(WriteStateDumpFile(dump_path, s.final_state).ok());

  History hist;
  ASSERT_TRUE(ReadHistoryFile(hist_path, &hist).ok());
  EXPECT_EQ(hist.guid, kGuid);
  // rec saw one extra leading OnHello; the rest must match exactly.
  ASSERT_EQ(hist.events.size(), s.histories[0].events.size() + 1);
  EXPECT_EQ(hist.events[2].kind, Event::Kind::kOp);
  EXPECT_EQ(hist.events[2].op.serial, 1u);
  EXPECT_EQ(hist.events[2].op.value, Value(kRow3Value));

  StateDump dump;
  ASSERT_TRUE(ReadStateDumpFile(dump_path, &dump).ok());
  ASSERT_EQ(dump.tables.size(), 1u);
  EXPECT_EQ(dump.tables[0].rows.size(), s.final_state.tables[0].rows.size());

  // Flip one payload byte mid-file: the checked blob must refuse to load.
  FILE* f = std::fopen(dump_path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 48, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 48, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  StateDump corrupt;
  EXPECT_FALSE(ReadStateDumpFile(dump_path, &corrupt).ok());
}

}  // namespace
}  // namespace cpr::certify
