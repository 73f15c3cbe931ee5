// Tests for the transaction flight recorder (src/obs/flight_recorder.h):
// ring semantics, the postmortem text format, the chaos postmortem pipeline,
// the abort-reason counter taxonomy, and tx-tagged logging.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/chaos/harness.h"
#include "src/common/logging.h"
#include "src/obs/flight_recorder.h"
#include "src/workload/driver.h"
#include "src/workload/tatp.h"
#include "tests/test_util.h"

namespace farm {
namespace {

flight::Record MakeRec(uint64_t t, flight::EventKind kind, uint8_t arg = 0,
                       uint32_t detail = 0) {
  flight::Record r;
  r.time_ns = t;
  r.kind = static_cast<uint8_t>(kind);
  r.arg = arg;
  r.detail = detail;
  return r;
}

TEST(RecorderTest, WraparoundKeepsNewestWithContinuousSeqs) {
  flight::Recorder ring(/*machine=*/3, /*capacity=*/8);
  for (uint64_t i = 0; i < 20; i++) {
    ring.Append(MakeRec(100 + i, flight::EventKind::kMsgSend, 1, 0));
  }
  EXPECT_EQ(ring.appended(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  std::vector<flight::DrainedRecord> got = ring.Drain();
  ASSERT_EQ(got.size(), 8u);
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i].seq, 12 + i) << "seqs stay continuous across wrap";
    EXPECT_EQ(got[i].rec.time_ns, 112 + i) << "newest records survive";
    EXPECT_EQ(got[i].machine, 3u);
  }
}

TEST(RecorderTest, DrainBelowCapacityKeepsEverything) {
  flight::Recorder ring(0, 8);
  for (uint64_t i = 0; i < 5; i++) {
    ring.Append(MakeRec(i, flight::EventKind::kLockAcquire));
  }
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<flight::DrainedRecord> got = ring.Drain();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got.front().seq, 0u);
  EXPECT_EQ(got.back().seq, 4u);
}

TEST(RecorderTest, FormatParseRoundTrip) {
  std::vector<flight::DrainedRecord> cases;
  {
    flight::DrainedRecord d;
    d.rec = MakeRec(12345, flight::EventKind::kPhaseBegin,
                    static_cast<uint8_t>(flight::Phase::kCommitBackup), 7);
    d.rec.tx_config = 2;
    d.rec.tx_machine = 5;
    d.rec.tx_thread = 1;
    d.rec.tx_local = 99;
    d.rec.flags = flight::Record::kHasTx;
    d.seq = 17;
    d.machine = 5;
    cases.push_back(d);
  }
  {
    flight::DrainedRecord d;
    d.rec = MakeRec(0, flight::EventKind::kMsgSend, /*service=*/4, /*detail=*/31);
    d.seq = 0;
    d.machine = 0;
    cases.push_back(d);
  }
  {
    flight::DrainedRecord d;
    d.rec = MakeRec(987654321, flight::EventKind::kAbort,
                    static_cast<uint8_t>(flight::AbortReason::kValidateConflict));
    d.rec.tx_config = 1;
    d.rec.tx_machine = 0;
    d.rec.tx_thread = 0;
    d.rec.tx_local = 3;
    d.rec.flags = flight::Record::kHasTx;
    d.seq = 8191;
    d.machine = 31;
    cases.push_back(d);
  }
  {
    flight::DrainedRecord d;
    d.rec = MakeRec(42, flight::EventKind::kRecoveryStep,
                    static_cast<uint8_t>(flight::RecoveryStep::kDecideCommit), 6);
    d.seq = 3;
    d.machine = 2;
    cases.push_back(d);
  }
  for (const flight::DrainedRecord& d : cases) {
    std::string line = flight::FormatRecord(d);
    flight::DrainedRecord back;
    ASSERT_TRUE(flight::ParseRecordLine(line, &back)) << line;
    EXPECT_EQ(back.rec.time_ns, d.rec.time_ns);
    EXPECT_EQ(back.rec.kind, d.rec.kind);
    EXPECT_EQ(back.rec.arg, d.rec.arg);
    EXPECT_EQ(back.rec.detail, d.rec.detail);
    EXPECT_EQ(back.rec.tx_config, d.rec.tx_config);
    EXPECT_EQ(back.rec.tx_machine, d.rec.tx_machine);
    EXPECT_EQ(back.rec.tx_thread, d.rec.tx_thread);
    EXPECT_EQ(back.rec.tx_local, d.rec.tx_local);
    EXPECT_EQ(back.rec.flags & flight::Record::kHasTx,
              d.rec.flags & flight::Record::kHasTx);
    EXPECT_EQ(back.seq, d.seq);
    EXPECT_EQ(back.machine, d.machine);
    EXPECT_EQ(flight::FormatRecord(back), line) << "format is a fixed point";
  }
}

TEST(RecorderTest, ParseRejectsNonRecordLines) {
  flight::DrainedRecord out;
  EXPECT_FALSE(flight::ParseRecordLine("", &out));
  EXPECT_FALSE(flight::ParseRecordLine("farm-flight-postmortem v1", &out));
  EXPECT_FALSE(flight::ParseRecordLine("rings=3", &out));
  EXPECT_FALSE(flight::ParseRecordLine("ring m=0 appended=12 dropped=0", &out));
  EXPECT_FALSE(flight::ParseRecordLine("complete garbage", &out));
}

TEST(RecorderTest, PostmortemMergesByTimeMachineSeq) {
  flight::Recorder a(0, 16);
  flight::Recorder b(1, 16);
  // Interleave times so the merge has real work; include an exact tie at
  // t=50 (machine breaks it) and same-machine ties (seq breaks them).
  a.Append(MakeRec(50, flight::EventKind::kLockAcquire));
  a.Append(MakeRec(10, flight::EventKind::kMsgSend, 2, 1));
  a.Append(MakeRec(70, flight::EventKind::kMsgRecv, 2, 1));
  b.Append(MakeRec(50, flight::EventKind::kLockReject, 0, 9));
  b.Append(MakeRec(50, flight::EventKind::kValidateFail, 0, 9));
  b.Append(MakeRec(5, flight::EventKind::kReconfig, 0, 2));
  std::string pm = flight::BuildPostmortem({&a, &b});
  EXPECT_NE(pm.find("farm-flight-postmortem v1"), std::string::npos);
  EXPECT_NE(pm.find("rings=2"), std::string::npos);
  EXPECT_NE(pm.find("records=6"), std::string::npos);

  std::vector<flight::DrainedRecord> recs;
  std::istringstream in(pm);
  std::string line;
  while (std::getline(in, line)) {
    flight::DrainedRecord d;
    if (flight::ParseRecordLine(line, &d)) {
      recs.push_back(d);
    }
  }
  ASSERT_EQ(recs.size(), 6u);
  for (size_t i = 1; i < recs.size(); i++) {
    auto key = [](const flight::DrainedRecord& d) {
      return std::make_tuple(d.rec.time_ns, d.machine, d.seq);
    };
    EXPECT_LE(key(recs[i - 1]), key(recs[i])) << "merge order at record " << i;
  }
}

// ---------------------------------------------------------------------------
// Chaos postmortems (the acceptance scenario: mutate seed 9)
// ---------------------------------------------------------------------------

TEST(ChaosPostmortemTest, BrokenProtocolRunYieldsDeterministicPostmortem) {
  chaos::ChaosRunOptions opts;
  opts.seed = 9;
  opts.mutate_skip_backup_ack = true;
  chaos::ChaosRunResult first = chaos::RunChaos(opts);
  ASSERT_FALSE(first.ok) << "mutated protocol must violate the oracle";
  ASSERT_FALSE(first.postmortem.empty());

  // Same seed, same failure, byte-identical postmortem.
  chaos::ChaosRunResult second = chaos::RunChaos(opts);
  EXPECT_EQ(first.failure, second.failure);
  EXPECT_EQ(first.postmortem, second.postmortem);

  // The postmortem must let txdump reconstruct a commit across machines:
  // some transaction's records (coordinator phases + participant
  // commit-backup/commit-primary records) span at least 3 machines, and the
  // timeline shows COMMIT-BACKUP activity.
  std::map<std::string, std::set<uint32_t>> tx_machines;
  std::map<std::string, bool> tx_commit_backup;
  std::istringstream in(first.postmortem);
  std::string line;
  size_t records = 0;
  while (std::getline(in, line)) {
    flight::DrainedRecord d;
    if (!flight::ParseRecordLine(line, &d)) {
      continue;
    }
    records++;
    if ((d.rec.flags & flight::Record::kHasTx) == 0) {
      continue;
    }
    std::ostringstream id;
    id << d.rec.tx_config << "," << d.rec.tx_machine << "," << d.rec.tx_thread << ","
       << d.rec.tx_local;
    tx_machines[id.str()].insert(d.machine);
    flight::EventKind k = static_cast<flight::EventKind>(d.rec.kind);
    if (k == flight::EventKind::kCommitBackupRecord ||
        (k == flight::EventKind::kPhaseEnd &&
         d.rec.arg == static_cast<uint8_t>(flight::Phase::kCommitBackup))) {
      tx_commit_backup[id.str()] = true;
    }
  }
  EXPECT_GT(records, 0u);
  bool spans_three = false;
  for (const auto& [id, machines] : tx_machines) {
    if (machines.size() >= 3 && tx_commit_backup.count(id) != 0) {
      spans_three = true;
      break;
    }
  }
  EXPECT_TRUE(spans_three)
      << "expected a transaction with COMMIT-BACKUP records spanning >= 3 machines";
}

TEST(ChaosPostmortemTest, CleanRunHasNoPostmortem) {
  chaos::ChaosRunOptions opts;
  opts.seed = 9;
  chaos::ChaosRunResult res = chaos::RunChaos(opts);
  ASSERT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.postmortem.empty());
}

// ---------------------------------------------------------------------------
// Abort-reason taxonomy
// ---------------------------------------------------------------------------

TEST(AbortReasonTest, CountersSumToAbortTotalsUnderContention) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, /*seed=*/21));
  TatpOptions topts;
  topts.subscribers = 100;  // tiny key space: heavy lock/validate conflicts
  auto db = RunTask(
      *cluster,
      [](Cluster* c, TatpOptions o) -> Task<StatusOr<TatpDb>> {
        co_return co_await TatpDb::Create(*c, o);
      }(cluster.get(), topts),
      60 * kSecond);
  ASSERT_TRUE(db.has_value() && db->ok());
  db->value().RegisterServices(*cluster);

  DriverOptions dopts;
  dopts.threads_per_machine = 2;
  dopts.concurrency_per_thread = 8;
  dopts.warmup = 5 * kMillisecond;
  dopts.measure = 40 * kMillisecond;
  DriverResult r = RunClosedLoop(*cluster, db->value().MakeWorkload(), dopts);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.aborted, 0u) << "100 subscribers at 64-way concurrency must conflict";

  uint64_t by_reason = 0;
  for (int i = 1; i <= flight::kNumCountedAbortReasons; i++) {
    by_reason += cluster->metrics_registry()
                     .GetCounter("tx_abort_reason",
                                 {{"reason", flight::AbortReasonName(
                                                 static_cast<flight::AbortReason>(i))}})
                     .value();
  }
  NodeStats total = cluster->TotalStats();
  uint64_t aborts = total.tx_aborted_lock + total.tx_aborted_validate + total.tx_recovered_abort;
  EXPECT_EQ(by_reason, aborts)
      << "every counted abort carries exactly one reason";
  EXPECT_GT(by_reason, 0u);
}

// A coordinator's recovery-decided outcome is counted once, where it
// finishes, however many machines took part in deciding it.
TEST(AbortReasonTest, RecoveredOutcomesCountedOnceAcrossAKill) {
  for (uint64_t seed : {21, 22, 23}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto cluster = MakeStartedCluster(SmallClusterOptions(6, seed));
    TatpOptions topts;
    topts.subscribers = 200;
    auto db = RunTask(
        *cluster,
        [](Cluster* c, TatpOptions o) -> Task<StatusOr<TatpDb>> {
          co_return co_await TatpDb::Create(*c, o);
        }(cluster.get(), topts),
        60 * kSecond);
    ASSERT_TRUE(db.has_value() && db->ok());
    db->value().RegisterServices(*cluster);

    DriverOptions dopts;
    dopts.threads_per_machine = 2;
    dopts.concurrency_per_thread = 8;
    DriverRun run = StartWorkers(*cluster, db->value().MakeWorkload(), dopts);
    cluster->RunFor(20 * kMillisecond);
    cluster->Kill(static_cast<MachineId>(seed % 6));
    cluster->RunFor(200 * kMillisecond);
    StopWorkers(*cluster, run);

    NodeStats total = cluster->TotalStats();
    EXPECT_GT(total.recovering_txs_seen, 0u) << "the kill must leave recovering txs";
    EXPECT_LE(total.tx_recovered_commit + total.tx_recovered_abort, total.recovering_txs_seen);
    uint64_t by_reason = 0;
    for (int i = 1; i <= flight::kNumCountedAbortReasons; i++) {
      by_reason += cluster->metrics_registry().GetCounter(
          "tx_abort_reason",
          {{"reason", flight::AbortReasonName(static_cast<flight::AbortReason>(i))}});
    }
    EXPECT_EQ(by_reason,
              total.tx_aborted_lock + total.tx_aborted_validate + total.tx_recovered_abort);
  }
}

// ---------------------------------------------------------------------------
// Tx-tagged logging
// ---------------------------------------------------------------------------

TEST(LogTxScopeTest, TagsNestAndRestore) {
  EXPECT_EQ(LogTxScope::CurrentTag(), "");
  {
    LogTxScope outer(1, 2, 0, 77);
    EXPECT_EQ(LogTxScope::CurrentTag(), "tx<1,2,0,77>");
    {
      LogTxScope inner(1, 3, 1, 78);
      EXPECT_EQ(LogTxScope::CurrentTag(), "tx<1,3,1,78>");
    }
    EXPECT_EQ(LogTxScope::CurrentTag(), "tx<1,2,0,77>");
  }
  EXPECT_EQ(LogTxScope::CurrentTag(), "");
}

}  // namespace
}  // namespace farm
