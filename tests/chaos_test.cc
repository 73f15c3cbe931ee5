// Chaos subsystem tests: seeded plan generation, schedule dump/replay,
// the multi-seed sweep, and the oracle's ability to catch a deliberately
// broken commit protocol.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/chaos/harness.h"
#include "src/chaos/oracle.h"
#include "src/chaos/plan.h"

namespace farm {
namespace chaos {
namespace {

// ---------------------------------------------------------------------------
// ChaosPlan: generation + text round-trip
// ---------------------------------------------------------------------------

TEST(ChaosPlanTest, GenerationIsDeterministic) {
  PlanOptions opts;
  ChaosPlan a = ChaosPlan::Generate(opts, 42);
  ChaosPlan b = ChaosPlan::Generate(opts, 42);
  EXPECT_EQ(a.ToText(), b.ToText());
  ChaosPlan c = ChaosPlan::Generate(opts, 43);
  EXPECT_NE(a.ToText(), c.ToText()) << "different seeds must differ";
}

TEST(ChaosPlanTest, EventsStayInsideTheHorizon) {
  PlanOptions opts;
  for (uint64_t seed = 1; seed <= 50; seed++) {
    ChaosPlan p = ChaosPlan::Generate(opts, seed);
    EXPECT_FALSE(p.events.empty()) << "seed " << seed;
    for (const ChaosEvent& e : p.events) {
      EXPECT_GE(e.at, opts.start) << "seed " << seed;
      EXPECT_LT(e.at, opts.horizon) << "seed " << seed;
    }
  }
}

TEST(ChaosPlanTest, TextRoundTripIsExact) {
  ChaosPlan p = ChaosPlan::Generate(PlanOptions{}, 1234);
  std::string text = p.ToText();
  ChaosPlan parsed;
  ASSERT_TRUE(ChaosPlan::Parse(text, &parsed));
  EXPECT_EQ(parsed.ToText(), text);
  EXPECT_EQ(parsed.seed, p.seed);
  ASSERT_EQ(parsed.events.size(), p.events.size());
  for (size_t i = 0; i < p.events.size(); i++) {
    EXPECT_EQ(parsed.events[i].at, p.events[i].at);
    EXPECT_EQ(parsed.events[i].kind, p.events[i].kind);
    EXPECT_EQ(parsed.events[i].pick, p.events[i].pick);
    EXPECT_EQ(parsed.events[i].param, p.events[i].param);
  }
}

TEST(ChaosPlanTest, ParseRejectsGarbage) {
  ChaosPlan p;
  EXPECT_FALSE(ChaosPlan::Parse("", &p));
  EXPECT_FALSE(ChaosPlan::Parse("not a plan\n", &p));
  EXPECT_FALSE(ChaosPlan::Parse("farm-chaos-plan v1\nevent 10 no-such-kind 0 0\n", &p));
}

TEST(ChaosPlanTest, KindNamesRoundTrip) {
  for (int k = 1; k <= 14; k++) {
    EventKind kind = static_cast<EventKind>(k);
    EventKind back;
    ASSERT_TRUE(EventKindFromName(EventKindName(kind), &back)) << k;
    EXPECT_EQ(back, kind);
  }
  EventKind unused;
  EXPECT_FALSE(EventKindFromName("bogus", &unused));
}

// ---------------------------------------------------------------------------
// Harness: sweep, replay, mutation catch
// ---------------------------------------------------------------------------

TEST(ChaosHarnessTest, MultiSeedSweepHoldsInvariants) {
  for (uint64_t seed = 1; seed <= 20; seed++) {
    ChaosRunOptions opts;
    opts.seed = seed;
    ChaosRunResult res = RunChaos(opts);
    EXPECT_TRUE(res.ok) << "seed " << seed << ": " << res.failure;
    EXPECT_GT(res.commits, 1000u) << "seed " << seed;
  }
}

TEST(ChaosHarnessTest, DumpedPlanReplaysByteIdentically) {
  ChaosRunOptions opts;
  opts.seed = 8;  // a seed whose plan has several faults
  ChaosRunResult first = RunChaos(opts);
  ASSERT_TRUE(first.ok) << first.failure;

  // Dump -> parse -> replay must reproduce the run exactly: same commits,
  // same resolved event log, same outcome.
  std::string dumped = first.plan.ToText();
  ChaosPlan parsed;
  ASSERT_TRUE(ChaosPlan::Parse(dumped, &parsed));
  ChaosRunResult replay = RunChaosPlan(opts, parsed);
  EXPECT_EQ(replay.ok, first.ok);
  EXPECT_EQ(replay.commits, first.commits);
  EXPECT_EQ(replay.unknown_outcomes, first.unknown_outcomes);
  EXPECT_EQ(replay.last_commit, first.last_commit);
  EXPECT_EQ(replay.event_log, first.event_log);
  EXPECT_EQ(replay.plan.ToText(), dumped);
}

TEST(ChaosHarnessTest, BrokenCommitProtocolIsCaught) {
  // Skipping the wait for backup hardware acks is the paper's canonical
  // serializability bug: a commit can be reported while a partitioned backup
  // is missing the record, and a later primary failure surfaces the stale
  // replica. Seed 9's schedule (partition + kill) exposes it.
  ChaosRunOptions opts;
  opts.seed = 9;
  opts.mutate_skip_backup_ack = true;
  ChaosRunResult res = RunChaos(opts);
  EXPECT_FALSE(res.ok) << "mutated protocol must violate the oracle";
  EXPECT_NE(res.failure.find("claim"), std::string::npos) << res.failure;

  // The same schedule under the correct protocol is clean.
  opts.mutate_skip_backup_ack = false;
  ChaosRunResult clean = RunChaos(opts);
  EXPECT_TRUE(clean.ok) << clean.failure;
}

// ---------------------------------------------------------------------------
// Oracle unit tests (synthetic histories, no cluster)
// ---------------------------------------------------------------------------

TransferOp MakeOp(uint64_t uid, OpOutcome outcome, SimTime begin, SimTime end,
                  std::vector<AccountAccess> accesses) {
  TransferOp op;
  op.uid = uid;
  op.tx = TxId{1, static_cast<MachineId>(uid % 4), 0, uid};
  op.outcome = outcome;
  op.begin = begin;
  op.end = end;
  op.accesses = std::move(accesses);
  return op;
}

TEST(BankOracleTest, AcceptsACleanHistory) {
  BankOracle oracle(2, 0);
  // a -> b for 5, then b -> a for 3.
  oracle.Record(MakeOp(1, OpOutcome::kCommitted, 10, 20,
                       {{0, 0, 0, -5}, {1, 0, 0, 5}}));
  oracle.Record(MakeOp(2, OpOutcome::kCommitted, 30, 40,
                       {{0, 1, -5, -2}, {1, 1, 5, 2}}));
  std::string failure;
  EXPECT_TRUE(oracle.Check({{2, -2}, {2, 2}}, &failure)) << failure;
}

TEST(BankOracleTest, RejectsDuplicateTxId) {
  BankOracle oracle(2, 0);
  TransferOp a = MakeOp(1, OpOutcome::kCommitted, 10, 20, {{0, 0, 0, -5}, {1, 0, 0, 5}});
  TransferOp b = MakeOp(2, OpOutcome::kCommitted, 30, 40, {{0, 1, -5, -2}, {1, 1, 5, 2}});
  b.tx = a.tx;
  oracle.Record(a);
  oracle.Record(b);
  std::string failure;
  EXPECT_FALSE(oracle.Check({{2, -2}, {2, 2}}, &failure));
  EXPECT_NE(failure.find("duplicate commit"), std::string::npos) << failure;
}

TEST(BankOracleTest, RejectsConservationViolation) {
  BankOracle oracle(2, 0);
  oracle.Record(MakeOp(1, OpOutcome::kCommitted, 10, 20,
                       {{0, 0, 0, -5}, {1, 0, 0, 5}}));
  std::string failure;
  // Account 1 ends with 6: money was created.
  EXPECT_FALSE(oracle.Check({{1, -5}, {1, 6}}, &failure));
  EXPECT_NE(failure.find("conservation"), std::string::npos) << failure;
}

TEST(BankOracleTest, RejectsLostCommittedWrite) {
  BankOracle oracle(2, 0);
  oracle.Record(MakeOp(1, OpOutcome::kCommitted, 10, 20,
                       {{0, 0, 0, -5}, {1, 0, 0, 5}}));
  std::string failure;
  // Final state never saw the committed write (seq still 0 on both).
  EXPECT_FALSE(oracle.Check({{0, 0}, {0, 0}}, &failure));
  EXPECT_NE(failure.find("lost committed write"), std::string::npos) << failure;
}

TEST(BankOracleTest, RejectsDoubleWrite) {
  BankOracle oracle(2, 0);
  // Both ops read seq 0 on account 0 and both claim slot 1.
  oracle.Record(MakeOp(1, OpOutcome::kCommitted, 10, 20,
                       {{0, 0, 0, -5}, {1, 0, 0, 5}}));
  oracle.Record(MakeOp(2, OpOutcome::kCommitted, 30, 40,
                       {{0, 0, 0, -3}, {1, 1, 5, 8}}));
  std::string failure;
  // Final balances conserve (sum 0) so the chain check is what fires.
  EXPECT_FALSE(oracle.Check({{1, -5}, {2, 5}}, &failure));
  EXPECT_NE(failure.find("both claim"), std::string::npos) << failure;
}

TEST(BankOracleTest, UnknownOutcomeMayFillGaps) {
  BankOracle oracle(2, 0);
  // The unknown op read seq 0 and would have written -7/7; the final state
  // shows its effects, so recovery must have committed it.
  oracle.Record(MakeOp(1, OpOutcome::kUnknown, 10, kSimTimeNever,
                       {{0, 0, 0, -7}, {1, 0, 0, 7}}));
  std::string failure;
  EXPECT_TRUE(oracle.Check({{1, -7}, {1, 7}}, &failure)) << failure;
  // ...and a final state without its effects is equally explainable
  // (recovery aborted it).
  BankOracle oracle2(2, 0);
  oracle2.Record(MakeOp(1, OpOutcome::kUnknown, 10, kSimTimeNever,
                        {{0, 0, 0, -7}, {1, 0, 0, 7}}));
  EXPECT_TRUE(oracle2.Check({{0, 0}, {0, 0}}, &failure)) << failure;
}

TEST(BankOracleTest, RejectsRealTimeOrderViolation) {
  BankOracle oracle(2, 0);
  // Op 1 commits (end=20) strictly before op 2 even begins (30), yet the
  // chains put op 2's writes in the EARLIER slots: real-time edge 1 -> 2
  // plus chain edges 2 -> 1 form a cycle. Conservation and the per-account
  // chains are individually fine.
  oracle.Record(MakeOp(1, OpOutcome::kCommitted, 10, 20,
                       {{0, 1, -4, -6}, {1, 1, 4, 6}}));
  oracle.Record(MakeOp(2, OpOutcome::kCommitted, 30, 40,
                       {{0, 0, 0, -4}, {1, 0, 0, 4}}));
  std::string failure;
  EXPECT_FALSE(oracle.Check({{2, -6}, {2, 6}}, &failure));
}

}  // namespace
}  // namespace chaos
}  // namespace farm
