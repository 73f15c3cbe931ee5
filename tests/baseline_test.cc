// Tests for the baseline systems (single-machine OCC and 2PC/Paxos).
#include <gtest/gtest.h>

#include "src/baseline/local_occ.h"
#include "src/baseline/twopc.h"
#include "src/nvram/nvram.h"

namespace farm {
namespace {

TEST(LocalOccTest, CommitsAndAdvancesVersions) {
  Simulator sim;
  Machine machine(sim, 0, 4, 0);
  LocalOccEngine engine(sim, machine, LocalOccEngine::Options{});
  engine.Seed(1, 32);
  engine.Seed(2, 32);

  auto run = [&]() -> Task<void> {
    std::vector<uint64_t> r1 = {1, 2};
    std::vector<uint64_t> w1 = {1};
    bool ok = co_await engine.RunTx(0, r1, w1, 32);
    EXPECT_TRUE(ok);
    std::vector<uint64_t> r2 = {2};
    bool ok2 = co_await engine.RunTx(1, r2, r2, 32);
    EXPECT_TRUE(ok2);
  };
  Spawn(run());
  sim.Run();
  EXPECT_EQ(engine.committed(), 2u);
  EXPECT_EQ(engine.aborted(), 0u);
}

TEST(LocalOccTest, ConflictingWritersOneAborts) {
  Simulator sim;
  Machine machine(sim, 0, 4, 0);
  LocalOccEngine::Options opts;
  opts.logging = true;
  LocalOccEngine engine(sim, machine, opts);
  engine.Seed(7, 32);

  int commits = 0;
  auto writer = [&](int thread) -> Task<void> {
    std::vector<uint64_t> keys = {7};
    bool ok = co_await engine.RunTx(thread, keys, keys, 32);
    if (ok) {
      commits++;
    }
  };
  // Both transactions overlap in simulated time (logging delays commit).
  Spawn(writer(0));
  Spawn(writer(1));
  sim.Run();
  EXPECT_GE(commits, 1);
  EXPECT_EQ(engine.committed() + engine.aborted(), 2u);
}

TEST(LocalOccTest, LoggingAddsLatency) {
  Simulator sim;
  Machine machine(sim, 0, 2, 0);
  LocalOccEngine::Options with_log;
  with_log.logging = true;
  LocalOccEngine logged(sim, machine, with_log);
  SimTime t_logged = 0;
  auto run1 = [&]() -> Task<void> {
    std::vector<uint64_t> keys = {1};
    (void)co_await logged.RunTx(0, keys, keys, 32);
    t_logged = sim.Now();
  };
  Spawn(run1());
  sim.Run();
  // Group commit: at least flush interval + SSD latency.
  EXPECT_GE(t_logged, LocalOccEngine::kLogFlushInterval + LocalOccEngine::kSsdFlushLatency);

  Simulator sim2;
  Machine machine2(sim2, 0, 2, 0);
  LocalOccEngine::Options no_log;
  no_log.logging = false;
  LocalOccEngine unlogged(sim2, machine2, no_log);
  SimTime t_unlogged = 0;
  auto run2 = [&]() -> Task<void> {
    std::vector<uint64_t> keys = {1};
    (void)co_await unlogged.RunTx(0, keys, keys, 32);
    t_unlogged = sim2.Now();
  };
  Spawn(run2());
  sim2.Run();
  EXPECT_LT(t_unlogged, t_logged);
}

class TwoPcTest : public ::testing::Test {
 protected:
  static constexpr int kMachines = 13;  // 3 groups x 3 + coordinator group x 3 + client

  TwoPcTest() : fabric_(sim_) {
    for (MachineId i = 0; i < kMachines; i++) {
      machines_.push_back(std::make_unique<Machine>(sim_, i, 4, static_cast<int>(i)));
      stores_.push_back(std::make_unique<NvramStore>());
      fabric_.AddMachine(machines_.back().get(), stores_.back().get());
    }
    std::vector<MachineId> members;
    for (MachineId i = 0; i < 12; i++) {
      members.push_back(i);
    }
    system_ = std::make_unique<TwoPcSystem>(fabric_, members, TwoPcSystem::Options{});
  }

  Simulator sim_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::unique_ptr<NvramStore>> stores_;
  std::unique_ptr<TwoPcSystem> system_;
};

TEST_F(TwoPcTest, CommitsAcrossGroups) {
  bool done = false;
  auto run = [&]() -> Task<void> {
    std::vector<uint64_t> keys = {1, 2, 3};  // spans all three groups
    bool ok = co_await system_->RunTx(12, keys);
    EXPECT_TRUE(ok);
    done = true;
  };
  Spawn(run());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(system_->committed(), 1u);
}

TEST_F(TwoPcTest, MessageCountMatchesAnalysis) {
  // One transaction writing one key in each of P=3 groups with 2f+1=3
  // replicas: prepare (1 rpc + 2 replication rpcs) and commit (1 + 2) per
  // participant, plus the coordinator decision (1 + 2). Each RPC is two
  // messages on the wire.
  const uint64_t rpcs_before = fabric_.stats().rpcs;
  auto run = [&]() -> Task<void> {
    std::vector<uint64_t> keys = {1, 2, 3};
    (void)co_await system_->RunTx(12, keys);
  };
  Spawn(run());
  sim_.Run();
  uint64_t rpcs = fabric_.stats().rpcs - rpcs_before;
  // P participants: 2 phases x (1 leader rpc + 2 follower rpcs) = 18, plus
  // coordinator decision: 1 + 2 = 3. Total 21 RPCs = 42 messages.
  EXPECT_EQ(rpcs, 21u);
  // The paper's formula: 4P(2f+1) = 4*3*3 = 36 messages -- the same order;
  // our flow batches the client into the coordinator role.
  EXPECT_GE(2 * rpcs, 36u);
}

TEST_F(TwoPcTest, FollowerFailureStillCommitsWithMajority) {
  machines_[1]->Kill();  // a follower in group 0
  bool ok_out = false;
  auto run = [&]() -> Task<void> {
    std::vector<uint64_t> keys = {0};  // group 0 only
    ok_out = co_await system_->RunTx(12, keys);
  };
  Spawn(run());
  sim_.Run();
  EXPECT_TRUE(ok_out);
}

TEST_F(TwoPcTest, LeaderFailureAborts) {
  machines_[0]->Kill();  // leader of group 0 (no leader failover modeled)
  bool ok_out = true;
  auto run = [&]() -> Task<void> {
    std::vector<uint64_t> keys = {0};
    ok_out = co_await system_->RunTx(12, keys);
  };
  Spawn(run());
  sim_.Run();
  EXPECT_FALSE(ok_out);
}

}  // namespace
}  // namespace farm
