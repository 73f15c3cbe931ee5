// Tests for the coordination (ZooKeeper-substitute) service.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/nvram/nvram.h"
#include "src/zk/coord.h"

namespace farm {
namespace {

class ZkTest : public ::testing::Test {
 protected:
  static constexpr int kReplicas = 5;
  static constexpr MachineId kClient = 5;
  static constexpr MachineId kClient2 = 6;

  ZkTest() : fabric_(sim_) {
    for (MachineId i = 0; i < kReplicas + 2; i++) {
      machines_.push_back(std::make_unique<Machine>(sim_, i, 2, static_cast<int>(i)));
      stores_.push_back(std::make_unique<NvramStore>());
      fabric_.AddMachine(machines_.back().get(), stores_.back().get());
    }
    zk_ = std::make_unique<CoordinationService>(fabric_, std::vector<MachineId>{0, 1, 2, 3, 4});
  }

  Simulator sim_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::unique_ptr<NvramStore>> stores_;
  std::unique_ptr<CoordinationService> zk_;
};

TEST_F(ZkTest, InitialReadIsEmptyVersionZero) {
  bool done = false;
  auto coro = [&]() -> Task<void> {
    auto v = co_await zk_->Read(kClient);
    EXPECT_TRUE(v.ok());
    if (!v.ok()) {
      co_return;
    }
    EXPECT_EQ(v->version, 0u);
    EXPECT_TRUE(v->data.empty());
    done = true;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ZkTest, CasThenRead) {
  bool done = false;
  auto coro = [&]() -> Task<void> {
    std::vector<uint8_t> blob = {1, 2, 3};
    auto r = co_await zk_->CompareAndSwap(kClient, 0, blob);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) {
      co_return;
    }
    EXPECT_EQ(*r, 1u);
    auto v = co_await zk_->Read(kClient);
    EXPECT_TRUE(v.ok());
    if (!v.ok()) {
      co_return;
    }
    EXPECT_EQ(v->version, 1u);
    EXPECT_EQ(v->data, blob);
    done = true;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ZkTest, StaleCasRejected) {
  bool done = false;
  auto coro = [&]() -> Task<void> {
    std::vector<uint8_t> one = {1};
    std::vector<uint8_t> two = {2};
    auto r1 = co_await zk_->CompareAndSwap(kClient, 0, one);
    EXPECT_TRUE(r1.ok());
    auto r2 = co_await zk_->CompareAndSwap(kClient, 0, two);
    EXPECT_FALSE(r2.ok());
    if (r2.ok()) {
      co_return;
    }
    EXPECT_EQ(r2.status().code(), StatusCode::kFailedPrecondition);
    done = true;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ZkTest, ConcurrentCasOnlyOneWins) {
  // Two clients race to move version 0 -> 1: exactly one must win.
  int wins = 0;
  int losses = 0;
  auto racer = [&](MachineId client, uint8_t tag) -> Task<void> {
    std::vector<uint8_t> blob = {tag};
    auto r = co_await zk_->CompareAndSwap(client, 0, blob);
    if (r.ok()) {
      wins++;
    } else {
      losses++;
    }
  };
  Spawn(racer(kClient, 10));
  Spawn(racer(kClient2, 20));
  sim_.Run();
  EXPECT_EQ(wins, 1);
  EXPECT_EQ(losses, 1);
}

TEST_F(ZkTest, SurvivesLeaderFailure) {
  bool done = false;
  auto coro = [&]() -> Task<void> {
    std::vector<uint8_t> one = {1};
    std::vector<uint8_t> two = {2};
    auto r1 = co_await zk_->CompareAndSwap(kClient, 0, one);
    EXPECT_TRUE(r1.ok());
    if (!r1.ok()) {
      co_return;
    }
    machines_[0]->Kill();  // kill the leader replica
    auto v = co_await zk_->Read(kClient);
    EXPECT_TRUE(v.ok());
    if (!v.ok()) {
      co_return;
    }
    EXPECT_EQ(v->version, 1u);
    EXPECT_EQ(v->data, one);
    auto r2 = co_await zk_->CompareAndSwap(kClient, 1, two);
    EXPECT_TRUE(r2.ok());
    if (!r2.ok()) {
      co_return;
    }
    EXPECT_EQ(*r2, 2u);
    done = true;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ZkTest, SurvivesTwoReplicaFailures) {
  bool done = false;
  auto coro = [&]() -> Task<void> {
    std::vector<uint8_t> blob = {7};
    auto r1 = co_await zk_->CompareAndSwap(kClient, 0, blob);
    EXPECT_TRUE(r1.ok());
    if (!r1.ok()) {
      co_return;
    }
    machines_[0]->Kill();
    machines_[1]->Kill();
    auto v = co_await zk_->Read(kClient);
    EXPECT_TRUE(v.ok());
    if (!v.ok()) {
      co_return;
    }
    EXPECT_EQ(v->version, 1u);
    done = true;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ZkTest, NoMajorityNoProgress) {
  bool done = false;
  auto coro = [&]() -> Task<void> {
    machines_[0]->Kill();
    machines_[1]->Kill();
    machines_[2]->Kill();  // 3 of 5 dead: no quorum for writes
    std::vector<uint8_t> blob = {1};
    auto r = co_await zk_->CompareAndSwap(kClient, 0, blob);
    EXPECT_FALSE(r.ok());
    done = true;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ZkTest, MinorityPartitionCannotCommit) {
  bool done = false;
  auto coro = [&]() -> Task<void> {
    // Leader (replica 0) and the client land in the minority partition.
    fabric_.SetPartition({{0, 1, kClient}, {2, 3, 4, kClient2}});
    std::vector<uint8_t> one = {1};
    std::vector<uint8_t> two = {2};
    auto r = co_await zk_->CompareAndSwap(kClient, 0, one);
    EXPECT_FALSE(r.ok());
    // Majority side still makes progress.
    auto r2 = co_await zk_->CompareAndSwap(kClient2, 0, two);
    EXPECT_TRUE(r2.ok());
    done = true;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace farm
