// Tests for the simulated RDMA fabric and NVRAM store.
#include <gtest/gtest.h>

#include <cstring>

#include "src/net/cost_model.h"
#include "src/net/fabric.h"
#include "src/nvram/energy_model.h"
#include "src/nvram/nvram.h"

namespace farm {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  static constexpr int kMachines = 4;

  FabricTest() : fabric_(sim_) {
    for (int i = 0; i < kMachines; i++) {
      machines_.push_back(std::make_unique<Machine>(sim_, static_cast<MachineId>(i), 4, i));
      stores_.push_back(std::make_unique<NvramStore>());
      fabric_.AddMachine(machines_.back().get(), stores_.back().get());
    }
  }

  Simulator sim_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::unique_ptr<NvramStore>> stores_;
};

TEST_F(FabricTest, WriteThenReadRemote) {
  uint64_t addr = stores_[1]->Allocate(64);
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  bool done = false;

  auto coro = [&]() -> Task<void> {
    NetResult w = co_await fabric_.Write(0, 1, addr, payload);
    EXPECT_TRUE(w.status.ok());
    NetResult r = co_await fabric_.Read(0, 1, addr, 5);
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.data, payload);
    done = true;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(FabricTest, ReadHasNetworkLatency) {
  uint64_t addr = stores_[1]->Allocate(64);
  SimTime completed = 0;
  auto coro = [&]() -> Task<void> {
    (void)co_await fabric_.Read(0, 1, addr, 8);
    completed = sim_.Now();
  };
  Spawn(coro());
  sim_.Run();
  // At least two wire latencies plus NIC occupancy.
  EXPECT_GE(completed, 2 * kCost.wire_latency);
  EXPECT_LT(completed, 100 * kMicrosecond);
}

TEST_F(FabricTest, OneSidedOpsChargeNoRemoteCpu) {
  uint64_t addr = stores_[1]->Allocate(4096);
  auto coro = [&]() -> Task<void> {
    for (int i = 0; i < 100; i++) {
      NetResult r = co_await fabric_.Read(0, 1, addr, 256, &machines_[0]->thread(0));
      EXPECT_TRUE(r.status.ok());
    }
  };
  Spawn(coro());
  sim_.Run();
  // Initiator burned CPU; target burned none.
  EXPECT_GT(machines_[0]->thread(0).total_busy(), 0u);
  for (int t = 0; t < 4; t++) {
    EXPECT_EQ(machines_[1]->thread(t).total_busy(), 0u);
  }
}

TEST_F(FabricTest, CasAtomicSemantics) {
  uint64_t addr = stores_[1]->Allocate(64);
  uint64_t* word = reinterpret_cast<uint64_t*>(stores_[1]->Data(addr, 8));
  *word = 100;

  auto coro = [&]() -> Task<void> {
    NetResult r1 = co_await fabric_.Cas(0, 1, addr, 100, 200);
    EXPECT_TRUE(r1.status.ok());
    uint64_t observed;
    std::memcpy(&observed, r1.data.data(), 8);
    EXPECT_EQ(observed, 100u);  // swap happened

    NetResult r2 = co_await fabric_.Cas(0, 1, addr, 100, 300);
    std::memcpy(&observed, r2.data.data(), 8);
    EXPECT_EQ(observed, 200u);  // mismatch: no swap
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_EQ(*word, 200u);
}

TEST_F(FabricTest, ReadUnregisteredAddressFaults) {
  auto coro = [&]() -> Task<void> {
    NetResult r = co_await fabric_.Read(0, 1, 0xdead0000, 8);
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  };
  Spawn(coro());
  sim_.Run();
}

TEST_F(FabricTest, OpsToDeadMachineTimeOut) {
  uint64_t addr = stores_[1]->Allocate(64);
  machines_[1]->Kill();
  Status status = OkStatus();
  auto coro = [&]() -> Task<void> {
    NetResult r = co_await fabric_.Read(0, 1, addr, 8);
    status = r.status;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_GE(sim_.Now(), kCost.rc_op_timeout);
}

TEST_F(FabricTest, PartitionBlocksTraffic) {
  uint64_t addr = stores_[1]->Allocate(64);
  fabric_.SetPartition({{0, 2}, {1, 3}});
  Status status = OkStatus();
  auto coro = [&]() -> Task<void> {
    NetResult r = co_await fabric_.Read(0, 1, addr, 8);
    status = r.status;
    // Same-side traffic still flows.
    uint64_t addr2 = stores_[2]->Allocate(64);
    NetResult r2 = co_await fabric_.Read(0, 2, addr2, 8);
    EXPECT_TRUE(r2.status.ok());
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);

  fabric_.ClearPartition();
  EXPECT_TRUE(fabric_.Reachable(0, 1));
}

TEST_F(FabricTest, RpcRoundTrip) {
  fabric_.RegisterRpcService(1, 7, 0, 3,
                             [](MachineId from, std::vector<uint8_t> req, Fabric::ReplyFn reply) {
                               EXPECT_EQ(from, 0u);
                               req.push_back(0xee);
                               reply(std::move(req));
                             });
  bool done = false;
  auto coro = [&]() -> Task<void> {
    std::vector<uint8_t> req = {1, 2, 3};
    NetResult r = co_await fabric_.Call(0, 1, 7, req);
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.data, (std::vector<uint8_t>{1, 2, 3, 0xee}));
    done = true;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(FabricTest, RpcChargesRemoteCpu) {
  fabric_.RegisterRpcService(1, 7, 0, 0,
                             [](MachineId, std::vector<uint8_t> req, Fabric::ReplyFn reply) {
                               reply(std::move(req));
                             });
  auto coro = [&]() -> Task<void> {
    std::vector<uint8_t> req = {1};
    for (int i = 0; i < 10; i++) {
      (void)co_await fabric_.Call(0, 1, 7, req);
    }
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_GE(machines_[1]->thread(0).total_busy(), 10 * kCost.cpu_rpc_handler);
}

TEST_F(FabricTest, RpcToDeadMachineTimesOut) {
  machines_[1]->Kill();
  Status status = OkStatus();
  auto coro = [&]() -> Task<void> {
    std::vector<uint8_t> req = {1};
    NetResult r = co_await fabric_.Call(0, 1, 7, req, nullptr, 500 * kMicrosecond);
    status = r.status;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kTimedOut);
}

TEST_F(FabricTest, RpcUnknownServiceFails) {
  Status status = OkStatus();
  auto coro = [&]() -> Task<void> {
    std::vector<uint8_t> req = {1};
    NetResult r = co_await fabric_.Call(0, 1, 99, req);
    status = r.status;
  };
  Spawn(coro());
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

// A reply that wins its race cancels the call's timeout, so it leaves no
// event behind; a timeout that wins (dropped reply) still fires at exactly
// issue time + timeout; a duplicated reply is still absorbed.
TEST_F(FabricTest, RpcReplyCancelsTimeout) {
  fabric_.RegisterRpcService(1, 7, 0, 0,
                             [](MachineId, std::vector<uint8_t> req, Fabric::ReplyFn reply) {
                               reply(std::move(req));
                             });
  constexpr SimDuration kTimeout = 500 * kMicrosecond;
  HwThread* thread = &machines_[0]->thread(0);
  int completions = 0;
  Status status = OkStatus();
  SimTime completed_at = 0;
  auto call = [&]() -> Task<void> {
    std::vector<uint8_t> req = {1};
    NetResult r = co_await fabric_.Call(0, 1, 7, req, thread, kTimeout);
    completions++;
    status = r.status;
    completed_at = sim_.Now();
  };

  // Replied: the queue empties at the completion, not at the timeout.
  Spawn(call());
  sim_.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(status.ok());
  EXPECT_LT(completed_at, kTimeout);
  EXPECT_EQ(sim_.Now(), completed_at);

  // Dropped reply: the timeout fires at issue_done + timeout, and the
  // completion poll follows on the issuing thread.
  LinkFaults drop;
  drop.drop = 1.0;
  fabric_.SetLinkFaults(1, 0, drop);
  SimTime issue_done = sim_.Now() + kCost.cpu_rpc_issue;
  Spawn(call());
  sim_.Run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(status.code(), StatusCode::kTimedOut);
  EXPECT_EQ(completed_at, issue_done + kTimeout + kCost.cpu_rpc_completion);

  // Duplicated reply: one completion, and the queue drains long before the
  // timeout would have fired.
  LinkFaults dup;
  dup.dup = 1.0;
  fabric_.SetLinkFaults(1, 0, dup);
  SimTime issued = sim_.Now();
  Spawn(call());
  sim_.Run();
  EXPECT_EQ(completions, 3);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(fabric_.stats().faults_duplicated, 1u);
  EXPECT_LT(sim_.Now(), issued + kTimeout);
}

TEST_F(FabricTest, DatagramDelivered) {
  std::vector<uint8_t> got;
  MachineId got_from = kInvalidMachine;
  fabric_.SetDatagramHandler(2, [&](MachineId from, std::vector<uint8_t> p) {
    got_from = from;
    got = std::move(p);
  });
  fabric_.SendDatagram(0, 2, {9, 8, 7});
  sim_.Run();
  EXPECT_EQ(got_from, 0u);
  EXPECT_EQ(got, (std::vector<uint8_t>{9, 8, 7}));
}

TEST_F(FabricTest, DatagramLossDropsSilently) {
  fabric_.set_datagram_loss(1.0);
  int delivered = 0;
  fabric_.SetDatagramHandler(2, [&](MachineId, std::vector<uint8_t>) { delivered++; });
  for (int i = 0; i < 50; i++) {
    fabric_.SendDatagram(0, 2, {1});
  }
  sim_.Run();
  EXPECT_EQ(delivered, 0);
}

TEST_F(FabricTest, LinkFaultDropKillsOneDirectedLink) {
  LinkFaults lf;
  lf.drop = 1.0;
  fabric_.SetLinkFaults(0, 2, lf);
  int to2 = 0;
  int to3 = 0;
  fabric_.SetDatagramHandler(2, [&](MachineId, std::vector<uint8_t>) { to2++; });
  fabric_.SetDatagramHandler(3, [&](MachineId, std::vector<uint8_t>) { to3++; });
  for (int i = 0; i < 20; i++) {
    fabric_.SendDatagram(0, 2, {1});  // faulted link
    fabric_.SendDatagram(0, 3, {1});  // clean link
    fabric_.SendDatagram(1, 2, {1});  // clean link, same destination
  }
  sim_.Run();
  EXPECT_EQ(to2, 20);  // only the 1->2 copies
  EXPECT_EQ(to3, 20);
  EXPECT_EQ(fabric_.stats().faults_dropped, 20u);
  fabric_.ClearLinkFaults(0, 2);
  fabric_.SendDatagram(0, 2, {1});
  sim_.Run();
  EXPECT_EQ(to2, 21);  // link works again after clearing
}

TEST_F(FabricTest, LinkFaultDuplicatesAndCounts) {
  LinkFaults lf;
  lf.dup = 1.0;
  fabric_.SetLinkFaults(0, 2, lf);
  int delivered = 0;
  fabric_.SetDatagramHandler(2, [&](MachineId, std::vector<uint8_t>) { delivered++; });
  for (int i = 0; i < 10; i++) {
    fabric_.SendDatagram(0, 2, {1});
  }
  sim_.Run();
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(fabric_.stats().faults_duplicated, 10u);
}

TEST_F(FabricTest, LinkFaultExtraLatencyDelaysDelivery) {
  SimTime baseline = 0;
  SimTime slowed = 0;
  fabric_.SetDatagramHandler(2, [&](MachineId, std::vector<uint8_t>) { baseline = sim_.Now(); });
  fabric_.SendDatagram(0, 2, {1});
  sim_.Run();

  LinkFaults lf;
  lf.extra_latency = kMillisecond;
  fabric_.SetLinkFaults(0, 2, lf);
  fabric_.SetDatagramHandler(2, [&](MachineId, std::vector<uint8_t>) { slowed = sim_.Now(); });
  SimTime sent_at = sim_.Now();
  fabric_.SendDatagram(0, 2, {1});
  sim_.Run();
  EXPECT_GE(slowed - sent_at, baseline + kMillisecond);
  EXPECT_EQ(fabric_.stats().faults_delayed, 1u);
}

TEST_F(FabricTest, MachineLinkFaultsCoverBothDirections) {
  LinkFaults lf;
  lf.drop = 1.0;
  fabric_.SetMachineLinkFaults(2, lf);
  int at2 = 0;
  int at0 = 0;
  fabric_.SetDatagramHandler(2, [&](MachineId, std::vector<uint8_t>) { at2++; });
  fabric_.SetDatagramHandler(0, [&](MachineId, std::vector<uint8_t>) { at0++; });
  fabric_.SendDatagram(0, 2, {1});  // into the flaky NIC
  fabric_.SendDatagram(2, 0, {1});  // out of the flaky NIC
  fabric_.SendDatagram(1, 0, {1});  // unrelated link
  sim_.Run();
  EXPECT_EQ(at2, 0);
  EXPECT_EQ(at0, 1);
}

// Same fault seed => identical drop/dup/reorder/jitter decisions, delivery
// times and all. The chaos replay path depends on this.
TEST(FabricFaultDeterminism, SameSeedSameSchedule) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    Fabric fabric(sim);
    std::vector<std::unique_ptr<Machine>> machines;
    std::vector<std::unique_ptr<NvramStore>> stores;
    for (int i = 0; i < 2; i++) {
      machines.push_back(std::make_unique<Machine>(sim, static_cast<MachineId>(i), 4, i));
      stores.push_back(std::make_unique<NvramStore>());
      fabric.AddMachine(machines.back().get(), stores.back().get());
    }
    fabric.SeedFaultRng(seed);
    LinkFaults lf;
    lf.drop = 0.3;
    lf.dup = 0.2;
    lf.reorder = 0.3;
    lf.reorder_window = 200 * kMicrosecond;
    lf.jitter = 50 * kMicrosecond;
    fabric.SetLinkFaults(0, 1, lf);
    std::vector<std::pair<SimTime, uint8_t>> deliveries;
    fabric.SetDatagramHandler(1, [&](MachineId, std::vector<uint8_t> p) {
      deliveries.emplace_back(sim.Now(), p[0]);
    });
    for (int i = 0; i < 64; i++) {
      fabric.SendDatagram(0, 1, {static_cast<uint8_t>(i)});
    }
    sim.Run();
    return deliveries;
  };
  auto a = run(7);
  auto b = run(7);
  EXPECT_EQ(a, b);
  auto c = run(8);
  EXPECT_NE(a, c) << "different seeds should draw a different schedule";
}

TEST_F(FabricTest, StatsCountOps) {
  uint64_t addr = stores_[1]->Allocate(64);
  auto coro = [&]() -> Task<void> {
    (void)co_await fabric_.Read(0, 1, addr, 8);
    std::vector<uint8_t> payload = {1, 2};
    (void)co_await fabric_.Write(0, 1, addr, payload);
    (void)co_await fabric_.Cas(0, 1, addr, 0, 1);
  };
  Spawn(coro());
  fabric_.SendDatagram(0, 1, {1});
  sim_.Run();
  EXPECT_EQ(fabric_.stats().rdma_reads, 1u);
  EXPECT_EQ(fabric_.stats().rdma_writes, 1u);
  EXPECT_EQ(fabric_.stats().rdma_cas, 1u);
  EXPECT_EQ(fabric_.stats().datagrams, 1u);
}

TEST_F(FabricTest, NicRateLimitsThroughput) {
  // Saturating one target with tiny reads from three initiators should take
  // at least ops * per-message occupancy of simulated time at the target.
  uint64_t addr = stores_[3]->Allocate(64);
  const int kOpsPerSrc = 200;
  int completed = 0;
  // Captureless lambda: a loop-scoped capturing lambda dies before its
  // coroutine finishes (the frame reads captures through the dead closure);
  // parameters are copied into the coroutine frame and are safe.
  auto reader = [](Fabric* fabric, MachineId src, uint64_t a, int ops,
                   int* done) -> Task<void> {
    for (int i = 0; i < ops; i++) {
      (void)co_await fabric->Read(src, 3, a, 8);
      (*done)++;
    }
  };
  for (MachineId src = 0; src < 3; src++) {
    Spawn(reader(&fabric_, src, addr, kOpsPerSrc, &completed));
  }
  sim_.Run();
  EXPECT_EQ(completed, 3 * kOpsPerSrc);
  EXPECT_GT(sim_.Now(), static_cast<SimTime>(kOpsPerSrc) * kCost.nic_msg_gap);
}

TEST(NvramTest, AllocateAndAccess) {
  NvramStore store;
  uint64_t a = store.Allocate(128);
  uint64_t b = store.Allocate(256);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  uint8_t* pa = store.Data(a, 128);
  ASSERT_NE(pa, nullptr);
  pa[0] = 42;
  EXPECT_EQ(store.Data(a, 1)[0], 42);
}

TEST(NvramTest, OutOfRangeAccessRejected) {
  NvramStore store;
  uint64_t a = store.Allocate(64);
  EXPECT_EQ(store.Data(a + 60, 8), nullptr);   // straddles the end
  EXPECT_EQ(store.Data(a + 64, 1), nullptr);   // past the end
  EXPECT_EQ(store.Data(0, 1), nullptr);        // never valid
  uint8_t buf[8];
  EXPECT_FALSE(store.RdmaRead(a + 100, 8, buf));
}

TEST(NvramTest, CasRequiresAlignment) {
  NvramStore store;
  uint64_t a = store.Allocate(64);
  uint64_t observed;
  EXPECT_TRUE(store.RdmaCas(a, 0, 1, &observed));
  EXPECT_FALSE(store.RdmaCas(a + 3, 0, 1, &observed));
}

TEST(NvramTest, ZeroInitialized) {
  NvramStore store;
  uint64_t a = store.Allocate(1024);
  const uint8_t* p = store.Data(a, 1024);
  for (int i = 0; i < 1024; i++) {
    EXPECT_EQ(p[i], 0);
  }
}

TEST(EnergyModelTest, MatchesPaperCalibration) {
  UpsEnergyModel model;
  // Paper: ~110 J/GB with one SSD, ~90 J of it CPU.
  EXPECT_NEAR(model.JoulesPerGb(1), 110.0, 5.0);
  // More SSDs shorten the save: strictly decreasing energy.
  EXPECT_GT(model.JoulesPerGb(1), model.JoulesPerGb(2));
  EXPECT_GT(model.JoulesPerGb(2), model.JoulesPerGb(3));
  EXPECT_GT(model.JoulesPerGb(3), model.JoulesPerGb(4));
  // Paper: worst-case energy cost $0.55/GB.
  EXPECT_NEAR(model.BatteryDollarsPerGb(1), 0.55, 0.05);
  // Combined cost below 15% of $12/GB DRAM.
  EXPECT_LT(model.TotalDollarsPerGb(1), 0.15 * 12.0);
}

}  // namespace
}  // namespace farm
