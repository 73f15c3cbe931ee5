// Tests for the simulated RDMA fabric and NVRAM store.
#include <gtest/gtest.h>

#include <cstring>

#include "src/common/hash.h"
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
  fabric_.SetLinkFaults(0, 2, LinkFaults{});
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

// One fixed script of mixed, contended traffic on the 4-machine fabric:
// every transport, every link-fault kind, a partition that starts while
// replies are in flight and a kill mid-flight. Every completion, handler
// run and delivery is logged with its sim time, status and bytes, then the
// final stats; the log's hash pins the whole timeline, so a change to the
// fabric's internals must leave it exactly as it was.
TEST_F(FabricTest, MixedTrafficTimelineIsPinned) {
  std::string log;
  auto note = [&](const std::string& line) {
    log += std::to_string(sim_.Now()) + " " + line + "\n";
  };
  auto track = [&](std::string tag, Future<NetResult> done) {
    done.OnReady([&note, tag = std::move(tag)](NetResult& r) {
      note(tag + " " + std::to_string(static_cast<int>(r.status.code())) + " " +
           std::to_string(r.data.size()) + " " +
           std::to_string(Fnv1a(r.data.data(), r.data.size())));
    });
  };

  std::vector<uint64_t> addr;
  for (int m = 0; m < kMachines; m++) {
    addr.push_back(stores_[m]->Allocate(8192));
  }
  auto echo = [&](MachineId m) {
    return [&note, m](MachineId from, std::vector<uint8_t> req, Fabric::ReplyFn reply) {
      note("h" + std::to_string(m) + " from " + std::to_string(from) + " " +
           std::to_string(req.size()));
      req.push_back(static_cast<uint8_t>(m));
      reply(std::move(req));
    };
  };
  for (MachineId m = 0; m < kMachines; m++) {
    fabric_.RegisterRpcService(m, 7, 0, 1, echo(m));
    fabric_.SetDatagramHandler(m, [&note, m](MachineId from, std::vector<uint8_t> p) {
      note("dg" + std::to_string(m) + " from " + std::to_string(from) + " " +
           std::to_string(p.size()));
    });
  }
  // Service 8 on machine 1 replies twice, after its callers' timeout.
  fabric_.RegisterRpcService(1, 8, 2, 3,
                             [&](MachineId, std::vector<uint8_t> req, Fabric::ReplyFn reply) {
                               sim_.At(sim_.Now() + 300 * kMicrosecond, [&note, req, reply]() {
                                 note("late reply");
                                 reply(req);
                                 reply(req);
                               });
                             });

  fabric_.SeedFaultRng(27);
  LinkFaults flaky;
  flaky.drop = 0.15;
  flaky.dup = 0.4;
  flaky.reorder = 0.3;
  flaky.reorder_window = 40 * kMicrosecond;
  flaky.jitter = 5 * kMicrosecond;
  flaky.extra_latency = 300;
  fabric_.SetLinkFaults(0, 2, flaky);
  fabric_.SetLinkFaults(2, 0, flaky);

  auto wave = [&](int w) {
    for (int i = 0; i < 6; i++) {
      std::string tag = "w" + std::to_string(w) + "." + std::to_string(i) + " ";
      auto bytes = [&](int n) {
        return std::vector<uint8_t>(static_cast<size_t>(n), static_cast<uint8_t>(i + w));
      };
      HwThread* t0 = i % 2 == 0 ? &machines_[0]->thread(i % 4) : nullptr;
      HwThread* t2 = i % 3 == 0 ? nullptr : &machines_[2]->thread(i % 4);
      track(tag + "read01", fabric_.Read(0, 1, addr[1] + 64 * i, 8 + 300 * i, t0));
      track(tag + "write10", fabric_.Write(1, 0, addr[0] + 512 * i, bytes(16 + 400 * i),
                                           &machines_[1]->thread(i % 4),
                                           [&note, tag]() { note(tag + "write10 delivered"); }));
      track(tag + "read23", fabric_.Read(2, 3, addr[3], 256, t2));
      track(tag + "write32", fabric_.Write(3, 2, addr[2] + 8 * i, bytes(8), nullptr,
                                          [&note, tag]() { note(tag + "write32 delivered"); }));
      track(tag + "cas31", fabric_.Cas(3, 1, addr[1] + 2048, static_cast<uint64_t>(i), i + 1u,
                                       &machines_[3]->thread(i % 4)));
      track(tag + "cas01", fabric_.Cas(0, 1, addr[1] + 2056, 0, 5, t0));
      track(tag + "call02", fabric_.Call(0, 2, 7, bytes(4 + i), t0, 200 * kMicrosecond));
      track(tag + "call20", fabric_.Call(2, 0, 7, bytes(64), t2, 200 * kMicrosecond));
      track(tag + "call13", fabric_.Call(1, 3, 7, bytes(12), &machines_[1]->thread(i % 4),
                                         150 * kMicrosecond));
      track(tag + "call31", fabric_.Call(3, 1, 7, bytes(12), &machines_[3]->thread(i % 4)));
      fabric_.SendDatagram(0, 2, bytes(16), i % 2 == 0);
      fabric_.SendDatagram(2, 0, bytes(16), i % 2 == 1);
      fabric_.SendDatagram(1, 3, bytes(24), i % 3 == 0);
      fabric_.SendDatagram(3, 0, bytes(24));
    }
    std::string tag = "w" + std::to_string(w);
    track(tag + " unknown", fabric_.Call(0, 1, 99, {1}, &machines_[0]->thread(0)));
    track(tag + " late", fabric_.Call(0, 1, 8, {2, 3}, nullptr, 200 * kMicrosecond));
  };

  fabric_.set_datagram_loss(0.1);
  wave(0);
  sim_.At(1500, [&]() { wave(1); });
  // Machine 3 dies with its own ops and ops aimed at it in flight.
  sim_.At(2500, [&]() {
    note("kill 3");
    machines_[3]->Kill();
  });
  // Machine 2 is cut off while its first replies are on the wire.
  sim_.At(4200, [&]() {
    note("partition");
    fabric_.SetPartition({{0, 1, 3}, {2}});
  });
  sim_.At(10 * kMicrosecond, [&]() { wave(2); });
  sim_.At(60 * kMicrosecond, [&]() {
    note("heal");
    fabric_.ClearPartition();
  });
  sim_.At(100 * kMicrosecond, [&]() { wave(3); });
  sim_.Run();

  const FabricStats& s = fabric_.stats();
  for (uint64_t v : {s.rdma_reads, s.rdma_writes, s.rdma_cas, s.rpcs, s.datagrams, s.rdma_bytes,
                     s.rpc_bytes, s.faults_dropped, s.faults_delayed, s.faults_duplicated,
                     s.faults_reordered}) {
    log += std::to_string(v) + " ";
  }
  EXPECT_EQ(Fnv1a(log), 0x46858d67ca3207f1ULL) << log;
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

TEST(NvramTest, RangeAcrossAdjacentSegmentsRejected) {
  NvramStore store;
  uint64_t a = store.Allocate(64);
  uint64_t b = store.Allocate(64);
  ASSERT_EQ(b, a + 64);  // no gap: the two segments touch
  EXPECT_NE(store.Data(a, 64), nullptr);
  EXPECT_NE(store.Data(b, 64), nullptr);
  EXPECT_EQ(store.Data(a + 60, 8), nullptr);
  EXPECT_EQ(store.Data(a, 128), nullptr);
  uint8_t buf[128];
  EXPECT_FALSE(store.RdmaRead(a + 32, 64, buf));
  EXPECT_FALSE(store.RdmaRead(a, 128, buf));
  EXPECT_TRUE(store.RdmaRead(b, 64, buf));
}

TEST(NvramTest, PointersSurviveLaterAllocations) {
  NvramStore store;
  uint64_t a = store.Allocate(4096);
  uint8_t* pa = store.Data(a, 4096);
  ASSERT_NE(pa, nullptr);
  for (int i = 0; i < 4096; i++) {
    pa[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  std::vector<uint64_t> later;
  for (int i = 0; i < 3000; i++) {
    uint64_t addr = store.Allocate(8 + static_cast<size_t>(i % 5) * 64);
    uint64_t word = addr ^ 0x5a5a5a5a5a5a5a5aULL;
    ASSERT_TRUE(store.RdmaWrite(addr, reinterpret_cast<const uint8_t*>(&word), 8));
    later.push_back(addr);
  }
  EXPECT_EQ(store.Data(a, 4096), pa);
  for (int i = 0; i < 4096; i++) {
    ASSERT_EQ(pa[i], static_cast<uint8_t>(i * 7 + 1)) << i;
  }
  for (uint64_t addr : later) {
    uint64_t word = 0;
    ASSERT_TRUE(store.RdmaRead(addr, 8, reinterpret_cast<uint8_t*>(&word)));
    ASSERT_EQ(word, addr ^ 0x5a5a5a5a5a5a5a5aULL);
  }
}

TEST(NvramTest, FreshSegmentZeroAfterAnotherStoreIsDestroyed) {
  constexpr size_t kLen = 2 << 20;
  {
    NvramStore old;
    for (int i = 0; i < 4; i++) {
      uint64_t a = old.Allocate(kLen);
      std::memset(old.Data(a, kLen), 0xAB, kLen);
    }
  }
  NvramStore store;
  uint64_t a = store.Allocate(kLen);
  const uint8_t* p = store.Data(a, kLen);
  ASSERT_NE(p, nullptr);
  size_t nonzero = 0;
  for (size_t i = 0; i < kLen; i++) {
    nonzero += p[i] != 0;
  }
  EXPECT_EQ(nonzero, 0u);
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
