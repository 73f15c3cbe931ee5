// Protocol-detail tests: leases, configuration serialization, validation
// thresholds (t_r), zombie-lock cleanup after coordinator death, ring-space
// reclamation under sustained load, and data-recovery content checks.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace farm {
namespace {

std::vector<uint8_t> U64Bytes(uint64_t v) {
  std::vector<uint8_t> b(8);
  std::memcpy(b.data(), &v, 8);
  return b;
}

TEST(ConfigTest, SerializeRoundTrip) {
  Configuration c;
  c.id = 7;
  c.machines = {0, 1, 2, 5};
  c.failure_domains = {{0, 0}, {1, 1}, {2, 0}, {5, 2}};
  c.cm = 1;
  c.next_region_id = 3;
  RegionPlacement p;
  p.primary = 2;
  p.backups = {0, 5};
  p.size = 1 << 20;
  p.last_primary_change = 6;
  p.last_replica_change = 7;
  p.colocate_with = 1;
  p.object_stride = 48;
  c.regions[2] = p;

  std::vector<uint8_t> bytes = Encode(c);
  Configuration parsed = Decode<Configuration>(bytes);
  EXPECT_EQ(parsed.id, 7u);
  EXPECT_EQ(parsed.machines, c.machines);
  EXPECT_EQ(parsed.failure_domains.at(5), 2);
  EXPECT_EQ(parsed.cm, 1u);
  EXPECT_EQ(parsed.next_region_id, 3u);
  ASSERT_EQ(parsed.regions.size(), 1u);
  const RegionPlacement& q = parsed.regions.at(2);
  EXPECT_EQ(q.primary, 2u);
  EXPECT_EQ(q.backups, p.backups);
  EXPECT_EQ(q.last_primary_change, 6u);
  EXPECT_EQ(q.last_replica_change, 7u);
  EXPECT_EQ(q.colocate_with, 1u);
  EXPECT_EQ(q.object_stride, 48u);
}

TEST(TypesTest, GlobalAddrPacking) {
  GlobalAddr a{12345, 67890};
  EXPECT_EQ(GlobalAddr::FromPacked(a.Packed()), a);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(GlobalAddr{}.valid());
}

TEST(TypesTest, TxIdOrderingAndHash) {
  TxId a{1, 2, 3, 4};
  TxId b{1, 2, 3, 5};
  EXPECT_LT(a, b);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_EQ(a, (TxId{1, 2, 3, 4}));
}

class ProtocolTest : public ::testing::Test {
 protected:
  void Boot(int machines = 5, uint64_t seed = 1) {
    cluster_ = MakeStartedCluster(SmallClusterOptions(machines, seed));
  }

  Task<Status> WriteValue(MachineId node, GlobalAddr addr, uint64_t value) {
    auto tx = cluster_->node(node).Begin(0);
    auto r = co_await tx->Read(addr, 8);
    if (!r.ok()) {
      co_return r.status();
    }
    (void)tx->Write(addr, U64Bytes(value));
    co_return co_await tx->Commit();
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ProtocolTest, LeasesKeepRenewingWithoutFailures) {
  Boot();
  cluster_->RunFor(200 * kMillisecond);  // 20 lease periods
  // No machine was suspected: configuration still at id 1 with 5 members.
  for (int m = 0; m < 5; m++) {
    EXPECT_EQ(cluster_->node(static_cast<MachineId>(m)).config().id, 1u);
    EXPECT_EQ(cluster_->node(static_cast<MachineId>(m)).stats().reconfigurations, 0u);
  }
}

TEST_F(ProtocolTest, LeaseExpiryCountingWithoutRecovery) {
  ClusterOptions opts = SmallClusterOptions(4, 3);
  opts.node.lease.trigger_recovery = false;
  cluster_ = MakeStartedCluster(opts);
  cluster_->Kill(2);
  cluster_->RunFor(100 * kMillisecond);
  // The CM counted expiries for the dead machine but did not reconfigure.
  EXPECT_GT(cluster_->node(0).lease_manager().expiry_events(), 0u);
  EXPECT_TRUE(cluster_->node(0).config().Contains(2));
}

TEST_F(ProtocolTest, PreemptionNoiseCausesFalsePositivesForNormalPriority) {
  auto run = [](LeaseImpl impl) {
    ClusterOptions opts = SmallClusterOptions(4, 5);
    opts.node.lease.impl = impl;
    opts.node.lease.duration = 5 * kMillisecond;
    opts.node.lease.trigger_recovery = false;
    auto cluster = MakeStartedCluster(opts);
    for (int m = 0; m < 4; m++) {
      cluster->node(static_cast<MachineId>(m))
          .lease_manager()
          .SetPreemptionNoise(100, 8 * kMillisecond);
    }
    cluster->RunFor(500 * kMillisecond);
    uint64_t total = 0;
    for (int m = 0; m < 4; m++) {
      total += cluster->node(static_cast<MachineId>(m)).lease_manager().expiry_events();
    }
    return total;
  };
  uint64_t dedicated = run(LeaseImpl::kUdDedicated);
  uint64_t high_pri = run(LeaseImpl::kUdDedicatedHighPri);
  // Preemption bursts longer than the lease hit the normal-priority thread;
  // the interrupt-driven high-priority manager is immune (Figure 16).
  EXPECT_GT(dedicated, 0u);
  EXPECT_EQ(high_pri, 0u);
}

TEST_F(ProtocolTest, ValidationUsesRdmaBelowThresholdAndRpcAbove) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  // Seed objects.
  for (uint32_t i = 0; i < 10; i++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, GlobalAddr{rid, i * 16}, i))->ok());
  }
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  MachineId coord = kInvalidMachine;
  for (int m = 0; m < cluster_->num_machines(); m++) {
    if (!p->Contains(static_cast<MachineId>(m))) {
      coord = static_cast<MachineId>(m);
      break;
    }
  }
  ASSERT_NE(coord, kInvalidMachine);

  auto read_n = [this](MachineId node, RegionId r, uint32_t n) -> Task<Status> {
    auto tx = cluster_->node(node).Begin(0);
    for (uint32_t i = 0; i < n; i++) {
      auto v = co_await tx->Read(GlobalAddr{r, i * 16}, 8);
      if (!v.ok()) {
        co_return v.status();
      }
    }
    co_return co_await tx->Commit();
  };

  // 3 reads (< t_r = 4): validation by one-sided reads, no RPC.
  FabricStats before = cluster_->fabric().stats();
  ASSERT_TRUE(RunTask(*cluster_, read_n(coord, rid, 3))->ok());
  FabricStats mid = cluster_->fabric().stats();
  uint64_t reads_small = mid.rdma_reads - before.rdma_reads;
  // 3 execution reads + 3 validation reads.
  EXPECT_EQ(reads_small, 6u);

  // 8 reads (> t_r): validation falls back to one VALIDATE message.
  ASSERT_TRUE(RunTask(*cluster_, read_n(coord, rid, 8))->ok());
  FabricStats after = cluster_->fabric().stats();
  uint64_t reads_big = after.rdma_reads - mid.rdma_reads;
  // Only the 8 execution reads; validation went over the message queue.
  EXPECT_EQ(reads_big, 8u);
}

TEST_F(ProtocolTest, ZombieLocksReleasedAfterCoordinatorDeath) {
  Boot(5, 17);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, addr, 1))->ok());

  const RegionPlacement placement = *cluster_->node(0).config().Placement(rid);
  MachineId coord = kInvalidMachine;
  for (int m = 0; m < cluster_->num_machines(); m++) {
    if (!placement.Contains(static_cast<MachineId>(m))) {
      coord = static_cast<MachineId>(m);
      break;
    }
  }
  ASSERT_NE(coord, kInvalidMachine);

  // Fire a burst of writes from the doomed coordinator, then kill it while
  // many are mid-commit (locks held at the primary).
  auto spray = [](Cluster* c, MachineId node, GlobalAddr a) -> Task<void> {
    for (int i = 0; i < 50; i++) {
      auto tx = c->node(node).Begin(0);
      auto r = co_await tx->Read(a, 8);
      if (!r.ok()) {
        co_return;
      }
      std::vector<uint8_t> b(8);
      uint64_t v = static_cast<uint64_t>(i) + 100;
      std::memcpy(b.data(), &v, 8);
      (void)tx->Write(a, b);
      (void)co_await tx->Commit();
    }
  };
  Spawn(spray(cluster_.get(), coord, addr));
  cluster_->RunFor(300 * kMicrosecond);  // some commit is mid-flight now
  cluster_->Kill(coord);
  cluster_->RunFor(300 * kMillisecond);  // detection + recovery

  // The object must be unlocked (recovery committed or aborted the zombie)
  // and writable from a survivor.
  MachineId lookup = placement.primary == coord ? 0 : placement.primary;
  const RegionPlacement* p2 = cluster_->node(lookup).config().Placement(rid);
  ASSERT_NE(p2, nullptr);
  RegionReplica* rep = cluster_->node(p2->primary).replica(rid);
  ASSERT_NE(rep, nullptr);
  EXPECT_FALSE(VersionWord::IsLocked(rep->ReadHeader(0)));
  MachineId writer = 0;
  while (writer == coord) {
    writer++;
  }
  auto s = RunTask(*cluster_, WriteValue(writer, addr, 999), 3 * kSecond);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
}

TEST_F(ProtocolTest, RingSpaceIsReclaimedUnderSustainedTraffic) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 0};
  // Many more commits than any ring could hold without reclamation: if
  // truncation, feedback, or reservations leaked, this would die with a
  // reservation failure (regression test for an actual bug).
  for (int i = 0; i < 400; i++) {
    auto s = RunTask(*cluster_, WriteValue(static_cast<MachineId>(i % 5), addr,
                                           static_cast<uint64_t>(i)));
    ASSERT_TRUE(s.has_value() && (s->ok() || s->code() == StatusCode::kAborted))
        << "iteration " << i << ": " << s->ToString();
  }
}

TEST_F(ProtocolTest, RereplicatedBackupMatchesPrimaryContent) {
  Boot(5, 29);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  Pcg32 rng(3);
  for (uint32_t i = 0; i < 64; i++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, GlobalAddr{rid, i * 16}, rng.Next64()))->ok());
  }
  cluster_->RunFor(30 * kMillisecond);

  const RegionPlacement p0 = *cluster_->node(0).config().Placement(rid);
  cluster_->Kill(p0.backups[0]);
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return cluster_->regions_rereplicated() >= 1; },
                       3 * kSecond));
  cluster_->RunFor(20 * kMillisecond);

  MachineId live = 0;
  while (live == p0.backups[0]) {
    live++;
  }
  const RegionPlacement* p1 = cluster_->node(live).config().Placement(rid);
  RegionReplica* prim = cluster_->node(p1->primary).replica(rid);
  ASSERT_NE(prim, nullptr);
  for (MachineId b : p1->backups) {
    RegionReplica* rep = cluster_->node(b).replica(rid);
    ASSERT_NE(rep, nullptr);
    for (uint32_t i = 0; i < 64; i++) {
      EXPECT_EQ(0, std::memcmp(prim->Ptr(i * 16, 16), rep->Ptr(i * 16, 16), 16))
          << "object " << i << " differs on backup " << b;
    }
  }
}

TEST_F(ProtocolTest, ConfigurationIdsIncreaseMonotonically) {
  Boot(6, 31);
  EXPECT_EQ(cluster_->node(0).config().id, 1u);
  cluster_->Kill(5);
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return cluster_->node(0).config().id == 2; },
                       kSecond));
  cluster_->Kill(4);
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return cluster_->node(0).config().id == 3; },
                       kSecond));
  cluster_->RunFor(20 * kMillisecond);  // let NEW-CONFIG reach every member
  // Every survivor agrees.
  for (MachineId m = 0; m < 4; m++) {
    EXPECT_EQ(cluster_->node(m).config().id, 3u);
    EXPECT_EQ(cluster_->node(m).config().machines.size(), 4u);
  }
}

TEST_F(ProtocolTest, FunctionOfLastDrainedAfterRecovery) {
  Boot(5, 37);
  cluster_->Kill(4);
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return cluster_->node(0).config().id == 2; },
                       kSecond));
  cluster_->RunFor(20 * kMillisecond);
  // After the drain step of recovery, every member records LastDrained = the
  // previous configuration id (records from configs <= it are rejected for
  // recovering transactions).
  for (MachineId m = 0; m < 4; m++) {
    EXPECT_EQ(cluster_->node(m).last_drained(), 1u) << "machine " << m;
  }
}

}  // namespace
}  // namespace farm
