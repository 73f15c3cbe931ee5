// Failure and recovery tests: reconfiguration, transaction state recovery,
// data re-replication, allocator recovery, partitions, and durability
// invariants under failures (sections 5.1-5.5).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "src/obs/fault_hook.h"
#include "tests/test_util.h"

namespace farm {
namespace {

std::vector<uint8_t> U64Bytes(uint64_t v) {
  std::vector<uint8_t> b(8);
  std::memcpy(b.data(), &v, 8);
  return b;
}

uint64_t BytesU64(const std::vector<uint8_t>& b) {
  uint64_t v = 0;
  std::memcpy(&v, b.data(), std::min<size_t>(8, b.size()));
  return v;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void Boot(int machines = 5, uint64_t seed = 1) {
    cluster_ = MakeStartedCluster(SmallClusterOptions(machines, seed));
  }

  Task<Status> WriteValue(MachineId node, GlobalAddr addr, uint64_t value, int thread = 0) {
    auto tx = cluster_->node(node).Begin(thread);
    auto r = co_await tx->Read(addr, 8);
    if (!r.ok()) {
      co_return r.status();
    }
    (void)tx->Write(addr, U64Bytes(value));
    co_return co_await tx->Commit();
  }

  Task<StatusOr<uint64_t>> ReadValue(MachineId node, GlobalAddr addr) {
    auto tx = cluster_->node(node).Begin(0);
    auto r = co_await tx->Read(addr, 8);
    if (!r.ok()) {
      co_return r.status();
    }
    Status s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
    co_return BytesU64(*r);
  }

  // Waits until every live node has adopted a configuration excluding m.
  bool WaitEvicted(MachineId dead, SimDuration timeout = 500 * kMillisecond) {
    return RunUntil(
        *cluster_,
        [&]() {
          for (int i = 0; i < cluster_->num_machines(); i++) {
            MachineId m = static_cast<MachineId>(i);
            if (!cluster_->machine(m).alive()) {
              continue;
            }
            if (cluster_->node(m).config().Contains(dead)) {
              return false;
            }
          }
          return true;
        },
        timeout);
  }

  // Appends `rec` from `src`'s log to `dst`'s ring, as a coordinator does,
  // and runs until `dst` has processed it.
  void AppendRecord(MachineId src, MachineId dst, const TxLogRecord& rec) {
    Messenger& msgr = cluster_->node(src).messenger();
    uint32_t len = static_cast<uint32_t>(WireSize(rec));
    ASSERT_TRUE(msgr.ReserveLog(dst, len));
    (void)msgr.AppendLog(dst, rec, len, 0);
    cluster_->RunFor(kMillisecond);
  }

  // A LOCK or COMMIT-BACKUP record of an untruncated transaction `src`
  // coordinates, writing one object in each of `regions`.
  TxLogRecord CraftRecord(LogRecordType type, MachineId src, uint64_t local,
                          const std::vector<RegionId>& regions) {
    TxLogRecord rec;
    rec.type = type;
    rec.tx = TxId{cluster_->node(src).config().id, src, 0, local};
    rec.written_regions = regions;
    for (RegionId r : regions) {
      WireWrite w;
      w.addr = GlobalAddr{r, 0};
      w.value = SharedBytes(U64Bytes(r + local));
      rec.writes.push_back(std::move(w));
    }
    // A never-issued id (locals come from one counter shared by threads).
    rec.truncate_ids = {TxId{rec.tx.config, src, 1, 1}};
    return rec;
  }

  MachineId LiveCoordinator() {
    for (int i = 0; i < cluster_->num_machines(); i++) {
      if (cluster_->machine(static_cast<MachineId>(i)).alive()) {
        return static_cast<MachineId>(i);
      }
    }
    return kInvalidMachine;
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(RecoveryTest, LeaseExpiryDetectsFailure) {
  Boot();
  SimTime t0 = cluster_->sim().Now();
  cluster_->Kill(4);
  ASSERT_TRUE(WaitEvicted(4));
  SimTime detect = cluster_->sim().Now() - t0;
  // Detection + reconfiguration within a few lease periods (10 ms leases).
  EXPECT_LT(detect, 100 * kMillisecond);
  EXPECT_GE(detect, 5 * kMillisecond);
  EXPECT_EQ(cluster_->node(0).config().machines.size(), 4u);
}

TEST_F(RecoveryTest, KillBackupDataSurvivesAndRereplicates) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 42))->ok());

  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  MachineId victim = p->backups[0];
  cluster_->Kill(victim);
  ASSERT_TRUE(WaitEvicted(victim));

  // Data still readable.
  MachineId coord = LiveCoordinator();
  auto v = RunTask(*cluster_, ReadValue(coord, a));
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_EQ(v->value(), 42u);

  // A replacement backup is re-replicated in the background.
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return cluster_->regions_rereplicated() >= 1; },
                       2 * kSecond));
  const RegionPlacement* p2 = cluster_->node(coord).config().Placement(rid);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->Replicas().size(), 3u);
  EXPECT_FALSE(p2->Contains(victim));
  // The new backup holds the data.
  for (MachineId b : p2->backups) {
    RegionReplica* rep = cluster_->node(b).replica(rid);
    ASSERT_NE(rep, nullptr);
    uint64_t val = 0;
    std::memcpy(&val, rep->Ptr(8, 8), 8);
    EXPECT_EQ(val, 42u) << "backup " << b;
  }
}

TEST_F(RecoveryTest, KillPrimaryPromotesBackupAndPreservesData) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  for (uint32_t i = 0; i < 8; i++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(1, GlobalAddr{rid, i * 16}, 100 + i))->ok());
  }
  // Let backups apply via truncation before the kill.
  cluster_->RunFor(20 * kMillisecond);

  const RegionPlacement* p = cluster_->node(1).config().Placement(rid);
  MachineId old_primary = p->primary;
  std::vector<MachineId> old_backups = p->backups;
  cluster_->Kill(old_primary);
  ASSERT_TRUE(WaitEvicted(old_primary));

  MachineId coord = LiveCoordinator();
  const RegionPlacement* p2 = cluster_->node(coord).config().Placement(rid);
  ASSERT_NE(p2, nullptr);
  // A surviving backup was promoted (fast recovery, no data movement).
  EXPECT_TRUE(std::find(old_backups.begin(), old_backups.end(), p2->primary) !=
              old_backups.end());
  EXPECT_EQ(p2->last_primary_change, cluster_->node(coord).config().id);

  for (uint32_t i = 0; i < 8; i++) {
    auto v = RunTask(*cluster_, ReadValue(coord, GlobalAddr{rid, i * 16}));
    ASSERT_TRUE(v.has_value() && v->ok()) << "offset " << i;
    EXPECT_EQ(v->value(), 100 + i);
  }
  // And writes keep working against the new primary.
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(coord, GlobalAddr{rid, 0}, 999))->ok());
}

TEST_F(RecoveryTest, KillCmElectsNewCmAndContinues) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(1, a, 7))->ok());

  ASSERT_EQ(cluster_->node(0).config().cm, 0u);
  cluster_->Kill(0);
  ASSERT_TRUE(WaitEvicted(0, kSecond));

  MachineId coord = LiveCoordinator();
  const Configuration& cfg = cluster_->node(coord).config();
  EXPECT_NE(cfg.cm, 0u);
  EXPECT_TRUE(cfg.Contains(cfg.cm));

  // The system still serves transactions and can create regions (CM duty).
  auto v = RunTask(*cluster_, ReadValue(coord, a));
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_EQ(v->value(), 7u);
  RegionId rid2 = MustCreateRegion(*cluster_, 64 << 10, 16, kInvalidRegion, coord);
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(coord, GlobalAddr{rid2, 0}, 5))->ok());
}

TEST_F(RecoveryTest, InFlightTransactionsResolveAfterFailure) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  MachineId victim = p->primary;
  // Coordinator on a non-replica machine.
  MachineId coord = kInvalidMachine;
  for (int i = 0; i < cluster_->num_machines(); i++) {
    if (!p->Contains(static_cast<MachineId>(i))) {
      coord = static_cast<MachineId>(i);
      break;
    }
  }
  ASSERT_NE(coord, kInvalidMachine);

  // Start a stream of writes; kill the primary mid-stream.
  auto outcomes = std::make_shared<std::vector<Status>>();
  auto done = std::make_shared<bool>(false);
  auto writer = [](Cluster* c, MachineId node, GlobalAddr addr,
                   std::shared_ptr<std::vector<Status>> out,
                   std::shared_ptr<bool> fin) -> Task<void> {
    for (int i = 0; i < 50; i++) {
      auto tx = c->node(node).Begin(0);
      auto r = co_await tx->Read(addr, 8);
      if (!r.ok()) {
        out->push_back(r.status());
        continue;
      }
      std::vector<uint8_t> b(8);
      uint64_t v = static_cast<uint64_t>(i);
      std::memcpy(b.data(), &v, 8);
      (void)tx->Write(addr, b);
      out->push_back(co_await tx->Commit());
    }
    *fin = true;
  };
  Spawn(writer(cluster_.get(), coord, GlobalAddr{rid, 0}, outcomes, done));
  cluster_->RunFor(2 * kMillisecond);
  cluster_->Kill(victim);
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return *done; }, 5 * kSecond));

  // Every transaction resolved (no hangs); at least one committed after the
  // failure (the stream continued on the new primary).
  EXPECT_EQ(outcomes->size(), 50u);
  int ok_count = 0;
  for (const Status& s : *outcomes) {
    if (s.ok()) {
      ok_count++;
    }
  }
  EXPECT_GT(ok_count, 5);
}

// The central correctness property under failures: concurrent bank
// transfers with a primary killed mid-run must conserve the total.
TEST_F(RecoveryTest, PropertyBankInvariantSurvivesPrimaryFailure) {
  Boot(5, 23);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  constexpr int kAccounts = 8;
  constexpr uint64_t kInitial = 1000;
  for (uint32_t a = 0; a < kAccounts; a++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, GlobalAddr{rid, a * 16}, kInitial))->ok());
  }

  auto finished = std::make_shared<int>(0);
  auto transfer = [](Cluster* c, RegionId r, int widx, std::shared_ptr<int> fin) -> Task<void> {
    Pcg32 rng(static_cast<uint64_t>(widx) * 71 + 3);
    for (int i = 0; i < 60; i++) {
      MachineId node = kInvalidMachine;
      for (int probe = 0; probe < c->num_machines(); probe++) {
        MachineId cand = static_cast<MachineId>((widx + probe) % c->num_machines());
        if (c->machine(cand).alive()) {
          node = cand;
          break;
        }
      }
      if (node == kInvalidMachine) {
        break;
      }
      uint32_t from = rng.Uniform(kAccounts);
      uint32_t to = rng.Uniform(kAccounts);
      if (from == to) {
        continue;
      }
      auto tx = c->node(node).Begin(widx % 2);
      auto vf = co_await tx->Read(GlobalAddr{r, from * 16}, 8);
      auto vt = co_await tx->Read(GlobalAddr{r, to * 16}, 8);
      if (!vf.ok() || !vt.ok()) {
        continue;
      }
      uint64_t bf = BytesU64(*vf);
      uint64_t bt = BytesU64(*vt);
      uint64_t amount = rng.Uniform(20) + 1;
      if (bf < amount) {
        continue;
      }
      std::vector<uint8_t> nf(8);
      std::vector<uint8_t> nt(8);
      uint64_t nbf = bf - amount;
      uint64_t nbt = bt + amount;
      std::memcpy(nf.data(), &nbf, 8);
      std::memcpy(nt.data(), &nbt, 8);
      (void)tx->Write(GlobalAddr{r, from * 16}, nf);
      (void)tx->Write(GlobalAddr{r, to * 16}, nt);
      (void)co_await tx->Commit();
    }
    (*fin)++;
  };
  constexpr int kWorkers = 6;
  for (int w = 0; w < kWorkers; w++) {
    Spawn(transfer(cluster_.get(), rid, w, finished));
  }

  cluster_->RunFor(3 * kMillisecond);
  const RegionPlacement* p = cluster_->node(4).config().Placement(rid);
  cluster_->Kill(p->primary);

  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return *finished == kWorkers; }, 10 * kSecond));
  // Let recovery decisions and truncation settle before checking.
  cluster_->RunFor(300 * kMillisecond);

  MachineId coord = LiveCoordinator();
  uint64_t total = 0;
  for (uint32_t a = 0; a < kAccounts; a++) {
    auto v = RunTask(*cluster_, ReadValue(coord, GlobalAddr{rid, a * 16}));
    ASSERT_TRUE(v.has_value() && v->ok()) << "account " << a;
    total += v->value();
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST_F(RecoveryTest, AllocatorFreeListsRecoverOnPromotedPrimary) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 256 << 10, 0);  // slab-managed

  // Allocate and commit a handful of objects.
  auto alloc_some = [this](RegionId r, int n, MachineId node) -> Task<Status> {
    for (int i = 0; i < n; i++) {
      auto tx = cluster_->node(node).Begin(0);
      auto a = co_await tx->Alloc(r, 32);
      if (!a.ok()) {
        co_return a.status();
      }
      std::vector<uint8_t> data(32, static_cast<uint8_t>(i));
      (void)tx->Write(*a, data);
      Status s = co_await tx->Commit();
      if (!s.ok()) {
        co_return s;
      }
    }
    co_return OkStatus();
  };
  ASSERT_TRUE(RunTask(*cluster_, alloc_some(rid, 10, 0))->ok());
  cluster_->RunFor(20 * kMillisecond);

  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  MachineId old_primary = p->primary;
  cluster_->Kill(old_primary);
  ASSERT_TRUE(WaitEvicted(old_primary));

  MachineId coord = LiveCoordinator();
  const RegionPlacement* p2 = cluster_->node(coord).config().Placement(rid);
  ASSERT_NE(p2, nullptr);
  Node& new_primary = cluster_->node(p2->primary);
  // Wait for allocator recovery (paced scan) to finish.
  ASSERT_TRUE(RunUntil(
      *cluster_,
      [&]() {
        RegionAllocator* a = new_primary.allocator(rid);
        return a != nullptr && !a->recovering() && a->FreeSlots() > 0;
      },
      2 * kSecond));

  // New allocations work on the promoted primary.
  auto more = RunTask(*cluster_, alloc_some(rid, 5, coord));
  ASSERT_TRUE(more.has_value());
  EXPECT_TRUE(more->ok()) << more->ToString();
}

// Kills `victim` once, right after it reaches fault point `point`. Like the
// chaos explorer's injector, it defers the kill through the simulator. It is
// the cluster's fault hook while it lives.
class KillAtPoint : public fault::Hook {
 public:
  KillAtPoint(Cluster* cluster, MachineId victim, std::string point)
      : cluster_(cluster), victim_(victim), point_(std::move(point)) {
    cluster_->SetFaultHook(this);
  }
  ~KillAtPoint() override { cluster_->SetFaultHook(nullptr); }
  KillAtPoint(const KillAtPoint&) = delete;
  KillAtPoint& operator=(const KillAtPoint&) = delete;

  uint32_t OnPoint(uint32_t machine, const char* point, uint64_t arg) override {
    (void)arg;
    if (!fired_ && machine == victim_ && point_ == point) {
      fired_ = true;
      Cluster* c = cluster_;
      MachineId m = victim_;
      c->sim().At(c->sim().Now(), [c, m]() { c->Kill(m); });
    }
    return fault::kEffectNone;
  }
  bool fired() const { return fired_; }

 private:
  Cluster* cluster_;
  MachineId victim_;
  std::string point_;
  bool fired_ = false;
};

// A free whose coordinator dies before COMMIT-PRIMARY is committed by
// recovery: every surviving replica installs it, and only the primary gets
// the freed slot back (backups keep no free lists).
TEST_F(RecoveryTest, RecoveryCommittedFreeReturnsSlotAtPrimaryOnly) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 256 << 10, 0);  // slab-managed
  const RegionPlacement p = *cluster_->node(0).config().Placement(rid);
  MachineId coord = kInvalidMachine;
  for (int i = 0; i < cluster_->num_machines(); i++) {
    MachineId m = static_cast<MachineId>(i);
    if (!p.Contains(m) && m != cluster_->node(0).config().cm) {
      coord = m;
      break;
    }
  }
  ASSERT_NE(coord, kInvalidMachine);

  auto alloc = [](Cluster* c, MachineId node, RegionId r) -> Task<StatusOr<GlobalAddr>> {
    auto tx = c->node(node).Begin(0);
    auto a = co_await tx->Alloc(r, 32);
    if (!a.ok()) {
      co_return a.status();
    }
    (void)tx->Write(*a, std::vector<uint8_t>(32, 7));
    Status s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
    co_return *a;
  };
  auto addr = RunTask(*cluster_, alloc(cluster_.get(), coord, rid));
  ASSERT_TRUE(addr.has_value() && addr->ok());
  const GlobalAddr obj = **addr;
  cluster_->RunFor(20 * kMillisecond);  // truncation installs it at the backups

  std::map<MachineId, size_t> free_before;
  for (MachineId m : p.Replicas()) {
    free_before[m] = cluster_->node(m).allocator(rid)->FreeSlots();
  }
  const uint64_t header = cluster_->node(p.primary).replica(rid)->ReadHeader(obj.offset);
  ASSERT_TRUE(VersionWord::IsAllocated(header));
  const uint64_t version = VersionWord::Version(header);

  KillAtPoint hook(cluster_.get(), coord, "phase-begin:commit_primary");
  auto free_tx = [](Cluster* c, MachineId node, GlobalAddr a) -> Task<void> {
    auto tx = c->node(node).Begin(0);
    auto r = co_await tx->Read(a, 32);
    if (r.ok() && tx->Free(a).ok()) {
      (void)co_await tx->Commit();
    }
  };
  Spawn(free_tx(cluster_.get(), coord, obj));
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return hook.fired(); }, kSecond));
  cluster_->RunFor(kMicrosecond);  // runs the deferred kill
  ASSERT_FALSE(cluster_->machine(coord).alive());
  ASSERT_TRUE(WaitEvicted(coord));

  // The coordinator never wrote COMMIT-PRIMARY, so only recovery can
  // install the free.
  ASSERT_TRUE(RunUntil(
      *cluster_,
      [&]() {
        for (MachineId m : p.Replicas()) {
          uint64_t w = cluster_->node(m).replica(rid)->ReadHeader(obj.offset);
          if (VersionWord::Version(w) != version + 1) {
            return false;
          }
        }
        return true;
      },
      2 * kSecond));
  EXPECT_GE(cluster_->TotalStats().recovering_txs_seen, 1u);
  for (MachineId m : p.Replicas()) {
    uint64_t w = cluster_->node(m).replica(rid)->ReadHeader(obj.offset);
    EXPECT_FALSE(VersionWord::IsAllocated(w)) << "machine " << m;
    EXPECT_FALSE(VersionWord::IsLocked(w)) << "machine " << m;
    size_t expected = free_before[m] + (m == p.primary ? 1 : 0);
    EXPECT_EQ(cluster_->node(m).allocator(rid)->FreeSlots(), expected) << "machine " << m;
  }
}

// Section 3's placement rule: f+1 replicas in distinct failure domains, at
// creation (where a colocated region shares its target's replicas) and
// again after a failure remaps the regions that lost a replica. With 6
// machines in 3 domains the remap has one machine to pick from; with 9 it
// has two, so only the colocation preference makes the colocated region
// pick its target's new backup.
TEST_F(RecoveryTest, PlacementKeepsReplicasInDistinctFailureDomains) {
  for (int machines : {6, 9}) {
    SCOPED_TRACE(testing::Message() << machines << " machines");
    ClusterOptions opts = SmallClusterOptions(machines, 1);
    opts.failure_domains = 3;
    cluster_.reset();
    cluster_ = MakeStartedCluster(opts);
    auto distinct_domains = [this](const RegionPlacement& p) {
      std::set<int> domains;
      for (MachineId m : p.Replicas()) {
        domains.insert(cluster_->FailureDomainOf(m));
      }
      return p.Replicas().size() == 3 && domains.size() == 3;
    };
    auto sorted_replicas = [](const RegionPlacement& p) {
      std::vector<MachineId> r = p.Replicas();
      std::sort(r.begin(), r.end());
      return r;
    };

    std::vector<RegionId> regions;
    for (int i = 0; i < 4; i++) {
      regions.push_back(MustCreateRegion(*cluster_, 64 << 10, 16));
    }
    const RegionId target = regions[1];
    const RegionId colocated = MustCreateRegion(*cluster_, 64 << 10, 16, target);
    regions.push_back(colocated);
    const Configuration& before = cluster_->node(0).config();
    for (RegionId r : regions) {
      ASSERT_NE(before.Placement(r), nullptr);
      EXPECT_TRUE(distinct_domains(*before.Placement(r))) << "region " << r;
    }
    EXPECT_EQ(before.Placement(colocated)->Replicas(), before.Placement(target)->Replicas());

    MachineId victim = kInvalidMachine;
    for (MachineId m : before.Placement(target)->Replicas()) {
      if (m != before.cm) {
        victim = m;
        break;
      }
    }
    ASSERT_NE(victim, kInvalidMachine);
    cluster_->Kill(victim);
    ASSERT_TRUE(WaitEvicted(victim));

    const Configuration& after = cluster_->node(LiveCoordinator()).config();
    for (RegionId r : regions) {
      const RegionPlacement* p = after.Placement(r);
      ASSERT_NE(p, nullptr);
      EXPECT_FALSE(p->Contains(victim)) << "region " << r;
      EXPECT_TRUE(distinct_domains(*p)) << "region " << r;
    }
    EXPECT_EQ(sorted_replicas(*after.Placement(colocated)),
              sorted_replicas(*after.Placement(target)));
  }
}

TEST_F(RecoveryTest, MinorityPartitionStalls) {
  Boot(5);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 1))->ok());

  // Partition machines {0,1} (including the CM) from {2,3,4}; the zk
  // replicas (ids 5,6,7) stay with the majority.
  cluster_->fabric().SetPartition({{0, 1}, {2, 3, 4, 5, 6, 7}});
  // The majority side reconfigures to evict 0 and 1.
  ASSERT_TRUE(RunUntil(
      *cluster_,
      [&]() {
        for (MachineId m : {2u, 3u, 4u}) {
          const Configuration& cfg = cluster_->node(m).config();
          if (cfg.Contains(0) || cfg.Contains(1)) {
            return false;
          }
        }
        return true;
      },
      2 * kSecond));

  const Configuration& cfg = cluster_->node(2).config();
  EXPECT_EQ(cfg.machines.size(), 3u);
  EXPECT_TRUE(cfg.Contains(cfg.cm));

  // Majority side can still write (region re-replicated among survivors).
  auto s = RunTask(*cluster_, WriteValue(2, a, 2), 3 * kSecond);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
}

TEST_F(RecoveryTest, PartitionHealEvictedMachinesRejoin) {
  Boot(5);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 1))->ok());

  // Isolate {0,1} (including the CM) exactly as MinorityPartitionStalls,
  // then heal after the majority has evicted them.
  cluster_->fabric().SetPartition({{0, 1}, {2, 3, 4, 5, 6, 7}});
  ASSERT_TRUE(RunUntil(
      *cluster_,
      [&]() {
        for (MachineId m : {2u, 3u, 4u}) {
          const Configuration& cfg = cluster_->node(m).config();
          if (cfg.Contains(0) || cfg.Contains(1)) {
            return false;
          }
        }
        return true;
      },
      2 * kSecond));
  cluster_->fabric().ClearPartition();

  // Commits resume right away on the surviving members.
  auto s = RunTask(*cluster_, WriteValue(2, a, 2), 3 * kSecond);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();

  // The healed minority discovers its eviction from the coordination
  // service, restarts empty, and rejoins as new instances: every machine
  // converges back to one five-member configuration.
  ASSERT_TRUE(RunUntil(
      *cluster_,
      [&]() {
        for (int i = 0; i < 5; i++) {
          const Configuration& cfg = cluster_->node(static_cast<MachineId>(i)).config();
          if (cfg.machines.size() != 5u || !cfg.Contains(0) || !cfg.Contains(1)) {
            return false;
          }
        }
        return true;
      },
      3 * kSecond));

  // A rejoined machine works as a coordinator again.
  auto v = RunTask(*cluster_, ReadValue(0, a), 3 * kSecond);
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_EQ(v->value(), 2u);
  EXPECT_FALSE(cluster_->AnyRegionLost());
}

TEST_F(RecoveryTest, PowerFailureDuringPartitionRecovers) {
  Boot(5);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 7))->ok());
  cluster_->RunFor(30 * kMillisecond);  // truncation applies at backups

  // Cut the power while a partition is in force. The majority side (3 of 5
  // machines plus the zk replicas) must come back and recover on its own;
  // 3 replicas across 5 machines guarantees it holds at least one copy.
  cluster_->fabric().SetPartition({{0, 1}, {2, 3, 4, 5, 6, 7}});
  cluster_->RunFor(15 * kMillisecond);
  cluster_->PowerFailureRestart();
  cluster_->RunFor(500 * kMillisecond);

  auto v = RunTask(*cluster_, ReadValue(2, a), 3 * kSecond);
  ASSERT_TRUE(v.has_value() && v->ok()) << (v->ok() ? "" : v->status().ToString());
  EXPECT_EQ(v->value(), 7u);
  auto s = RunTask(*cluster_, WriteValue(2, a, 8), 3 * kSecond);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
  EXPECT_FALSE(cluster_->AnyRegionLost());

  // After the partition heals everyone converges on one configuration and
  // the data is still there.
  cluster_->fabric().ClearPartition();
  ASSERT_TRUE(RunUntil(
      *cluster_,
      [&]() {
        for (int i = 0; i < 5; i++) {
          const Configuration& cfg = cluster_->node(static_cast<MachineId>(i)).config();
          if (cfg.machines.size() != 5u) {
            return false;
          }
        }
        return true;
      },
      3 * kSecond));
  auto v2 = RunTask(*cluster_, ReadValue(LiveCoordinator(), a), 3 * kSecond);
  ASSERT_TRUE(v2.has_value() && v2->ok());
  EXPECT_EQ(v2->value(), 8u);
}

TEST_F(RecoveryTest, PowerFailureWithDatagramLossRecovers) {
  Boot(5);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 9))->ok());
  cluster_->RunFor(30 * kMillisecond);

  // Restart recovery (probes, votes, decisions) must ride out a lossy
  // datagram fabric: every RPC involved retries until acked.
  cluster_->fabric().set_datagram_loss(0.05);
  cluster_->PowerFailureRestart();
  cluster_->RunFor(500 * kMillisecond);

  auto v = RunTask(*cluster_, ReadValue(LiveCoordinator(), a), 3 * kSecond);
  ASSERT_TRUE(v.has_value() && v->ok()) << (v->ok() ? "" : v->status().ToString());
  EXPECT_EQ(v->value(), 9u);
  auto s = RunTask(*cluster_, WriteValue(LiveCoordinator(), a, 10), 3 * kSecond);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
  EXPECT_FALSE(cluster_->AnyRegionLost());
  cluster_->fabric().set_datagram_loss(0.0);
}

TEST_F(RecoveryTest, RestartedEmptyMachineRejoins) {
  Boot(5);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 3))->ok());

  // Restart a backup as an empty replacement process: the old instance is
  // evicted, the new one petitions the CM and is admitted with no regions.
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  MachineId victim = p->backups[0];
  cluster_->RestartMachineEmpty(victim);
  ASSERT_TRUE(RunUntil(
      *cluster_,
      [&]() {
        for (int i = 0; i < 5; i++) {
          const Configuration& cfg = cluster_->node(static_cast<MachineId>(i)).config();
          if (cfg.machines.size() != 5u || !cfg.Contains(victim)) {
            return false;
          }
        }
        return true;
      },
      3 * kSecond));

  // The committed value survived (re-replication restores f+1 copies) and
  // the rejoined machine coordinates transactions again.
  auto v = RunTask(*cluster_, ReadValue(victim, a), 3 * kSecond);
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_EQ(v->value(), 3u);
  auto s = RunTask(*cluster_, WriteValue(victim, a, 4), 3 * kSecond);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
  EXPECT_FALSE(cluster_->AnyRegionLost());
}

// FETCH-TX-STATE (section 5.3 step 4): a backup answers with the last LOCK
// or COMMIT-BACKUP record it keeps for the transaction, cut down to the
// asked region's writes and stripped of piggybacked truncation ids.
TEST_F(RecoveryTest, FetchTxStateAnswersWithKeptRecord) {
  Boot(5);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  cluster_->RunFor(50 * kMillisecond);  // truncate everything so far
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  const MachineId backup = p->backups[0];
  const MachineId coord = p->primary;
  const RegionId elsewhere = rid + 100;  // hosted nowhere: never locked
  ASSERT_EQ(cluster_->node(backup).logged_records(), 0u);

  TxLogRecord lock = CraftRecord(LogRecordType::kLock, coord, 1000, {rid, elsewhere});
  TxLogRecord cb = CraftRecord(LogRecordType::kCommitBackup, coord, 1000, {elsewhere, rid});
  cb.writes[1].value = SharedBytes(U64Bytes(77));
  AppendRecord(coord, backup, lock);
  AppendRecord(coord, backup, cb);
  EXPECT_EQ(cluster_->node(backup).logged_records(), 2u);

  auto fetch = [&](const TxId& tid) {
    const FetchTxState req{cluster_->node(coord).config().id, rid, tid};
    auto reply = RunTask(*cluster_, cluster_->node(coord).Request(backup, req, 0,
                                                                  20 * kMillisecond));
    EXPECT_TRUE(reply.has_value());
    return reply.value_or(Status(StatusCode::kTimedOut, "no reply"));
  };

  auto got = fetch(cb.tx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const TxLogRecord& answer = *got;
  EXPECT_EQ(answer.type, LogRecordType::kCommitBackup);
  EXPECT_EQ(answer.tx, cb.tx);
  EXPECT_EQ(answer.written_regions, cb.written_regions);
  ASSERT_EQ(answer.writes.size(), 1u);
  EXPECT_EQ(answer.writes[0].addr, (GlobalAddr{rid, 0}));
  EXPECT_EQ(answer.writes[0].value.ToVector(), U64Bytes(77));
  EXPECT_TRUE(answer.truncate_ids.empty());

  TxId unknown = cb.tx;
  unknown.local++;
  auto missing = fetch(unknown);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Answering keeps the records: they wait for the coordinator's truncation.
  EXPECT_EQ(cluster_->node(backup).logged_records(), 2u);
}

// A machine restarted empty gets new rings; its peers forget every record
// they kept from its old ones, and only those.
TEST_F(RecoveryTest, RestartEmptyDropsPeersRecordsFromOldRing) {
  Boot(5);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  cluster_->RunFor(50 * kMillisecond);  // truncate everything so far
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  const MachineId holder = p->backups[0];
  const MachineId victim = p->primary;
  MachineId other = kInvalidMachine;
  for (MachineId m = 0; m < 5; m++) {
    if (m != holder && m != victim) {
      other = m;
      break;
    }
  }
  const RegionId elsewhere = rid + 100;
  AppendRecord(victim, holder, CraftRecord(LogRecordType::kLock, victim, 1000, {elsewhere}));
  AppendRecord(victim, holder,
               CraftRecord(LogRecordType::kCommitBackup, victim, 1000, {elsewhere}));
  AppendRecord(other, holder,
               CraftRecord(LogRecordType::kCommitBackup, other, 1000, {elsewhere}));
  ASSERT_EQ(cluster_->node(holder).logged_records(), 3u);

  cluster_->RestartMachineEmpty(victim);
  for (MachineId m = 0; m < 5; m++) {
    EXPECT_EQ(cluster_->node(m).logged_records(), m == holder ? 1u : 0u) << "machine " << m;
  }
}

TEST_F(RecoveryTest, CommittedDataIsInNvramOfAllReplicas) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 4242))->ok());
  cluster_->RunFor(30 * kMillisecond);  // truncation applies at backups

  // Simulate a whole-cluster power failure: machines reboot, NVRAM survives.
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  for (int m = 0; m < cluster_->num_machines(); m++) {
    cluster_->machine(static_cast<MachineId>(m)).Kill();
    cluster_->machine(static_cast<MachineId>(m)).Reboot();
  }
  // All f+1 NVRAM copies hold the committed value (durability, section 5).
  for (MachineId m : p->Replicas()) {
    RegionReplica* rep = cluster_->node(m).replica(rid);
    ASSERT_NE(rep, nullptr);
    uint64_t v = 0;
    std::memcpy(&v, rep->Ptr(8, 8), 8);
    EXPECT_EQ(v, 4242u) << "replica on machine " << m;
    EXPECT_EQ(VersionWord::Version(rep->ReadHeader(0)), 1u);
  }
}

TEST_F(RecoveryTest, TwoSequentialFailures) {
  Boot(6);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 10))->ok());

  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  MachineId first = p->backups[0];
  cluster_->Kill(first);
  ASSERT_TRUE(WaitEvicted(first, kSecond));
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return cluster_->regions_rereplicated() >= 1; },
                       2 * kSecond));

  MachineId coord = LiveCoordinator();
  const RegionPlacement* p2 = cluster_->node(coord).config().Placement(rid);
  MachineId second = p2->primary;
  cluster_->Kill(second);
  ASSERT_TRUE(WaitEvicted(second, kSecond));

  coord = LiveCoordinator();
  auto v = RunTask(*cluster_, ReadValue(coord, a), 3 * kSecond);
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_EQ(v->value(), 10u);
  EXPECT_FALSE(cluster_->AnyRegionLost());
}

TEST_F(RecoveryTest, RegionLostWhenAllReplicasDie) {
  // Enough machines that a majority survives the triple failure (losing a
  // majority correctly stalls reconfiguration instead).
  Boot(8);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  const RegionPlacement p = *cluster_->node(0).config().Placement(rid);
  // Kill all replicas simultaneously so no re-replication can save it.
  for (MachineId m : p.Replicas()) {
    cluster_->Kill(m);
  }
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return cluster_->AnyRegionLost(); }, 2 * kSecond));
  EXPECT_EQ(cluster_->lost_regions()[0], rid);
}

// Parameterized failure-point sweep: kill the primary at different moments
// relative to a write burst; the system must always recover to a state
// where every committed write is durable and readable.
class FailurePointTest : public RecoveryTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(FailurePointTest, KillPrimaryAtVariousPoints) {
  int delay_us = GetParam();
  Boot(5, static_cast<uint64_t>(delay_us) + 100);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  MachineId victim = p->primary;
  MachineId coord = kInvalidMachine;
  for (int i = 0; i < cluster_->num_machines(); i++) {
    if (!p->Contains(static_cast<MachineId>(i))) {
      coord = static_cast<MachineId>(i);
      break;
    }
  }
  ASSERT_NE(coord, kInvalidMachine);

  auto outcomes = std::make_shared<std::vector<std::pair<uint64_t, Status>>>();
  auto done = std::make_shared<bool>(false);
  auto writer = [](Cluster* c, MachineId node, RegionId r,
                   std::shared_ptr<std::vector<std::pair<uint64_t, Status>>> out,
                   std::shared_ptr<bool> fin) -> Task<void> {
    for (uint64_t i = 1; i <= 30; i++) {
      GlobalAddr addr{r, static_cast<uint32_t>((i % 8) * 16)};
      auto tx = c->node(node).Begin(0);
      auto rd = co_await tx->Read(addr, 8);
      if (!rd.ok()) {
        out->push_back({i, rd.status()});
        continue;
      }
      std::vector<uint8_t> b(8);
      std::memcpy(b.data(), &i, 8);
      (void)tx->Write(addr, b);
      out->push_back({i, co_await tx->Commit()});
    }
    *fin = true;
  };
  Spawn(writer(cluster_.get(), coord, rid, outcomes, done));
  cluster_->RunFor(static_cast<SimDuration>(delay_us) * kMicrosecond);
  cluster_->Kill(victim);
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return *done; }, 10 * kSecond));
  cluster_->RunFor(200 * kMillisecond);

  // Every committed write must be durable: for each slot, the stored value
  // must be the latest committed write to that slot.
  MachineId reader = LiveCoordinator();
  std::map<uint32_t, uint64_t> latest_committed;
  for (const auto& [i, s] : *outcomes) {
    if (s.ok()) {
      latest_committed[static_cast<uint32_t>((i % 8) * 16)] = i;
    }
  }
  for (const auto& [off, expect] : latest_committed) {
    auto v = RunTask(*cluster_, ReadValue(reader, GlobalAddr{rid, off}), 3 * kSecond);
    ASSERT_TRUE(v.has_value() && v->ok()) << "offset " << off;
    // The stored value is the latest committed write (an unresolved tx may
    // have been committed by recovery after the app gave up, so the value
    // may be from a later, unreported-but-recovered write; it must be at
    // least the committed one).
    EXPECT_GE(v->value(), expect) << "offset " << off;
  }
  EXPECT_EQ(outcomes->size(), 30u);
}

INSTANTIATE_TEST_SUITE_P(KillTimings, FailurePointTest,
                         ::testing::Values(100, 300, 700, 1200, 2000, 3500, 5000));

}  // namespace
}  // namespace farm
