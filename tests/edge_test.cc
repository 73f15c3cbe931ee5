// Edge-case tests: fabric CAS races, datagram loss statistics, B-tree under
// failure, transactions vs region creation races, TATP key packing, driver
// edge behaviors, and miscellaneous boundary conditions.
#include <gtest/gtest.h>

#include <set>

#include "src/ds/btree.h"
#include "src/workload/driver.h"
#include "src/workload/tatp.h"
#include "tests/test_util.h"

namespace farm {
namespace {

// ---------------------------------------------------------------------------
// Fabric edges
// ---------------------------------------------------------------------------

TEST(FabricEdge, ConcurrentCasExactlyOneWinnerPerRound) {
  Simulator sim;
  Fabric fabric(sim);
  std::vector<std::unique_ptr<Machine>> machines;
  std::vector<std::unique_ptr<NvramStore>> stores;
  for (MachineId i = 0; i < 5; i++) {
    machines.push_back(std::make_unique<Machine>(sim, i, 2, static_cast<int>(i)));
    stores.push_back(std::make_unique<NvramStore>());
    fabric.AddMachine(machines.back().get(), stores.back().get());
  }
  uint64_t addr = stores[0]->Allocate(8);

  // Rounds of CAS(expected=round, desired=round+1) from 4 racing machines:
  // exactly one must observe the expected value each round.
  auto winners = std::make_shared<std::vector<int>>(10, 0);
  auto racer = [](Fabric* f, MachineId m, uint64_t a, uint64_t round,
                  std::shared_ptr<std::vector<int>> w) -> Task<void> {
    NetResult r = co_await f->Cas(m, 0, a, round, round + 1);
    if (r.status.ok()) {
      uint64_t observed;
      std::memcpy(&observed, r.data.data(), 8);
      if (observed == round) {
        (*w)[static_cast<size_t>(round)]++;
      }
    }
  };
  for (uint64_t round = 0; round < 10; round++) {
    for (MachineId m = 1; m < 5; m++) {
      Spawn(racer(&fabric, m, addr, round, winners));
    }
    sim.RunFor(kMillisecond);
  }
  for (size_t round = 0; round < 10; round++) {
    EXPECT_EQ((*winners)[round], 1) << "round " << round;
  }
}

TEST(FabricEdge, DatagramLossRateIsRespected) {
  Simulator sim;
  Fabric fabric(sim);
  Machine m0(sim, 0, 2, 0);
  Machine m1(sim, 1, 2, 1);
  NvramStore s0;
  NvramStore s1;
  fabric.AddMachine(&m0, &s0);
  fabric.AddMachine(&m1, &s1);
  fabric.set_datagram_loss(0.25);

  int delivered = 0;
  fabric.SetDatagramHandler(1, [&](MachineId, std::vector<uint8_t>) { delivered++; });
  const int kSent = 4000;
  for (int i = 0; i < kSent; i++) {
    fabric.SendDatagram(0, 1, {1, 2});
  }
  sim.Run();
  EXPECT_NEAR(delivered, kSent * 3 / 4, kSent / 20);
}

TEST(FabricEdge, PartitionHealingRestoresTraffic) {
  Simulator sim;
  Fabric fabric(sim);
  Machine m0(sim, 0, 2, 0);
  Machine m1(sim, 1, 2, 1);
  NvramStore s0;
  NvramStore s1;
  fabric.AddMachine(&m0, &s0);
  fabric.AddMachine(&m1, &s1);
  uint64_t addr = s1.Allocate(64);

  fabric.SetPartition({{0}, {1}});
  Status first = OkStatus();
  Status second = Status(StatusCode::kInternal, "unset");
  auto probe = [&](Status* out) -> Task<void> {
    NetResult r = co_await fabric.Read(0, 1, addr, 8);
    *out = r.status;
  };
  Spawn(probe(&first));
  sim.Run();
  EXPECT_FALSE(first.ok());

  fabric.ClearPartition();
  Spawn(probe(&second));
  sim.Run();
  EXPECT_TRUE(second.ok());
}

// ---------------------------------------------------------------------------
// B-tree under failure: ordered-index invariants survive a primary kill.
// ---------------------------------------------------------------------------

TEST(BTreeFailure, OrderedIndexSurvivesPrimaryKill) {
  ClusterOptions opts = SmallClusterOptions(5, 43);
  opts.node.region_size = 512 << 10;
  auto cluster = MakeStartedCluster(opts);
  auto created = RunTask(*cluster, [](Cluster* c) -> Task<StatusOr<BTree>> {
                           co_return co_await BTree::Create(c->node(0), BTree::Options{}, 0);
                         }(cluster.get()));
  ASSERT_TRUE(created.has_value() && created->ok());
  BTree bt = created->value();

  auto insert = [](Cluster* c, BTree t, MachineId node, uint64_t key,
                   uint64_t value) -> Task<bool> {
    for (int attempt = 0; attempt < 8; attempt++) {
      if (!c->machine(node).alive()) {
        node = (node + 1) % static_cast<MachineId>(c->num_machines());
        continue;
      }
      auto tx = c->node(node).Begin(0);
      Status s = co_await t.Insert(*tx, key, value);
      if (s.ok() && (co_await tx->Commit()).ok()) {
        co_return true;
      }
      co_await SleepFor(c->sim(), 500 * kMicrosecond);
    }
    co_return false;
  };

  // Insert half the keys, kill the node-region primary, insert the rest.
  std::set<uint64_t> committed;
  for (uint64_t k = 1; k <= 60; k++) {
    auto ok = RunTask(*cluster, insert(cluster.get(), bt, static_cast<MachineId>(k % 5), k * 7,
                                       k),
                      5 * kSecond);
    if (ok.has_value() && *ok) {
      committed.insert(k * 7);
    }
    if (k == 30) {
      const RegionPlacement* p = cluster->node(0).config().Placement(bt.node_region());
      cluster->Kill(p->primary);
    }
  }
  cluster->RunFor(200 * kMillisecond);

  // Scan from a survivor: all committed keys present, in order.
  MachineId reader = 0;
  while (!cluster->machine(reader).alive()) {
    reader++;
  }
  BTree handle = bt.Clone();
  auto scan = RunTask(*cluster, [](Cluster* c, BTree t, MachineId node)
                                    -> Task<StatusOr<std::vector<std::pair<uint64_t, uint64_t>>>> {
                        for (int attempt = 0; attempt < 8; attempt++) {
                          auto tx = c->node(node).Begin(0);
                          auto r = co_await t.Scan(*tx, 0, UINT64_MAX, 1000);
                          if (!r.ok()) {
                            continue;
                          }
                          if ((co_await tx->Commit()).ok()) {
                            co_return *r;
                          }
                        }
                        co_return AbortedStatus("scan kept aborting");
                      }(cluster.get(), handle, reader),
                      10 * kSecond);
  ASSERT_TRUE(scan.has_value() && scan->ok());
  std::set<uint64_t> found;
  uint64_t prev = 0;
  for (const auto& [k, v] : scan->value()) {
    (void)v;
    EXPECT_GT(k, prev);  // strictly ordered
    prev = k;
    found.insert(k);
  }
  for (uint64_t k : committed) {
    EXPECT_TRUE(found.count(k) != 0) << "committed key " << k << " missing after failure";
  }
}

// ---------------------------------------------------------------------------
// Region creation racing with reconfiguration.
// ---------------------------------------------------------------------------

TEST(RegionCreateRace, CreateDuringFailureEitherSucceedsOrFailsCleanly) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(6, 47));
  // Start several region creations, kill a machine mid-stream.
  auto results = std::make_shared<std::vector<Status>>();
  auto done = std::make_shared<int>(0);
  auto create = [](Cluster* c, int i, std::shared_ptr<std::vector<Status>> out,
                   std::shared_ptr<int> fin) -> Task<void> {
    MachineId node = static_cast<MachineId>(i % 3);  // machines 0-2 stay alive
    auto r = co_await c->node(node).CreateRegion(64 << 10, 16, kInvalidRegion, 0);
    out->push_back(r.ok() ? OkStatus() : r.status());
    (*fin)++;
  };
  for (int i = 0; i < 8; i++) {
    Spawn(create(cluster.get(), i, results, done));
  }
  cluster->RunFor(200 * kMicrosecond);
  cluster->Kill(5);
  ASSERT_TRUE(RunUntil(*cluster, [&]() { return *done == 8; }, 10 * kSecond));
  cluster->RunFor(100 * kMillisecond);

  // Whatever succeeded must be usable afterwards.
  int usable = 0;
  for (const auto& [rid, p] : cluster->node(0).config().regions) {
    (void)p;
    auto write = [](Cluster* c, RegionId r) -> Task<Status> {
      auto tx = c->node(0).Begin(0);
      auto v = co_await tx->Read(GlobalAddr{r, 0}, 8);
      if (!v.ok()) {
        co_return v.status();
      }
      std::vector<uint8_t> b(8, 7);
      (void)tx->Write(GlobalAddr{r, 0}, b);
      co_return co_await tx->Commit();
    };
    auto s = RunTask(*cluster, write(cluster.get(), rid), 5 * kSecond);
    if (s.has_value() && s->ok()) {
      usable++;
    }
  }
  EXPECT_GT(usable, 0);
  EXPECT_FALSE(cluster->AnyRegionLost());
}

// ---------------------------------------------------------------------------
// TATP details
// ---------------------------------------------------------------------------

TEST(TatpKeys, CompositeKeysAreInjective) {
  std::set<uint64_t> keys;
  for (uint64_t s = 1; s <= 50; s++) {
    ASSERT_TRUE(keys.insert(TatpDb::SubKey(s)).second);
  }
  for (uint64_t s = 1; s <= 50; s++) {
    for (uint32_t t = 1; t <= 4; t++) {
      ASSERT_TRUE(keys.insert(TatpDb::AiKey(s, t) << 32).second);  // distinct tables
      for (uint32_t st = 0; st < 24; st += 8) {
        ASSERT_TRUE(keys.insert((TatpDb::CfKey(s, t, st) << 8) | 1).second)
            << "s=" << s << " t=" << t << " st=" << st;
      }
    }
  }
  // And none of the keys collide with the hash-table sentinels.
  EXPECT_EQ(keys.count(HashTable::kEmptyKey), 0u);
  EXPECT_EQ(keys.count(HashTable::kTombstoneKey), 0u);
}

TEST(TatpMix, InsertThenDeleteCallForwardingRoundTrips) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, 53));
  TatpOptions topts;
  topts.subscribers = 100;
  auto db = RunTask(*cluster, [](Cluster* c, TatpOptions o) -> Task<StatusOr<TatpDb>> {
                      co_return co_await TatpDb::Create(*c, o);
                    }(cluster.get(), topts),
                    60 * kSecond);
  ASSERT_TRUE(db.has_value() && db->ok());
  db->value().RegisterServices(*cluster);

  // Drive inserts and deletes until both have succeeded at least once; the
  // round trip exercises tombstone reuse in the hash table.
  auto run = [](Cluster* c, TatpDb d) -> Task<std::pair<int, int>> {
    Pcg32 rng(77);
    int inserts = 0;
    int deletes = 0;
    for (int i = 0; i < 120 && (inserts == 0 || deletes == 0); i++) {
      if (co_await d.InsertCallForwarding(c->node(1), 0, rng)) {
        inserts++;
      }
      if (co_await d.DeleteCallForwarding(c->node(2), 0, rng)) {
        deletes++;
      }
    }
    co_return std::make_pair(inserts, deletes);
  };
  auto r = RunTask(*cluster, run(cluster.get(), db->value()), 60 * kSecond);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->first, 0);
  EXPECT_GT(r->second, 0);
}

// ---------------------------------------------------------------------------
// Driver edges
// ---------------------------------------------------------------------------

TEST(DriverEdge, WorkersOnDeadMachinesExitCleanly) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, 59));
  RegionId rid = MustCreateRegion(*cluster, 64 << 10, 16);

  auto fn = [rid](Node& node, int thread, Pcg32& rng) -> Task<bool> {
    (void)rng;
    auto tx = node.Begin(thread);
    auto v = co_await tx->Read(GlobalAddr{rid, 0}, 8);
    if (!v.ok()) {
      co_return false;
    }
    co_return (co_await tx->Commit()).ok();
  };
  DriverOptions dopts;
  dopts.threads_per_machine = 2;
  dopts.concurrency_per_thread = 2;
  dopts.warmup = kMillisecond;
  DriverRun run = StartWorkers(*cluster, fn, dopts);
  cluster->RunFor(5 * kMillisecond);
  cluster->Kill(3);
  cluster->RunFor(100 * kMillisecond);
  StopWorkers(*cluster, run);
  // Workers on machine 3 died with it; the rest exit on the stop flag.
  ASSERT_TRUE(RunUntil(*cluster, [&]() { return *run.active_workers <= 4; }, 5 * kSecond));
  EXPECT_GT(run.result->committed, 0u);
}

TEST(DriverEdge, MachineSubsetRestrictsWorkers) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, 71));
  RegionId rid = MustCreateRegion(*cluster, 64 << 10, 16);
  auto seen = std::make_shared<std::set<MachineId>>();
  auto fn = [rid, seen](Node& node, int thread, Pcg32& rng) -> Task<bool> {
    (void)rng;
    seen->insert(node.id());
    auto tx = node.Begin(thread);
    auto v = co_await tx->Read(GlobalAddr{rid, 0}, 8);
    if (!v.ok()) {
      co_return false;
    }
    co_return (co_await tx->Commit()).ok();
  };
  DriverOptions dopts;
  dopts.machines = {1, 2};
  dopts.warmup = kMillisecond;
  dopts.measure = 5 * kMillisecond;
  DriverResult r = RunClosedLoop(*cluster, fn, dopts);
  EXPECT_GT(r.committed, 0u);
  EXPECT_EQ(seen->count(0), 0u);
  EXPECT_EQ(seen->count(3), 0u);
  EXPECT_GT(seen->count(1) + seen->count(2), 0u);
}

// ---------------------------------------------------------------------------
// Transaction API edges
// ---------------------------------------------------------------------------

TEST(TxEdge, EmptyTransactionCommits) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, 73));
  auto run = [](Cluster* c) -> Task<Status> {
    auto tx = c->node(0).Begin(0);
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster, run(cluster.get()));
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok());
}

TEST(TxEdge, ReadOfUnknownRegionFails) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, 79));
  auto run = [](Cluster* c) -> Task<Status> {
    auto tx = c->node(0).Begin(0);
    auto v = co_await tx->Read(GlobalAddr{999, 0}, 8);
    co_return v.ok() ? OkStatus() : v.status();
  };
  auto s = RunTask(*cluster, run(cluster.get()));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->code(), StatusCode::kNotFound);
}

TEST(TxEdge, FreeRequiresPriorRead) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, 83));
  RegionId rid = MustCreateRegion(*cluster, 64 << 10, 16);
  auto tx = cluster->node(0).Begin(0);
  EXPECT_EQ(tx->Free(GlobalAddr{rid, 0}).code(), StatusCode::kFailedPrecondition);
}

TEST(TxEdge, WriteAfterFreeRejected) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, 89));
  RegionId rid = MustCreateRegion(*cluster, 256 << 10, 0);  // slab-managed
  auto run = [](Cluster* c, RegionId r) -> Task<Status> {
    // Allocate + commit, then read-free-write in a second transaction.
    auto tx1 = c->node(0).Begin(0);
    auto a = co_await tx1->Alloc(r, 32);
    if (!a.ok()) {
      co_return a.status();
    }
    std::vector<uint8_t> d(32, 1);
    (void)tx1->Write(*a, d);
    Status s = co_await tx1->Commit();
    if (!s.ok()) {
      co_return s;
    }
    auto tx2 = c->node(0).Begin(0);
    auto v = co_await tx2->Read(*a, 32);
    if (!v.ok()) {
      co_return v.status();
    }
    s = tx2->Free(*a);
    if (!s.ok()) {
      co_return s;
    }
    co_return tx2->Write(*a, d);  // must be rejected
  };
  auto s = RunTask(*cluster, run(cluster.get(), rid), 5 * kSecond);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace farm
