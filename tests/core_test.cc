// Cluster-level tests for the FaRM core: region creation, the transaction
// protocol (normal case), lock-free reads, allocation, and concurrency
// control semantics; plus the flat containers on the transaction path
// (FlatMap, the truncated-id bitmaps, the region-reference cache).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "src/common/flat_map.h"
#include "src/common/hash.h"
#include "src/common/rand.h"
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

class CoreTest : public ::testing::Test {
 protected:
  void Boot(int machines = 4, uint64_t seed = 1) {
    cluster_ = MakeStartedCluster(SmallClusterOptions(machines, seed));
  }

  // Writes a u64 value at addr via a transaction from `node`.
  Task<Status> WriteValue(MachineId node, GlobalAddr addr, uint64_t value) {
    auto tx = cluster_->node(node).Begin(0);
    auto r = co_await tx->Read(addr, 8);
    if (!r.ok()) {
      co_return r.status();
    }
    Status ws = tx->Write(addr, U64Bytes(value));
    if (!ws.ok()) {
      co_return ws;
    }
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

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(CoreTest, CreateRegionPlacesReplicas) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 256 << 10, 16);
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->backups.size(), 2u);  // f+1 = 3 replicas
  // All replicas installed their region memory.
  for (MachineId m : p->Replicas()) {
    EXPECT_NE(cluster_->node(m).replica(rid), nullptr) << "machine " << m;
  }
  // Every node learned the mapping.
  for (int m = 0; m < cluster_->num_machines(); m++) {
    EXPECT_NE(cluster_->node(static_cast<MachineId>(m)).config().Placement(rid), nullptr);
  }
}

TEST_F(CoreTest, RegionsBalanceAcrossMachines) {
  Boot(6);
  std::map<MachineId, int> load;
  for (int i = 0; i < 6; i++) {
    RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
    const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
    ASSERT_NE(p, nullptr);
    for (MachineId m : p->Replicas()) {
      load[m]++;
    }
  }
  // 6 regions x 3 replicas over 6 machines: 3 each.
  for (const auto& [m, n] : load) {
    EXPECT_EQ(n, 3) << "machine " << m;
  }
}

TEST_F(CoreTest, WriteThenReadBack) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 0};

  auto ws = RunTask(*cluster_, WriteValue(0, addr, 1234));
  ASSERT_TRUE(ws.has_value());
  EXPECT_TRUE(ws->ok()) << ws->ToString();

  auto rv = RunTask(*cluster_, ReadValue(0, addr));
  ASSERT_TRUE(rv.has_value());
  ASSERT_TRUE(rv->ok());
  EXPECT_EQ(rv->value(), 1234u);
}

TEST_F(CoreTest, RemoteCoordinatorReadsAndWrites) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 32};
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  // Pick a coordinator that is NOT a replica of the region.
  MachineId coord = kInvalidMachine;
  for (int m = 0; m < cluster_->num_machines(); m++) {
    if (!p->Contains(static_cast<MachineId>(m))) {
      coord = static_cast<MachineId>(m);
      break;
    }
  }
  ASSERT_NE(coord, kInvalidMachine);

  auto ws = RunTask(*cluster_, WriteValue(coord, addr, 777));
  ASSERT_TRUE(ws.has_value());
  EXPECT_TRUE(ws->ok()) << ws->ToString();
  // Readable from yet another machine.
  auto rv = RunTask(*cluster_, ReadValue((coord + 1) % 4, addr));
  ASSERT_TRUE(rv.has_value() && rv->ok());
  EXPECT_EQ(rv->value(), 777u);
}

TEST_F(CoreTest, CommitAdvancesVersionAndReplicatesToBackups) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 0};
  auto ws = RunTask(*cluster_, WriteValue(0, addr, 5));
  ASSERT_TRUE(ws.has_value() && ws->ok());
  ws = RunTask(*cluster_, WriteValue(0, addr, 6));
  ASSERT_TRUE(ws.has_value() && ws->ok());
  // Give truncation (which applies backup updates) time to run.
  cluster_->RunFor(20 * kMillisecond);

  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  RegionReplica* prim = cluster_->node(p->primary).replica(rid);
  ASSERT_NE(prim, nullptr);
  EXPECT_EQ(VersionWord::Version(prim->ReadHeader(0)), 2u);
  for (MachineId b : p->backups) {
    RegionReplica* rep = cluster_->node(b).replica(rid);
    ASSERT_NE(rep, nullptr);
    EXPECT_EQ(VersionWord::Version(rep->ReadHeader(0)), 2u) << "backup " << b;
    uint64_t v = 0;
    std::memcpy(&v, rep->Ptr(8, 8), 8);
    EXPECT_EQ(v, 6u) << "backup " << b;
  }
}

TEST_F(CoreTest, WriteWithoutReadRejected) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  auto tx = cluster_->node(0).Begin(0);
  Status s = tx->Write(GlobalAddr{rid, 0}, U64Bytes(1));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(CoreTest, WriteConflictAborts) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 0};

  // Two transactions read the same version, both write: one must abort.
  auto race = [](Cluster* c, GlobalAddr a) -> Task<std::pair<int, int>> {
    auto tx1 = c->node(0).Begin(0);
    auto tx2 = c->node(1).Begin(0);
    auto r1 = co_await tx1->Read(a, 8);
    auto r2 = co_await tx2->Read(a, 8);
    EXPECT_TRUE(r1.ok() && r2.ok());
    (void)tx1->Write(a, U64Bytes(100));
    (void)tx2->Write(a, U64Bytes(200));
    Status s1 = co_await tx1->Commit();
    Status s2 = co_await tx2->Commit();
    int commits = (s1.ok() ? 1 : 0) + (s2.ok() ? 1 : 0);
    int aborts = (s1.code() == StatusCode::kAborted ? 1 : 0) +
                 (s2.code() == StatusCode::kAborted ? 1 : 0);
    co_return std::make_pair(commits, aborts);
  };
  auto result = RunTask(*cluster_, race(cluster_.get(), addr));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->first, 1);
  EXPECT_EQ(result->second, 1);
}

TEST_F(CoreTest, ReadValidationCatchesConcurrentWrite) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  GlobalAddr b{rid, 16};

  // tx reads a and b; a concurrent writer updates a before tx commits.
  auto scenario = [this](GlobalAddr x, GlobalAddr y) -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    auto r1 = co_await tx->Read(x, 8);
    EXPECT_TRUE(r1.ok());
    // Concurrent writer commits an update to x.
    Status ws = co_await WriteValue(0, x, 999);
    EXPECT_TRUE(ws.ok());
    auto r2 = co_await tx->Read(y, 8);
    EXPECT_TRUE(r2.ok());
    (void)tx->Write(y, U64Bytes(1));
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, scenario(a, b));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->code(), StatusCode::kAborted);
}

TEST_F(CoreTest, ReadOnlyTransactionValidates) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 42))->ok());

  auto ro = [this](GlobalAddr x) -> Task<Status> {
    auto tx = cluster_->node(2).Begin(0);
    auto r = co_await tx->Read(x, 8);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(BytesU64(*r), 42u);
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, ro(a));
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok());
}

TEST_F(CoreTest, ValidationOverRpcAboveThreshold) {
  Boot();
  // Keep the whole read set on one primary and exceed t_r = 4.
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  for (uint32_t i = 0; i < 8; i++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, GlobalAddr{rid, i * 16}, i))->ok());
  }
  auto ro = [this, rid]() -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    for (uint32_t i = 0; i < 8; i++) {
      auto r = co_await tx->Read(GlobalAddr{rid, i * 16}, 8);
      EXPECT_TRUE(r.ok());
    }
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, ro());
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
}

TEST_F(CoreTest, LockFreeRead) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 314))->ok());

  auto lf = [this](GlobalAddr x) -> Task<StatusOr<std::vector<uint8_t>>> {
    co_return co_await cluster_->node(3).LockFreeRead(x, 8, 0);
  };
  auto v = RunTask(*cluster_, lf(a));
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_EQ(BytesU64(v->value()), 314u);
  EXPECT_GE(cluster_->node(3).stats().lockfree_reads, 1u);
}

TEST_F(CoreTest, RepeatedReadsReturnSameValue) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 1))->ok());

  auto scenario = [this](GlobalAddr x) -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    auto r1 = co_await tx->Read(x, 8);
    EXPECT_TRUE(r1.ok());
    // Concurrent update commits in between.
    Status ws = co_await WriteValue(0, x, 2);
    EXPECT_TRUE(ws.ok());
    auto r2 = co_await tx->Read(x, 8);
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(BytesU64(*r1), BytesU64(*r2));  // same data within the tx
    co_return co_await tx->Commit();          // but validation must fail
  };
  auto s = RunTask(*cluster_, scenario(a));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->code(), StatusCode::kAborted);
}

TEST_F(CoreTest, ReadYourOwnWrites) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  auto scenario = [this](GlobalAddr x) -> Task<Status> {
    auto tx = cluster_->node(0).Begin(0);
    auto r = co_await tx->Read(x, 8);
    EXPECT_TRUE(r.ok());
    (void)tx->Write(x, U64Bytes(55));
    auto r2 = co_await tx->Read(x, 8);
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(BytesU64(*r2), 55u);
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, scenario(a));
  ASSERT_TRUE(s.has_value() && s->ok());
}

TEST_F(CoreTest, AllocWriteFreeCycle) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 256 << 10, 0);  // slab-managed

  auto scenario = [this](RegionId r) -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    auto addr = co_await tx->Alloc(r, 32);
    EXPECT_TRUE(addr.ok());
    if (!addr.ok()) {
      co_return addr.status();
    }
    std::vector<uint8_t> data(32, 0xcd);
    (void)tx->Write(*addr, data);
    Status s = co_await tx->Commit();
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) {
      co_return s;
    }

    // Read it back and free it in a second transaction.
    auto tx2 = cluster_->node(2).Begin(0);
    auto rd = co_await tx2->Read(*addr, 32);
    EXPECT_TRUE(rd.ok());
    if (rd.ok()) {
      EXPECT_EQ((*rd)[0], 0xcd);
    }
    (void)tx2->Free(*addr);
    co_return co_await tx2->Commit();
  };
  auto s = RunTask(*cluster_, scenario(rid));
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
}

TEST_F(CoreTest, AbortedAllocReleasesSlot) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 256 << 10, 0);
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  Node& primary = cluster_->node(p->primary);

  auto scenario = [this, rid]() -> Task<Status> {
    // Conflict on a plain object forces the abort.
    auto tx = cluster_->node(0).Begin(0);
    auto a = co_await tx->Alloc(rid, 32);
    EXPECT_TRUE(a.ok());
    std::vector<uint8_t> d(32, 1);
    (void)tx->Write(*a, d);
    // Sabotage: another tx allocates and commits the same... instead, force
    // a version conflict by writing the object behind tx's back is not
    // possible for a fresh alloc; use a shared object.
    co_return co_await tx->Commit();
  };
  (void)scenario;
  // Simpler: reserve then destroy the transaction without committing.
  size_t free_before = primary.allocator(rid)->FreeSlots();
  auto leak = [this, rid]() -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    auto a = co_await tx->Alloc(rid, 32);
    EXPECT_TRUE(a.ok());
    // Abandon the transaction: its destructor releases the reservation.
    co_return OkStatus();
  };
  auto s = RunTask(*cluster_, leak());
  ASSERT_TRUE(s.has_value());
  cluster_->RunFor(5 * kMillisecond);
  size_t free_after = primary.allocator(rid)->FreeSlots();
  // A block may have been formatted (adding slots); the reserved slot must
  // not be leaked: free count is at least the pre-alloc count.
  EXPECT_GE(free_after + 0, free_before);
}

TEST_F(CoreTest, TransactionsAcrossMultipleRegions) {
  Boot();
  RegionId r1 = MustCreateRegion(*cluster_, 64 << 10, 16);
  RegionId r2 = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{r1, 0};
  GlobalAddr b{r2, 0};

  auto scenario = [this](GlobalAddr x, GlobalAddr y) -> Task<Status> {
    auto tx = cluster_->node(2).Begin(0);
    auto rx = co_await tx->Read(x, 8);
    auto ry = co_await tx->Read(y, 8);
    EXPECT_TRUE(rx.ok() && ry.ok());
    (void)tx->Write(x, U64Bytes(10));
    (void)tx->Write(y, U64Bytes(20));
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, scenario(a, b));
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
  EXPECT_EQ(RunTask(*cluster_, ReadValue(3, a))->value(), 10u);
  EXPECT_EQ(RunTask(*cluster_, ReadValue(3, b))->value(), 20u);
}

TEST_F(CoreTest, LogsAreTruncatedAfterCommit) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, static_cast<uint64_t>(i)))->ok());
  }
  cluster_->RunFor(50 * kMillisecond);  // flush timers
  // All kept records should be truncated everywhere by now.
  for (int m = 0; m < cluster_->num_machines(); m++) {
    EXPECT_EQ(cluster_->node(static_cast<MachineId>(m)).logged_records(), 0u)
        << "machine " << m;
  }
}

// Serializability property test: concurrent increments on a set of counters
// must never lose updates (every committed increment is reflected).
TEST_F(CoreTest, PropertyConcurrentIncrementsNeverLost) {
  Boot(4, 7);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  constexpr int kCounters = 4;
  constexpr int kWorkers = 6;
  constexpr int kOpsPerWorker = 25;

  auto committed = std::make_shared<std::vector<uint64_t>>(kCounters, 0);
  auto done = std::make_shared<int>(0);

  auto worker = [](Cluster* c, RegionId r, int widx, std::shared_ptr<std::vector<uint64_t>> acc,
                   std::shared_ptr<int> fin) -> Task<void> {
    Pcg32 rng(static_cast<uint64_t>(widx) * 977 + 13);
    MachineId node = static_cast<MachineId>(widx % c->num_machines());
    int thread = widx % 2;
    for (int i = 0; i < kOpsPerWorker; i++) {
      uint32_t counter = rng.Uniform(kCounters);
      GlobalAddr addr{r, counter * 16};
      auto tx = c->node(node).Begin(thread);
      auto v = co_await tx->Read(addr, 8);
      if (!v.ok()) {
        continue;
      }
      uint64_t cur = 0;
      std::memcpy(&cur, v->data(), 8);
      std::vector<uint8_t> nb(8);
      uint64_t next = cur + 1;
      std::memcpy(nb.data(), &next, 8);
      (void)tx->Write(addr, nb);
      Status s = co_await tx->Commit();
      if (s.ok()) {
        (*acc)[counter]++;
      }
    }
    (*fin)++;
  };

  for (int w = 0; w < kWorkers; w++) {
    Spawn(worker(cluster_.get(), rid, w, committed, done));
  }
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return *done == kWorkers; }, 10 * kSecond));

  // Each counter's final value equals the number of committed increments.
  for (int cidx = 0; cidx < kCounters; cidx++) {
    auto v = RunTask(*cluster_, ReadValue(0, GlobalAddr{rid, static_cast<uint32_t>(cidx) * 16}));
    ASSERT_TRUE(v.has_value() && v->ok());
    EXPECT_EQ(v->value(), (*committed)[static_cast<size_t>(cidx)]) << "counter " << cidx;
  }
  // And there was real contention: some transactions aborted.
  EXPECT_GT(cluster_->TotalStats().tx_aborted_lock + cluster_->TotalStats().tx_aborted_validate,
            0u);
}

// Bank-transfer invariant: total money is conserved under concurrent
// transfers (atomicity across two objects).
TEST_F(CoreTest, PropertyBankTransfersConserveTotal) {
  Boot(4, 11);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  constexpr int kAccounts = 6;
  constexpr uint64_t kInitial = 1000;

  for (uint32_t a = 0; a < kAccounts; a++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, GlobalAddr{rid, a * 16}, kInitial))->ok());
  }

  auto done = std::make_shared<int>(0);
  auto transfer = [](Cluster* c, RegionId r, int widx, std::shared_ptr<int> fin) -> Task<void> {
    Pcg32 rng(static_cast<uint64_t>(widx) * 31 + 5);
    MachineId node = static_cast<MachineId>(widx % c->num_machines());
    for (int i = 0; i < 20; i++) {
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
      uint64_t bf = 0;
      uint64_t bt = 0;
      std::memcpy(&bf, vf->data(), 8);
      std::memcpy(&bt, vt->data(), 8);
      uint64_t amount = rng.Uniform(50) + 1;
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

  constexpr int kWorkers = 5;
  for (int w = 0; w < kWorkers; w++) {
    Spawn(transfer(cluster_.get(), rid, w, done));
  }
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return *done == kWorkers; }, 10 * kSecond));

  uint64_t total = 0;
  for (uint32_t a = 0; a < kAccounts; a++) {
    auto v = RunTask(*cluster_, ReadValue(1, GlobalAddr{rid, a * 16}));
    ASSERT_TRUE(v.has_value() && v->ok());
    total += v->value();
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST_F(CoreTest, ColocatedRegionSharesReplicas) {
  Boot(6);
  RegionId r1 = MustCreateRegion(*cluster_, 64 << 10, 16);
  RegionId r2 = MustCreateRegion(*cluster_, 64 << 10, 16, r1);
  const RegionPlacement* p1 = cluster_->node(0).config().Placement(r1);
  const RegionPlacement* p2 = cluster_->node(0).config().Placement(r2);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p1->Replicas(), p2->Replicas());
}

// ---------------------------------------------------------------------------
// The commit path, pinned
// ---------------------------------------------------------------------------

// One read-modify-write transaction over `objs[a]` and `objs[b]` per loop
// turn, logged as "w<worker> <turn> <status code>" with its finish time,
// until `*stop` is set.
Task<void> PinnedWorker(Cluster* c, MachineId m, int thread, int worker,
                        std::vector<GlobalAddr> objs, const bool* stop, std::string* log,
                        int* active) {
  for (uint64_t turn = 0; !*stop; turn++) {
    GlobalAddr a = objs[(turn * 3 + static_cast<uint64_t>(worker) * 7) % objs.size()];
    GlobalAddr b = objs[(turn * 11 + static_cast<uint64_t>(worker) * 5 + 1) % objs.size()];
    auto tx = c->node(m).Begin(thread);
    Status s = OkStatus();
    auto ra = co_await tx->Read(a, 8);
    auto rb = co_await tx->Read(b, 8);
    if (!ra.ok()) {
      s = ra.status();
    } else if (!rb.ok()) {
      s = rb.status();
    } else {
      (void)tx->Write(a, U64Bytes(BytesU64(*ra) + 1));
      (void)tx->Write(b, U64Bytes(BytesU64(*rb) + 2));
      s = co_await tx->Commit();
    }
    *log += std::to_string(c->sim().Now()) + " w" + std::to_string(worker) + " " +
            std::to_string(turn) + " " + std::to_string(static_cast<int>(s.code())) + "\n";
    co_await SleepFor(c->sim(), 3 * kMicrosecond);
  }
  (*active)--;
}

// One scripted transaction: reads `reads`, writes `value` to `writes`,
// frees `frees`, runs `mid` (if set), then commits.
struct PinnedStep {
  MachineId node;
  std::vector<GlobalAddr> reads;
  std::vector<GlobalAddr> writes;
  std::vector<GlobalAddr> frees;
  uint64_t value = 0;
};

Task<Status> RunPinnedStep(Cluster* c, PinnedStep s, std::function<Task<void>()> mid) {
  auto tx = c->node(s.node).Begin(0);
  for (GlobalAddr a : s.reads) {
    auto r = co_await tx->Read(a, 8);
    if (!r.ok()) {
      co_return r.status();
    }
  }
  for (GlobalAddr a : s.writes) {
    (void)tx->Write(a, U64Bytes(s.value));
  }
  for (GlobalAddr a : s.frees) {
    (void)tx->Free(a);
  }
  if (mid) {
    co_await mid();
  }
  co_return co_await tx->Commit();
}

Task<void> PinnedWriter(Cluster* c, GlobalAddr a) {
  PinnedStep s{0, {a}, {a}, {}, 99};
  (void)co_await RunPinnedStep(c, std::move(s), nullptr);
}

// A fixed script over every way a commit can go on a 5-machine cluster: a
// multi-region commit, alloc and free, a lock conflict, validate conflicts
// over one-sided reads and over RPC, a read-only commit, a commit under the
// backup-LOCK-record ablation, and a kill that leaves recovering
// transactions. Each transaction's outcome and finish time is logged, then
// every node's log bytes and the fabric counters; the log's hash pins which
// records the coordinator writes, where, when and how large.
TEST(CommitTest, RecordsArePinned) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(5, /*seed=*/11));
  Cluster& c = *cluster;
  std::string log;
  auto note = [&](const std::string& name, const std::optional<Status>& s) {
    log += std::to_string(c.sim().Now()) + " " + name + " " +
           (s.has_value() ? std::to_string(static_cast<int>(s->code())) : "timeout") + "\n";
  };
  RegionId r1 = MustCreateRegion(c, 64 << 10, 16);
  RegionId r2 = MustCreateRegion(c, 64 << 10, 16, kInvalidRegion, 1);
  RegionId r3 = MustCreateRegion(c, 64 << 10, 16, kInvalidRegion, 2);
  RegionId slab = MustCreateRegion(c, 256 << 10, 0, kInvalidRegion, 3);
  const Configuration& cfg = c.node(0).config();
  // A coordinator that reaches r1's primary over the fabric.
  MachineId remote = (cfg.Placement(r1)->primary + 1) % 5;

  auto step = [&](const std::string& name, PinnedStep s,
                  std::function<Task<void>()> mid = nullptr) {
    note(name, RunTask(c, RunPinnedStep(&c, std::move(s), std::move(mid))));
  };
  // A concurrent writer committing between a transaction's reads and its
  // commit.
  auto writer = [&](GlobalAddr a) {
    return [&c, a]() { return PinnedWriter(&c, a); };
  };

  GlobalAddr x{r1, 0}, y{r2, 0}, z{r3, 0};
  step("multi", PinnedStep{2, {x, y, z}, {x, y, z}, {}, 1});

  auto alloc = [](Cluster* cl, RegionId r) -> Task<StatusOr<GlobalAddr>> {
    auto tx = cl->node(1).Begin(0);
    auto a = co_await tx->Alloc(r, 32);
    if (!a.ok()) {
      co_return a.status();
    }
    (void)tx->Write(*a, std::vector<uint8_t>(32, 0xab));
    Status s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
    co_return *a;
  };
  auto allocated = RunTask(c, alloc(&c, slab));
  ASSERT_TRUE(allocated.has_value() && allocated->ok());
  note("alloc", OkStatus());
  step("free", PinnedStep{3, {**allocated}, {}, {**allocated}});

  auto conflict = [](Cluster* cl, GlobalAddr a) -> Task<Status> {
    auto tx1 = cl->node(0).Begin(0);
    auto tx2 = cl->node(4).Begin(1);
    (void)co_await tx1->Read(a, 8);
    (void)co_await tx2->Read(a, 8);
    (void)tx1->Write(a, U64Bytes(100));
    (void)tx2->Write(a, U64Bytes(200));
    Status s1 = co_await tx1->Commit();
    Status s2 = co_await tx2->Commit();
    co_return s1.ok() ? s2 : s1;
  };
  note("lock_conflict", RunTask(c, conflict(&c, GlobalAddr{r1, 16})));

  step("validate_rdma",
       PinnedStep{remote, {GlobalAddr{r1, 32}, GlobalAddr{r2, 32}}, {GlobalAddr{r2, 32}}, {}, 5},
       writer(GlobalAddr{r1, 32}));
  PinnedStep rpc{remote, {}, {GlobalAddr{r2, 48}}, {}, 6};
  for (uint32_t i = 0; i < 6; i++) {
    rpc.reads.push_back(GlobalAddr{r1, 64 + 16 * i});
  }
  rpc.reads.push_back(GlobalAddr{r2, 48});
  step("validate_rpc", rpc, writer(GlobalAddr{r1, 80}));
  step("read_only", PinnedStep{4, {x, y, GlobalAddr{r3, 16}}, {}, {}});

  c.node(1).options().backup_lock_records = true;
  step("backup_lock", PinnedStep{1, {x, z}, {x, z}, {}, 7});
  c.node(1).options().backup_lock_records = false;

  // Workers on four machines; the fifth, r2's primary, dies under them.
  MachineId victim = cfg.Placement(r2)->primary;
  std::vector<GlobalAddr> objs;
  for (RegionId r : {r1, r2, r3}) {
    for (uint32_t i = 8; i < 16; i++) {
      objs.push_back(GlobalAddr{r, 16 * i});
    }
  }
  bool stop = false;
  int active = 0;
  int worker = 0;
  for (MachineId m = 0; m < 5; m++) {
    for (int t = 0; m != victim && t < 2; t++) {
      for (int k = 0; k < 2; k++, active++) {
        Spawn(PinnedWorker(&c, m, t, worker++, objs, &stop, &log, &active));
      }
    }
  }
  c.RunFor(2 * kMillisecond);
  log += std::to_string(c.sim().Now()) + " kill " + std::to_string(victim) + "\n";
  c.Kill(victim);
  c.RunFor(40 * kMillisecond);
  stop = true;
  // Unresolved commits give up after 500 ms. Workers still running after
  // that are counted too: a new primary whose lock recovery never starts
  // keeps its own reads of the region waiting.
  c.RunFor(600 * kMillisecond);
  log += "active " + std::to_string(active) + "\n";

  NodeStats total = c.TotalStats();
  EXPECT_GT(total.recovering_txs_seen, 0u) << "the kill must leave recovering txs";
  for (uint64_t v : {total.tx_committed, total.tx_aborted_lock, total.tx_aborted_validate,
                     total.tx_recovered_commit, total.tx_recovered_abort, total.tx_unresolved,
                     total.recovering_txs_seen}) {
    log += std::to_string(v) + " ";
  }
  for (MachineId m = 0; m < 5; m++) {
    log += std::to_string(c.node(m).messenger().log_bytes_sent()) + " ";
  }
  const FabricStats& s = c.fabric().stats();
  for (uint64_t v : {s.rdma_reads, s.rdma_writes, s.rdma_cas, s.rpcs, s.datagrams, s.rdma_bytes,
                     s.rpc_bytes}) {
    log += std::to_string(v) + " ";
  }
  EXPECT_EQ(Fnv1a(log), 0x9c384e9174e11fa2ULL) << log;
}

// FlatMap must keep std::map's membership and iteration order exactly:
// read/write sets are walked to build records and messages.
TEST(FlatMapTest, MatchesStdMapModel) {
  Pcg32 rng(19);
  FlatMap<GlobalAddr, uint64_t> flat;
  std::map<GlobalAddr, uint64_t> model;
  for (int step = 0; step < 4000; step++) {
    // Few regions and offsets, so keys repeat and both insert paths run.
    GlobalAddr key{rng.Uniform(4), 16 * rng.Uniform(48)};
    uint64_t value = rng.Next64();
    switch (rng.Uniform(4)) {
      case 0: {
        auto [it, inserted] = flat.try_emplace(key, value);
        auto [mit, minserted] = model.try_emplace(key, value);
        ASSERT_EQ(inserted, minserted);
        ASSERT_EQ(it->first, key);
        ASSERT_EQ(it->second, mit->second);
        break;
      }
      case 1: {
        auto [it, inserted] = flat.insert_or_assign(key, value);
        auto [mit, minserted] = model.insert_or_assign(key, value);
        ASSERT_EQ(inserted, minserted);
        ASSERT_EQ(it->first, key);
        ASSERT_EQ(it->second, value);
        break;
      }
      case 2: {
        auto it = flat.find(key);
        auto mit = model.find(key);
        ASSERT_EQ(it == flat.end(), mit == model.end());
        if (mit != model.end()) {
          ASSERT_EQ(it->second, mit->second);
        }
        break;
      }
      default:
        ASSERT_EQ(flat.count(key), model.count(key));
        break;
    }
    ASSERT_EQ(flat.size(), model.size());
    ASSERT_EQ(flat.empty(), model.empty());
    auto it = flat.begin();
    for (const auto& [k, v] : model) {
      ASSERT_EQ(it->first, k) << "step " << step;
      ASSERT_EQ(it->second, v) << "step " << step;
      ++it;
    }
  }
}

class NodeTest : public CoreTest {};

// The per-coordinator bitmaps answer exactly like a set of (machine,
// thread, local) ids; the configuration component plays no part.
TEST_F(NodeTest, TruncatedSetMatchesSetModel) {
  Pcg32 rng(23);
  TruncatedSet set;
  std::set<std::tuple<MachineId, uint16_t, uint64_t>> model;
  auto random_id = [&]() {
    // Local 0, both sides of the first word boundaries, dense small ids
    // and far-apart ones.
    constexpr uint64_t kEdges[] = {0, 1, 62, 63, 64, 65, 127, 128, 1 << 20, (1 << 20) + 63};
    uint64_t local = rng.Bernoulli(0.3) ? kEdges[rng.Uniform(std::size(kEdges))]
                                        : rng.Uniform(rng.Bernoulli(0.5) ? 300 : 1 << 16);
    return TxId{rng.Uniform(5), static_cast<MachineId>(rng.Uniform(3)),
                static_cast<uint16_t>(rng.Uniform(2)), local};
  };
  for (uint64_t local : {0, 63, 64, 1 << 20}) {
    set.Insert(TxId{1, 0, 0, local});
    model.insert({0, 0, local});
  }
  for (int step = 0; step < 6000; step++) {
    TxId id = random_id();
    if (rng.Bernoulli(0.4)) {
      set.Insert(id);
      model.insert({id.machine, id.thread, id.local});
    }
    TxId q = random_id();
    for (uint64_t local : {q.local, q.local + 1, q.local - (q.local > 0 ? 1 : 0)}) {
      q.local = local;
      ASSERT_EQ(set.Contains(q), model.count({q.machine, q.thread, q.local}) != 0)
          << "step " << step << " m" << q.machine << " t" << q.thread << " l" << q.local;
    }
  }
}

// A reference stays cached across a reconfiguration only while its
// region's primary did not move: the region whose primary died misses the
// cache and is re-requested from the new primary, the other keeps its
// reference (a re-request would restamp it with the new configuration).
TEST_F(NodeTest, CachedRefDropsOnPrimaryChange) {
  Boot(5);
  std::vector<RegionId> regions;
  for (int i = 0; i < 6; i++) {
    regions.push_back(MustCreateRegion(*cluster_, 64 << 10, 16));
  }
  const Configuration& cfg = cluster_->node(0).config();
  // Victim: the primary of `moved`. Coordinator: a live machine outside
  // `moved`'s replicas, so its new reference must come over the wire.
  // `kept`: a region whose primary is neither the victim nor the coordinator.
  RegionId moved = regions[0];
  MachineId victim = cfg.Placement(moved)->primary;
  MachineId coord = kInvalidMachine;
  for (MachineId m : cfg.machines) {
    if (m != cfg.cm && !cfg.Placement(moved)->Contains(m)) {
      coord = m;
    }
  }
  ASSERT_NE(coord, kInvalidMachine);
  RegionId kept = kInvalidRegion;
  for (RegionId r : regions) {
    MachineId primary = cfg.Placement(r)->primary;
    if (primary != victim && primary != coord) {
      kept = r;
    }
  }
  ASSERT_NE(kept, kInvalidRegion);

  ASSERT_TRUE(RunTask(*cluster_, WriteValue(coord, GlobalAddr{moved, 0}, 7))->ok());
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(coord, GlobalAddr{kept, 0}, 9))->ok());
  Node& node = cluster_->node(coord);
  ASSERT_TRUE(node.CachedRef(moved).has_value());
  ASSERT_TRUE(node.CachedRef(kept).has_value());
  const Node::RegionRef before = *node.CachedRef(kept);

  cluster_->Kill(victim);
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return !node.config().Contains(victim); },
                       500 * kMillisecond));
  const MachineId new_primary = node.config().Placement(moved)->primary;
  ASSERT_NE(new_primary, victim);
  ASSERT_EQ(node.config().Placement(kept)->primary, before.primary);
  ASSERT_GT(node.config().id, before.as_of);
  EXPECT_FALSE(node.CachedRef(moved).has_value());
  ASSERT_TRUE(node.CachedRef(kept).has_value());

  auto moved_value = RunTask(*cluster_, ReadValue(coord, GlobalAddr{moved, 0}));
  ASSERT_TRUE(moved_value.has_value() && moved_value->ok());
  EXPECT_EQ(moved_value->value(), 7u);
  auto kept_value = RunTask(*cluster_, ReadValue(coord, GlobalAddr{kept, 0}));
  ASSERT_TRUE(kept_value.has_value() && kept_value->ok());
  EXPECT_EQ(kept_value->value(), 9u);

  // The moved region's reference was re-requested from its new primary ...
  std::optional<Node::RegionRef> moved_ref = node.CachedRef(moved);
  ASSERT_TRUE(moved_ref.has_value());
  EXPECT_EQ(moved_ref->primary, new_primary);
  EXPECT_GE(moved_ref->as_of, node.config().Placement(moved)->last_primary_change);
  // ... while the kept region's is the one cached before the failure.
  std::optional<Node::RegionRef> kept_ref = node.CachedRef(kept);
  ASSERT_TRUE(kept_ref.has_value());
  EXPECT_EQ(kept_ref->as_of, before.as_of);
  EXPECT_EQ(kept_ref->primary, before.primary);
  EXPECT_EQ(kept_ref->base, before.base);
}

// The coroutine-frame arena, the parked-frame list and the log clock are
// per thread, so a thread may hold only one live Cluster: a second one would
// share (and, at teardown, reclaim) the first one's parked frames.
TEST(ClusterDeathTest, SecondLiveClusterOnOneThreadFailsCheck) {
  EXPECT_DEATH(
      {
        Cluster first(SmallClusterOptions(3, 1));
        Cluster second(SmallClusterOptions(3, 2));
      },
      "already live on this thread");
}

}  // namespace
}  // namespace farm
