// Tests for the TATP / TPC-C / KV workloads and the load driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>

#include "src/workload/kv.h"
#include "src/workload/tatp.h"
#include "src/workload/tpcc.h"
#include "tests/test_util.h"

namespace farm {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void Boot(int machines = 4, uint64_t seed = 1, uint32_t region_kb = 1024) {
    ClusterOptions opts = SmallClusterOptions(machines, seed);
    opts.node.region_size = region_kb << 10;
    cluster_ = MakeStartedCluster(opts);
  }

  TatpDb MakeTatp(uint64_t subscribers = 400) {
    TatpOptions o;
    o.subscribers = subscribers;
    auto create = [](Cluster* c, TatpOptions opt) -> Task<StatusOr<TatpDb>> {
      co_return co_await TatpDb::Create(*c, opt);
    };
    auto db = RunTask(*cluster_, create(cluster_.get(), o), 60 * kSecond);
    FARM_CHECK(db.has_value() && db->ok())
        << (db.has_value() ? db->status().ToString() : "timeout");
    db->value().RegisterServices(*cluster_);
    return db->value();
  }

  TpccDb MakeTpcc(int warehouses = 2) {
    TpccOptions o;
    o.warehouses = warehouses;
    o.customers = 32;
    o.items = 100;
    o.init_orders = 10;
    auto create = [](Cluster* c, TpccOptions opt) -> Task<StatusOr<TpccDb>> {
      co_return co_await TpccDb::Create(*c, opt);
    };
    auto db = RunTask(*cluster_, create(cluster_.get(), o), 120 * kSecond);
    FARM_CHECK(db.has_value() && db->ok())
        << (db.has_value() ? db->status().ToString() : "timeout");
    return db->value();
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(WorkloadTest, TatpIndividualTransactions) {
  Boot();
  TatpDb db = MakeTatp();
  auto run_all = [this, &db]() -> Task<int> {
    Pcg32 rng(5);
    int ok = 0;
    Node& node = cluster_->node(1);
    for (int i = 0; i < 10; i++) {
      ok += co_await db.GetSubscriberData(node, 0, rng) ? 1 : 0;
    }
    ok += co_await db.GetNewDestination(node, 0, rng) ? 1 : 0;
    ok += co_await db.GetAccessData(node, 0, rng) ? 1 : 0;
    ok += co_await db.UpdateSubscriberData(node, 0, rng) ? 1 : 0;
    ok += co_await db.UpdateLocation(node, 0, rng) ? 1 : 0;
    ok += co_await db.InsertCallForwarding(node, 0, rng) ? 1 : 0;
    co_return ok;
  };
  auto ok = RunTask(*cluster_, run_all(), 10 * kSecond);
  ASSERT_TRUE(ok.has_value());
  // The 10 subscriber lookups always hit; the rest mostly succeed.
  EXPECT_GE(*ok, 12);
}

TEST_F(WorkloadTest, TatpMixRunsAtThroughput) {
  Boot();
  TatpDb db = MakeTatp();
  DriverOptions opts;
  opts.threads_per_machine = 2;
  opts.concurrency_per_thread = 2;
  opts.warmup = 5 * kMillisecond;
  opts.measure = 50 * kMillisecond;
  DriverResult r = RunClosedLoop(*cluster_, db.MakeWorkload(), opts);
  EXPECT_GT(r.committed, 500u);
  EXPECT_GT(r.CommittedPerSecond(), 10000.0);
  // Read-dominated mix: lock-free reads dominate.
  EXPECT_GT(cluster_->TotalStats().lockfree_reads, r.committed / 2);
  // Latencies are in the tens of microseconds at this load.
  EXPECT_LT(r.latency.Percentile(50), 500 * kMicrosecond);
}

TEST_F(WorkloadTest, TatpUpdatesAreDurable) {
  Boot();
  TatpDb db = MakeTatp(100);
  // Replay UpdateLocation's draws from the same seed: subscriber, then location.
  Pcg32 replay(7);
  uint64_t s = replay.Uniform64(100) + 1;
  uint32_t location = replay.Next();
  bool updated = false;
  auto update_then_read =
      [this, &db, &updated, s]() -> Task<StatusOr<std::optional<std::vector<uint8_t>>>> {
    Pcg32 rng(7);
    Node& node = cluster_->node(1);
    updated = co_await db.UpdateLocation(node, 0, rng);
    co_return co_await db.SubscriberTable().LockFreeGet(node, TatpDb::SubKey(s), 0);
  };
  uint64_t rpcs_before = cluster_->fabric().stats().rpcs;
  auto row = RunTask(*cluster_, update_then_read(), 5 * kSecond);
  ASSERT_TRUE(row.has_value());
  EXPECT_TRUE(updated);
  // The update was shipped to the row's primary over the fabric RPC path.
  EXPECT_GT(cluster_->fabric().stats().rpcs, rpcs_before);
  ASSERT_TRUE(row->ok()) << row->status().ToString();
  ASSERT_TRUE(row->value().has_value());
  const std::vector<uint8_t>& bytes = *row->value();
  ASSERT_GE(bytes.size(), 36u);
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + 32, 4);
  EXPECT_EQ(stored, location);
}

// Every timed wait whose reply wins cancels its timer: the commit-phase
// waits (500 ms) and the function-shipped UPDATE_LOCATION RPCs (50 ms). A
// steady-state TATP cluster's event queue therefore holds only live work,
// instead of every decided timeout of the last half second.
TEST_F(WorkloadTest, TatpQueueHoldsNoDecidedTimeouts) {
  Boot();
  TatpDb db = MakeTatp();
  Simulator& sim = cluster_->sim();
  const SimTime stop = sim.Now() + 600 * kMillisecond;
  size_t peak = 0;
  std::function<void()> sample = [&]() {
    peak = std::max(peak, sim.pending_events());
    if (sim.Now() + 10 * kMillisecond <= stop) {
      sim.After(10 * kMillisecond, sample);
    }
  };
  sim.After(100 * kMillisecond, sample);
  DriverOptions opts;
  opts.threads_per_machine = 1;
  opts.concurrency_per_thread = 1;
  opts.machines = {1};
  opts.warmup = 5 * kMillisecond;
  opts.measure = 600 * kMillisecond;
  DriverResult r = RunClosedLoop(*cluster_, db.MakeWorkload(), opts);
  EXPECT_GT(r.committed, 5000u);
  // Measured: a peak of 18 live events; 68,078 when decided timeouts stayed
  // queued until they fired.
  EXPECT_LT(peak, 64u);
}

TEST_F(WorkloadTest, TpccNewOrderAndPayment) {
  Boot(4, 2, 2048);
  TpccDb db = MakeTpcc();
  auto run = [this, &db]() -> Task<std::pair<int, int>> {
    Pcg32 rng(3);
    Node& node = cluster_->node(0);
    int no = 0;
    int pay = 0;
    for (int i = 0; i < 10; i++) {
      no += co_await db.NewOrder(node, 0, rng) ? 1 : 0;
      pay += co_await db.Payment(node, 0, rng) ? 1 : 0;
    }
    co_return std::make_pair(no, pay);
  };
  auto r = RunTask(*cluster_, run(), 30 * kSecond);
  ASSERT_TRUE(r.has_value());
  EXPECT_GE(r->first, 8);   // ~1% intentional rollbacks
  EXPECT_GE(r->second, 9);
  EXPECT_EQ(db.stats()->new_order_committed, static_cast<uint64_t>(r->first));
}

TEST_F(WorkloadTest, TpccOrderLifecycle) {
  Boot(4, 2, 2048);
  TpccDb db = MakeTpcc();
  auto run = [this, &db]() -> Task<bool> {
    Pcg32 rng(9);
    Node& node = cluster_->node(0);
    // Create orders, check status, deliver, check stock.
    for (int i = 0; i < 5; i++) {
      (void)co_await db.NewOrder(node, 0, rng);
    }
    bool status_ok = co_await db.OrderStatus(node, 0, rng);
    bool delivery_ok = co_await db.Delivery(node, 0, rng);
    bool stock_ok = co_await db.StockLevel(node, 0, rng);
    co_return status_ok && delivery_ok && stock_ok;
  };
  auto ok = RunTask(*cluster_, run(), 30 * kSecond);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
}

TEST_F(WorkloadTest, TpccFullMixRuns) {
  Boot(4, 2, 2048);
  TpccDb db = MakeTpcc();
  DriverOptions opts;
  opts.threads_per_machine = 2;
  opts.concurrency_per_thread = 2;
  opts.warmup = 5 * kMillisecond;
  opts.measure = 50 * kMillisecond;
  opts.machines = db.ClientMachines(*cluster_);
  DriverResult r = RunClosedLoop(*cluster_, db.MakeWorkload(), opts);
  EXPECT_GT(r.committed, 50u);
  EXPECT_GT(db.stats()->new_order_committed, 10u);
  EXPECT_GT(db.stats()->payment, 10u);
}

TEST_F(WorkloadTest, KvLookupWorkload) {
  Boot();
  KvOptions o;
  o.keys = 2000;
  auto create = [](Cluster* c, KvOptions opt) -> Task<StatusOr<KvDb>> {
    co_return co_await KvDb::Create(*c, opt);
  };
  auto db = RunTask(*cluster_, create(cluster_.get(), o), 60 * kSecond);
  ASSERT_TRUE(db.has_value() && db->ok());

  DriverOptions opts;
  opts.threads_per_machine = 2;
  opts.concurrency_per_thread = 4;
  opts.warmup = 5 * kMillisecond;
  opts.measure = 30 * kMillisecond;
  DriverResult r = RunClosedLoop(*cluster_, db->value().MakeWorkload(), opts);
  EXPECT_GT(r.committed, 1000u);
  // Lookups are one-sided: median latency stays in single-digit us at
  // moderate load.
  EXPECT_LT(r.latency.Percentile(50), 100 * kMicrosecond);
}

TEST_F(WorkloadTest, DriverMeasuresOnlyAfterWarmup) {
  Boot();
  KvOptions o;
  o.keys = 200;
  auto create = [](Cluster* c, KvOptions opt) -> Task<StatusOr<KvDb>> {
    co_return co_await KvDb::Create(*c, opt);
  };
  auto db = RunTask(*cluster_, create(cluster_.get(), o), 30 * kSecond);
  ASSERT_TRUE(db.has_value() && db->ok());

  DriverOptions opts;
  opts.threads_per_machine = 1;
  opts.concurrency_per_thread = 1;
  opts.warmup = 20 * kMillisecond;
  opts.measure = 20 * kMillisecond;
  DriverResult r = RunClosedLoop(*cluster_, db->value().MakeWorkload(), opts);
  // Nothing before measure_start is recorded.
  uint64_t pre_window = 0;
  for (size_t ms = 0; ms < r.measure_start / kMillisecond && ms < r.throughput.intervals().size();
       ms++) {
    pre_window += r.throughput.intervals()[ms];
  }
  EXPECT_EQ(pre_window, 0u);
  EXPECT_GT(r.committed, 0u);
}

}  // namespace
}  // namespace farm
