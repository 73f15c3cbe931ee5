// Figure 8: TPC-C throughput vs latency.
//
// Paper: up to 4.5 M "new order" tx/s; median latency 808 us, 99th 1.9 ms at
// peak; halving the latency costs ~10% throughput. Expected shape: an order
// of magnitude higher latency than TATP (complex multi-row transactions)
// with the same saturation knee.
#include "bench/bench_util.h"
#include "src/workload/tpcc.h"

namespace farm {
namespace {

void Run() {
  constexpr int kMachines = 24;
  bench::PrintHeader(
      "Figure 8: TPC-C throughput-latency",
      "4.5M new-order/s peak @ 808us median / 1.9ms p99 (paper)",
      "24 machines x 2 threads, 48 warehouses co-partitioned, 60ms windows");

  ClusterOptions copts = bench::DefaultClusterOptions(kMachines);
  copts.node.region_size = 2 << 20;
  auto cluster = std::make_unique<Cluster>(copts);
  cluster->Start();
  cluster->RunFor(5 * kMillisecond);

  TpccOptions topts;
  // Multiple warehouses per machine, as in the paper (240 per machine at
  // 21600/90): contention on warehouse/district rows stays bounded.
  topts.warehouses = 48;
  topts.customers = 32;
  topts.items = 200;
  topts.init_orders = 10;
  auto db = bench::AwaitTask(
      *cluster,
      [](Cluster* c, TpccOptions o) -> Task<StatusOr<TpccDb>> {
        co_return co_await TpccDb::Create(*c, o);
      }(cluster.get(), topts),
      600 * kSecond);
  FARM_CHECK(db.has_value() && db->ok())
      << "tpcc load failed: " << (db.has_value() ? db->status().ToString() : "timeout");

  std::printf("%12s %16s %14s %12s %12s\n", "concurrency", "new-order/s", "committed/s",
              "median_us", "p99_us");
  struct Point {
    int threads;
    int concurrency;
  };
  const Point kPoints[] = {{1, 1}, {1, 2}, {2, 1}, {2, 2}, {2, 4}};
  uint64_t last_new_orders = 0;
  uint64_t total_msgs = 0;
  uint64_t total_committed = 0;
  FabricStats measured_before = cluster->fabric().stats();
  for (const Point& p : kPoints) {
    DriverOptions dopts;
    dopts.threads_per_machine = p.threads;
    dopts.concurrency_per_thread = p.concurrency;
    dopts.warmup = 10 * kMillisecond;
    dopts.measure = 60 * kMillisecond;
    dopts.machines = db->value().ClientMachines(*cluster);
    uint64_t msgs_before = cluster->fabric().stats().WireMessages();
    uint64_t committed_before = cluster->TotalStats().tx_committed;
    DriverResult r = RunClosedLoop(*cluster, db->value().MakeWorkload(), dopts);
    uint64_t committed = cluster->TotalStats().tx_committed - committed_before;
    total_msgs += cluster->fabric().stats().WireMessages() - msgs_before;
    total_committed += committed;
    uint64_t new_orders = db->value().stats()->new_order_committed - last_new_orders;
    last_new_orders = db->value().stats()->new_order_committed;
    double secs = static_cast<double>(r.measure_end - r.measure_start) / 1e9;
    double p50_us = static_cast<double>(r.latency.Percentile(50)) / 1e3;
    double p99_us = static_cast<double>(r.latency.Percentile(99)) / 1e3;
    std::printf("%7dx%-4d %16.0f %14.0f %12.1f %12.1f\n", p.threads, p.concurrency,
                static_cast<double>(new_orders) / secs, r.CommittedPerSecond(), p50_us,
                p99_us);
    if (auto* j = bench::Json()) {
      j->AddPoint({{"threads", p.threads},
                   {"concurrency", p.concurrency},
                   {"new_order_per_sec", static_cast<double>(new_orders) / secs},
                   {"tx_per_sec", r.CommittedPerSecond()},
                   {"p50_us", p50_us},
                   {"p99_us", p99_us}});
    }
  }
  if (auto* j = bench::Json()) {
    j->Set("machines", kMachines);
    j->Set("warehouses", topts.warehouses);
  }
  bench::ReportMessageCounts(total_msgs, total_committed);
  bench::ReportWireBreakdown(measured_before, cluster->fabric().stats(), total_committed);
  bench::ReportPhaseLatencies(*cluster);
  bench::ReportSimEvents(cluster->sim().events_processed());
  std::printf("\nShape check: latencies sit well above TATP's (hundreds of us vs single\n"
              "digits) because transactions touch tens of rows; backing off one load\n"
              "step from the knee roughly halves latency for ~10%% less throughput.\n");
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  farm::bench::BenchEnv env(argc, argv);
  farm::Run();
  return 0;
}
