// Figure 10: TPC-C performance timeline with a single machine failure.
//
// Paper: most throughput back in <50 ms (slightly slower lock recovery than
// TATP: more complex transactions), but data recovery takes much longer
// than TATP's because co-partitioning places multiple regions on the same
// machines (two machines recover 17 regions each -> over 4 minutes).
#include "bench/bench_util.h"
#include "src/workload/tpcc.h"

namespace farm {
namespace {

void Run() {
  bench::PrintHeader(
      "Figure 10: TPC-C timeline with one machine failure",
      "throughput back <50ms; data recovery slower than TATP due to locality (paper)",
      "9 machines, 9 co-partitioned warehouses, kill a warehouse primary at t=50ms");

  ClusterOptions copts = bench::DefaultClusterOptions(9, 7);
  copts.node.region_size = 2 << 20;
  auto cluster = std::make_unique<Cluster>(copts);
  cluster->Start();
  cluster->RunFor(5 * kMillisecond);

  TpccOptions topts;
  topts.warehouses = 9;
  topts.customers = 48;
  topts.items = 300;
  topts.init_orders = 12;
  auto db = RunTask(
      *cluster,
      [](Cluster* c, TpccOptions o) -> Task<StatusOr<TpccDb>> {
        co_return co_await TpccDb::Create(*c, o);
      }(cluster.get(), topts),
      600 * kSecond);
  FARM_CHECK(db.has_value() && db->ok())
      << (db.has_value() ? db->status().ToString() : "timeout");

  DriverOptions dopts;
  dopts.threads_per_machine = 2;
  dopts.concurrency_per_thread = 4;
  dopts.warmup = 10 * kMillisecond;
  dopts.machines = db->value().ClientMachines(*cluster);
  // Kill a machine hosting warehouse partitions (their anchor primaries).
  MachineId victim = dopts.machines.front();
  auto r = bench::RunFailureTimeline(*cluster, db->value().MakeWorkload(), dopts, {victim},
                                     50 * kMillisecond, 1200 * kMillisecond);
  std::printf("[Figure 10a: time to full throughput]\n");
  bench::PrintTimeline(r);

  std::printf("\n[Figure 10b: time to full data recovery]\n");
  std::printf("co-partitioning concentrates the victim's regions on few machines, so\n"
              "re-replication parallelism is limited (the paper's 4-minute tail):\n");
  SimTime t0 = r.kill_time;
  size_t i = 0;
  for (SimTime t : cluster->rereplication_times()) {
    i++;
    if (i % 4 == 0 || t == cluster->rereplication_times().back()) {
      std::printf("  +%8.1fms  %zu regions\n", static_cast<double>(t - t0) / 1e6, i);
    }
  }
  std::printf("\nShape check: lock recovery is about as fast as TATP's, but the region\n"
              "re-replication tail is longer relative to the recovered byte count.\n");
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  farm::bench::BenchEnv env(argc, argv);
  farm::Run();
  return 0;
}
