// Section 6.3 "read performance": key-value lookups with 16-byte keys and
// 32-byte values, uniform access.
//
// Paper: 790 M lookups/s across 90 machines (8.8 lookups/us/machine) with
// 23 us median and 73 us 99th percentile latency; CPU bound despite two
// NICs per machine.
#include "bench/bench_util.h"
#include "src/workload/kv.h"

namespace farm {
namespace {

void Run() {
  bench::PrintHeader(
      "Read performance: uniform KV lookups (section 6.3)",
      "790M lookups/s on 90 machines (8.8/us/machine), 23us median (paper)",
      "8 machines x 2 threads, 50k keys, 32B values, lock-free reads");

  ClusterOptions copts = bench::DefaultClusterOptions(8, 3);
  auto cluster = std::make_unique<Cluster>(copts);
  cluster->Start();
  cluster->RunFor(5 * kMillisecond);

  KvOptions kopts;
  kopts.keys = 50000;
  auto db = RunTask(
      *cluster,
      [](Cluster* c, KvOptions o) -> Task<StatusOr<KvDb>> {
        co_return co_await KvDb::Create(*c, o);
      }(cluster.get(), kopts),
      600 * kSecond);
  FARM_CHECK(db.has_value() && db->ok())
      << (db.has_value() ? db->status().ToString() : "timeout");

  std::printf("%12s %14s %14s %12s %12s\n", "concurrency", "lookups/s", "per-machine/us",
              "median_us", "p99_us");
  for (int conc : {1, 2, 4, 8, 16}) {
    DriverOptions dopts;
    dopts.threads_per_machine = 2;
    dopts.concurrency_per_thread = conc;
    dopts.warmup = 5 * kMillisecond;
    dopts.measure = 40 * kMillisecond;
    DriverResult r = RunClosedLoop(*cluster, db->value().MakeWorkload(), dopts);
    std::printf("%12d %14.0f %14.3f %12.1f %12.1f\n", conc, r.CommittedPerSecond(),
                r.OpsPerMicrosecond() / cluster->num_machines(),
                static_cast<double>(r.latency.Percentile(50)) / 1e3,
                static_cast<double>(r.latency.Percentile(99)) / 1e3);
  }
  std::printf("\nShape check: lookups are one one-sided read (no commit phase), so\n"
              "median latency stays near the wire RTT until the CPUs saturate.\n");
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  farm::bench::BenchEnv env(argc, argv);
  farm::Run();
  return 0;
}
