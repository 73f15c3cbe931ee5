// Figure 13: TATP throughput when a whole failure domain dies at once.
//
// Paper: 90 machines grouped into five 18-machine failure domains (one per
// leaf switch); killing one domain leaves every region with replicas (the
// CM places replicas in distinct domains). Peak throughput returns in
// <~400 ms -- slower than a single failure because ~130,000 transactions
// recover instead of ~7,500 -- and re-replication of 1025 regions takes
// minutes without hurting the foreground.
#include "bench/bench_util.h"
#include "src/workload/tatp.h"

namespace farm {
namespace {

void Run() {
  bench::PrintHeader(
      "Figure 13: TATP with a correlated (failure-domain) failure",
      "kill 18/90 machines: peak back <400ms; ~17x more recovering txs (paper)",
      "10 machines in 5 domains; kill one domain (2 machines) under load");

  ClusterOptions copts = bench::DefaultClusterOptions(10, 21);
  copts.failure_domains = 5;  // replicas spread across domains
  auto cluster = std::make_unique<Cluster>(copts);
  cluster->Start();
  cluster->RunFor(5 * kMillisecond);

  TatpOptions topts;
  topts.subscribers = 12000;
  auto db = RunTask(
      *cluster,
      [](Cluster* c, TatpOptions o) -> Task<StatusOr<TatpDb>> {
        co_return co_await TatpDb::Create(*c, o);
      }(cluster.get(), topts),
      600 * kSecond);
  FARM_CHECK(db.has_value() && db->ok());
  db->value().RegisterServices(*cluster);

  DriverOptions dopts;
  dopts.threads_per_machine = 2;
  dopts.concurrency_per_thread = 4;
  dopts.warmup = 10 * kMillisecond;
  // Kill every machine in failure domain 1 simultaneously (machines 1, 6).
  std::vector<MachineId> victims;
  for (int m = 0; m < cluster->num_machines(); m++) {
    if (cluster->FailureDomainOf(static_cast<MachineId>(m)) == 1) {
      victims.push_back(static_cast<MachineId>(m));
    }
  }
  std::printf("killing failure domain 1: machines");
  for (MachineId v : victims) {
    std::printf(" %u", v);
  }
  std::printf("\n\n");

  auto r = bench::RunFailureTimeline(*cluster, db->value().MakeWorkload(), dopts, victims,
                                     50 * kMillisecond, 1500 * kMillisecond);
  bench::PrintTimeline(r, 12 * kMillisecond, 80 * kMillisecond);
  std::printf("\nno region lost: %s (replicas span distinct failure domains)\n",
              cluster->AnyRegionLost() ? "FAILED -- a region lost all replicas!" : "ok");
  std::printf("\nShape check: recovery takes longer than the single-machine case of\n"
              "figure 9 (more transactions and regions to recover at once), yet all\n"
              "data survives because no two replicas shared the failed domain.\n");
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  farm::bench::BenchEnv env(argc, argv);
  farm::Run();
  return 0;
}
