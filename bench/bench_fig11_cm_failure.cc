// Figure 11: TATP performance timeline when the CM fails.
//
// Paper: recovery is slower than for a non-CM machine -- ~110 ms to regain
// throughput versus ~50 ms -- mostly because reconfiguration takes longer
// (~97 ms vs ~20 ms): a backup CM must take over and rebuild CM-only state,
// and leases granted by the old CM must be waited out.
#include "bench/bench_util.h"
#include "src/workload/tatp.h"

namespace farm {
namespace {

bench::TimelineResult RunOne(MachineId victim, const char* label) {
  ClusterOptions copts = bench::DefaultClusterOptions(9, 13);
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
  auto r = bench::RunFailureTimeline(*cluster, db->value().MakeWorkload(), dopts, {victim},
                                     50 * kMillisecond, 400 * kMillisecond);
  std::printf("\n[%s]\n", label);
  bench::PrintTimeline(r, 8 * kMillisecond, 60 * kMillisecond);
  return r;
}

void Run() {
  bench::PrintHeader(
      "Figure 11: TATP timeline with CM failure",
      "CM failure recovers ~2x slower than non-CM (~110ms vs ~50ms) (paper)",
      "9 machines; machine 0 is the initial CM; compare against a non-CM kill");

  auto non_cm = RunOne(5, "baseline: non-CM machine failure");
  auto cm = RunOne(0, "CM failure (machine 0)");

  std::printf("\nsummary: time back to 80%% throughput: non-CM %.1f ms, CM %.1f ms\n",
              bench::MsOrDash(non_cm.recover_80), bench::MsOrDash(cm.recover_80));
  std::printf("reconfiguration (suspect -> config-commit): non-CM %.1f ms, CM %.1f ms\n",
              bench::MsOrDash(non_cm.config_commit) - bench::MsOrDash(non_cm.suspect),
              bench::MsOrDash(cm.config_commit) - bench::MsOrDash(cm.suspect));
  std::printf("\nShape check: the CM case pays the backup-CM takeover plus the wait for\n"
              "old-CM leases to expire, so reconfiguration -- and therefore recovery --\n"
              "takes a small multiple of the non-CM case.\n");
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  farm::bench::BenchEnv env(argc, argv);
  farm::Run();
  return 0;
}
