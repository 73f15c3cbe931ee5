// Section 6.3 / 7: FaRM versus a single-machine in-memory engine.
//
// Paper: FaRM outperforms Hekaton's published TATP results by 33x on 90
// machines and already beats it with just three machines; against Silo,
// FaRM has higher throughput and (vs Silo-with-logging) far lower latency.
// This bench runs a TATP-like mix on the local OCC baseline (one machine,
// group-commit logging to SSD) and on FaRM at increasing cluster sizes.
#include "bench/bench_util.h"
#include "src/baseline/local_occ.h"
#include "src/nvram/nvram.h"
#include "src/workload/tatp.h"

namespace farm {
namespace {

// TATP-like mix for the local engine: 70% single-row reads, 10% 3-row
// reads, 20% single-row updates over `keys` records.
Task<void> LocalWorker(LocalOccEngine* engine, Simulator* sim, int thread, uint64_t keys,
                       uint64_t seed, std::shared_ptr<uint64_t> ops,
                       std::shared_ptr<bool> stop, Histogram* latency) {
  Pcg32 rng(seed);
  while (!*stop) {
    SimTime t0 = sim->Now();
    uint32_t dice = rng.Uniform(100);
    uint64_t k = rng.Uniform64(keys) + 1;
    bool ok;
    if (dice < 70) {
      std::vector<uint64_t> reads = {k};
      ok = co_await engine->RunTx(thread, reads, {}, 40);
    } else if (dice < 80) {
      std::vector<uint64_t> reads = {k, (k * 7) % keys + 1, (k * 13) % keys + 1};
      ok = co_await engine->RunTx(thread, reads, {}, 40);
    } else {
      std::vector<uint64_t> rw = {k};
      ok = co_await engine->RunTx(thread, rw, rw, 40);
    }
    if (ok) {
      (*ops)++;
      latency->Record(sim->Now() - t0);
    }
  }
}

struct LocalResult {
  double tx_per_sec;
  double median_us;
};

LocalResult RunLocal(bool logging) {
  Simulator sim;
  // The single-machine engine gets a beefier box: all 8 cores for the
  // engine (FaRM machines reserve threads for the lease manager).
  Machine machine(sim, 0, 8, 0);
  LocalOccEngine::Options opts;
  opts.threads = 8;
  opts.logging = logging;
  LocalOccEngine engine(sim, machine, opts);
  const uint64_t kKeys = 20000;
  for (uint64_t k = 1; k <= kKeys; k++) {
    engine.Seed(k, 40);
  }
  auto ops = std::make_shared<uint64_t>(0);
  auto stop = std::make_shared<bool>(false);
  Histogram latency;
  for (int t = 0; t < opts.threads; t++) {
    for (int c = 0; c < 4; c++) {
      Spawn(LocalWorker(&engine, &sim, t, kKeys, static_cast<uint64_t>(t) * 31 + c, ops,
                        stop, &latency));
    }
  }
  sim.RunFor(5 * kMillisecond);
  uint64_t before = *ops;
  SimDuration window = 50 * kMillisecond;
  sim.RunFor(window);
  uint64_t measured = *ops - before;
  *stop = true;
  sim.RunFor(kMillisecond);
  return {static_cast<double>(measured) / (static_cast<double>(window) / 1e9),
          static_cast<double>(latency.Percentile(50)) / 1e3};
}

double RunFarm(int machines) {
  ClusterOptions copts = bench::DefaultClusterOptions(machines, 9);
  // Smaller regions spread each table over more primaries so throughput can
  // scale with the cluster (the paper's tables span hundreds of regions).
  copts.node.region_size = 256 << 10;
  auto cluster = std::make_unique<Cluster>(copts);
  cluster->Start();
  cluster->RunFor(5 * kMillisecond);
  TatpOptions topts;
  // Scale the database with the cluster (the paper's per-machine data is
  // constant) so contention does not rise artificially with machine count.
  topts.subscribers = static_cast<uint64_t>(machines) * 4000;
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
  dopts.concurrency_per_thread = 8;
  dopts.warmup = 10 * kMillisecond;
  dopts.measure = 50 * kMillisecond;
  DriverResult r = RunClosedLoop(*cluster, db->value().MakeWorkload(), dopts);
  return r.CommittedPerSecond();
}

void Run() {
  bench::PrintHeader(
      "Scale-out vs single-machine engine (sections 6.3, 7)",
      "FaRM beats the single-machine engine with ~3 machines; 33x at 90 (paper)",
      "local OCC engine (8 threads + SSD group commit) vs FaRM at 3-9 machines");

  LocalResult silo_logged = RunLocal(true);
  LocalResult silo_unlogged = RunLocal(false);
  std::printf("%-28s %14.0f tx/s   median %.1f us\n", "local OCC + SSD logging",
              silo_logged.tx_per_sec, silo_logged.median_us);
  std::printf("%-28s %14.0f tx/s   median %.1f us\n", "local OCC, no logging",
              silo_unlogged.tx_per_sec, silo_unlogged.median_us);
  for (int machines : {3, 5, 7, 9}) {
    double tps = RunFarm(machines);
    std::printf("FaRM, %2d machines            %14.0f tx/s   (%.1fx the logged engine)\n",
                machines, tps, tps / silo_logged.tx_per_sec);
  }
  std::printf("\nShape check: the distributed system overtakes the single machine at a\n"
              "small cluster size and keeps scaling, while the logged single-machine\n"
              "engine pays SSD group-commit latency on every update.\n");
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  farm::bench::BenchEnv env(argc, argv);
  farm::Run();
  return 0;
}
