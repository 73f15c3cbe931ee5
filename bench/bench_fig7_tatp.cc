// Figure 7: TATP throughput vs latency.
//
// Paper: 90 machines, 9.2 B subscribers; peak 140 M tx/s with 58 us median
// latency (645 us 99th); ~2 M tx/s at 9 us median on the left of the curve.
// Expected shape here: latency roughly flat at low load, a knee as the
// cluster saturates, then a steep latency climb for little extra throughput.
#include "bench/bench_util.h"
#include "src/workload/tatp.h"

namespace farm {
namespace {

void Run() {
  constexpr int kMachines = 24;
  bench::PrintHeader(
      "Figure 7: TATP throughput-latency",
      "140M tx/s peak @ 58us median / 645us p99; 2M tx/s @ 9us median (paper)",
      "24 machines x 2 worker threads, 60k subscribers, 60ms windows");

  ClusterOptions copts = bench::DefaultClusterOptions(kMachines);
  auto cluster = std::make_unique<Cluster>(copts);
  cluster->Start();
  cluster->RunFor(5 * kMillisecond);

  TatpOptions topts;
  topts.subscribers = 60000;  // keep ~2.5k subscribers/machine at 24 machines
  auto db = RunTask(
      *cluster,
      [](Cluster* c, TatpOptions o) -> Task<StatusOr<TatpDb>> {
        co_return co_await TatpDb::Create(*c, o);
      }(cluster.get(), topts),
      600 * kSecond);
  FARM_CHECK(db.has_value() && db->ok())
      << "tatp load failed: " << (db.has_value() ? db->status().ToString() : "timeout");
  db->value().RegisterServices(*cluster);

  std::printf("%12s %14s %12s %12s %12s %12s\n", "concurrency", "tx/s", "ops/us", "median_us",
              "p99_us", "msgs/tx");
  struct Point {
    int threads;
    int concurrency;
  };
  // Load sweep as in the paper: first more threads, then more concurrency
  // per thread.
  const Point kPoints[] = {{1, 1}, {2, 1}, {2, 2}, {2, 4}, {2, 8}, {2, 16}};
  uint64_t total_msgs = 0;
  uint64_t total_committed = 0;
  FabricStats measured_before = cluster->fabric().stats();
  for (const Point& p : kPoints) {
    DriverOptions dopts;
    dopts.threads_per_machine = p.threads;
    dopts.concurrency_per_thread = p.concurrency;
    dopts.warmup = 10 * kMillisecond;
    dopts.measure = 60 * kMillisecond;
    uint64_t msgs_before = cluster->fabric().stats().WireMessages();
    uint64_t committed_before = cluster->TotalStats().tx_committed;
    DriverResult r = RunClosedLoop(*cluster, db->value().MakeWorkload(), dopts);
    uint64_t msgs = cluster->fabric().stats().WireMessages() - msgs_before;
    uint64_t committed = cluster->TotalStats().tx_committed - committed_before;
    total_msgs += msgs;
    total_committed += committed;
    double msgs_per_tx =
        committed > 0 ? static_cast<double>(msgs) / static_cast<double>(committed) : 0.0;
    double p50_us = static_cast<double>(r.latency.Percentile(50)) / 1e3;
    double p99_us = static_cast<double>(r.latency.Percentile(99)) / 1e3;
    std::printf("%7dx%-4d %14.0f %12.3f %12.1f %12.1f %12.1f\n", p.threads, p.concurrency,
                r.CommittedPerSecond(), r.OpsPerMicrosecond(), p50_us, p99_us, msgs_per_tx);
    if (auto* j = bench::Json()) {
      j->AddPoint({{"threads", p.threads},
                   {"concurrency", p.concurrency},
                   {"tx_per_sec", r.CommittedPerSecond()},
                   {"p50_us", p50_us},
                   {"p99_us", p99_us},
                   {"msgs_per_tx", msgs_per_tx}});
    }
  }
  if (auto* j = bench::Json()) {
    j->Set("machines", kMachines);
    j->Set("subscribers", topts.subscribers);
  }
  bench::ReportMessageCounts(total_msgs, total_committed);
  bench::ReportWireBreakdown(measured_before, cluster->fabric().stats(), total_committed);
  bench::ReportPhaseLatencies(*cluster);
  bench::ReportSimEvents(cluster->sim().events_processed());
  std::printf("\nShape check: throughput grows with offered load, median latency\n"
              "stays low until the knee, then the p99 tail climbs steeply.\n");
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  farm::bench::BenchEnv env(argc, argv);
  farm::Run();
  return 0;
}
