// Closed-loop workload driver: spawns (machines x threads x concurrency)
// workers that repeatedly execute a transaction function, collecting the
// latency histogram and the per-interval throughput timeline the paper's
// figures are built from.
#ifndef SRC_WORKLOAD_DRIVER_H_
#define SRC_WORKLOAD_DRIVER_H_

#include <functional>
#include <memory>

#include "src/common/histogram.h"
#include "src/core/cluster.h"

namespace farm {

// Retries a transactional closure on conflicts, as applications do.
// Returns whether an attempt committed.
template <typename Fn>
Task<bool> WithRetries(Fn fn, int attempts = 8) {
  for (int i = 0; i < attempts; i++) {
    Status s = co_await fn();
    if (s.ok()) {
      co_return true;
    }
    if (s.code() != StatusCode::kAborted) {
      co_return false;
    }
  }
  co_return false;
}

// Runs one operation; returns true if it committed (false = aborted/retry).
using WorkloadFn = std::function<Task<bool>(Node& node, int thread, Pcg32& rng)>;

struct DriverOptions {
  int threads_per_machine = 2;        // worker threads running transactions
  int concurrency_per_thread = 4;     // outstanding transactions per thread
  SimDuration warmup = 10 * kMillisecond;
  SimDuration measure = 100 * kMillisecond;
  // When set, workers only run on these machines (e.g. TPC-C partitioning
  // places each warehouse's clients on its primary).
  std::vector<MachineId> machines;
  uint64_t seed = 42;
};

struct DriverResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  Histogram latency;                 // committed-transaction latency, ns
  TimeSeries throughput{kMillisecond};  // committed tx per ms (whole run)
  SimTime measure_start = 0;
  SimTime measure_end = 0;

  double CommittedPerSecond() const {
    double secs = static_cast<double>(measure_end - measure_start) / 1e9;
    return secs > 0 ? static_cast<double>(committed) / secs : 0;
  }
  double OpsPerMicrosecond() const { return CommittedPerSecond() / 1e6; }
};

// Shared state for an in-flight driver run; lets failure benches keep the
// workers running while they kill machines on a schedule.
struct DriverRun {
  DriverOptions options;
  std::shared_ptr<DriverResult> result = std::make_shared<DriverResult>();
  std::shared_ptr<bool> stop = std::make_shared<bool>(false);
  std::shared_ptr<int> active_workers = std::make_shared<int>(0);
};

// Starts the workers (returns immediately; run the simulator to make
// progress). Measurement covers [start+warmup, until Stop()].
DriverRun StartWorkers(Cluster& cluster, WorkloadFn fn, DriverOptions options);

// Stops measurement and signals workers to exit; finalizes result counters.
void StopWorkers(Cluster& cluster, DriverRun& run);

// Convenience: start, run for warmup+measure, stop, return the result.
DriverResult RunClosedLoop(Cluster& cluster, WorkloadFn fn, DriverOptions options);

}  // namespace farm

#endif  // SRC_WORKLOAD_DRIVER_H_
