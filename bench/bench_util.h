// Shared helpers for the figure-reproduction benches.
//
// Every bench prints the paper artifact it regenerates, the scaled-down
// parameters it runs with, and the measured series. Absolute numbers are
// not expected to match the paper's 90-machine InfiniBand testbed; the
// shapes (who wins, by what factor, where the knees/crossovers are) should.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>  // farmlint: allow(wall-clock): benches report real elapsed time
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workload/driver.h"

namespace farm {
namespace bench {

// ---- Structured bench output (--json-out=<path>) ----
//
// With --json-out, a bench writes a single JSON object that
// tools/bench/run_bench_suite merges into BENCH_core.json (the committed
// performance-trajectory file). Keys keep insertion order so the output is
// byte-stable run to run; numeric formatting is locale-independent printf.
class JsonReport {
 public:
  void Set(const std::string& key, double v) { scalars_.emplace_back(key, Num(v)); }
  void Set(const std::string& key, uint64_t v) {
    scalars_.emplace_back(key, std::to_string(v));
  }
  void Set(const std::string& key, int v) { scalars_.emplace_back(key, std::to_string(v)); }
  void SetString(const std::string& key, const std::string& v) {
    scalars_.emplace_back(key, "\"" + v + "\"");
  }
  // Appends one row to the "points" array (a sweep step, one per load level).
  void AddPoint(std::vector<std::pair<std::string, double>> kv) {
    std::vector<std::pair<std::string, std::string>> row;
    row.reserve(kv.size());
    for (auto& [k, v] : kv) {
      row.emplace_back(k, Num(v));
    }
    points_.push_back(std::move(row));
  }

  std::string ToJson() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : scalars_) {
      if (!first) {
        out += ",";
      }
      first = false;
      out += "\"" + k + "\":" + v;
    }
    if (!points_.empty()) {
      if (!first) {
        out += ",";
      }
      out += "\"points\":[";
      for (size_t i = 0; i < points_.size(); i++) {
        if (i > 0) {
          out += ",";
        }
        out += "{";
        for (size_t j = 0; j < points_[i].size(); j++) {
          if (j > 0) {
            out += ",";
          }
          out += "\"" + points_[i][j].first + "\":" + points_[i][j].second;
        }
        out += "}";
      }
      out += "]";
    }
    out += "}";
    return out;
  }

 private:
  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }
  std::vector<std::pair<std::string, std::string>> scalars_;
  std::vector<std::vector<std::pair<std::string, std::string>>> points_;
};

namespace internal {
inline JsonReport*& GlobalJson() {
  static JsonReport* report = nullptr;
  return report;
}
}  // namespace internal

// The active report, or nullptr when the bench ran without --json-out.
// Benches guard their reporting with `if (auto* j = bench::Json())`.
inline JsonReport* Json() { return internal::GlobalJson(); }

namespace internal {
// Observability flags BenchEnv parsed from argv; DefaultClusterOptions
// attaches them to every cluster the bench builds.
struct ObsFlags {
  trace::Tracer* tracer = nullptr;
  std::string metrics_out;
  std::string flight_out;
};
inline ObsFlags& GlobalObs() {
  static ObsFlags flags;
  return flags;
}

inline uint64_t& SimEventsProcessed() {
  static uint64_t n = 0;
  return n;
}
}  // namespace internal

// Records how many simulator events the bench's measured body pumped. The
// BenchEnv destructor divides this by wall time to derive events_per_sec,
// the hot-path throughput number the CI regression gate tracks.
inline void ReportSimEvents(uint64_t events) { internal::SimEventsProcessed() = events; }

// Per-bench observability flags, parsed from argv before farm::Run() and
// attached to every cluster built from DefaultClusterOptions:
//   --trace-out=<path>    write a Chrome trace-event JSON of the run
//   --metrics-out=<path>  dump every cluster's metrics registry on teardown
//   --flight-out=<path>   append every cluster's flight-recorder postmortem
//   --trace-no-net        omit per-operation fabric events (smaller traces)
//   --json-out=<path>     write a machine-readable result summary (JSON)
// Construct one at the top of main(); the destructor writes the trace after
// the bench body finishes. Unrecognized arguments are ignored, so benches
// keep their zero-flag invocations.
class BenchEnv {
 public:
  BenchEnv(int argc, char** argv) {
    bool capture_net = true;
    for (int i = 1; i < argc; i++) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--trace-out=", 12) == 0) {
        trace_path_ = arg + 12;
      } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
        internal::GlobalObs().metrics_out = arg + 14;
      } else if (std::strncmp(arg, "--flight-out=", 13) == 0) {
        internal::GlobalObs().flight_out = arg + 13;
      } else if (std::strcmp(arg, "--trace-no-net") == 0) {
        capture_net = false;
      } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
        json_path_ = arg + 11;
      }
    }
    if (!trace_path_.empty()) {
      trace::Tracer::Options topts;
      topts.capture_net = capture_net;
      tracer_ = std::make_unique<trace::Tracer>(topts);
      internal::GlobalObs().tracer = tracer_.get();
    }
    if (!json_path_.empty()) {
      report_ = std::make_unique<JsonReport>();
      internal::GlobalJson() = report_.get();
      internal::SimEventsProcessed() = 0;
    }
    // farmlint: allow(wall-clock): benches measure real elapsed time
    wall_start_ = std::chrono::steady_clock::now();
  }

  ~BenchEnv() {
    // farmlint: allow(wall-clock): benches measure real elapsed time
    double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                wall_start_)
                      .count();
    internal::GlobalObs() = internal::ObsFlags{};
    if (tracer_ != nullptr) {
      Status s = tracer_->WriteFile(trace_path_);
      if (s.ok()) {
        std::printf("trace: wrote %zu events to %s\n", tracer_->event_count(),
                    trace_path_.c_str());
      } else {
        std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
      }
    }
    if (report_ != nullptr) {
      report_->Set("wall_seconds", wall);
      uint64_t events = internal::SimEventsProcessed();
      if (events > 0 && wall > 0) {
        report_->Set("sim_events", events);
        report_->Set("events_per_sec", static_cast<double>(events) / wall);
      }
      std::FILE* f = std::fopen(json_path_.c_str(), "w");
      if (f != nullptr) {
        std::string json = report_->ToJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("json: wrote results to %s\n", json_path_.c_str());
      } else {
        std::fprintf(stderr, "json: cannot open %s\n", json_path_.c_str());
      }
      internal::GlobalJson() = nullptr;
    }
  }

  BenchEnv(const BenchEnv&) = delete;
  BenchEnv& operator=(const BenchEnv&) = delete;

 private:
  std::string trace_path_;
  std::string json_path_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<JsonReport> report_;
  // farmlint: allow(wall-clock): benches measure real elapsed time
  std::chrono::steady_clock::time_point wall_start_;
};

// Emits the commit-phase latency breakdown into the JSON report:
// phase_<name>_count / _p50_us / _p95_us / _p99_us for each protocol phase,
// read from the cluster's tx_phase_ns histograms. run_bench_suite fails the
// transactional benches when these rows are missing from the merged JSON.
inline void ReportPhaseLatencies(Cluster& cluster) {
  JsonReport* j = Json();
  if (j == nullptr) {
    return;
  }
  for (int p = 0; p < flight::kNumPhases; p++) {
    const char* name = flight::PhaseName(static_cast<flight::Phase>(p));
    const Histogram& h =
        cluster.metrics_registry()
            .GetHistogram("tx_phase_ns", {{"phase", name}})
            .histogram();
    std::string prefix = std::string("phase_") + name;
    j->Set(prefix + "_count", h.count());
    j->Set(prefix + "_p50_us", static_cast<double>(h.Percentile(50)) / 1e3);
    j->Set(prefix + "_p95_us", static_cast<double>(h.Percentile(95)) / 1e3);
    j->Set(prefix + "_p99_us", static_cast<double>(h.Percentile(99)) / 1e3);
  }
}

inline ClusterOptions DefaultClusterOptions(int machines, uint64_t seed = 1) {
  ClusterOptions opts;
  opts.machines = machines;
  opts.zk_replicas = 3;
  opts.seed = seed;
  opts.node.worker_threads = 2;
  opts.node.region_size = 1 << 20;
  opts.node.block_size = 64 << 10;
  opts.node.lease.duration = 10 * kMillisecond;
  const internal::ObsFlags& obs = internal::GlobalObs();
  opts.tracer = obs.tracer;
  opts.metrics_out = obs.metrics_out;
  opts.flight_out = obs.flight_out;
  return opts;
}

// Emits wire-level message accounting into the JSON report: total fabric
// messages, committed transactions, and the per-committed-tx message count
// (fig 7's msgs/tx axis). `msgs` and `committed` are deltas over the
// measured window.
inline void ReportMessageCounts(uint64_t msgs, uint64_t committed) {
  JsonReport* j = Json();
  if (j == nullptr) {
    return;
  }
  j->Set("wire_messages", msgs);
  j->Set("committed_txs", committed);
  if (committed > 0) {
    j->Set("msgs_per_tx", static_cast<double>(msgs) / static_cast<double>(committed));
  }
}

// Per-category wire-op deltas over the measured windows, normalized per
// committed transaction. `before`/`after` are FabricStats snapshots taken
// around the measured region (copy = snapshot).
inline void ReportWireBreakdown(const FabricStats& before, const FabricStats& after,
                                uint64_t committed) {
  JsonReport* j = Json();
  if (j == nullptr || committed == 0) {
    return;
  }
  double n = static_cast<double>(committed);
  j->Set("reads_per_tx", static_cast<double>(after.rdma_reads - before.rdma_reads) / n);
  j->Set("writes_per_tx", static_cast<double>(after.rdma_writes - before.rdma_writes) / n);
  j->Set("rpc_msgs_per_tx", 2.0 * static_cast<double>(after.rpcs - before.rpcs) / n);
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref,
                        const std::string& scaling) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("  reproduces: %s\n", paper_ref.c_str());
  std::printf("  scaling:    %s\n", scaling.c_str());
  std::printf("==============================================================\n");
}

// Time (relative to `from`) at which per-ms throughput first returns to
// `fraction` of `baseline_per_ms` and stays there for `sustain_ms` intervals.
inline SimTime TimeToRecover(const TimeSeries& series, SimTime from, double baseline_per_ms,
                             double fraction, int sustain_ms = 5) {
  const auto& buckets = series.intervals();
  size_t start = static_cast<size_t>(from / series.interval_ns());
  double target = baseline_per_ms * fraction;
  for (size_t i = start; i + static_cast<size_t>(sustain_ms) < buckets.size(); i++) {
    bool sustained = true;
    for (int j = 0; j < sustain_ms; j++) {
      if (static_cast<double>(buckets[i + static_cast<size_t>(j)]) < target) {
        sustained = false;
        break;
      }
    }
    if (sustained) {
      SimTime at = i * series.interval_ns();
      return at > from ? at - from : 0;  // clamp: recovered within the bucket
    }
  }
  return kSimTimeNever;
}

inline double MsOrDash(SimTime t) {
  return t == kSimTimeNever ? -1.0 : static_cast<double>(t) / 1e6;
}

}  // namespace bench
}  // namespace farm

#endif  // BENCH_BENCH_UTIL_H_
// NOTE: appended helpers for the failure-timeline benches (figures 9-15).
#ifndef BENCH_BENCH_UTIL_TIMELINE_
#define BENCH_BENCH_UTIL_TIMELINE_

namespace farm {
namespace bench {

struct TimelineResult {
  SimTime kill_time = 0;
  double baseline_per_ms = 0;      // committed tx/ms before the failure
  SimTime suspect = kSimTimeNever;        // relative to kill
  SimTime probe = kSimTimeNever;
  SimTime zookeeper = kSimTimeNever;
  SimTime config_commit = kSimTimeNever;
  SimTime all_active = kSimTimeNever;
  SimTime data_rec_start = kSimTimeNever;
  SimTime recover_80 = kSimTimeNever;     // throughput back to 80% of baseline
  SimTime recover_peak = kSimTimeNever;   // back to ~95%
  SimTime data_rec_done = kSimTimeNever;  // last region re-replicated
  uint64_t regions_rereplicated = 0;
  uint64_t recovering_txs = 0;
  std::shared_ptr<DriverResult> series;
};

// Runs `fn` under load, kills `victims` at kill_after, keeps running for
// run_after_kill, and extracts the figure-9-style milestones.
inline TimelineResult RunFailureTimeline(Cluster& cluster, WorkloadFn fn,
                                         DriverOptions dopts,
                                         std::vector<MachineId> victims,
                                         SimDuration kill_after,
                                         SimDuration run_after_kill) {
  TimelineResult out;
  cluster.ClearMilestones();
  DriverRun run = StartWorkers(cluster, std::move(fn), dopts);
  cluster.RunFor(dopts.warmup + kill_after);
  out.kill_time = cluster.sim().Now();
  for (MachineId v : victims) {
    cluster.Kill(v);
  }
  cluster.RunFor(run_after_kill);
  StopWorkers(cluster, run);
  out.series = run.result;

  out.baseline_per_ms = run.result->throughput.AverageRate(
      run.result->measure_start, out.kill_time - kMillisecond);
  auto rel = [&](const char* name) {
    SimTime t = cluster.MilestoneAfter(name, out.kill_time);
    return t == kSimTimeNever ? kSimTimeNever : t - out.kill_time;
  };
  out.suspect = rel("suspect");
  out.probe = rel("probe");
  out.zookeeper = rel("zookeeper");
  out.config_commit = rel("config-commit");
  out.all_active = rel("all-active");
  out.data_rec_start = rel("data-rec-start");
  out.recover_80 =
      TimeToRecover(run.result->throughput, out.kill_time, out.baseline_per_ms, 0.8);
  out.recover_peak =
      TimeToRecover(run.result->throughput, out.kill_time, out.baseline_per_ms, 0.95);
  out.regions_rereplicated = cluster.regions_rereplicated();
  if (!cluster.rereplication_times().empty()) {
    out.data_rec_done = cluster.rereplication_times().back() - out.kill_time;
  }
  out.recovering_txs = cluster.TotalStats().recovering_txs_seen;
  return out;
}

inline void PrintTimeline(const TimelineResult& r, SimDuration window_before = 20 * kMillisecond,
                          SimDuration window_after = 120 * kMillisecond) {
  std::printf("baseline: %.1f tx/ms before the failure\n", r.baseline_per_ms);
  std::printf("milestones after failure: suspect=%.1fms probe=%.1fms zookeeper=%.1fms\n"
              "  config-commit=%.1fms all-active=%.1fms data-rec-start=%.1fms\n",
              MsOrDash(r.suspect), MsOrDash(r.probe), MsOrDash(r.zookeeper),
              MsOrDash(r.config_commit), MsOrDash(r.all_active), MsOrDash(r.data_rec_start));
  std::printf("throughput back to 80%% in %.1f ms, to ~peak in %.1f ms\n",
              MsOrDash(r.recover_80), MsOrDash(r.recover_peak));
  std::printf("data recovery: %llu regions re-replicated, done at %.1f ms\n",
              static_cast<unsigned long long>(r.regions_rereplicated),
              MsOrDash(r.data_rec_done));
  std::printf("recovering transactions: %llu\n",
              static_cast<unsigned long long>(r.recovering_txs));
  std::printf("\nper-ms committed throughput around the failure (t=0 is the kill):\n");
  const auto& buckets = r.series->throughput.intervals();
  int64_t kill_ms = static_cast<int64_t>(r.kill_time / kMillisecond);
  int64_t from = kill_ms - static_cast<int64_t>(window_before / kMillisecond);
  int64_t to = kill_ms + static_cast<int64_t>(window_after / kMillisecond);
  for (int64_t ms = std::max<int64_t>(from, 0); ms < to; ms += 4) {
    uint64_t v = 0;
    for (int64_t j = ms; j < ms + 4 && j < static_cast<int64_t>(buckets.size()); j++) {
      v += buckets[static_cast<size_t>(j)];
    }
    std::printf("  t=%+5lldms  %6.1f tx/ms\n", static_cast<long long>(ms - kill_ms),
                static_cast<double>(v) / 4.0);
  }
}

}  // namespace bench
}  // namespace farm

#endif  // BENCH_BENCH_UTIL_TIMELINE_
