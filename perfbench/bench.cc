// Repo benchmark binary: runs one workload on fresh simulated clusters,
// checks the results for correctness, and prints every metric as the last
// line of standard output (one JSON object).
//
//   farm_perfbench --workload tatp|tpcc|tpcc_failover --seed N --seconds S
//                  --trace 0|1 [--size full|small] [--spans PATH]
//
// The benchmark calls only the public APIs of src/ (Cluster, TatpDb/TpccDb,
// StartWorkers/StopWorkers, Node, Fabric, Simulator and the stats, registry
// and flight-recorder accessors). It reads each layer's work from those
// counters and times a layer by timing calls into its public functions.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: it keeps spans around the benchmark's calls into each layer and
// writes them to --spans at exit, counts heap allocations in every other
// measured chunk (the chunks without counting give the tracing overhead),
// and runs the probes on the quiesced cluster after the workers stop.
//
// Simulated results are a pure function of (workload, seed, seconds, size);
// --seconds sets the simulated window, calibrated so that one window takes
// about that many seconds of host time on a 4-core x86 host.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/alloc_counter.h"
#include "src/common/hash.h"
#include "src/core/cluster.h"
#include "src/sim/frame_arena.h"
#include "src/workload/tatp.h"
#include "src/workload/tpcc.h"

namespace perfbench {
namespace {

using farm::Cluster;
using farm::kMillisecond;
using farm::kSecond;
using farm::MachineId;
using farm::Node;
using farm::Pcg32;
using farm::SimDuration;
using farm::SimTime;
using farm::Task;
using farm::TatpDb;
using farm::TpccDb;
using farm::WorkloadFn;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Exact percentile (nearest rank) of unsorted samples; sorts in place.
uint64_t Percentile(std::vector<uint64_t>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- spans: host-time intervals around the benchmark's calls ----

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Spans* spans, std::string name)
        : spans_(spans), name_(std::move(name)), start_(Clock::now()) {}
    ~Scope() { spans_->Add(name_, start_, Clock::now()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::string name_;
    Clock::time_point start_;
  };

  Scope Span(std::string name) { return Scope(this, std::move(name)); }

  void Add(const std::string& name, Clock::time_point start, Clock::time_point end) {
    if (enabled_) {
      spans_.push_back({name, Micros(start), Micros(end) - Micros(start)});
    }
  }

  // Chrome trace-event JSON (open in ui.perfetto.dev).
  bool Write(const std::string& path, const std::string& host_json) const {
    std::ofstream f(path);
    if (!f) {
      return false;
    }
    f << "{\"otherData\":" << host_json << ",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); i++) {
      f << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << JsonEscape(spans_[i].name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << Num(spans_[i].ts_us)
        << ",\"dur\":" << Num(spans_[i].dur_us) << "}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  struct Entry {
    std::string name;
    double ts_us;
    double dur_us;
  };
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Entry> spans_;
};

// ---- metrics report ----

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    rows_.push_back({name, unit, value});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < rows_.size(); i++) {
      out += (i > 0 ? "," : "");
      out += "\"" + rows_[i].name + "\":{\"value\":" + Num(rows_[i].value) + ",\"unit\":\"" +
             rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Row> rows_;
};

// ---- host facts ----

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string HostJson() {
  std::string out = "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"cpu_model\":\"" + JsonEscape(CpuModel()) + "\"";
#if defined(__clang__)
  out += ",\"compiler\":\"clang " + JsonEscape(__clang_version__) + "\"";
#else
  out += ",\"compiler\":\"gcc " + JsonEscape(__VERSION__) + "\"";
#endif
  out += ",\"build_type\":\"" + JsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
#ifdef NDEBUG
  out += ",\"ndebug\":true}";
#else
  out += ",\"ndebug\":false}";
#endif
  return out;
}

// Host-speed reference. A shared host slows down and speeds up as its
// neighbours' load changes, by up to a third over seconds; that noise would
// swamp any real change in host_tx_per_s. So host_tx_per_s counts host
// seconds at a reference speed: the run times a fixed amount of
// benchmark-owned work (a binary heap of random timestamps plus one random
// read of a DRAM-sized slot array per operation, like the simulator's event
// queue and region memory) right after each measured chunk, and scales that
// chunk's host seconds by kNominalSeconds / (time of that work). The
// reference uses no code from src/, so an optimisation there cannot move it.
class SpeedReference {
  static constexpr size_t kSlots = size_t{1} << 24;  // 128 MiB of slots
  static constexpr size_t kHeapEntries = size_t{1} << 19;
  static constexpr int kOps = 20000;

 public:
  // Median reference time on the quiet 4-core host the benchmark was
  // calibrated on (Xeon, 2.1 GHz, GCC 12 Release).
  static constexpr double kNominalSeconds = 0.0035;

  SpeedReference() : slots_(kSlots), rng_(0x5eed) {
    for (size_t i = 0; i < kSlots; i++) {
      slots_[i] = rng_.Next64();
    }
    for (size_t i = 0; i < kHeapEntries; i++) {
      heap_.push(rng_.Next64());
    }
  }

  // Times one unit of work, after an untimed unit that refills the caches
  // whatever ran before; returns the factor that converts host seconds of
  // the adjacent interval to reference seconds.
  double Measure() {
    Work();
    Clock::time_point t0 = Clock::now();
    Work();
    return kNominalSeconds / SecondsSince(t0);
  }

  // Resident bytes of the reference's own buffers (excluded from peak RSS).
  static constexpr double kBytes = (kSlots + kHeapEntries) * sizeof(uint64_t);

 private:
  void Work() {
    for (int i = 0; i < kOps; i++) {
      uint64_t top = heap_.top();
      heap_.pop();
      sink_ += slots_[(top ^ sink_) & (kSlots - 1)];
      heap_.push(top + rng_.Uniform64(1u << 30) + 1);
    }
  }

  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> heap_;
  std::vector<uint64_t> slots_;
  Pcg32 rng_;
  uint64_t sink_ = 0;
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- workload definitions ----

struct Spec {
  bool tpcc = false;      // TPC-C schema (else TATP)
  bool failover = false;  // kill a warehouse primary during the window
  int machines = 12;
  uint32_t region_size = 1 << 20;
  uint64_t subscribers = 0;
  farm::TpccOptions tpcc_options;
  int client_threads = 2;
  int concurrency = 8;
  SimDuration warmup = 10 * kMillisecond;
  SimDuration window = 0;
  SimDuration chunk = 0;    // host-timing granularity inside the window
  SimDuration kill_at = 0;  // failover: kill this far into the window
  int setups = 3;           // set-ups timed for setup_s (median)
  int probe_ops = 2000;     // base iteration count of the probes
  int check_samples = 300;  // TATP subscribers read back by the check
};

std::optional<Spec> MakeSpec(const std::string& name, bool small, int seconds) {
  Spec s;
  if (name == "tatp") {
    s.machines = small ? 5 : 12;
    s.subscribers = small ? 3000 : 30000;
    s.concurrency = 8;
    // ~12 simulated ms per host second at this size.
    s.window = small ? 8 * kMillisecond : static_cast<SimDuration>(seconds) * 12 * kMillisecond;
    s.chunk = s.window / 40;
  } else if (name == "tpcc" || name == "tpcc_failover") {
    s.tpcc = true;
    s.failover = name == "tpcc_failover";
    s.region_size = 2 << 20;
    s.concurrency = 4;
    s.setups = 5;  // set-up is short; more samples steady its median
    farm::TpccOptions& t = s.tpcc_options;
    if (!s.failover) {
      s.machines = small ? 5 : 12;
      t.warehouses = small ? 5 : 24;
      t.customers = small ? 16 : 32;
      t.items = small ? 60 : 200;
      t.init_orders = small ? 5 : 10;
      // ~6 simulated ms per host second at this size.
      s.window = small ? 6 * kMillisecond : static_cast<SimDuration>(seconds) * 6 * kMillisecond;
      s.chunk = s.window / 40;
    } else {
      s.machines = small ? 6 : 9;
      t.warehouses = small ? 4 : 9;
      t.customers = small ? 16 : 48;
      t.items = small ? 60 : 300;
      t.init_orders = small ? 5 : 12;
      // Fixed scenario: the kill and the recovery that follows it set the
      // window, so --seconds does not change it.
      s.kill_at = small ? 10 * kMillisecond : 50 * kMillisecond;
      s.window = s.kill_at + 100 * kMillisecond;
      s.chunk = 5 * kMillisecond;
    }
  } else {
    return std::nullopt;
  }
  if (small) {
    s.warmup = 2 * kMillisecond;
    s.setups = 1;
    s.probe_ops = 100;
    s.check_samples = 50;
  }
  return s;
}

farm::ClusterOptions ClusterOptionsFor(const Spec& spec, uint64_t seed) {
  farm::ClusterOptions opts;
  opts.machines = spec.machines;
  opts.zk_replicas = 3;
  opts.seed = seed;
  opts.fault_seed = farm::HashCombine(seed, 0xfa17);
  opts.node.worker_threads = 2;
  opts.node.region_size = spec.region_size;
  opts.node.block_size = 64 << 10;
  opts.node.lease.duration = 10 * kMillisecond;
  return opts;
}

// Runs a coroutine to completion against the cluster's simulator (lease
// timers keep the queue busy forever, so this steps to a deadline).
template <typename T>
std::optional<T> Await(Cluster& cluster, Task<T> task, SimDuration timeout) {
  auto result = std::make_shared<std::optional<T>>();
  auto wrapper = [](Task<T> inner, std::shared_ptr<std::optional<T>> out) -> Task<void> {
    out->emplace(co_await std::move(inner));
  };
  farm::Spawn(wrapper(std::move(task), result));
  SimTime deadline = cluster.sim().Now() + timeout;
  while (!result->has_value() && cluster.sim().Now() < deadline) {
    if (!cluster.sim().Step()) {
      break;
    }
  }
  return *result;
}

template <typename T>
bool AwaitFuture(Cluster& cluster, const farm::Future<T>& f) {
  while (!f.Ready()) {
    if (!cluster.sim().Step()) {
      return false;
    }
  }
  return true;
}

std::vector<MachineId> AliveMachines(Cluster& c) {
  std::vector<MachineId> out;
  for (int m = 0; m < c.num_machines(); m++) {
    if (c.machine(static_cast<MachineId>(m)).alive()) {
      out.push_back(static_cast<MachineId>(m));
    }
  }
  return out;
}

// ---- set-up ----

struct Instance {
  std::unique_ptr<Cluster> cluster;
  std::optional<TatpDb> tatp;
  std::optional<TpccDb> tpcc;
  double cluster_s = 0;
  double load_s = 0;
  uint64_t load_events = 0;
};

std::optional<Instance> SetUp(const Spec& spec, uint64_t seed, Spans& spans) {
  Instance in;
  Clock::time_point t0 = Clock::now();
  {
    auto span = spans.Span("setup.cluster");
    in.cluster = std::make_unique<Cluster>(ClusterOptionsFor(spec, seed));
    in.cluster->Start();
    in.cluster->RunFor(5 * kMillisecond);
  }
  in.cluster_s = SecondsSince(t0);

  Cluster& c = *in.cluster;
  uint64_t events0 = c.sim().events_processed();
  t0 = Clock::now();
  auto span = spans.Span("setup.load");
  if (spec.tpcc) {
    farm::TpccOptions o = spec.tpcc_options;
    o.load_seed = farm::HashCombine(seed, 0x70cc);
    auto db = Await(c,
                    [](Cluster* cl, farm::TpccOptions opts) -> Task<farm::StatusOr<TpccDb>> {
                      co_return co_await TpccDb::Create(*cl, opts);
                    }(&c, o),
                    600 * kSecond);
    if (!db.has_value() || !db->ok()) {
      std::fprintf(stderr, "tpcc load failed: %s\n",
                   db.has_value() ? db->status().ToString().c_str() : "timeout");
      return std::nullopt;
    }
    in.tpcc.emplace(std::move(db->value()));
  } else {
    farm::TatpOptions o;
    o.subscribers = spec.subscribers;
    o.load_seed = farm::HashCombine(seed, 0x7a7b);
    auto db = Await(c,
                    [](Cluster* cl, farm::TatpOptions opts) -> Task<farm::StatusOr<TatpDb>> {
                      co_return co_await TatpDb::Create(*cl, opts);
                    }(&c, o),
                    600 * kSecond);
    if (!db.has_value() || !db->ok()) {
      std::fprintf(stderr, "tatp load failed: %s\n",
                   db.has_value() ? db->status().ToString().c_str() : "timeout");
      return std::nullopt;
    }
    in.tatp.emplace(std::move(db->value()));
    in.tatp->RegisterServices(c);
  }
  in.load_s = SecondsSince(t0);
  in.load_events = c.sim().events_processed() - events0;
  return in;
}

// ---- client-side recording ----

// Every transaction the closed-loop clients finish, as seen by the client.
struct Sink {
  std::vector<std::pair<SimTime, SimDuration>> commits;  // (end time, latency)
  std::vector<SimTime> failures;                         // end times of non-commits
};

Task<bool> TimedTx(const WorkloadFn* inner, Sink* sink, Cluster* cluster, Node& node,
                   int thread, Pcg32& rng) {
  SimTime t0 = cluster->sim().Now();
  bool ok = co_await (*inner)(node, thread, rng);
  SimTime t1 = cluster->sim().Now();
  if (ok) {
    sink->commits.emplace_back(t1, t1 - t0);
  } else {
    sink->failures.push_back(t1);
  }
  co_return ok;
}

WorkloadFn Timed(WorkloadFn inner, std::shared_ptr<Sink> sink, Cluster* cluster) {
  auto fn = std::make_shared<const WorkloadFn>(std::move(inner));
  return [fn, sink, cluster](Node& node, int thread, Pcg32& rng) {
    return TimedTx(fn.get(), sink.get(), cluster, node, thread, rng);
  };
}

// ---- per-layer counter snapshots ----

struct Snapshot {
  uint64_t events = 0;
  farm::FabricStats fabric;
  farm::NodeStats stats;
  uint64_t log_bytes = 0;
  uint64_t flight_records = 0;
  uint64_t arena_hits = 0;
  SimDuration cpu_busy = 0;
  std::vector<uint64_t> aborts;  // tx_abort_reason, counted reasons
};

Snapshot Take(Cluster& c) {
  Snapshot s;
  s.events = c.sim().events_processed();
  s.fabric = c.fabric().stats();
  s.stats = c.TotalStats();
  for (int m = 0; m < c.num_machines(); m++) {
    MachineId id = static_cast<MachineId>(m);
    s.log_bytes += c.node(id).messenger().log_bytes_sent();
    if (farm::flight::Recorder* r = c.flight_recorder(id)) {
      s.flight_records += r->appended();
    }
    farm::Machine& mach = c.machine(id);
    for (int t = 0; t < mach.NumThreads(); t++) {
      s.cpu_busy += mach.thread(t).total_busy();
    }
  }
  s.arena_hits = farm::FrameArena::recycled_hits();
  for (int r = 1; r <= farm::flight::kNumCountedAbortReasons; r++) {
    const char* name = farm::flight::AbortReasonName(static_cast<farm::flight::AbortReason>(r));
    s.aborts.push_back(c.metrics_registry().GetCounter("tx_abort_reason", {{"reason", name}}));
  }
  return s;
}

// Commit attempts at the transaction layer (lock-free reads excluded).
uint64_t TxAttempts(const farm::NodeStats& s) {
  return s.tx_committed + s.tx_aborted_lock + s.tx_aborted_validate + s.tx_unresolved;
}

// ---- correctness checks ----

struct HostTimer {
  double total_us = 0;
  uint64_t n = 0;
  double Mean() const { return Ratio(total_us, static_cast<double>(n)); }
};

// TPC-C consistency condition (adapted): for every district,
// D_NEXT_O_ID - 1 equals the largest order id in ORDER-LINE. A district
// whose check transaction never commits counts as a failure.
Task<int> CheckTpccDistricts(Cluster* c, TpccDb db, MachineId at, HostTimer* hash,
                             HostTimer* scan) {
  int failures = 0;
  const farm::TpccOptions& o = db.options();
  for (uint64_t w = 1; w <= static_cast<uint64_t>(o.warehouses); w++) {
    for (uint64_t d = 1; d <= static_cast<uint64_t>(o.districts); d++) {
      bool checked = false;
      for (int attempt = 0; attempt < 20 && !checked; attempt++) {
        auto tx = c->node(at).Begin(0);
        Clock::time_point t0 = Clock::now();
        auto drow = co_await db.DistrictRowForTest(*tx, w, d);
        hash->total_us += SecondsSince(t0) * 1e6;
        hash->n++;
        if (!drow.ok()) {
          continue;
        }
        t0 = Clock::now();
        auto ols = co_await db.OrderLineScanForTest(*tx, w, d);
        scan->total_us += SecondsSince(t0) * 1e6;
        scan->n++;
        if (!ols.ok()) {
          continue;
        }
        farm::Status s = co_await tx->Commit();
        if (!s.ok()) {
          continue;
        }
        checked = true;
        uint64_t max_order = 0;
        for (const auto& kv : *ols) {
          max_order = std::max<uint64_t>(max_order, (kv.first >> 8) & 0xffffffffULL);
        }
        if (max_order != static_cast<uint64_t>(*drow) - 1) {
          std::fprintf(stderr, "check: district w=%llu d=%llu next_o_id=%u max order=%llu\n",
                       static_cast<unsigned long long>(w), static_cast<unsigned long long>(d),
                       *drow, static_cast<unsigned long long>(max_order));
          failures++;
        }
      }
      if (!checked) {
        std::fprintf(stderr, "check: district w=%llu d=%llu could not be read\n",
                     static_cast<unsigned long long>(w), static_cast<unsigned long long>(d));
        failures++;
      }
    }
  }
  co_return failures;
}

// TATP: sampled subscriber rows exist, and the lock-free read path returns
// the same bytes as a committed transactional read of the quiesced table.
Task<int> CheckTatpRows(Cluster* c, TatpDb db, MachineId at, uint64_t seed, int samples,
                        HostTimer* hash) {
  int failures = 0;
  Pcg32 rng(farm::HashCombine(seed, 0xc4ec));
  for (int i = 0; i < samples; i++) {
    uint64_t sid = rng.Uniform64(db.options().subscribers) + 1;
    std::optional<std::vector<uint8_t>> row;
    for (int attempt = 0; attempt < 20 && !row.has_value(); attempt++) {
      auto tx = c->node(at).Begin(0);
      Clock::time_point t0 = Clock::now();
      auto got = co_await db.SubscriberTable().Get(*tx, TatpDb::SubKey(sid));
      hash->total_us += SecondsSince(t0) * 1e6;
      hash->n++;
      if (!got.ok()) {
        continue;
      }
      if ((co_await tx->Commit()).ok()) {
        row = got->has_value() ? **got : std::vector<uint8_t>();
      }
    }
    auto lf = co_await db.SubscriberTable().LockFreeGet(c->node(at), TatpDb::SubKey(sid), 0);
    if (!row.has_value() || row->size() != TatpDb::kSubscriberBytes || !lf.ok() ||
        !lf->has_value() || **lf != *row) {
      std::fprintf(stderr, "check: subscriber %llu missing or inconsistent\n",
                   static_cast<unsigned long long>(sid));
      failures++;
    }
  }
  co_return failures;
}

// ---- probes (quiesced cluster, traced runs only) ----

// Host ns per Simulator::At + Step pair with empty closures, at `depth`
// pending events.
double ProbeQueue(size_t depth, int ops, uint64_t seed) {
  farm::Simulator sim;
  Pcg32 rng(seed);
  for (size_t i = 0; i < std::max<size_t>(depth, 1); i++) {
    sim.At(rng.Uniform64(kMillisecond) + 1, [] {});
  }
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < ops; i++) {
    sim.At(sim.Now() + rng.Uniform64(kMillisecond) + 1, [] {});
    sim.Step();
  }
  return SecondsSince(t0) * 1e9 / ops;
}

constexpr uint16_t kProbeService = 250;

struct Probes {
  Report* report;
  Spans* spans;
  int failures = 0;

  // Times `ops` sequential calls of `one` (returns false on a failed call).
  template <typename F>
  void Time(const std::string& name, const std::string& unit, double scale, int ops, F one) {
    auto span = spans->Span("probe." + name);
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < ops; i++) {
      if (!one()) {
        failures++;
        break;
      }
    }
    report->Add(name, unit, SecondsSince(t0) * scale / ops);
  }
};

void RunProbes(const Spec& spec, Instance& in, uint64_t seed, size_t queue_depth,
               Report& report, Spans& spans, int* failures) {
  Cluster& c = *in.cluster;
  std::vector<MachineId> alive = AliveMachines(c);
  MachineId p = alive[0];
  MachineId q = alive[1];
  int n = spec.probe_ops;
  Probes probes{&report, &spans};

  {
    auto span = spans.Span("probe.sim.queue_ns_per_event");
    report.Add("sim.queue_ns_per_event", "ns", ProbeQueue(queue_depth, n * 100, seed));
  }

  uint64_t addr = c.node(q).control_block_addr();
  probes.Time("fabric.read_host_ns", "ns", 1e9, n * 5, [&] {
    auto f = c.fabric().Read(p, q, addr, 8);
    return AwaitFuture(c, f) && f.Peek().status.ok();
  });
  c.fabric().RegisterRpcService(q, kProbeService, 0, 0,
                                [](MachineId, std::vector<uint8_t>, farm::Fabric::ReplyFn reply) {
                                  reply({});
                                });
  probes.Time("fabric.rpc_host_ns", "ns", 1e9, n * 5, [&] {
    auto f = c.fabric().Call(p, q, kProbeService, {});
    return AwaitFuture(c, f) && f.Peek().status.ok();
  });

  auto region = Await(c,
                      [](Cluster* cl, MachineId m) -> Task<farm::StatusOr<farm::RegionId>> {
                        co_return co_await cl->node(m).CreateRegion(64 << 10, 16,
                                                                    farm::kInvalidRegion, 0);
                      }(&c, p),
                      kSecond);
  if (!region.has_value() || !region->ok()) {
    std::fprintf(stderr, "probe: region creation failed\n");
    (*failures)++;
    return;
  }
  farm::GlobalAddr obj{region->value(), 0};
  uint64_t counter = 0;
  probes.Time("tx.commit_host_us", "us", 1e6, n, [&] {
    auto rmw = [](Cluster* cl, MachineId m, farm::GlobalAddr a, uint64_t v) -> Task<farm::Status> {
      auto tx = cl->node(m).Begin(0);
      auto r = co_await tx->Read(a, 8);
      if (!r.ok()) {
        co_return r.status();
      }
      std::vector<uint8_t> bytes(8);
      std::memcpy(bytes.data(), &v, 8);
      farm::Status w = tx->Write(a, std::move(bytes));
      if (!w.ok()) {
        co_return w;
      }
      co_return co_await tx->Commit();
    };
    auto s = Await(c, rmw(&c, p, obj, ++counter), kSecond);
    return s.has_value() && s->ok();
  });
  probes.Time("tx.lockfree_read_host_us", "us", 1e6, n * 2, [&] {
    auto lf = [](Cluster* cl, MachineId m, farm::GlobalAddr a)
        -> Task<farm::StatusOr<std::vector<uint8_t>>> {
      co_return co_await cl->node(m).LockFreeRead(a, 8, 0);
    };
    auto v = Await(c, lf(&c, p, obj), kSecond);
    return v.has_value() && v->ok();
  });

  // Each public transaction function of the workload, called sequentially.
  using TatpFn = Task<bool> (TatpDb::*)(Node&, int, Pcg32&) const;
  using TpccFn = Task<bool> (TpccDb::*)(Node&, int, Pcg32&) const;
  const std::pair<const char*, TatpFn> kTatp[] = {
      {"get_subscriber_data", &TatpDb::GetSubscriberData},
      {"get_new_destination", &TatpDb::GetNewDestination},
      {"get_access_data", &TatpDb::GetAccessData},
      {"update_subscriber_data", &TatpDb::UpdateSubscriberData},
      {"update_location", &TatpDb::UpdateLocation},
      {"insert_call_forwarding", &TatpDb::InsertCallForwarding},
      {"delete_call_forwarding", &TatpDb::DeleteCallForwarding},
  };
  const std::pair<const char*, TpccFn> kTpcc[] = {
      {"new_order", &TpccDb::NewOrder},
      {"payment", &TpccDb::Payment},
      {"order_status", &TpccDb::OrderStatus},
      {"delivery", &TpccDb::Delivery},
      {"stock_level", &TpccDb::StockLevel},
  };
  Pcg32 rng(farm::HashCombine(seed, 0x9e0be));
  MachineId home = p;
  if (in.tpcc) {
    for (MachineId m : in.tpcc->ClientMachines(c)) {
      if (c.machine(m).alive()) {
        home = m;
        break;
      }
    }
  }
  // Transactions may abort; the probe times attempts, so `one` always succeeds
  // unless the call never completes.
  for (const auto& [name, fn] : kTatp) {
    std::string metric = std::string("workload.tatp.") + name + "_host_us";
    if (!in.tatp) {
      report.Add(metric, "us", 0);
      continue;
    }
    probes.Time(metric, "us", 1e6, n / 4, [&] {
      return Await(c, ((*in.tatp).*fn)(c.node(home), 0, rng), kSecond).has_value();
    });
  }
  for (const auto& [name, fn] : kTpcc) {
    std::string metric = std::string("workload.tpcc.") + name + "_host_us";
    if (!in.tpcc) {
      report.Add(metric, "us", 0);
      continue;
    }
    probes.Time(metric, "us", 1e6, n / 20, [&] {
      return Await(c, ((*in.tpcc).*fn)(c.node(home), 0, rng), kSecond).has_value();
    });
  }
  *failures += probes.failures;
}

// ---- the run ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool small = false;
  std::string spans_path;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  if (argc % 2 == 0) {
    return std::nullopt;  // every flag takes a value
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--size") {
      a.small = v == "small";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || a.seconds < 1 || a.seconds > 600) {
    return std::nullopt;
  }
  return a;
}

int Run(const Args& args) {
  std::optional<Spec> spec_opt = MakeSpec(args.workload, args.small, args.seconds);
  if (!spec_opt) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Spec& spec = *spec_opt;
  const std::string host = HostJson();
  std::printf("{\"host\":%s}\n", host.c_str());
  std::fflush(stdout);

  Spans spans(args.trace);
  Report report;
  int failures = 0;

  // Set-up, repeated untraced for a stable setup_s; the last one is kept.
  // setup_s stays in host seconds: it is dominated by page faults on fresh
  // region memory, which the speed reference does not track.
  std::vector<double> setup_times;
  std::optional<Instance> in;
  int setups = args.trace ? 1 : spec.setups;
  for (int i = 0; i < setups; i++) {
    in.reset();
    in = SetUp(spec, args.seed, spans);
    if (!in) {
      return 1;
    }
    setup_times.push_back(in->cluster_s + in->load_s);
  }
  // Traced runs report raw host seconds and skip the speed reference.
  std::optional<SpeedReference> speed;
  if (!args.trace) {
    speed.emplace();
  }
  std::vector<double> factors;
  Cluster& c = *in->cluster;

  auto sink = std::make_shared<Sink>();
  WorkloadFn inner = in->tatp ? in->tatp->MakeWorkload() : in->tpcc->MakeWorkload();
  farm::DriverOptions dopts;
  dopts.threads_per_machine = spec.client_threads;
  dopts.concurrency_per_thread = spec.concurrency;
  dopts.warmup = spec.warmup;
  dopts.seed = farm::HashCombine(args.seed, 0xd71e);
  if (in->tpcc) {
    dopts.machines = in->tpcc->ClientMachines(c);
  }
  farm::DriverRun run = farm::StartWorkers(c, Timed(inner, sink, &c), dopts);
  {
    auto span = spans.Span("run.warmup");
    c.RunFor(spec.warmup);
  }

  // Failover: the victim is the first client machine (a warehouse primary).
  MachineId victim = dopts.machines.empty() ? 0 : dopts.machines.front();
  std::vector<farm::RegionId> victim_regions;
  const int victim_workers =
      static_cast<int>(std::count(dopts.machines.begin(), dopts.machines.end(), victim)) *
      spec.client_threads * spec.concurrency;

  // Measured window, in fixed simulated chunks.
  for (int p = 0; p < farm::flight::kNumPhases; p++) {
    auto h = c.metrics_registry().GetHistogram(
        "tx_phase_ns", {{"phase", farm::flight::PhaseName(static_cast<farm::flight::Phase>(p))}});
    farm::metrics::HistogramMetric empty;
    h = empty;  // copy-assignment clears the bound cell: phases of this window only
  }
  const SimTime ws = c.sim().Now();
  const SimTime we = ws + spec.window;
  const SimTime kill_time = spec.failover ? ws + spec.kill_at : farm::kSimTimeNever;
  Snapshot before = Take(c);
  Snapshot at_kill;
  double window_host_s = 0;
  double recovery_host_s = 0;
  std::vector<double> rates_plain;    // commits per reference second
  std::vector<double> rates_raw;      // commits per host second
  std::vector<double> rates_counted;  // per host second, allocation counter on
  std::vector<double> pending;
  AllocCounts heap;
  uint64_t heap_commits = 0;
  {
    auto span = spans.Span("run.window");
    int i = 0;
    for (SimTime t = ws; t < we; t += spec.chunk, i++) {
      if (t == kill_time) {
        auto kspan = spans.Span("failover.kill");
        at_kill = Take(c);
        for (const auto& [rid, placement] : c.node(victim).config().regions) {
          if (placement.Contains(victim)) {
            victim_regions.push_back(rid);
          }
        }
        c.Kill(victim);
      }
      bool counting = args.trace && i % 2 == 1;
      SetAllocCounting(counting);
      AllocCounts a0 = GetAllocCounts();
      size_t committed0 = sink->commits.size();
      Clock::time_point h0 = Clock::now();
      c.sim().RunUntil(std::min(t + spec.chunk, we));
      double host_s = SecondsSince(h0);
      uint64_t committed = sink->commits.size() - committed0;
      SetAllocCounting(false);
      window_host_s += host_s;
      recovery_host_s += t >= kill_time ? host_s : 0.0;
      factors.push_back(speed ? speed->Measure() : 1.0);
      pending.push_back(static_cast<double>(c.sim().pending_events()));
      if (counting) {
        AllocCounts a1 = GetAllocCounts();
        heap.allocs += a1.allocs - a0.allocs;
        heap.bytes += a1.bytes - a0.bytes;
        heap_commits += committed;
        rates_counted.push_back(Ratio(static_cast<double>(committed), host_s));
      } else {
        rates_raw.push_back(Ratio(static_cast<double>(committed), host_s));
        rates_plain.push_back(Ratio(static_cast<double>(committed), host_s * factors.back()));
      }
    }
  }
  Snapshot after = Take(c);
  farm::StopWorkers(c, run);
  std::vector<double> phase_count;
  std::vector<double> phase_p50;
  std::vector<double> phase_p99;
  for (int p = 0; p < farm::flight::kNumPhases; p++) {
    const farm::Histogram& h =
        c.metrics_registry()
            .GetHistogram("tx_phase_ns",
                          {{"phase", farm::flight::PhaseName(static_cast<farm::flight::Phase>(p))}})
            .histogram();
    phase_count.push_back(static_cast<double>(h.count()));
    phase_p50.push_back(static_cast<double>(h.Percentile(50)) / 1e3);
    phase_p99.push_back(static_cast<double>(h.Percentile(99)) / 1e3);
  }
  {
    // Let in-flight transactions finish; the victim's workers never do.
    auto span = spans.Span("run.drain");
    int stuck = spec.failover ? victim_workers : 0;
    SimTime deadline = c.sim().Now() + kSecond;
    while (*run.active_workers > stuck && c.sim().Now() < deadline && c.sim().Step()) {
    }
    if (*run.active_workers > stuck) {
      std::fprintf(stderr, "check: %d workers did not finish\n", *run.active_workers - stuck);
      failures++;
    }
  }
  if (spec.failover) {
    // Paced re-replication outlasts the window; finish it without clients.
    auto span = spans.Span("failover.data_recovery");
    SimTime deadline = c.sim().Now() + 10 * kSecond;
    while (c.regions_rereplicated() < victim_regions.size() && c.sim().Now() < deadline &&
           c.sim().Step()) {
    }
  }

  // ---- correctness ----
  HostTimer hash;
  HostTimer scan;
  {
    auto span = spans.Span("check.consistency");
    MachineId at = AliveMachines(c).front();
    std::optional<int> bad;
    if (in->tpcc) {
      bad = Await(c, CheckTpccDistricts(&c, *in->tpcc, at, &hash, &scan), 600 * kSecond);
    } else {
      bad = Await(c, CheckTatpRows(&c, *in->tatp, at, args.seed, spec.check_samples, &hash),
                  600 * kSecond);
    }
    failures += bad.has_value() ? *bad : 1;
    if (c.AnyRegionLost()) {
      std::fprintf(stderr, "check: %zu regions lost\n", c.lost_regions().size());
      failures++;
    }
    if (spec.failover) {
      const farm::Configuration& cfg = c.node(at).config();
      int rf = c.node(at).options().replication_factor;
      for (farm::RegionId r : victim_regions) {
        const farm::RegionPlacement* pl = cfg.Placement(r);
        bool ok = pl != nullptr && !pl->Contains(victim) &&
                  static_cast<int>(pl->Replicas().size()) == rf;
        for (MachineId m : ok ? pl->Replicas() : std::vector<MachineId>{}) {
          ok = ok && c.machine(m).alive() && c.node(m).replica(r) != nullptr;
        }
        if (!ok) {
          std::fprintf(stderr, "check: region %u of the victim was not re-replicated\n", r);
          failures++;
        }
      }
      if (victim_regions.empty() || c.regions_rereplicated() < victim_regions.size()) {
        std::fprintf(stderr, "check: %llu of %zu victim regions re-replicated\n",
                     static_cast<unsigned long long>(c.regions_rereplicated()),
                     victim_regions.size());
        failures++;
      }
    }
  }

  // ---- client-visible results over the window ----
  std::vector<uint64_t> lat;
  std::vector<SimTime> commit_times;
  for (const auto& [t1, l] : sink->commits) {
    if (t1 >= ws && t1 < we) {
      lat.push_back(l);
      commit_times.push_back(t1);
    }
  }
  uint64_t not_committed = 0;
  for (SimTime t1 : sink->failures) {
    not_committed += t1 >= ws && t1 < we ? 1 : 0;
  }
  const uint64_t committed = lat.size();
  const uint64_t attempted = committed + not_committed;
  const double window_sim_s = static_cast<double>(spec.window) / 1e9;
  const uint64_t tx_attempts = TxAttempts(after.stats) - TxAttempts(before.stats);
  const uint64_t unresolved = after.stats.tx_unresolved - before.stats.tx_unresolved;
  if (committed == 0) {
    std::fprintf(stderr, "check: no transaction committed in the window\n");
    failures++;
  }

  // Failover timeline: recovery to 80% of the pre-kill rate, sustained for
  // 5 ms, measured at commit-time resolution.
  double recover80_ms = 0;
  double data_rec_ms = 0;
  if (spec.failover) {
    uint64_t pre = 0;
    for (SimTime t : commit_times) {
      pre += t < kill_time ? 1 : 0;
    }
    const SimDuration sustain = 5 * kMillisecond;
    double target = 0.8 * static_cast<double>(pre) / static_cast<double>(kill_time - ws) *
                    static_cast<double>(sustain);
    // Commits are recorded in simulation order, so the times are sorted.
    std::vector<SimTime> post(commit_times.begin() + static_cast<std::ptrdiff_t>(pre),
                              commit_times.end());
    bool found = false;
    for (size_t a = 0, b = 0; a < post.size(); a++) {
      if (post[a] + sustain > we) {
        break;
      }
      while (b < post.size() && post[b] < post[a] + sustain) {
        b++;
      }
      if (static_cast<double>(b - a) >= target) {
        recover80_ms = static_cast<double>(post[a] - kill_time) / 1e6;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "check: throughput never recovered to 80%%\n");
      failures++;
    }
    if (!c.rereplication_times().empty()) {
      data_rec_ms = static_cast<double>(c.rereplication_times().back() - kill_time) / 1e6;
    }
  }

  if (!args.trace) {
    // Raw host-second numbers go beside the result, not into it.
    std::printf("{\"host_speed\":{\"median_factor\":%s,\"host_tx_per_s_raw\":%s}}\n",
                Num(Median(factors)).c_str(), Num(Median(rates_raw)).c_str());
    report.Add("host_tx_per_s", "1/s", Median(rates_plain));
    report.Add("setup_s", "s", Median(setup_times));
    report.Add("peak_rss_mb", "MB", PeakRssMb() - SpeedReference::kBytes / (1 << 20));
    report.Add("sim_tx_per_s", "1/s", static_cast<double>(committed) / window_sim_s);
    std::vector<uint64_t> lat_copy = lat;
    report.Add("sim_p50_us", "us", static_cast<double>(Percentile(lat_copy, 50)) / 1e3);
    report.Add("sim_p99_us", "us", static_cast<double>(Percentile(lat_copy, 99)) / 1e3);
    // Client-visible: transactions that ended aborted or unresolved.
    report.Add("failed_ratio", "frac",
               Ratio(static_cast<double>(not_committed), static_cast<double>(attempted)));
  } else {
    const double n = static_cast<double>(committed);
    auto per_tx = [&](uint64_t a, uint64_t b) {
      return Ratio(static_cast<double>(a - b), n);
    };
    const uint64_t window_events = after.events - before.events;
    // sim
    report.Add("sim.events_per_tx", "count", per_tx(after.events, before.events));
    report.Add("sim.host_ns_per_event", "ns",
               Ratio(window_host_s * 1e9, static_cast<double>(window_events)));
    report.Add("sim.pending_events", "count", Median(pending));
    // task + heap
    report.Add("task.arena_frames_per_tx", "count", per_tx(after.arena_hits, before.arena_hits));
    report.Add("heap.allocs_per_tx", "count",
               Ratio(static_cast<double>(heap.allocs), static_cast<double>(heap_commits)));
    report.Add("heap.bytes_per_tx", "B",
               Ratio(static_cast<double>(heap.bytes), static_cast<double>(heap_commits)));
    // fabric
    report.Add("fabric.reads_per_tx", "count",
               per_tx(after.fabric.rdma_reads, before.fabric.rdma_reads));
    report.Add("fabric.writes_per_tx", "count",
               per_tx(after.fabric.rdma_writes, before.fabric.rdma_writes));
    report.Add("fabric.cas_per_tx", "count", per_tx(after.fabric.rdma_cas, before.fabric.rdma_cas));
    report.Add("fabric.rpcs_per_tx", "count", per_tx(after.fabric.rpcs, before.fabric.rpcs));
    report.Add("fabric.datagrams_per_tx", "count",
               per_tx(after.fabric.datagrams, before.fabric.datagrams));
    report.Add("fabric.bytes_per_tx", "B",
               per_tx(after.fabric.rdma_bytes + after.fabric.rpc_bytes,
                      before.fabric.rdma_bytes + before.fabric.rpc_bytes));
    // messenger + flight recorder
    report.Add("msgr.log_bytes_per_tx", "B", per_tx(after.log_bytes, before.log_bytes));
    report.Add("obs.flight_records_per_tx", "count",
               per_tx(after.flight_records, before.flight_records));
    // node + tx
    report.Add("tx.commit_ratio", "frac",
               Ratio(static_cast<double>(committed), static_cast<double>(attempted)));
    for (int r = 0; r < farm::flight::kNumCountedAbortReasons; r++) {
      const char* name =
          farm::flight::AbortReasonName(static_cast<farm::flight::AbortReason>(r + 1));
      report.Add(std::string("tx.abort.") + name + "_per_1k", "count",
                 1000.0 * Ratio(static_cast<double>(after.aborts[static_cast<size_t>(r)] -
                                                    before.aborts[static_cast<size_t>(r)]),
                                static_cast<double>(tx_attempts)));
    }
    report.Add("tx.lockfree_reads_per_tx", "count",
               per_tx(after.stats.lockfree_reads, before.stats.lockfree_reads));
    for (int p = 0; p < farm::flight::kNumPhases; p++) {
      std::string prefix =
          std::string("tx.phase.") + farm::flight::PhaseName(static_cast<farm::flight::Phase>(p));
      report.Add(prefix + "_count", "count", phase_count[static_cast<size_t>(p)]);
      report.Add(prefix + "_p50_us", "us", phase_p50[static_cast<size_t>(p)]);
      report.Add(prefix + "_p99_us", "us", phase_p99[static_cast<size_t>(p)]);
    }
    int threads = 0;
    for (int m = 0; m < c.num_machines(); m++) {
      threads += c.machine(static_cast<MachineId>(m)).NumThreads();
    }
    report.Add("node.cpu_busy_frac", "frac",
               Ratio(static_cast<double>(after.cpu_busy - before.cpu_busy),
                     static_cast<double>(threads) * static_cast<double>(spec.window)));
    // ds
    report.Add("ds.hash_get_host_us", "us", hash.Mean());
    report.Add("ds.btree_scan_host_us", "us", scan.Mean());
    // workload set-up
    report.Add("setup.cluster_s", "s", in->cluster_s);
    report.Add("workload.load_s", "s", in->load_s);
    report.Add("workload.load_events", "count", static_cast<double>(in->load_events));
    // recovery
    auto since_kill = [&](const char* milestone) {
      if (!spec.failover) {
        return 0.0;
      }
      SimTime t = c.MilestoneAfter(milestone, kill_time);
      return t == farm::kSimTimeNever ? 0.0 : static_cast<double>(t - kill_time) / 1e6;
    };
    report.Add("recovery.suspect_ms", "ms", since_kill("suspect"));
    report.Add("recovery.config_commit_ms", "ms", since_kill("config-commit"));
    report.Add("recovery.all_active_ms", "ms", since_kill("all-active"));
    report.Add("recovery.data_rec_start_ms", "ms", since_kill("data-rec-start"));
    report.Add("recovery.recover80_ms", "ms", recover80_ms);
    report.Add("recovery.data_rec_ms", "ms", data_rec_ms);
    report.Add("recovery.regions_rereplicated", "count",
               static_cast<double>(c.regions_rereplicated()));
    report.Add("recovery.recovering_txs", "count",
               static_cast<double>(after.stats.recovering_txs_seen));
    report.Add("recovery.tx_unresolved", "count", static_cast<double>(unresolved));
    report.Add("recovery.events", "count",
               spec.failover ? static_cast<double>(after.events - at_kill.events) : 0.0);
    report.Add("recovery.host_s", "s", recovery_host_s);
    // tracing overhead: chunks with the allocation counter on vs off
    double plain = Median(rates_raw);
    double counted = Median(rates_counted);
    report.Add("trace.host_tx_per_s", "1/s", counted);
    report.Add("trace.overhead_frac", "frac", plain > 0 ? 1.0 - counted / plain : 0.0);

    // Idle background (leases, timers) of the quiesced cluster.
    {
      auto span = spans.Span("run.idle");
      const SimDuration idle = 20 * kMillisecond;
      uint64_t e0 = c.sim().events_processed();
      Clock::time_point h0 = Clock::now();
      c.RunFor(idle);
      double ms = static_cast<double>(idle) / 1e6;
      report.Add("sim.idle_events_per_ms", "count",
                 static_cast<double>(c.sim().events_processed() - e0) / ms);
      report.Add("sim.idle_host_us_per_ms", "us", SecondsSince(h0) * 1e6 / ms);
    }
    RunProbes(spec, *in, args.seed, static_cast<size_t>(Median(pending)), report, spans,
              &failures);
    if (!args.spans_path.empty() && !spans.Write(args.spans_path, host)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
      failures++;
    }
  }

  // failed: checks that did not pass plus transactions whose outcome the
  // system could not resolve. Aborts are normal OCC outcomes (failed_ratio).
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              failures == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(static_cast<uint64_t>(failures) + unresolved),
              report.Json().c_str());
  std::fflush(stdout);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "farm_perfbench: refusing to report host metrics from a build "
                       "without NDEBUG; build with CMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  // Keep freed memory in the process: without this, whether a repeated
  // set-up reuses the previous cluster's pages or faults in fresh ones
  // depends on glibc's adaptive mmap threshold and heap trimming, which
  // makes setup_s bimodal.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::optional<perfbench::Args> args = perfbench::ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: farm_perfbench --workload tatp|tpcc|tpcc_failover --seed N "
                 "--seconds S --trace 0|1 [--size full|small] [--spans PATH]\n");
    return 2;
  }
  return perfbench::Run(*args);
}
