// Cluster harness: builds the simulator, machines, NVRAM stores, fabric,
// coordination service, and FaRM nodes, and wires them together.
//
// Machine ids 0..machines-1 run FaRM; ids machines..machines+zk_replicas-1
// host the coordination service (the paper's separate ZooKeeper machines).
#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/core/node.h"
#include "src/net/fabric.h"
#include "src/nvram/nvram.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/sinks.h"
#include "src/sim/simulator.h"
#include "src/zk/coord.h"

namespace farm {

struct ClusterOptions {
  int machines = 5;
  int zk_replicas = 3;
  NodeOptions node;
  // Machines are assigned round-robin to this many failure domains
  // (0 = every machine is its own domain).
  int failure_domains = 0;
  uint64_t seed = 1;
  // Seed for the fabric's fault RNG (datagram loss + per-link chaos
  // policies). The default reproduces pre-chaos traces byte-for-byte.
  uint64_t fault_seed = 0x10552ULL;

  // Observability sinks, all off by default. The tracer is borrowed and
  // must outlive the cluster. A non-empty path makes teardown append this
  // cluster's registry dump (JSON if it ends in ".json", text otherwise)
  // or its merged flight-recorder postmortem to that file.
  trace::Tracer* tracer = nullptr;
  std::string metrics_out;
  std::string flight_out;
};

// At most one Cluster may be live per thread: the coroutine-frame arena,
// the parked-frame list and the log clock are per-thread simulation state
// (see src/sim/frame_arena.h, src/sim/task.h). Independent clusters may run
// concurrently on separate threads.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Installs the initial configuration (id 1, CM = machine 0) in the
  // coordination service and on every node, and starts lease exchange.
  void Start();

  Simulator& sim() { return sim_; }
  Fabric& fabric() { return *fabric_; }
  CoordinationService& zk() { return *zk_; }
  Pcg32& rng() { return rng_; }
  const ClusterOptions& options() const { return options_; }
  // Per-cluster metric cells (the emitter's phase histograms and abort
  // reasons; node and fabric stats join them at the teardown dump), so
  // sequential clusters in one process do not bleed counts into each other.
  metrics::Registry& metrics_registry() { return registry_; }
  // The sinks every layer of this cluster reports to.
  const obs::Sinks& sinks() const { return sinks_; }
  // Attaches (or, with nullptr, detaches) the fault hook that every fault
  // point of this cluster reports to; see src/obs/fault_hook.h. The hook is
  // borrowed and must be detached before it dies.
  void SetFaultHook(fault::Hook* hook) { sinks_.hook = hook; }
  // Per-machine flight-recorder ring (nullptr for zk machines).
  flight::Recorder* flight_recorder(MachineId m) {
    return m < flight_.size() ? flight_[m].get() : nullptr;
  }
  // Causally merged timeline of every machine's ring (the chaos postmortem).
  std::string FlightPostmortem() const;

  int num_machines() const { return options_.machines; }
  Node& node(MachineId m) { return *nodes_[m]; }
  Machine& machine(MachineId m) { return *machines_[m]; }
  NvramStore& store(MachineId m) { return *stores_[m]; }

  // Kills the FaRM process on a machine (it never comes back).
  void Kill(MachineId m) { machines_[m]->Kill(); }
  // Restarts a FaRM machine as an EMPTY replacement process: kills it (if
  // still alive), reboots the hardware, cold-restarts the node, re-wires
  // fresh rings to every peer, and starts the join-retry loop that asks the
  // CM to re-admit it. The machine comes back with no regions; data
  // recovery re-replicates onto it once it is back in the configuration.
  void RestartMachineEmpty(MachineId m);
  // Whole-cluster power failure: every machine reboots with its NVRAM
  // intact and runs restart recovery. Run the simulator afterwards so the
  // recovery votes/decisions complete.
  void PowerFailureRestart();
  int FailureDomainOf(MachineId m) const;

  // Runs the simulator.
  void RunFor(SimDuration d) { sim_.RunFor(d); }

  // ---- global observability ----
  // Recovery milestones (the annotations in figures 9-11): "suspect",
  // "probe", "zookeeper", "config-commit", "all-active", "data-rec-start".
  void NoteMilestone(const char* name) {
    milestones_.push_back({name, sim_.Now()});
    // Milestones land on the pseudo-process one past the last machine
    // (named "cluster" in the trace) so they are visible as a global track.
    if (sinks_.tracer != nullptr) {
      sinks_.tracer->Instant(static_cast<uint32_t>(machines_.size()), 0, "milestone", name);
    }
  }
  const std::vector<std::pair<std::string, SimTime>>& milestones() const { return milestones_; }
  void ClearMilestones() { milestones_.clear(); }
  // First occurrence of a milestone at/after `from` (kSimTimeNever if none);
  // perfbench's recovery.* timings rely on it being the first.
  SimTime MilestoneAfter(const std::string& name, SimTime from) const {
    for (const auto& [n, t] : milestones_) {
      if (n == name && t >= from) {
        return t;
      }
    }
    return kSimTimeNever;
  }

  void NoteRegionLost(RegionId r);
  bool AnyRegionLost() const { return !lost_regions_.empty(); }
  const std::vector<RegionId>& lost_regions() const { return lost_regions_; }
  // Data-recovery completions (Figure 9b/10b dashed lines).
  void NoteRegionRereplicated(RegionId r);
  uint64_t regions_rereplicated() const { return rereplication_times_.size(); }
  const std::vector<SimTime>& rereplication_times() const { return rereplication_times_; }

  NodeStats TotalStats() const;

 private:
  ClusterOptions options_;
  metrics::Registry registry_;
  obs::Sinks sinks_;
  Simulator sim_;
  Pcg32 rng_;
  // Declared before fabric/nodes (which hold raw pointers into the rings) so
  // the rings outlive every appender.
  std::vector<std::unique_ptr<flight::Recorder>> flight_;
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<Machine>> machines_;  // FaRM + zk machines
  std::vector<std::unique_ptr<NvramStore>> stores_;
  std::unique_ptr<CoordinationService> zk_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::pair<std::string, SimTime>> milestones_;
  std::vector<RegionId> lost_regions_;
  std::vector<SimTime> rereplication_times_;
};

// Steps the cluster's simulator until pred() holds or `timeout` of
// simulated time elapses; returns whether pred held. Lease timers keep the
// event queue non-empty forever, so runs are bounded by a deadline instead
// of draining the queue.
template <typename Pred>
bool RunUntil(Cluster& cluster, Pred pred, SimDuration timeout) {
  SimTime deadline = cluster.sim().Now() + timeout;
  while (!pred() && cluster.sim().Now() < deadline) {
    if (!cluster.sim().Step()) {
      break;
    }
  }
  return pred();
}

// Runs a coroutine to completion against the cluster's simulator. Returns
// nullopt on timeout.
template <typename T>
std::optional<T> RunTask(Cluster& cluster, Task<T> task, SimDuration timeout = 2 * kSecond) {
  auto result = std::make_shared<std::optional<T>>();
  auto wrapper = [](Task<T> inner, std::shared_ptr<std::optional<T>> out) -> Task<void> {
    out->emplace(co_await std::move(inner));
  };
  Spawn(wrapper(std::move(task), result));
  RunUntil(cluster, [&]() { return result->has_value(); }, timeout);
  return *result;
}

}  // namespace farm

#endif  // SRC_CORE_CLUSTER_H_
