#include "src/core/cluster.h"

namespace farm {

namespace {

uint64_t SimNowForLog(void* ctx) { return static_cast<Simulator*>(ctx)->Now(); }

// The live Cluster of this thread, if any (see the one-per-thread rule in
// cluster.h).
thread_local const Cluster* t_live_cluster = nullptr;

// Registry cell names of the plain stats structs, for the teardown dump.
constexpr std::pair<const char*, uint64_t NodeStats::*> kNodeStatCells[] = {
    {"tx_committed", &NodeStats::tx_committed},
    {"tx_aborted_lock", &NodeStats::tx_aborted_lock},
    {"tx_aborted_validate", &NodeStats::tx_aborted_validate},
    {"tx_unresolved", &NodeStats::tx_unresolved},
    {"tx_recovered_commit", &NodeStats::tx_recovered_commit},
    {"tx_recovered_abort", &NodeStats::tx_recovered_abort},
    {"lockfree_reads", &NodeStats::lockfree_reads},
    {"recovering_txs_seen", &NodeStats::recovering_txs_seen},
    {"regions_rereplicated", &NodeStats::regions_rereplicated},
    {"reconfigurations", &NodeStats::reconfigurations},
};
constexpr std::pair<const char*, uint64_t FabricStats::*> kFabricStatCells[] = {
    {"fabric_rdma_reads", &FabricStats::rdma_reads},
    {"fabric_rdma_writes", &FabricStats::rdma_writes},
    {"fabric_rdma_cas", &FabricStats::rdma_cas},
    {"fabric_rpcs", &FabricStats::rpcs},
    {"fabric_datagrams", &FabricStats::datagrams},
    {"fabric_rdma_bytes", &FabricStats::rdma_bytes},
    {"fabric_rpc_bytes", &FabricStats::rpc_bytes},
    {"fabric_fault_dropped", &FabricStats::faults_dropped},
    {"fabric_fault_delayed", &FabricStats::faults_delayed},
    {"fabric_fault_duplicated", &FabricStats::faults_duplicated},
    {"fabric_fault_reordered", &FabricStats::faults_reordered},
};

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  FARM_CHECK(t_live_cluster == nullptr)
      << "a Cluster is already live on this thread; run independent clusters on separate threads";
  t_live_cluster = this;
  sinks_.tracer = options_.tracer;
  fabric_ = std::make_unique<Fabric>(sim_, sinks_);
  fabric_->SeedFaultRng(options_.fault_seed);
  SetLogClock(&SimNowForLog, &sim_);

  int farm_machines = options_.machines;
  int total = farm_machines + options_.zk_replicas;
  for (int i = 0; i < total; i++) {
    bool is_farm = i < farm_machines;
    int threads = is_farm ? options_.node.worker_threads + 1 : 2;
    int domain = is_farm ? FailureDomainOf(static_cast<MachineId>(i)) : 1000 + i;
    machines_.push_back(
        std::make_unique<Machine>(sim_, static_cast<MachineId>(i), threads, domain));
    stores_.push_back(std::make_unique<NvramStore>());
    fabric_->AddMachine(machines_.back().get(), stores_.back().get());
  }

  // One flight-recorder ring per FaRM machine; the fabric stamps
  // message-level records into the same rings.
  for (int i = 0; i < farm_machines; i++) {
    flight_.push_back(std::make_unique<flight::Recorder>(
        static_cast<uint32_t>(i), flight::Recorder::kDefaultCapacity, sinks_));
    fabric_->SetFlightRecorder(static_cast<MachineId>(i), flight_.back().get());
  }

  // Trace setup: name one process per machine with one track per hardware
  // thread, plus a "cluster" pseudo-process for global milestones.
  if (trace::Tracer* tracer = sinks_.tracer) {
    tracer->AttachClock(&sim_);
    for (int i = 0; i < total; i++) {
      bool is_farm = i < farm_machines;
      uint32_t pid = static_cast<uint32_t>(i);
      tracer->NameProcess(pid, (is_farm ? "machine " : "zk ") + std::to_string(i));
      int threads = machines_[static_cast<size_t>(i)]->NumThreads();
      for (int t = 0; t < threads; t++) {
        std::string tname;
        if (!is_farm) {
          tname = "zk " + std::to_string(t);
        } else if (t == threads - 1) {
          tname = "lease";
        } else {
          tname = "worker " + std::to_string(t);
        }
        tracer->NameThread(pid, static_cast<uint32_t>(t), tname);
      }
    }
    tracer->NameProcess(static_cast<uint32_t>(total), "cluster");
  }

  std::vector<MachineId> zk_ids;
  for (int i = 0; i < options_.zk_replicas; i++) {
    zk_ids.push_back(static_cast<MachineId>(farm_machines + i));
  }
  zk_ = std::make_unique<CoordinationService>(*fabric_, zk_ids);

  for (int i = 0; i < farm_machines; i++) {
    nodes_.push_back(std::make_unique<Node>(this, machines_[static_cast<size_t>(i)].get(),
                                            stores_[static_cast<size_t>(i)].get(),
                                            options_.node));
  }
  // Full-mesh ring wiring, including self-rings (local participation).
  for (int i = 0; i < farm_machines; i++) {
    for (int j = i; j < farm_machines; j++) {
      Messenger::Connect(nodes_[static_cast<size_t>(i)]->messenger(),
                         nodes_[static_cast<size_t>(j)]->messenger());
    }
  }
}

Cluster::~Cluster() {
  // Machine deaths park coroutine frames forever (see the cancellation model
  // in src/sim/task.h); destroy them before cluster state goes away, while
  // the tracer clock is still attached so their spans close at the final
  // simulated time.
  ReclaimParkedFrames();
  ClearLogClock();
  const std::string section = "cluster seed=" + std::to_string(options_.seed);
  if (!options_.flight_out.empty()) {
    flight::AppendDump(options_.flight_out, FlightPostmortem(), section);
  }
  if (!options_.metrics_out.empty()) {
    for (const auto& node : nodes_) {
      metrics::Labels labels = {{"node", "m" + std::to_string(node->id())}};
      for (const auto& [name, field] : kNodeStatCells) {
        registry_.GetCounter(name, labels).Inc(node->stats().*field);
      }
    }
    for (const auto& [name, field] : kFabricStatCells) {
      registry_.GetCounter(name).Inc(fabric_->stats().*field);
    }
    metrics::AppendDump(options_.metrics_out, registry_, section);
  }
  // The tracer outlives the cluster; detach so it cannot stamp events with a
  // dead simulator.
  if (sinks_.tracer != nullptr) {
    sinks_.tracer->AttachClock(nullptr);
  }
  t_live_cluster = nullptr;
}

std::string Cluster::FlightPostmortem() const {
  std::vector<const flight::Recorder*> rings;
  rings.reserve(flight_.size());
  for (const auto& r : flight_) {
    rings.push_back(r.get());
  }
  return flight::BuildPostmortem(rings);
}

int Cluster::FailureDomainOf(MachineId m) const {
  if (options_.failure_domains > 0) {
    return static_cast<int>(m) % options_.failure_domains;
  }
  return static_cast<int>(m);
}

void Cluster::Start() {
  Configuration initial;
  initial.id = 1;
  for (int i = 0; i < options_.machines; i++) {
    MachineId m = static_cast<MachineId>(i);
    initial.machines.push_back(m);
    initial.failure_domains[m] = FailureDomainOf(m);
  }
  initial.cm = 0;

  for (auto& node : nodes_) {
    node->Bootstrap(initial);
  }

  // Seed the coordination service with the initial configuration so the
  // first reconfiguration's CAS (expected version 1) lands correctly.
  auto seed = [](Cluster* c, Configuration cfg) -> Task<void> {
    auto r = co_await c->zk().CompareAndSwap(0, 0, cfg.Serialize(), nullptr);
    FARM_CHECK(r.ok()) << "failed to seed coordination service: " << r.status().ToString();
  };
  Spawn(seed(this, initial));
}

void Cluster::PowerFailureRestart() {
  for (int i = 0; i < options_.machines; i++) {
    machines_[static_cast<size_t>(i)]->Kill();
    machines_[static_cast<size_t>(i)]->Reboot();
  }
  for (auto& node : nodes_) {
    node->RestartRecovery();
  }
}

void Cluster::RestartMachineEmpty(MachineId m) {
  FARM_CHECK(m < static_cast<MachineId>(options_.machines)) << "not a FaRM machine";
  if (machines_[m]->alive()) {
    machines_[m]->Kill();
  }
  machines_[m]->Reboot();
  nodes_[m]->ColdRestart();
  for (int j = 0; j < options_.machines; j++) {
    Node& peer = *nodes_[static_cast<size_t>(j)];
    Messenger::Reconnect(nodes_[m]->messenger(), peer.messenger());
    peer.DropLogRecordsFrom(m);
  }
  nodes_[m]->BeginJoin();
}

void Cluster::NoteRegionLost(RegionId r) {
  FARM_LOG(Error) << "region " << r << " lost all replicas";
  lost_regions_.push_back(r);
}

void Cluster::NoteRegionRereplicated(RegionId r) {
  (void)r;
  rereplication_times_.push_back(sim_.Now());
}

NodeStats Cluster::TotalStats() const {
  NodeStats total;
  for (const auto& node : nodes_) {
    for (const auto& [name, field] : kNodeStatCells) {
      total.*field += node->stats().*field;
    }
  }
  return total;
}

}  // namespace farm
