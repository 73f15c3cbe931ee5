#include "src/chaos/harness.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

#include "src/chaos/faultpoint.h"
#include "src/chaos/oracle.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/core/cluster.h"
#include "src/core/region.h"
#include "src/obs/fault_hook.h"

namespace farm {
namespace chaos {

namespace {

// Account layout: 8-byte object header + u64 sequence + i64 balance.
constexpr uint32_t kStride = 24;
constexpr uint32_t kPayload = 16;
// Accounts start at balance 0 (transfers may go negative); conservation
// means the final total is still 0, with no seeding transactions needed.
constexpr int64_t kInitialBalance = 0;
// The liveness watchdog: the cluster must commit within this window after
// the last fault heals.
constexpr SimDuration kLivenessWindow = 250 * kMillisecond;
// Isolation window for trigger-driven partitions when the trigger carries
// no explicit param: long enough to outlast the lease and get the isolated
// side evicted, matching the generated plans' partition durations.
constexpr SimDuration kDefaultPartitionWindow = 50 * kMillisecond;

// Attaches a fault hook to the run's cluster for the enclosing scope (every
// run attaches one, even with no triggers -- the hit counts are the
// explorer's discovery data) and detaches it on every return path, before
// the hook dies and the cluster tears down.
struct HookGuard {
  HookGuard(Cluster& cluster, fault::Hook* hook) : c(cluster) { c.SetFaultHook(hook); }
  ~HookGuard() { c.SetFaultHook(nullptr); }
  HookGuard(const HookGuard&) = delete;
  HookGuard& operator=(const HookGuard&) = delete;
  Cluster& c;
};

std::vector<uint8_t> EncodeAccount(uint64_t seq, int64_t balance) {
  std::vector<uint8_t> b(kPayload);
  std::memcpy(b.data(), &seq, 8);
  std::memcpy(b.data() + 8, &balance, 8);
  return b;
}

void DecodeAccount(const std::vector<uint8_t>& b, uint64_t* seq, int64_t* balance) {
  std::memcpy(seq, b.data(), 8);
  std::memcpy(balance, b.data() + 8, 8);
}

// Run-wide state shared by the driver, transfer, and chaos coroutines. Lives
// on RunChaosPlan's stack below the cluster; coroutines only touch it while
// the simulator is stepping.
struct RunState {
  Cluster* cluster = nullptr;
  RegionId rid = kInvalidRegion;
  int accounts = 0;
  BankOracle* oracle = nullptr;
  uint64_t next_uid = 0;
  uint64_t commits = 0;
  SimTime last_commit = 0;
  SimTime fault_deadline = 0;  // plan.LastFaultTime()
  SimTime first_commit_after_faults = kSimTimeNever;
  std::vector<std::string>* event_log = nullptr;
};

// The freshest configuration any live node has adopted: the best available
// approximation of "current membership" for target resolution and for
// picking coordinators (stale coordinators are precise-membership fodder,
// not useful load).
const Configuration* FreshestConfig(Cluster& c) {
  const Configuration* best = nullptr;
  for (int m = 0; m < c.num_machines(); m++) {
    if (!c.machine(static_cast<MachineId>(m)).alive()) {
      continue;
    }
    const Configuration& cfg = c.node(static_cast<MachineId>(m)).config();
    if (best == nullptr || cfg.id > best->id) {
      best = &cfg;
    }
  }
  return best;
}

MachineId PickCoordinator(Cluster& c, uint64_t salt) {
  const Configuration* cfg = FreshestConfig(c);
  if (cfg == nullptr || cfg->machines.empty()) {
    return kInvalidMachine;
  }
  for (size_t probe = 0; probe < cfg->machines.size(); probe++) {
    MachineId cand = cfg->machines[(salt + probe) % cfg->machines.size()];
    if (c.machine(cand).alive()) {
      return cand;
    }
  }
  return kInvalidMachine;
}

Task<void> Transfer(RunState* st, MachineId coord, int thread, int from, int to,
                    int64_t amount) {
  TransferOp op;
  op.begin = st->cluster->sim().Now();
  auto tx = st->cluster->node(coord).Begin(thread);
  auto rf = co_await tx->Read(GlobalAddr{st->rid, static_cast<uint32_t>(from) * kStride},
                              kPayload);
  if (!rf.ok()) {
    co_return;  // nothing shipped: the attempt took no effect
  }
  auto rt = co_await tx->Read(GlobalAddr{st->rid, static_cast<uint32_t>(to) * kStride},
                              kPayload);
  if (!rt.ok()) {
    co_return;
  }
  uint64_t fseq = 0;
  uint64_t tseq = 0;
  int64_t fbal = 0;
  int64_t tbal = 0;
  DecodeAccount(*rf, &fseq, &fbal);
  DecodeAccount(*rt, &tseq, &tbal);
  (void)tx->Write(GlobalAddr{st->rid, static_cast<uint32_t>(from) * kStride},
                  EncodeAccount(fseq + 1, fbal - amount));
  (void)tx->Write(GlobalAddr{st->rid, static_cast<uint32_t>(to) * kStride},
                  EncodeAccount(tseq + 1, tbal + amount));
  op.uid = st->next_uid++;
  op.outcome = OpOutcome::kUnknown;
  op.accesses = {{from, fseq, fbal, fbal - amount}, {to, tseq, tbal, tbal + amount}};
  // Record before Commit: if our coordinator dies mid-commit this coroutine
  // parks forever, and recovery still owns the op's outcome.
  size_t index = st->oracle->Record(op);
  Status s = co_await tx->Commit();
  if (s.ok()) {
    SimTime end = st->cluster->sim().Now();
    st->oracle->Resolve(index, OpOutcome::kCommitted, end, tx->id());
    st->commits++;
    st->last_commit = end;
    if (end >= st->fault_deadline && end < st->first_commit_after_faults) {
      st->first_commit_after_faults = end;
    }
  } else if (s.code() == StatusCode::kAborted) {
    st->oracle->Resolve(index, OpOutcome::kAborted, kSimTimeNever, tx->id());
  }
  // Anything else (kUnavailable): recovery decided; stays kUnknown.
}

// Open-loop driver: spawns transfers at a steady rate instead of running a
// fixed worker pool, so workers parked on dead coordinators never throttle
// the load (essential for liveness probing across power failures).
Task<void> Driver(RunState* st, uint64_t seed, SimTime until, int worker_threads) {
  Pcg32 rng(HashCombine(seed, 0x77a3110adULL));
  Simulator& sim = st->cluster->sim();
  while (sim.Now() < until) {
    uint64_t salt = rng.Next64();
    int from = static_cast<int>(rng.Uniform(static_cast<uint32_t>(st->accounts)));
    int to = static_cast<int>(rng.Uniform(static_cast<uint32_t>(st->accounts)));
    int64_t amount = 1 + rng.Uniform(49);
    MachineId coord = PickCoordinator(*st->cluster, salt);
    if (coord != kInvalidMachine && from != to) {
      Spawn(Transfer(st, coord, static_cast<int>(salt % static_cast<uint64_t>(worker_threads)),
                     from, to, amount));
    }
    co_await SleepFor(sim, (100 + rng.Uniform(150)) * kMicrosecond);
  }
}

// Gray failure: steals ~90% of the victim's worker-thread CPU (but not its
// lease thread -- the paper's dedicated lease manager keeps leases flowing
// on a busy machine, which is exactly the behavior worth stressing).
Task<void> SlowLoop(Cluster* c, MachineId m, std::shared_ptr<bool> active) {
  uint64_t epoch = c->machine(m).epoch();
  int workers = c->options().node.worker_threads;
  while (*active && c->machine(m).alive() && c->machine(m).epoch() == epoch) {
    for (int t = 0; t < workers; t++) {
      c->machine(m).thread(t).InjectBusy(180 * kMicrosecond);
    }
    co_await SleepFor(c->sim(), 200 * kMicrosecond);
  }
}

class ChaosExecutor {
 public:
  ChaosExecutor(RunState* st, const ChaosPlan* plan) : st_(st), plan_(plan) {}

  Task<void> Run() {
    Simulator& sim = st_->cluster->sim();
    for (const ChaosEvent& e : plan_->events) {
      if (sim.Now() < e.at) {
        co_await SleepFor(sim, e.at - sim.Now());
      }
      Execute(e);
    }
  }

 private:
  void Note(const ChaosEvent& e, const std::string& resolved) {
    Cluster& c = *st_->cluster;
    std::ostringstream line;
    line << "t=" << c.sim().Now() / kMillisecond << "ms " << EventKindName(e.kind)
         << (resolved.empty() ? "" : " -> ") << resolved;
    st_->event_log->push_back(line.str());
    FARM_LOG(Info) << "chaos: " << line.str();
    c.metrics_registry()
        .GetCounter("chaos_events", {{"kind", EventKindName(e.kind)}})
        .Inc();
    // The cluster pseudo-process track (one past the last machine id).
    if (trace::Tracer* tracer = c.sinks().tracer) {
      tracer->Instant(static_cast<uint32_t>(c.options().machines + c.options().zk_replicas), 0,
                      "chaos", EventKindName(e.kind));
    }
  }

  std::vector<MachineId> LiveMembers() const {
    std::vector<MachineId> live;
    const Configuration* cfg = FreshestConfig(*st_->cluster);
    if (cfg == nullptr) {
      return live;
    }
    for (MachineId m : cfg->machines) {
      if (st_->cluster->machine(m).alive()) {
        live.push_back(m);
      }
    }
    return live;
  }

  const RegionPlacement* TrackedPlacement() const {
    const Configuration* cfg = FreshestConfig(*st_->cluster);
    return cfg == nullptr ? nullptr : cfg->Placement(st_->rid);
  }

  void Isolate(const ChaosEvent& e, std::vector<MachineId> minority) {
    Cluster& c = *st_->cluster;
    std::sort(minority.begin(), minority.end());
    std::vector<MachineId> majority;
    int total = c.options().machines + c.options().zk_replicas;
    for (int m = 0; m < total; m++) {
      if (!std::binary_search(minority.begin(), minority.end(), static_cast<MachineId>(m))) {
        majority.push_back(static_cast<MachineId>(m));
      }
    }
    c.fabric().SetPartition({majority, minority});
    std::ostringstream who;
    for (MachineId m : minority) {
      who << "m" << m << " ";
    }
    Note(e, "isolated " + who.str());
  }

  void Execute(const ChaosEvent& e) {
    Cluster& c = *st_->cluster;
    switch (e.kind) {
      case EventKind::kKillPrimary: {
        const RegionPlacement* p = TrackedPlacement();
        if (p == nullptr || !c.machine(p->primary).alive()) {
          Note(e, "skipped (no live primary)");
          return;
        }
        MachineId target = p->primary;
        c.Kill(target);
        Note(e, "m" + std::to_string(target));
        return;
      }
      case EventKind::kKillBackup: {
        const RegionPlacement* p = TrackedPlacement();
        if (p == nullptr || p->backups.empty()) {
          Note(e, "skipped (no backups)");
          return;
        }
        for (size_t probe = 0; probe < p->backups.size(); probe++) {
          MachineId cand = p->backups[(e.pick + probe) % p->backups.size()];
          if (c.machine(cand).alive()) {
            c.Kill(cand);
            Note(e, "m" + std::to_string(cand));
            return;
          }
        }
        Note(e, "skipped (no live backup)");
        return;
      }
      case EventKind::kKillCm: {
        const Configuration* cfg = FreshestConfig(c);
        if (cfg == nullptr || cfg->cm == kInvalidMachine || !c.machine(cfg->cm).alive()) {
          Note(e, "skipped (no live CM)");
          return;
        }
        MachineId target = cfg->cm;
        c.Kill(target);
        Note(e, "m" + std::to_string(target));
        return;
      }
      case EventKind::kPartitionMinority: {
        std::vector<MachineId> live = LiveMembers();
        size_t want = static_cast<size_t>(
            std::min<uint64_t>(e.param, live.empty() ? 0 : (live.size() - 1) / 2));
        if (want == 0) {
          Note(e, "skipped (too few live members)");
          return;
        }
        // Resolve `pick` into a subset by repeated index extraction.
        std::vector<MachineId> minority;
        uint64_t pick = e.pick;
        for (size_t i = 0; i < want; i++) {
          size_t idx = static_cast<size_t>(pick % live.size());
          pick /= live.size();
          minority.push_back(live[idx]);
          live.erase(live.begin() + static_cast<long>(idx));
        }
        Isolate(e, std::move(minority));
        return;
      }
      case EventKind::kPartitionBackup: {
        const RegionPlacement* p = TrackedPlacement();
        if (p == nullptr || p->backups.empty()) {
          Note(e, "skipped (no backups)");
          return;
        }
        for (size_t probe = 0; probe < p->backups.size(); probe++) {
          MachineId cand = p->backups[(e.pick + probe) % p->backups.size()];
          if (c.machine(cand).alive()) {
            Isolate(e, {cand});
            return;
          }
        }
        Note(e, "skipped (no live backup)");
        return;
      }
      case EventKind::kHeal:
        c.fabric().ClearPartition();
        Note(e, "");
        return;
      case EventKind::kLossBurstStart:
        c.fabric().set_datagram_loss(static_cast<double>(e.param) / 1000.0);
        Note(e, std::to_string(e.param) + "/1000 datagram loss");
        return;
      case EventKind::kLossBurstEnd:
        c.fabric().set_datagram_loss(0.0);
        Note(e, "");
        return;
      case EventKind::kSlowMachineStart: {
        std::vector<MachineId> live = LiveMembers();
        if (live.empty()) {
          Note(e, "skipped (no live members)");
          return;
        }
        MachineId target = live[e.pick % live.size()];
        auto active = std::make_shared<bool>(true);
        slow_.push_back(active);
        Spawn(SlowLoop(&c, target, active));
        Note(e, "m" + std::to_string(target));
        return;
      }
      case EventKind::kSlowMachineEnd:
        if (!slow_.empty()) {
          *slow_.back() = false;
          slow_.pop_back();
        }
        Note(e, "");
        return;
      case EventKind::kFlakyNicStart: {
        std::vector<MachineId> live = LiveMembers();
        if (live.empty()) {
          Note(e, "skipped (no live members)");
          return;
        }
        MachineId target = live[e.pick % live.size()];
        LinkFaults f;
        f.drop = std::min(0.2, static_cast<double>(e.param) / 1000.0);
        f.dup = 0.05;
        f.reorder = 0.1;
        f.extra_latency = 20 * kMicrosecond;
        f.jitter = 50 * kMicrosecond;
        f.reorder_window = kMillisecond;
        c.fabric().SetMachineLinkFaults(target, f);
        flaky_.push_back(target);
        Note(e, "m" + std::to_string(target));
        return;
      }
      case EventKind::kFlakyNicEnd:
        if (!flaky_.empty()) {
          c.fabric().SetMachineLinkFaults(flaky_.back(), LinkFaults{});
          flaky_.pop_back();
        }
        Note(e, "");
        return;
      case EventKind::kPowerFailure:
        c.PowerFailureRestart();
        Note(e, "all machines");
        return;
      case EventKind::kRestartEmpty: {
        std::vector<MachineId> dead;
        for (int m = 0; m < c.num_machines(); m++) {
          if (!c.machine(static_cast<MachineId>(m)).alive()) {
            dead.push_back(static_cast<MachineId>(m));
          }
        }
        if (dead.empty()) {
          Note(e, "skipped (no dead machine)");
          return;
        }
        MachineId target = dead[e.pick % dead.size()];
        c.RestartMachineEmpty(target);
        Note(e, "m" + std::to_string(target));
        return;
      }
    }
  }

  RunState* st_;
  const ChaosPlan* plan_;
  std::vector<std::shared_ptr<bool>> slow_;
  std::vector<MachineId> flaky_;
};

// Liveness watchdog: polls while the run executes and snapshots the flight
// recorders at the moment the liveness window expires with no commit, so a
// hung cluster's postmortem shows the stall -- not the settled state an
// end-of-run snapshot would show.
Task<void> Watchdog(RunState* st, std::string* snapshot) {
  Simulator& sim = st->cluster->sim();
  while (snapshot->empty()) {
    co_await SleepFor(sim, 2 * kMillisecond);
    SimTime deadline = st->fault_deadline + kLivenessWindow;
    if (sim.Now() <= deadline) {
      continue;
    }
    if (st->commits > 0 && st->first_commit_after_faults <= deadline) {
      continue;  // liveness satisfied (the deadline may still move later)
    }
    *snapshot = st->cluster->FlightPostmortem();
  }
}

// Satellite of the oracle detail: for each offending transaction, the
// record-seq window of its flight records on every machine, appended to the
// failure message so a postmortem reader can jump straight to the relevant
// slice of each ring.
std::string FlightSeqWindows(Cluster& c, const std::vector<TxId>& txs) {
  if (txs.empty()) {
    return "";
  }
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> windows;  // machine -> seq range
  for (int m = 0; m < c.num_machines(); m++) {
    flight::Recorder* rec = c.flight_recorder(static_cast<MachineId>(m));
    if (rec == nullptr) {
      continue;
    }
    for (const auto& dr : rec->Drain()) {
      if ((dr.rec.flags & flight::Record::kHasTx) == 0) {
        continue;
      }
      for (const TxId& tx : txs) {
        if (dr.rec.tx_local == tx.local &&
            dr.rec.tx_machine == static_cast<uint16_t>(tx.machine) &&
            dr.rec.tx_thread == tx.thread &&
            dr.rec.tx_config == static_cast<uint32_t>(tx.config)) {
          auto [it, fresh] = windows.emplace(dr.machine, std::make_pair(dr.seq, dr.seq));
          if (!fresh) {
            it->second.first = std::min(it->second.first, dr.seq);
            it->second.second = std::max(it->second.second, dr.seq);
          }
          break;
        }
      }
    }
  }
  std::ostringstream out;
  out << " [flight:";
  if (windows.empty()) {
    out << " no records for the offending txs";
  }
  for (const auto& [m, w] : windows) {
    out << " m" << m << " seq " << w.first << ".." << w.second << ";";
  }
  out << "]";
  return out.str();
}

// Minimal local RunTask (tests/test_util.h is not visible from src/).
template <typename T>
std::optional<T> RunToCompletion(Cluster& cluster, Task<T> task, SimDuration timeout) {
  auto result = std::make_shared<std::optional<T>>();
  auto wrapper = [](Task<T> inner, std::shared_ptr<std::optional<T>> out) -> Task<void> {
    out->emplace(co_await std::move(inner));
  };
  Spawn(wrapper(std::move(task), result));
  SimTime deadline = cluster.sim().Now() + timeout;
  while (!result->has_value() && cluster.sim().Now() < deadline) {
    if (!cluster.sim().Step()) {
      break;
    }
  }
  return *result;
}

}  // namespace

const char* FailureClassName(FailureClass c) {
  switch (c) {
    case FailureClass::kNone:
      return "none";
    case FailureClass::kSetup:
      return "setup";
    case FailureClass::kRegionLost:
      return "region-lost";
    case FailureClass::kLiveness:
      return "liveness";
    case FailureClass::kOracle:
      return "oracle";
  }
  return "unknown";
}

ChaosRunResult RunChaos(const ChaosRunOptions& options) {
  PlanOptions popts = options.plan;
  popts.machines = options.machines;
  return RunChaosPlan(options, ChaosPlan::Generate(popts, options.seed));
}

ChaosRunResult RunChaosPlan(const ChaosRunOptions& options, const ChaosPlan& plan) {
  ChaosRunResult res;
  res.plan = plan;
  // Every failure return below snapshots the flight recorders so the
  // artifact shows the protocol timeline leading up to the violation. A
  // non-empty `postmortem` argument supplies an earlier snapshot (the
  // liveness watchdog's at-expiry capture) instead.
  auto fail = [&res](Cluster& c, FailureClass cls, const std::string& why,
                     std::string postmortem = std::string()) -> ChaosRunResult& {
    res.failure = why;
    res.failure_class = cls;
    res.postmortem = postmortem.empty() ? c.FlightPostmortem() : std::move(postmortem);
    return res;
  };

  ClusterOptions copts;
  copts.machines = plan.options.machines;
  copts.zk_replicas = 3;
  copts.seed = plan.seed;
  copts.fault_seed = HashCombine(plan.seed, 0xfa177ab1eULL);
  copts.node.worker_threads = 2;
  copts.node.region_size = 256 << 10;
  copts.node.block_size = 16 << 10;
  copts.node.replication_factor = plan.options.replication_factor;
  copts.node.lease.duration = 10 * kMillisecond;
  copts.node.chaos_skip_backup_ack = options.mutate_skip_backup_ack;

  Cluster cluster(copts);
  cluster.Start();
  cluster.RunFor(5 * kMillisecond);

  auto create = [](Cluster* c) -> Task<StatusOr<RegionId>> {
    co_return co_await c->node(0).CreateRegion(64 << 10, kStride, kInvalidRegion, 0);
  };
  auto created = RunToCompletion(cluster, create(&cluster), 2 * kSecond);
  if (!created.has_value() || !created->ok()) {
    return fail(cluster, FailureClass::kSetup, "bank region creation failed");
  }

  BankOracle oracle(options.accounts, kInitialBalance);
  RunState st;
  st.cluster = &cluster;
  st.rid = created->value();
  st.accounts = options.accounts;
  st.oracle = &oracle;
  st.fault_deadline = plan.LastFaultTime();
  st.event_log = &res.event_log;

  // The fault injector observes every fault point (discovery data) and
  // fires the plan's triggers. Kills, partitions, and lease expiries are
  // deferred through sim.At(now) so they never mutate cluster state under
  // the protocol code that hit the point.
  Cluster* cp = &cluster;
  RunState* stp = &st;
  const int total_machines = copts.machines + copts.zk_replicas;
  // Trigger-driven faults move the liveness deadline: the run must commit
  // within the window after the LAST fault of any kind.
  auto extend_deadline = [stp](SimTime until) {
    if (until > stp->fault_deadline) {
      stp->fault_deadline = until;
      stp->first_commit_after_faults = kSimTimeNever;
    }
  };
  FaultInjector::Callbacks cb;
  cb.now = [cp] { return static_cast<uint64_t>(cp->sim().Now()); };
  cb.kill = [cp, extend_deadline, total_machines](uint32_t m) {
    extend_deadline(cp->sim().Now());
    cp->sim().At(cp->sim().Now(), [cp, m, total_machines] {
      if (m < static_cast<uint32_t>(total_machines) &&
          cp->machine(static_cast<MachineId>(m)).alive()) {
        cp->Kill(static_cast<MachineId>(m));
      }
    });
  };
  cb.partition = [cp, extend_deadline, total_machines](uint32_t m, uint64_t window_ns) {
    SimDuration w = window_ns == 0 ? kDefaultPartitionWindow
                                   : static_cast<SimDuration>(window_ns);
    extend_deadline(cp->sim().Now() + w);
    cp->sim().At(cp->sim().Now(), [cp, m, total_machines] {
      std::vector<MachineId> minority = {static_cast<MachineId>(m)};
      std::vector<MachineId> majority;
      for (int i = 0; i < total_machines; i++) {
        if (static_cast<uint32_t>(i) != m) {
          majority.push_back(static_cast<MachineId>(i));
        }
      }
      cp->fabric().SetPartition({majority, minority});
    });
    cp->sim().At(cp->sim().Now() + w, [cp] { cp->fabric().ClearPartition(); });
  };
  cb.lease_expiry = [cp, extend_deadline](uint32_t m, uint32_t peer) {
    extend_deadline(cp->sim().Now());
    cp->sim().At(cp->sim().Now(), [cp, m, peer] {
      if (m < static_cast<uint32_t>(cp->num_machines()) &&
          cp->machine(static_cast<MachineId>(m)).alive()) {
        cp->node(static_cast<MachineId>(m))
            .lease_manager()
            .ForceExpiry(static_cast<MachineId>(peer));
      }
    });
  };
  cb.note = [cp, stp](const std::string& line) {
    std::ostringstream full;
    full << "t=" << cp->sim().Now() / kMillisecond << "ms " << line;
    stp->event_log->push_back(full.str());
    FARM_LOG(Info) << "chaos: " << full.str();
    cp->metrics_registry().GetCounter("chaos_injections", {}).Inc();
  };
  FaultInjector injector(plan.triggers, cb, static_cast<uint64_t>(plan.options.start));
  HookGuard hook_guard(cluster, &injector);

  std::string liveness_postmortem;
  ChaosExecutor exec(&st, &plan);
  Spawn(Driver(&st, plan.seed, plan.options.horizon, copts.node.worker_threads));
  Spawn(exec.Run());
  Spawn(Watchdog(&st, &liveness_postmortem));

  SimTime now = cluster.sim().Now();
  if (plan.options.horizon > now) {
    cluster.RunFor(plan.options.horizon - now);
  }
  // Settle: let in-flight commits and recovery drain before the final read.
  cluster.RunFor(60 * kMillisecond);

  res.commits = st.commits;
  res.last_commit = st.last_commit;
  res.point_hits = injector.point_hits();
  res.triggers_fired = injector.firings().size();
  for (const auto& op : oracle.ops()) {
    res.unknown_outcomes += op.outcome == OpOutcome::kUnknown ? 1 : 0;
  }
  const Configuration* cfg = FreshestConfig(cluster);
  if (cfg != nullptr) {
    for (MachineId m : cfg->machines) {
      if (cluster.machine(m).alive()) {
        res.final_members.push_back(static_cast<uint32_t>(m));
      }
    }
  }

  if (cluster.AnyRegionLost()) {
    return fail(cluster, FailureClass::kRegionLost, "bank region lost all replicas");
  }
  if (st.commits == 0) {
    return fail(cluster, FailureClass::kLiveness, "liveness: no transfer ever committed",
                liveness_postmortem);
  }
  if (st.first_commit_after_faults == kSimTimeNever ||
      st.first_commit_after_faults > st.fault_deadline + kLivenessWindow) {
    return fail(cluster, FailureClass::kLiveness,
                "liveness: no commit within the recovery window after the last fault",
                liveness_postmortem);
  }

  // Final state, read from the surviving primary's replica.
  const RegionPlacement* placement = cfg == nullptr ? nullptr : cfg->Placement(st.rid);
  if (placement == nullptr || !cluster.machine(placement->primary).alive()) {
    return fail(cluster, FailureClass::kRegionLost,
                "no live primary for the bank region after settling");
  }
  RegionReplica* rep = cluster.node(placement->primary).replica(st.rid);
  if (rep == nullptr) {
    return fail(cluster, FailureClass::kRegionLost,
                "primary is missing its bank region replica");
  }
  std::vector<FinalAccount> final_state(static_cast<size_t>(options.accounts));
  for (int a = 0; a < options.accounts; a++) {
    FinalAccount& fin = final_state[static_cast<size_t>(a)];
    std::memcpy(&fin.seq, rep->Ptr(static_cast<uint32_t>(a) * kStride + 8, 8), 8);
    std::memcpy(&fin.balance, rep->Ptr(static_cast<uint32_t>(a) * kStride + 16, 8), 8);
  }

  std::string failure;
  CheckDetail detail;
  if (!oracle.Check(final_state, &failure, &detail)) {
    return fail(cluster, FailureClass::kOracle,
                failure + FlightSeqWindows(cluster, detail.txs));
  }
  res.ok = true;
  return res;
}

}  // namespace chaos
}  // namespace farm
