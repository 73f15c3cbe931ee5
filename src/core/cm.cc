// Configuration-manager duties: region allocation (section 3) and the
// reconfiguration protocol (section 5.2).
#include <algorithm>

#include "src/core/cluster.h"
#include "src/core/node.h"

namespace farm {

namespace {

constexpr SimDuration kPrepareTimeout = 50 * kMillisecond;
// A non-CM machine that asked a backup CM to reconfigure retries itself
// after this long if nothing changed.
constexpr SimDuration kBackupCmTimeout = 20 * kMillisecond;
// How often a machine restarted with empty state re-asks the CM to admit it
// until it appears in a committed configuration.
constexpr SimDuration kJoinRetryInterval = 10 * kMillisecond;
// How often a live member checks the coordination service for its own
// eviction (restart-and-rejoin trigger).
constexpr SimDuration kEvictionCheckInterval = 20 * kMillisecond;
// k backup CMs: the CM's successors on the consistent-hash ring.
constexpr size_t kBackupCms = 2;

// Appends `candidates` to `chosen`, in order, until it holds `need` machines.
// Each addition is a member, not yet chosen, and in a failure domain no
// chosen machine is in (section 3's placement rule).
void FillDistinctDomains(const Configuration& cfg, const std::vector<MachineId>& candidates,
                         int need, std::vector<MachineId>& chosen) {
  std::set<int> domains;
  for (MachineId m : chosen) {
    domains.insert(cfg.DomainOf(m));
  }
  for (MachineId m : candidates) {
    if (static_cast<int>(chosen.size()) >= need) {
      return;
    }
    if (!cfg.Contains(m) || std::find(chosen.begin(), chosen.end(), m) != chosen.end() ||
        domains.count(cfg.DomainOf(m)) != 0) {
      continue;
    }
    chosen.push_back(m);
    domains.insert(cfg.DomainOf(m));
  }
}

// The members of `cfg`, fewest replicas first (ties by id).
std::vector<MachineId> MembersByLoad(const Configuration& cfg) {
  std::map<MachineId, int> load = cfg.ReplicaLoad();
  std::vector<MachineId> out = cfg.machines;
  std::sort(out.begin(), out.end(), [&](MachineId a, MachineId b) {
    return load[a] != load[b] ? load[a] < load[b] : a < b;
  });
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Region allocation
// ---------------------------------------------------------------------------

StatusOr<std::vector<MachineId>> Node::PickReplicas(RegionId colocate_with) const {
  const int need = options_.replication_factor;
  // Locality constraint: co-locate with the target region's replicas
  // (section 3) when they are all still members.
  if (colocate_with != kInvalidRegion) {
    const RegionPlacement* target = config_.Placement(colocate_with);
    if (target != nullptr) {
      std::vector<MachineId> same = target->Replicas();
      if (static_cast<int>(same.size()) == need &&
          std::all_of(same.begin(), same.end(),
                      [this](MachineId m) { return config_.Contains(m); })) {
        return same;
      }
    }
  }
  // Balance the number of region replicas per machine, subject to one
  // replica per failure domain. Primary load is balanced separately --
  // otherwise deterministic tie-breaking concentrates every primary (and
  // therefore all lock/validation work) on a few machines.
  std::map<MachineId, int> primary_load;
  for (const auto& [rid, p] : config_.regions) {
    (void)rid;
    primary_load[p.primary]++;
  }
  std::vector<MachineId> candidates = MembersByLoad(config_);
  // The primary: least primaries first, then least replicas.
  std::vector<MachineId> chosen = {
      *std::min_element(candidates.begin(), candidates.end(), [&](MachineId a, MachineId b) {
        return primary_load[a] < primary_load[b];
      })};
  // Backups: least replicas first.
  FillDistinctDomains(config_, candidates, need, chosen);
  if (static_cast<int>(chosen.size()) == need) {
    return chosen;
  }
  return Status(StatusCode::kResourceExhausted,
                "not enough machines in distinct failure domains");
}

Detached Node::RunRegionCreate(MachineId from, Correlated<RegionCreate> request) {
  const uint64_t correlation = request.correlation;
  const RegionCreate& req = request.body;
  if (!IsCm()) {
    Respond(from, correlation, Status(StatusCode::kFailedPrecondition, "not the CM"));
    co_return;
  }
  auto replicas = PickReplicas(req.colocate_with);
  if (!replicas.ok()) {
    Respond(from, correlation, replicas.status());
    co_return;
  }
  RegionId rid = config_.next_region_id++;

  // Two-phase: prepare at all replicas, then commit (section 3).
  bool all_ok = true;
  for (MachineId m : *replicas) {
    auto ack =
        co_await Request(m, RegionPrepare{rid, req.size, req.object_stride}, -1, kPrepareTimeout);
    if (!ack.ok()) {
      all_ok = false;
      break;
    }
  }
  if (!all_ok) {
    Respond(from, correlation, UnavailableStatus("region prepare failed"));
    co_return;
  }

  RegionPlacement p;
  p.primary = (*replicas)[0];
  p.backups.assign(replicas->begin() + 1, replicas->end());
  p.size = req.size;
  p.last_primary_change = config_.id;
  p.last_replica_change = config_.id;
  p.colocate_with = req.colocate_with;
  p.object_stride = req.object_stride;
  config_.regions[rid] = p;

  // Broadcast the new mapping to every member (mappings are fetched/cached
  // by machines; the CM is their source of truth).
  const RegionCreateReply mapping{rid, p};
  for (MachineId m : config_.machines) {
    if (m != id()) {
      messenger_->Send(m, mapping, -1);
    }
  }
  Respond(from, correlation, RegionCreate::Reply{rid});
}

// ---------------------------------------------------------------------------
// Rejoin (restart with empty state)
// ---------------------------------------------------------------------------

Detached Node::RunJoin(uint64_t restart_epoch) {
  // Petition until a committed configuration includes us again: read the
  // configuration znode to locate the current CM, ask it to admit us, and
  // back off. Adoption arrives as a normal NEW-CONFIG.
  while (machine_->alive() && restart_epoch == restart_epoch_ &&
         !config_.Contains(id())) {
    auto znode = co_await cluster_->zk().Read(id(), nullptr);
    if (!machine_->alive() || restart_epoch != restart_epoch_ ||
        config_.Contains(id())) {
      co_return;
    }
    if (znode.ok() && !znode->data.empty()) {
      Configuration current = Decode<Configuration>(znode->data);
      if (!current.Contains(id()) && current.cm != kInvalidMachine &&
          current.cm != id() && messenger_->ConnectedTo(current.cm)) {
        messenger_->Send(
            current.cm,
            JoinRequest{static_cast<uint32_t>(cluster_->FailureDomainOf(id()))}, -1);
      }
    }
    co_await SleepFor(sim(), kJoinRetryInterval);
  }
}

Detached Node::RunEvictionMonitor(uint64_t generation) {
  while (machine_->alive() && generation == eviction_monitor_generation_) {
    co_await SleepFor(sim(), kEvictionCheckInterval);
    if (!machine_->alive() || generation != eviction_monitor_generation_) {
      co_return;
    }
    // Only members police their own eviction; a cold-restarted machine's
    // join loop owns the not-yet-admitted phase.
    if (config_.id == 0 || !config_.Contains(id())) {
      continue;
    }
    auto znode = co_await cluster_->zk().Read(id(), nullptr);
    if (!machine_->alive() || generation != eviction_monitor_generation_) {
      co_return;
    }
    if (!znode.ok() || znode->data.empty()) {
      continue;  // e.g. partitioned from the coordination service
    }
    Configuration current = Decode<Configuration>(znode->data);
    if (current.id >= config_.id && !current.Contains(id())) {
      FARM_LOG(Warn) << "node " << id() << ": evicted from configuration "
                     << current.id << "; restarting empty to rejoin";
      // Restart as a fresh instance and petition to rejoin (the paper treats
      // evicted machines as failed; a replacement process takes their slot).
      cluster_->RestartMachineEmpty(id());
      co_return;  // superseded: ColdRestart + BeginJoin arm fresh loops
    }
  }
}

void Node::HandleJoinRequest(MachineId from, const JoinRequest& m) {
  if (!IsCm() || config_.Contains(from)) {
    return;  // not the CM (the joiner retries) or already a member
  }
  FARM_LOG(Info) << "node " << id() << ": join request from machine " << from;
  pending_joins_[from] = static_cast<int>(m.failure_domain);
  StartReconfiguration({}, "join request");
}

// ---------------------------------------------------------------------------
// Failure suspicion
// ---------------------------------------------------------------------------

void Node::OnMachineSuspected(MachineId m) {
  if (!IsCm() || !config_.Contains(m)) {
    return;
  }
  StartReconfiguration({m}, "lease expired at CM");
}

void Node::OnCmSuspected() {
  if (reconfig_in_flight_ || !config_.Contains(id())) {
    return;
  }
  MachineId cm = config_.cm;
  // Backup CMs are the k successors of the CM under consistent hashing; one
  // of them should reconfigure, others ask and fall back (section 5.2).
  ConsistentHashRing ring;
  for (MachineId m : config_.machines) {
    if (m != cm) {
      ring.AddNode(m);
    }
  }
  auto successors = ring.Successors(cm, kBackupCms);
  bool am_backup_cm =
      std::find(successors.begin(), successors.end(), id()) != successors.end();
  if (am_backup_cm) {
    StartReconfiguration({cm}, "cm lease expired (backup cm)");
    return;
  }
  if (!successors.empty()) {
    messenger_->Send(successors[0], ReconfigRequest{cm}, -1);
  }
  // If nothing changes, attempt the reconfiguration ourselves.
  ConfigId cfg_then = config_.id;
  sim().After(kBackupCmTimeout, [this, cfg_then, cm]() {
    if (machine_->alive() && config_.id == cfg_then && config_.cm == cm) {
      StartReconfiguration({cm}, "cm lease expired (fallback)");
    }
  });
}

void Node::StartReconfiguration(std::vector<MachineId> suspects, const char* reason) {
  if (reconfig_in_flight_ || !machine_->alive()) {
    return;
  }
  FARM_LOG(Info) << "node " << id() << " starts reconfiguration (" << reason << ")";
  emit_.Report(Step::kSuspect);
  reconfig_in_flight_ = true;
  RunReconfiguration(std::move(suspects));
}

// ---------------------------------------------------------------------------
// Reconfiguration (the 7 steps of section 5.2)
// ---------------------------------------------------------------------------

void Node::RemapRegions(Configuration& cfg) const {
  for (auto it = cfg.regions.begin(); it != cfg.regions.end();) {
    RegionPlacement& p = it->second;
    // The surviving replicas, the primary first if it survived.
    std::vector<MachineId> replicas;
    for (MachineId m : p.Replicas()) {
      if (cfg.Contains(m)) {
        replicas.push_back(m);
      }
    }
    if (replicas.empty()) {
      cluster_->NoteRegionLost(it->first);
      it = cfg.regions.erase(it);
      continue;
    }
    // Promote a surviving backup when the primary failed (fast recovery:
    // no bulk data movement before the region serves again).
    const bool primary_failed = replicas[0] != p.primary;
    if (static_cast<int>(replicas.size()) == options_.replication_factor && !primary_failed) {
      ++it;
      continue;
    }
    // Re-replicate to restore f+1, balancing load and respecting failure
    // domains and locality: the colocation target's machines come first.
    // Load is recounted per region because earlier remaps move it.
    std::vector<MachineId> candidates;
    if (p.colocate_with != kInvalidRegion) {
      const RegionPlacement* target = cfg.Placement(p.colocate_with);
      if (target != nullptr) {
        candidates = target->Replicas();
      }
    }
    std::vector<MachineId> by_load = MembersByLoad(cfg);
    candidates.insert(candidates.end(), by_load.begin(), by_load.end());
    FillDistinctDomains(cfg, candidates, options_.replication_factor, replicas);
    p.primary = replicas[0];
    p.backups.assign(replicas.begin() + 1, replicas.end());
    if (primary_failed) {
      p.last_primary_change = cfg.id;
    }
    p.last_replica_change = cfg.id;
    ++it;
  }
}

Detached Node::RunReconfiguration(std::vector<MachineId> suspects) {
  Configuration old = config_;
  Span reconfig_span(emit_, Step::kReconfiguration, old.id + 1);
  SimTime step_start = sim().Now();
  // Step 2: probe all machines (one-sided read of their control block);
  // any machine whose read fails is also suspected.
  std::vector<MachineId> responders;
  responders.push_back(id());
  {
    WaitGroup wg;
    auto alive = std::make_shared<std::vector<MachineId>>();
    for (MachineId m : old.machines) {
      if (m == id() ||
          std::find(suspects.begin(), suspects.end(), m) != suspects.end()) {
        continue;
      }
      wg.Add();
      uint64_t addr = cluster_->node(m).control_block_addr();
      fabric().Read(id(), m, addr, 8, nullptr).OnReady([wg, alive, m](NetResult& r) {
        if (r.status.ok()) {
          alive->push_back(m);
        }
        wg.Done();
      });
    }
    co_await wg.Wait();
    for (MachineId m : *alive) {
      responders.push_back(m);
    }
  }
  // The new CM must obtain responses for a majority of the probes, which
  // guarantees it is not in a minority partition.
  const bool majority = responders.size() > old.machines.size() / 2;
  emit_.Report(majority ? Step::kProbe : Step::kProbeMinority, old.id, step_start);
  step_start = sim().Now();
  if (!majority) {
    FARM_LOG(Warn) << "node " << id() << ": reconfiguration aborted (no probe majority)";
    reconfig_in_flight_ = false;
    co_return;
  }

  // Step 3: atomically advance the configuration in the coordination
  // service (Vertical Paxos; znode CAS keyed by the old configuration id).
  Configuration next = old;
  next.id = old.id + 1;
  std::sort(responders.begin(), responders.end());
  next.machines = responders;
  next.cm = id();
  next.failure_domains.clear();
  for (MachineId m : next.machines) {
    next.failure_domains[m] = old.DomainOf(m);
  }
  // Admit machines waiting to rejoin after a restart with empty state. They
  // enter with no regions; RemapRegions below may immediately assign them as
  // replacement backups for under-replicated regions.
  std::map<MachineId, int> joins = pending_joins_;
  for (const auto& [j, domain] : joins) {
    if (std::find(next.machines.begin(), next.machines.end(), j) != next.machines.end() ||
        std::find(suspects.begin(), suspects.end(), j) != suspects.end()) {
      continue;
    }
    next.machines.push_back(j);
    next.failure_domains[j] = domain;
  }
  std::sort(next.machines.begin(), next.machines.end());
  // Step 4: remap regions mapped to failed machines.
  RemapRegions(next);

  auto cas = co_await cluster_->zk().CompareAndSwap(id(), old.id, Encode(next), nullptr);
  if (cas.ok()) {
    emit_.Report(Step::kConfigCas, next.id, step_start);
  } else {
    FARM_LOG(Info) << "node " << id() << ": lost configuration CAS for id " << next.id;
    // Losing the CAS means someone committed a newer configuration. If its
    // CM died before distributing NEW-CONFIG, nobody else will ever tell us:
    // every machine still at the old id would lose this same CAS and wedge.
    // Read the committed configuration and adopt it; the lease machinery
    // then suspects its (possibly dead) CM and reconfigures on top of it.
    auto current = co_await cluster_->zk().Read(id(), nullptr);
    if (current.ok() && !current->data.empty()) {
      Configuration committed = Decode<Configuration>(current->data);
      // Only adopt configurations we belong to; if the committed one
      // evicted us, the eviction monitor (which compares against our old
      // membership) handles the restart-and-rejoin path.
      if (committed.id > config_.id && committed.Contains(id())) {
        OnNewConfig(committed.cm, std::move(committed));
      }
    }
    reconfig_in_flight_ = false;
    co_return;
  }
  // Joins folded into the committed configuration are no longer pending.
  for (const auto& [j, domain] : joins) {
    (void)domain;
    pending_joins_.erase(j);
  }

  // Step 5: NEW-CONFIG to all members.
  step_start = sim().Now();
  pending_reconfig_ = PendingReconfig{};
  pending_reconfig_->cfg = next;
  for (MachineId m : next.machines) {
    if (m != id()) {
      pending_reconfig_->ack_pending.insert(m);
    }
  }
  Future<Unit> acks_done;
  pending_reconfig_->acks_done = acks_done;
  // One NEW-CONFIG body (whose one field is the configuration) for every member.
  const std::vector<uint8_t> new_config = Encode(next);
  bool cm_changed = old.cm != id();
  for (MachineId m : next.machines) {
    if (m != id()) {
      messenger_->SendMessage(m, NewConfig::kType, new_config, -1);
    }
  }
  // Step 6 for ourselves.
  OnNewConfig(id(), next);

  if (!pending_reconfig_->ack_pending.empty()) {
    // A member can die between NEW-CONFIG and its ack; waiting forever would
    // wedge the cluster. On timeout, suspect the unresponsive members and
    // run another reconfiguration on top of the (already CAS'd) new one.
    auto acked = co_await AwaitWithTimeout(sim(), acks_done,
                                           4 * options_.lease.duration);
    if (!acked.has_value()) {
      std::vector<MachineId> unresponsive(pending_reconfig_->ack_pending.begin(),
                                          pending_reconfig_->ack_pending.end());
      pending_reconfig_.reset();
      reconfig_in_flight_ = false;
      StartReconfiguration(std::move(unresponsive), "members missed NEW-CONFIG ack");
      co_return;
    }
  }

  // Step 7: wait out any leases the *old* CM may have granted to machines
  // no longer in the configuration, then commit.
  if (cm_changed) {
    co_await SleepFor(sim(), options_.lease.duration);
  }
  emit_.Report(Step::kConfigCommit, next.id, step_start);
  for (MachineId m : next.machines) {
    if (m != id()) {
      messenger_->Send(m, NewConfigCommit{next.id}, -1);
    }
  }
  OnNewConfigCommit(next.id);
  pending_reconfig_.reset();
  reconfig_in_flight_ = false;
}

void Node::OnNewConfigAck(MachineId from, ConfigId cid) {
  if (!pending_reconfig_.has_value() || pending_reconfig_->cfg.id != cid) {
    return;
  }
  pending_reconfig_->ack_pending.erase(from);
  if (pending_reconfig_->ack_pending.empty() && !pending_reconfig_->acks_done.Ready()) {
    pending_reconfig_->acks_done.Set(Unit{});
  }
}

// ---------------------------------------------------------------------------
// REGIONS-ACTIVE collection (CM side; section 5.4)
// ---------------------------------------------------------------------------

void Node::HandleRegionsActive(MachineId from, const RegionsActive& m) {
  if (!IsCm() || m.config != config_.id) {
    return;
  }
  regions_active_pending_.erase(from);
  if (regions_active_pending_.empty()) {
    BroadcastAllRegionsActive();
  }
}

void Node::BroadcastAllRegionsActive() {
  emit_.Report(Step::kAllActive);
  for (MachineId m : config_.machines) {
    if (m != id()) {
      messenger_->Send(m, AllRegionsActive{config_.id}, -1);
    }
  }
  OnAllRegionsActive();
}

}  // namespace farm
