// Transaction state recovery (section 5.3): drain logs, identify recovering
// transactions, lock recovery, log replication, voting, and decisions.
#include <algorithm>

#include "src/core/cluster.h"
#include "src/core/node.h"
#include "src/net/cost_model.h"

namespace farm {

namespace {

constexpr int kMaxVoteTimerRounds = 40;
// How long a recovery coordinator waits for votes before re-requesting them.
constexpr SimDuration kVoteTimeout = 250 * kMicrosecond;

Vote StrengthOf(LogRecordType t) {
  switch (t) {
    case LogRecordType::kCommitPrimary:
      return Vote::kCommitPrimary;
    case LogRecordType::kCommitBackup:
      return Vote::kCommitBackup;
    case LogRecordType::kLock:
      return Vote::kLock;
    default:
      return Vote::kUnknown;
  }
}

// Stronger = smaller enum value (kCommitPrimary=1 ... kUnknown=6).
bool Stronger(Vote a, Vote b) { return static_cast<int>(a) < static_cast<int>(b); }

}  // namespace

void Node::ReplicaTxState::Merge(Vote s, const TxLogRecord* rec) {
  if (Stronger(s, strength)) {
    strength = s;
  }
  if (rec != nullptr && !has_contents) {
    has_contents = true;
    contents = *rec;
  }
}

// ---------------------------------------------------------------------------
// Recovering-transaction identification (step 3)
// ---------------------------------------------------------------------------

bool Node::IsRecoveringTx(const TxLogRecord& rec, const Configuration& cfg) const {
  if (restart_recover_all_) {
    return true;  // power-failure restart: every logged transaction recovers
  }
  if (rec.tx.config >= cfg.id) {
    return false;  // started committing in the current configuration
  }
  if (!cfg.Contains(rec.tx.machine)) {
    return true;  // coordinator changed
  }
  for (RegionId r : rec.written_regions) {
    const RegionPlacement* p = cfg.Placement(r);
    if (p == nullptr || p->last_replica_change > rec.tx.config) {
      return true;  // some replica of a written object changed
    }
  }
  return false;
}

bool Node::TxIsRecovering(Transaction* tx, const Configuration& cfg) const {
  if (tx->id_.config == 0 || tx->id_.config >= cfg.id) {
    return false;
  }
  if (!cfg.Contains(id())) {
    return true;
  }
  for (const auto& [addr, w] : tx->writes_) {
    (void)w;
    const RegionPlacement* p = cfg.Placement(addr.region);
    if (p == nullptr || p->last_replica_change > tx->id_.config) {
      return true;
    }
  }
  for (const auto& [addr, r] : tx->reads_) {
    (void)r;
    const RegionPlacement* p = cfg.Placement(addr.region);
    if (p == nullptr || p->last_primary_change > tx->id_.config) {
      return true;  // some primary of a read object changed
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// NEW-CONFIG application (reconfiguration step 6)
// ---------------------------------------------------------------------------

void Node::OnNewConfig(MachineId from, Configuration new_config) {
  if (new_config.id <= config_.id) {
    if (new_config.id == config_.id && from == new_config.cm && from != id()) {
      messenger_->Send(from, NewConfigAck{new_config.id}, -1);
    }
    return;
  }
  stats_.reconfigurations++;
  emit_.Report(Step::kReconfig, new_config.id);
  emit_.Report(Step::kNewConfig, new_config.id);
  config_ = std::move(new_config);
  const Configuration& cfg = config_;
  regions_active_sent_ = false;
  new_backup_regions_.clear();

  if (IsCm()) {
    regions_active_pending_.clear();
    for (MachineId m : cfg.machines) {
      regions_active_pending_.insert(m);
    }
  }

  for (const auto& [rid, p] : cfg.regions) {
    bool host = p.Contains(id());
    if (host && replicas_.count(rid) == 0) {
      InstallReplica(rid, p.size, p.object_stride);
      if (p.primary != id()) {
        // Freshly assigned backup: needs bulk data recovery (section 5.4).
        new_backup_regions_.insert(rid);
      }
    }
    if (p.primary == id() && p.last_primary_change == cfg.id) {
      RegionReplica* rep = replica(rid);
      if (rep != nullptr) {
        // Block access until lock recovery completes (section 5.3 step 1).
        rep->set_active(false);
      }
      if (allocator(rid) != nullptr) {
        promoted_regions_.insert(rid);
      }
    }
  }

  // Mark in-flight coordinated transactions whose outcome now belongs to
  // recovery; their hardware acks are rejected from here on.
  for (auto& [tid, tx] : inflight_) {
    (void)tid;
    if (TxIsRecovering(tx, cfg)) {
      tx->MarkRecovering();
    }
  }

  lease_->OnNewConfig();

  if (from != id()) {
    messenger_->Send(cfg.cm, NewConfigAck{cfg.id}, -1);
  }
}

// ---------------------------------------------------------------------------
// NEW-CONFIG-COMMIT: drain and start recovery (steps 2-3)
// ---------------------------------------------------------------------------

void Node::OnNewConfigCommit(ConfigId cid) {
  if (cid != config_.id || !machine_->alive()) {
    return;
  }
  BeginTransactionStateRecovery();
}

void Node::BeginTransactionStateRecovery() {
  emit_.Report(Step::kTxStateStart, config_.id);
  // Step 2: drain logs. Everything already delivered to our rings is
  // processed now; LastDrained is persisted to the control block that
  // reconfiguration probes read.
  messenger_->DrainAllNow();
  last_drained_ = config_.id > 0 ? config_.id - 1 : 0;
  std::memcpy(store_->Data(control_block_addr_, 8), &last_drained_, 8);

  region_recovery_.clear();

  // Step 3: identify recovering transactions from the non-truncated records
  // in our logs, grouped per hosted region.
  // Pass 1: per-transaction view. LOCK / COMMIT-BACKUP records carry the
  // written-region list and the writes; COMMIT-PRIMARY carries only the id,
  // so its strength is joined with the region list learned from the others.
  struct TxView {
    ReplicaTxState state;
    std::vector<RegionId> regions;
  };
  std::map<TxId, TxView> by_tx;
  for (const auto& [tid, records] : logged_) {
    for (const LoggedRecord& l : records) {
      const TxLogRecord& rec = l.rec;
      if (rec.type == LogRecordType::kAbort) {
        continue;
      }
      TxView& tv = by_tx[tid];
      const bool carries_writes =
          rec.type == LogRecordType::kLock || rec.type == LogRecordType::kCommitBackup;
      tv.state.Merge(StrengthOf(rec.type), carries_writes ? &rec : nullptr);
      if (carries_writes) {
        tv.regions = rec.written_regions;
      }
    }
  }

  // Recovery state that lives outside the inbound rings: lock records
  // replicated by a previous recovery round (step 5) and durable decision
  // memory (the paper's COMMIT-RECOVERY / ABORT-RECOVERY records). Without
  // these, a second failure during recovery can flip an outcome that was
  // already exposed to the application.
  for (const auto& [ptid, pend] : pending_) {
    if (truncated_.Contains(ptid)) {
      continue;
    }
    bool has_rec = !pend.lock_record.writes.empty();
    if (!has_rec && !pend.commit_recovered && !pend.abort_recovered) {
      continue;
    }
    TxView& tv = by_tx[ptid];
    if (has_rec) {
      tv.state.Merge(StrengthOf(pend.lock_record.type), &pend.lock_record);
      if (tv.regions.empty()) {
        tv.regions = pend.lock_record.written_regions;
      }
    }
    if (pend.commit_recovered) {
      tv.state.Merge(Vote::kCommitPrimary, nullptr);
    }
    if (pend.abort_recovered) {
      tv.state.saw_abort_recovery = true;
    }
  }

  // Pass 2: distribute per hosted region, keeping only that region's writes.
  std::map<RegionId, std::map<TxId, ReplicaTxState>> local;
  for (const auto& [tid, tv] : by_tx) {
    if (!tv.state.has_contents) {
      continue;  // only a CP/ABORT trace: regions unknown, nothing to recover
    }
    if (!IsRecoveringTx(tv.state.contents, config_)) {
      continue;
    }
    for (RegionId r : tv.regions) {
      const RegionPlacement* p = config_.Placement(r);
      if (p == nullptr || !p->Contains(id())) {
        continue;
      }
      auto [it, fresh] = local[r].try_emplace(tid, tv.state);
      if (fresh) {
        auto& ws = it->second.contents.writes;
        ws.erase(std::remove_if(ws.begin(), ws.end(),
                                [r](const WireWrite& w) { return w.addr.region != r; }),
                 ws.end());
      }
    }
  }

  // Primaries: set up per-region recovery state and wait for NEED-RECOVERY
  // from every backup. Backups: send NEED-RECOVERY to the primary.
  for (const auto& [rid, p] : config_.regions) {
    if (p.primary == id()) {
      RegionRecovery& rr = region_recovery_[rid];
      for (MachineId b : p.backups) {
        rr.backups_pending.insert(b);
      }
      auto lit = local.find(rid);
      if (lit != local.end()) {
        for (auto& [tid, state] : lit->second) {
          rr.txs[tid].merged.Merge(state.strength,
                                   state.has_contents ? &state.contents : nullptr);
        }
      }
      MaybeStartLockRecovery(rid);
    } else if (p.Contains(id())) {
      // I back this region: report my recovering transactions.
      NeedRecovery msg{config_.id, rid, {}};
      auto lit = local.find(rid);
      if (lit != local.end()) {
        for (auto& [tid, state] : lit->second) {
          msg.txs.push_back({tid, state.strength, state.saw_abort_recovery, state.has_contents});
        }
      }
      messenger_->Send(p.primary, msg, -1);
    }
  }

  // Coordinator side: decisions for our own in-flight recovering
  // transactions; votes will arrive from the regions' primaries (explicitly
  // requested after the vote timeout if needed).
  for (auto& [tid, tx] : inflight_) {
    if (!tx->marked_recovering() || decisions_.count(tid) != 0) {
      continue;
    }
    DecisionState& d = decisions_[tid];
    for (const auto& [addr, w] : tx->writes_) {
      (void)w;
      d.regions.insert(addr.region);
    }
    if (d.regions.empty()) {
      // Read-only (or read-validation pending): no participant holds state;
      // abort is always safe because nothing was exposed.
      Decide(tid, false);
    } else {
      stats_.recovering_txs_seen++;
      ArmVoteTimer(tid);
    }
  }

  // Ship full allocator block headers for regions whose replica set changed
  // (new primaries/backups need them for recovery; section 5.5), even when
  // no block is formatted yet.
  for (const auto& [rid, p] : config_.regions) {
    if (p.primary != id() || p.last_replica_change != config_.id) {
      continue;
    }
    RegionAllocator* alloc = allocator(rid);
    if (alloc == nullptr) {
      continue;
    }
    const auto& payloads = alloc->block_slot_payloads();
    std::vector<RegionAllocator::BlockHeader> headers;
    for (uint32_t b = 0; b < payloads.size(); b++) {
      if (payloads[b] != 0) {
        headers.push_back({b, payloads[b]});
      }
    }
    SendBlockHeaders(rid, std::move(headers));
  }

  CheckAllRegionsActive();
}

// ---------------------------------------------------------------------------
// NEED-RECOVERY / lock recovery (step 4) / log replication (step 5)
// ---------------------------------------------------------------------------

void Node::HandleNeedRecovery(MachineId from, const NeedRecovery& m) {
  if (m.config != config_.id) {
    return;
  }
  auto it = region_recovery_.find(m.region);
  if (it == region_recovery_.end()) {
    return;
  }
  RegionRecovery& rr = it->second;
  for (const RecoveringTx& rt : m.txs) {
    RegionRecoveryTx& t = rr.txs[rt.tx];
    t.merged.Merge(rt.strength, nullptr);
    t.merged.saw_abort_recovery = t.merged.saw_abort_recovery || rt.saw_abort_recovery;
    if (rt.has_contents) {
      t.backups_with_state.insert(from);
    }
  }
  // Backups that reported nothing for a transaction other backups know
  // about still need the replicated state; recompute when all reports are in.
  rr.backups_pending.erase(from);
  MaybeStartLockRecovery(m.region);
}

void Node::MaybeStartLockRecovery(RegionId region) {
  auto it = region_recovery_.find(region);
  if (it == region_recovery_.end() || !it->second.backups_pending.empty() ||
      it->second.lock_recovery_done) {
    return;
  }
  it->second.lock_recovery_done = true;
  FinishLockRecovery(region);
}

Detached Node::FinishLockRecovery(RegionId region) {
  Span lock_rec_span(emit_, Step::kLockRecovery, region);
  auto rit = region_recovery_.find(region);
  if (rit == region_recovery_.end()) {
    co_return;
  }
  const RegionPlacement* placement = config_.Placement(region);
  if (placement == nullptr) {
    co_return;
  }
  std::vector<MachineId> backups = placement->backups;

  // Fetch lock-record contents we lack from a backup that has them.
  for (auto& [tid, t] : rit->second.txs) {
    if (t.merged.has_contents || t.backups_with_state.empty()) {
      continue;
    }
    for (MachineId b : t.backups_with_state) {
      auto reply =
          co_await Request(b, FetchTxState{config_.id, region, tid}, 0, 20 * kMillisecond);
      if (reply.ok()) {
        t.merged.contents = std::move(*reply);
        t.merged.has_contents = true;
        break;
      }
    }
  }

  // The fetch loop above suspended, so `rit` may have been invalidated by a
  // concurrent reconfiguration erasing the recovery state. Re-resolve it.
  rit = region_recovery_.find(region);
  if (rit == region_recovery_.end()) {
    co_return;
  }

  // Lock recovery: lock every object modified by a recovering transaction.
  RegionReplica* rep = replica(region);
  if (rep == nullptr) {
    co_return;
  }
  HwThread& thread0 = machine_->thread(0);
  for (auto& [tid, t] : rit->second.txs) {
    (void)tid;
    if (!t.merged.has_contents) {
      continue;
    }
    for (const WireWrite& w : t.merged.contents.writes) {
      if (w.addr.region != region) {
        continue;
      }
      thread0.InjectBusy(kCost.cpu_lock_per_object);
      uint64_t current = rep->ReadHeader(w.addr.offset);
      if (VersionWord::Version(current) == w.expected_version &&
          !VersionWord::IsLocked(current)) {
        rep->WriteHeader(w.addr.offset, VersionWord::WithLock(w.ExpectedWord()));
      }
    }
  }

  // The region becomes active: new transactions may read and commit here in
  // parallel with the remaining recovery steps (section 5.3 performance).
  rep->set_active(true);
  emit_.Report(Step::kLockRecoveryDone, region);
  auto dit = deferred_refs_.find(region);
  if (dit != deferred_refs_.end()) {
    for (const auto& [m, correlation] : dit->second) {
      Respond(m, correlation, RefRequest::Reply{rep->base()});
    }
    deferred_refs_.erase(dit);
  }
  CheckAllRegionsActive();

  // Step 5: replicate log records to backups that miss them, then vote.
  for (auto& [tid, t] : rit->second.txs) {
    std::set<MachineId> missing;
    for (MachineId b : backups) {
      if (t.backups_with_state.count(b) == 0) {
        missing.insert(b);
      }
    }
    if (!t.merged.has_contents) {
      missing.clear();
    }
    t.replicate_acks_pending = static_cast<int>(missing.size());
    if (!missing.empty()) {
      const ReplicateTxState msg{config_.id, region, tid, t.merged.contents};
      for (MachineId b : missing) {
        messenger_->Send(b, msg, -1);
      }
    }
  }
  SendVotesForRegion(region);
}

void Node::HandleFetchTxState(MachineId from, const Correlated<FetchTxState>& req) {
  const FetchTxState& m = req.body;
  // The last kept LOCK/COMMIT-BACKUP record for this transaction.
  const TxLogRecord* found = nullptr;
  auto it = logged_.find(m.tx);
  if (it != logged_.end()) {
    for (const LoggedRecord& l : it->second) {
      if (l.rec.type == LogRecordType::kLock || l.rec.type == LogRecordType::kCommitBackup) {
        found = &l.rec;
      }
    }
  }
  if (found == nullptr) {
    Respond(from, req.correlation, NotFoundStatus("no state for tx"));
    return;
  }
  TxLogRecord copy = *found;
  std::erase_if(copy.writes, [&m](const WireWrite& w) { return w.addr.region != m.region; });
  copy.truncate_ids.clear();
  Respond(from, req.correlation, copy);
}

void Node::HandleReplicateTxState(MachineId from, ReplicateTxState m) {
  if (m.config == config_.id) {
    // Store the state as a synthetic pending entry so a future promotion of
    // this backup can recover it.
    auto& pending = pending_[m.tx];
    if (pending.lock_record.writes.empty()) {
      pending.lock_record = std::move(m.record);
    }
  }
  messenger_->Send(from, ReplicateTxStateAck{m.config, m.region, m.tx}, -1);
}

void Node::HandleReplicateTxStateAck(const ReplicateTxStateAck& m) {
  if (m.config != config_.id) {
    return;
  }
  auto it = region_recovery_.find(m.region);
  if (it == region_recovery_.end()) {
    return;
  }
  auto tit = it->second.txs.find(m.tx);
  if (tit == it->second.txs.end()) {
    return;
  }
  if (tit->second.replicate_acks_pending > 0) {
    tit->second.replicate_acks_pending--;
  }
  SendVotesForRegion(m.region);
}

// ---------------------------------------------------------------------------
// Voting (step 6)
// ---------------------------------------------------------------------------

Vote Node::ComputeVote(const RegionRecoveryTx& t) const {
  if (t.merged.strength == Vote::kCommitPrimary) {
    return Vote::kCommitPrimary;
  }
  if (t.merged.strength == Vote::kCommitBackup && !t.merged.saw_abort_recovery) {
    return Vote::kCommitBackup;
  }
  if (t.merged.strength == Vote::kLock && !t.merged.saw_abort_recovery) {
    return Vote::kLock;
  }
  return Vote::kAbort;
}

MachineId Node::RecoveryCoordinatorFor(const TxId& tid) const {
  if (config_.Contains(tid.machine)) {
    return tid.machine;  // the coordinator did not change
  }
  // Spread the failed coordinator's transactions across the cluster.
  ConsistentHashRing ring;
  for (MachineId m : config_.machines) {
    ring.AddNode(m);
  }
  return static_cast<MachineId>(ring.Owner(tid.Hash()));
}

void Node::SendVotesForRegion(RegionId region) {
  auto it = region_recovery_.find(region);
  if (it == region_recovery_.end() || !it->second.lock_recovery_done) {
    return;
  }
  // Snapshot first: a locally-handled vote can decide synchronously and
  // erase entries from the map being iterated (TRUNCATE-RECOVERY).
  std::vector<RecoveryVote> out;
  for (auto& [tid, t] : it->second.txs) {
    if (t.voted || t.replicate_acks_pending > 0) {
      continue;
    }
    t.voted = true;
    out.push_back({config_.id, region, tid, t.merged.contents.written_regions, ComputeVote(t)});
  }
  for (const RecoveryVote& v : out) {
    Deliver(RecoveryCoordinatorFor(v.tx), v);
  }
}

void Node::HandleRecoveryVote(const RecoveryVote& m) {
  if (m.config != config_.id) {
    return;
  }
  const TxId& tid = m.tx;
  auto [it, inserted] = decisions_.try_emplace(tid);
  DecisionState& d = it->second;
  if (inserted) {
    stats_.recovering_txs_seen++;
  }
  if (d.decided) {
    // Late vote after the decision: resend the outcome to that region's
    // replicas so it can finish.
    const RegionPlacement* p = config_.Placement(m.region);
    if (p != nullptr) {
      for (MachineId r : p->Replicas()) {
        if (r != id()) {
          SendDecision(r, tid, d.committed);
        }
      }
    }
    return;
  }
  d.regions.insert(m.written_regions.begin(), m.written_regions.end());
  auto& existing = d.votes[m.region];
  if (existing == Vote{} || Stronger(m.vote, existing)) {
    existing = m.vote;
  }
  if (!d.vote_timer_armed) {
    ArmVoteTimer(tid);
  }
  MaybeDecide(tid);
}

void Node::ArmVoteTimer(const TxId& tid) {
  auto it = decisions_.find(tid);
  if (it == decisions_.end() || it->second.vote_timer_armed) {
    return;
  }
  it->second.vote_timer_armed = true;
  it->second.timer_rounds = 0;
  sim().After(kVoteTimeout, [this, tid, cid = config_.id]() { VoteTimerTick(tid, cid); });
}

void Node::VoteTimerTick(const TxId& tid, ConfigId cid) {
  auto dit = decisions_.find(tid);
  if (dit == decisions_.end() || dit->second.decided || config_.id != cid ||
      !machine_->alive()) {
    return;
  }
  DecisionState& d = dit->second;
  d.timer_rounds++;
  if (d.timer_rounds > kMaxVoteTimerRounds) {
    // Regions never answered (lost or wedged): abort is the safe outcome
    // only if no region could have exposed the commit; a commit-primary
    // vote would have decided already, so abort here.
    Decide(tid, false);
    return;
  }
  // Explicit vote requests to regions that have not voted (step 6).
  for (RegionId r : d.regions) {
    if (d.votes.count(r) != 0) {
      continue;
    }
    const RegionPlacement* p = config_.Placement(r);
    if (p == nullptr) {
      d.votes[r] = Vote::kUnknown;
      continue;
    }
    Deliver(p->primary, RequestVote{config_.id, r, tid});
  }
  MaybeDecide(tid);
  if (!d.decided) {
    sim().After(kVoteTimeout, [this, tid, cid]() { VoteTimerTick(tid, cid); });
  }
}

void Node::HandleRequestVote(MachineId from, const RequestVote& m) {
  if (m.config != config_.id) {
    return;
  }
  auto it = region_recovery_.find(m.region);
  if (it != region_recovery_.end() && it->second.txs.count(m.tx) != 0) {
    RegionRecoveryTx& t = it->second.txs[m.tx];
    if (t.replicate_acks_pending > 0 || !it->second.lock_recovery_done) {
      return;  // vote after replication completes (SendVotesForRegion)
    }
    t.voted = true;
    Deliver(from, RecoveryVote{m.config, m.region, m.tx, t.merged.contents.written_regions,
                               ComputeVote(t)});
    return;
  }
  const Vote v = truncated_.Contains(m.tx) ? Vote::kTruncated : Vote::kUnknown;
  Deliver(from, RecoveryVote{m.config, m.region, m.tx, {}, v});
}

// ---------------------------------------------------------------------------
// Decision (step 7)
// ---------------------------------------------------------------------------

void Node::MaybeDecide(const TxId& tid) {
  auto it = decisions_.find(tid);
  if (it == decisions_.end() || it->second.decided) {
    return;
  }
  DecisionState& d = it->second;
  bool any_cb = false;
  bool all_truncated = !d.votes.empty();
  for (const auto& [r, v] : d.votes) {
    (void)r;
    if (v == Vote::kCommitPrimary) {
      Decide(tid, true);
      return;
    }
    if (v == Vote::kCommitBackup) {
      any_cb = true;
    }
    if (v != Vote::kTruncated) {
      all_truncated = false;
    }
  }
  // Otherwise wait for every region to vote.
  for (RegionId r : d.regions) {
    if (d.votes.count(r) == 0) {
      return;
    }
  }
  if (d.regions.empty()) {
    return;
  }
  if (all_truncated) {
    // Every region truncated: the transaction committed and fully applied.
    Decide(tid, true);
    return;
  }
  bool commit = any_cb;
  if (commit) {
    for (const auto& [r, v] : d.votes) {
      (void)r;
      if (v != Vote::kLock && v != Vote::kCommitBackup && v != Vote::kTruncated) {
        commit = false;
      }
    }
  }
  Decide(tid, commit);
}

void Node::Decide(const TxId& tid, bool commit) {
  auto it = decisions_.find(tid);
  if (it == decisions_.end() || it->second.decided) {
    return;
  }
  DecisionState& d = it->second;
  d.decided = true;
  d.committed = commit;
  LogTxScope log_tx(tid.config, tid.machine, tid.thread, tid.local);
  emit_.TxReport(tid, commit ? Step::kDecideCommit : Step::kDecideAbort);

  const std::set<MachineId> replicas = ReplicasOf(d.regions);
  // Count all acks before delivering anything: the local delivery below acks
  // synchronously, and an early zero would broadcast TRUNCATE-RECOVERY ahead
  // of the decision itself.
  d.acks_pending = static_cast<int>(replicas.size());
  // Remote replicas first: the local delivery can finish the decision.
  for (MachineId m : replicas) {
    if (m != id()) {
      SendDecision(m, tid, commit);
    }
  }
  if (replicas.empty()) {
    // No participant holds state (read-only abort): expose immediately.
    ResolveInflightByRecovery(tid, commit);
    return;
  }
  if (replicas.count(id()) != 0) {
    SendDecision(id(), tid, commit);
  }
}

void Node::SendDecision(MachineId dst, const TxId& tid, bool commit) {
  if (commit) {
    Deliver(dst, CommitRecovery{tid});
  } else {
    Deliver(dst, AbortRecovery{tid});
  }
}

// The application-visible outcome is exposed only once every participant has
// acknowledged the decision, i.e. once the decision memory is durable at all
// surviving replicas of the written regions. Exposing at decide time is
// unsound: if the recovery coordinator dies before any COMMIT-RECOVERY
// lands, a later recovery round can re-derive the opposite outcome from the
// surviving (weaker) evidence.
void Node::ResolveInflightByRecovery(const TxId& tid, bool commit) {
  auto iit = inflight_.find(tid);
  if (iit != inflight_.end()) {
    iit->second->ResolveByRecovery(commit);
  }
}

std::set<MachineId> Node::ReplicasOf(const std::set<RegionId>& regions) const {
  std::set<MachineId> out;
  for (RegionId r : regions) {
    const RegionPlacement* p = config_.Placement(r);
    if (p != nullptr) {
      out.insert(p->primary);
      out.insert(p->backups.begin(), p->backups.end());
    }
  }
  return out;
}

void Node::HandleRecoveryDecision(MachineId from, const TxId& tid, bool commit) {
  LogTxScope log_tx(tid.config, tid.machine, tid.thread, tid.local);
  emit_.TxReport(tid, Step::kDecisionApply, commit ? 1 : 0);

  // Durable memory of the decision (the paper's COMMIT-RECOVERY /
  // ABORT-RECOVERY records). If this machine survives into a later
  // configuration whose recovery round re-identifies the transaction, the
  // memory keeps the outcome stable: a commit already exposed to the
  // application cannot flip to abort, and an applied abort cannot be
  // resurrected from a stale COMMIT-BACKUP record.
  {
    auto& mem = pending_[tid];
    if (commit) {
      mem.commit_recovered = true;
    } else {
      mem.abort_recovered = true;
    }
  }

  // Gather the lock-record contents we hold for this transaction.
  const TxLogRecord* contents = nullptr;
  auto pit = pending_.find(tid);
  if (pit != pending_.end() && !pit->second.lock_record.writes.empty()) {
    contents = &pit->second.lock_record;
  }
  std::vector<const TxLogRecord*> region_states;
  for (auto& [rid, rr] : region_recovery_) {
    (void)rid;
    auto tit = rr.txs.find(tid);
    if (tit != rr.txs.end() && tit->second.merged.has_contents) {
      region_states.push_back(&tit->second.merged.contents);
    }
  }
  if (contents == nullptr && region_states.empty()) {
    // Nothing to do here (e.g. we only coordinated).
    Deliver(from, RecoveryDecisionAck{tid});
    return;
  }

  // Commit installs the writes; abort releases the (recovery or normal)
  // locks, restoring the pre-transaction headers.
  auto apply = [&](const TxLogRecord& rec) {
    for (const WireWrite& w : rec.writes) {
      if (commit) {
        ApplyWrite(w);
      } else {
        Unlock(w);
      }
    }
  };
  if (contents != nullptr) {
    apply(*contents);
    pit->second.applied = commit;
    pit->second.locks_held = false;
  }
  for (const TxLogRecord* rec : region_states) {
    apply(*rec);
  }
  if (!commit) {
    // Remember ABORT-RECOVERY for future votes (section 5.3 step 6).
    for (auto& [rid, rr] : region_recovery_) {
      (void)rid;
      auto tit = rr.txs.find(tid);
      if (tit != rr.txs.end()) {
        tit->second.merged.saw_abort_recovery = true;
      }
    }
  }

  Deliver(from, RecoveryDecisionAck{tid});
}

void Node::OnRecoveryDecisionAck(MachineId from, const TxId& tid) {
  (void)from;
  auto it = decisions_.find(tid);
  if (it == decisions_.end() || !it->second.decided) {
    return;
  }
  DecisionState& d = it->second;
  if (d.acks_pending > 0) {
    d.acks_pending--;
  }
  if (d.acks_pending == 0) {
    // Decision durable at every participant: expose the outcome, then
    // TRUNCATE-RECOVERY to every replica.
    ResolveInflightByRecovery(tid, d.committed);
    const std::set<MachineId> replicas = ReplicasOf(d.regions);
    // The truncation carries the decision: after an abort, stale
    // COMMIT-BACKUP records must be discarded, not applied.
    for (MachineId m : replicas) {
      Deliver(m, TruncateRecovery{tid, d.committed});
    }
  }
}

void Node::HandleTruncateRecovery(const TruncateRecovery& m) {
  emit_.TxReport(m.tx, Step::kTruncateRecovery);
  ProcessTruncation(m.tx.machine, m.tx, /*apply_backup_writes=*/m.commit);
  for (auto& [rid, rr] : region_recovery_) {
    (void)rid;
    rr.txs.erase(m.tx);
  }
}

// ---------------------------------------------------------------------------
// REGIONS-ACTIVE
// ---------------------------------------------------------------------------

void Node::CheckAllRegionsActive() {
  if (regions_active_sent_) {
    return;
  }
  for (const auto& [rid, rep] : replicas_) {
    if (IsPrimaryOf(rid) && !rep->active()) {
      return;
    }
  }
  regions_active_sent_ = true;
  Deliver(config_.cm, RegionsActive{config_.id});
}

}  // namespace farm
