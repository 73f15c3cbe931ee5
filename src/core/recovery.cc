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
      BufWriter w;
      w.PutU64(new_config.id);
      messenger_->SendMessage(from, MsgType::kNewConfigAck, w.Take(), -1);
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
    BufWriter w;
    w.PutU64(cfg.id);
    messenger_->SendMessage(cfg.cm, MsgType::kNewConfigAck, w.Take(), -1);
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
      BufWriter w;
      w.PutU64(config_.id);
      w.PutU32(rid);
      auto lit = local.find(rid);
      uint32_t n = lit == local.end() ? 0 : static_cast<uint32_t>(lit->second.size());
      w.PutU32(n);
      if (lit != local.end()) {
        for (auto& [tid, state] : lit->second) {
          PutTxId(w, tid);
          w.PutU8(static_cast<uint8_t>(state.strength));
          w.PutU8(state.saw_abort_recovery ? 1 : 0);
          w.PutU8(state.has_contents ? 1 : 0);
        }
      }
      messenger_->SendMessage(p.primary, MsgType::kNeedRecovery, w.Take(), -1);
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
    SendBlockHeaders(rid, headers);
  }

  CheckAllRegionsActive();
}

// ---------------------------------------------------------------------------
// NEED-RECOVERY / lock recovery (step 4) / log replication (step 5)
// ---------------------------------------------------------------------------

void Node::HandleNeedRecovery(MachineId from, BufReader& r) {
  ConfigId cid = r.GetU64();
  RegionId rid = r.GetU32();
  if (cid != config_.id) {
    return;
  }
  auto it = region_recovery_.find(rid);
  if (it == region_recovery_.end()) {
    return;
  }
  RegionRecovery& rr = it->second;
  uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n; i++) {
    TxId tid = GetTxId(r);
    Vote strength = static_cast<Vote>(r.GetU8());
    bool saw_abort = r.GetU8() != 0;
    bool has_contents = r.GetU8() != 0;
    RegionRecoveryTx& t = rr.txs[tid];
    t.merged.Merge(strength, nullptr);
    t.merged.saw_abort_recovery = t.merged.saw_abort_recovery || saw_abort;
    if (has_contents) {
      t.backups_with_state.insert(from);
    }
  }
  // Backups that reported nothing for a transaction other backups know
  // about still need the replicated state; recompute when all reports are in.
  rr.backups_pending.erase(from);
  MaybeStartLockRecovery(rid);
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
      BufWriter w;
      w.PutU64(config_.id);
      w.PutU32(region);
      PutTxId(w, tid);
      auto reply =
          co_await Request(b, MsgType::kFetchTxState, w.Take(), 0, 20 * kMillisecond);
      if (reply.ok() && !reply->empty()) {
        t.merged.contents = TxLogRecord::Parse(SharedBytes(std::move(*reply)));
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
      BufWriter w;
      w.PutU64(rep->base());
      Respond(m, correlation, OkStatus(), w.Take(), -1);
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
    for (MachineId b : missing) {
      BufWriter w;
      w.PutU64(config_.id);
      w.PutU32(region);
      PutTxId(w, tid);
      std::vector<uint8_t> rec_bytes = t.merged.contents.Serialize();
      w.PutBytes(rec_bytes.data(), rec_bytes.size());
      messenger_->SendMessage(b, MsgType::kReplicateTxState, w.Take(), -1);
    }
  }
  SendVotesForRegion(region);
}

void Node::HandleFetchTxState(MachineId from, BufReader& r) {
  uint64_t correlation = r.GetU64();
  ConfigId cid = r.GetU64();
  RegionId rid = r.GetU32();
  TxId tid = GetTxId(r);
  (void)cid;
  // The last kept LOCK/COMMIT-BACKUP record for this transaction.
  const TxLogRecord* found = nullptr;
  auto it = logged_.find(tid);
  if (it != logged_.end()) {
    for (const LoggedRecord& l : it->second) {
      if (l.rec.type == LogRecordType::kLock || l.rec.type == LogRecordType::kCommitBackup) {
        found = &l.rec;
      }
    }
  }
  if (found == nullptr) {
    Respond(from, correlation, NotFoundStatus("no state for tx"), {}, -1);
    return;
  }
  TxLogRecord copy = *found;
  copy.writes.erase(std::remove_if(copy.writes.begin(), copy.writes.end(),
                                   [rid](const WireWrite& w) { return w.addr.region != rid; }),
                    copy.writes.end());
  copy.truncate_ids.clear();
  Respond(from, correlation, OkStatus(), copy.Serialize(), -1);
}

void Node::HandleReplicateTxState(MachineId from, BufReader& r) {
  ConfigId cid = r.GetU64();
  RegionId rid = r.GetU32();
  TxId tid = GetTxId(r);
  auto bytes = r.GetBytes();
  if (cid == config_.id) {
    // Store the state as a synthetic pending entry so a future promotion of
    // this backup can recover it.
    TxLogRecord rec = TxLogRecord::Parse(SharedBytes(std::move(bytes)));
    auto& pending = pending_[tid];
    if (pending.lock_record.writes.empty()) {
      pending.lock_record = std::move(rec);
    }
  }
  BufWriter w;
  w.PutU64(cid);
  w.PutU32(rid);
  PutTxId(w, tid);
  messenger_->SendMessage(from, MsgType::kReplicateTxStateAck, w.Take(), -1);
}

void Node::HandleReplicateTxStateAck(MachineId from, BufReader& r) {
  (void)from;
  ConfigId cid = r.GetU64();
  RegionId rid = r.GetU32();
  TxId tid = GetTxId(r);
  if (cid != config_.id) {
    return;
  }
  auto it = region_recovery_.find(rid);
  if (it == region_recovery_.end()) {
    return;
  }
  auto tit = it->second.txs.find(tid);
  if (tit == it->second.txs.end()) {
    return;
  }
  if (tit->second.replicate_acks_pending > 0) {
    tit->second.replicate_acks_pending--;
  }
  SendVotesForRegion(rid);
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
  struct PendingVote {
    TxId tid;
    Vote vote;
    std::vector<RegionId> regions;
  };
  std::vector<PendingVote> out;
  for (auto& [tid, t] : it->second.txs) {
    if (t.voted || t.replicate_acks_pending > 0) {
      continue;
    }
    t.voted = true;
    out.push_back({tid, ComputeVote(t), t.merged.contents.written_regions});
  }
  for (const PendingVote& pv : out) {
    SendVote(RecoveryCoordinatorFor(pv.tid), region, pv.tid, pv.vote, pv.regions);
  }
}

void Node::SendVote(MachineId dst, RegionId region, const TxId& tid, Vote v,
                    const std::vector<RegionId>& written_regions) {
  BufWriter w;
  w.PutU64(config_.id);
  w.PutU32(region);
  PutTxId(w, tid);
  w.PutU32(static_cast<uint32_t>(written_regions.size()));
  for (RegionId r : written_regions) {
    w.PutU32(r);
  }
  w.PutU8(static_cast<uint8_t>(v));
  Deliver(dst, MsgType::kRecoveryVote, w.Take());
}

void Node::HandleRecoveryVote(MachineId from, BufReader& r) {
  ConfigId cid = r.GetU64();
  RegionId rid = r.GetU32();
  TxId tid = GetTxId(r);
  uint32_t n = r.GetU32();
  std::vector<RegionId> modified;
  for (uint32_t i = 0; i < n; i++) {
    modified.push_back(r.GetU32());
  }
  Vote v = static_cast<Vote>(r.GetU8());
  if (cid != config_.id) {
    return;
  }
  auto [it, inserted] = decisions_.try_emplace(tid);
  DecisionState& d = it->second;
  if (inserted) {
    stats_.recovering_txs_seen++;
  }
  if (d.decided) {
    // Late vote after the decision: resend the outcome to that region's
    // replicas so it can finish.
    const RegionPlacement* p = config_.Placement(rid);
    if (p != nullptr) {
      BufWriter w;
      PutTxId(w, tid);
      for (MachineId m : p->Replicas()) {
        if (m == id()) {
          continue;
        }
        messenger_->SendMessage(
            m, d.committed ? MsgType::kCommitRecovery : MsgType::kAbortRecovery, w.bytes(),
            -1);
      }
    }
    (void)from;
    return;
  }
  for (RegionId m : modified) {
    d.regions.insert(m);
  }
  auto& existing = d.votes[rid];
  if (existing == Vote{} || Stronger(v, existing)) {
    existing = v;
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
    BufWriter w;
    w.PutU64(config_.id);
    w.PutU32(r);
    PutTxId(w, tid);
    Deliver(p->primary, MsgType::kRequestVote, w.Take());
  }
  MaybeDecide(tid);
  if (!d.decided) {
    sim().After(kVoteTimeout, [this, tid, cid]() { VoteTimerTick(tid, cid); });
  }
}

void Node::HandleRequestVote(MachineId from, BufReader& r) {
  ConfigId cid = r.GetU64();
  RegionId rid = r.GetU32();
  TxId tid = GetTxId(r);
  if (cid != config_.id) {
    return;
  }
  auto it = region_recovery_.find(rid);
  if (it != region_recovery_.end() && it->second.txs.count(tid) != 0) {
    RegionRecoveryTx& t = it->second.txs[tid];
    if (t.replicate_acks_pending > 0 || !it->second.lock_recovery_done) {
      return;  // vote after replication completes (SendVotesForRegion)
    }
    t.voted = true;
    SendVote(from, rid, tid, ComputeVote(t), t.merged.contents.written_regions);
    return;
  }
  SendVote(from, rid, tid, truncated_.Contains(tid) ? Vote::kTruncated : Vote::kUnknown, {});
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
  BufWriter w;
  PutTxId(w, tid);
  std::vector<uint8_t> msg = w.Take();
  MsgType type = commit ? MsgType::kCommitRecovery : MsgType::kAbortRecovery;
  // Remote replicas first: the local delivery can finish the decision.
  for (MachineId m : replicas) {
    if (m != id()) {
      Deliver(m, type, msg);
    }
  }
  if (replicas.empty()) {
    // No participant holds state (read-only abort): expose immediately.
    ResolveInflightByRecovery(tid, commit);
    return;
  }
  if (replicas.count(id()) != 0) {
    Deliver(id(), type, std::move(msg));
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

void Node::HandleRecoveryDecision(MachineId from, MsgType type, BufReader& r) {
  TxId tid = GetTxId(r);
  bool commit = type == MsgType::kCommitRecovery;
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
    BufWriter w(kTxIdWireBytes);
    PutTxId(w, tid);
    Deliver(from, MsgType::kRecoveryDecisionAck, w.Take());
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

  BufWriter w(kTxIdWireBytes);
  PutTxId(w, tid);
  Deliver(from, MsgType::kRecoveryDecisionAck, w.Take());
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
    BufWriter w;
    PutTxId(w, tid);
    w.PutU8(d.committed ? 1 : 0);
    std::vector<uint8_t> msg = w.Take();
    // The last delivery takes the message; the others copy it.
    size_t left = replicas.size();
    for (MachineId m : replicas) {
      Deliver(m, MsgType::kTruncateRecovery, --left == 0 ? std::move(msg) : msg);
    }
  }
}

void Node::HandleTruncateRecovery(MachineId from, BufReader& r) {
  (void)from;
  TxId tid = GetTxId(r);
  bool commit = r.GetU8() != 0;
  emit_.TxReport(tid, Step::kTruncateRecovery);
  ProcessTruncation(tid.machine, tid, /*apply_backup_writes=*/commit);
  for (auto& [rid, rr] : region_recovery_) {
    (void)rid;
    rr.txs.erase(tid);
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
  BufWriter w;
  w.PutU64(config_.id);
  Deliver(config_.cm, MsgType::kRegionsActive, w.Take());
}

}  // namespace farm
