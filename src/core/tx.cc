#include "src/core/tx.h"

#include <algorithm>
#include <iterator>

#include "src/core/cluster.h"
#include "src/core/node.h"
#include "src/net/cost_model.h"

namespace farm {

namespace {

// Safety net: a commit phase still waiting after this long gives up and
// reports the transaction unresolved.
constexpr SimDuration kCommitResolutionTimeout = 500 * kMillisecond;

// t_r: a primary with at most this many objects to validate gets one-sided
// RDMA reads; above it, one validation RPC.
constexpr int kValidateRpcThreshold = 4;

// Reservation for a LOCK / COMMIT-BACKUP record carrying `writes`, with room
// for a full truncation piggyback.
uint32_t WriteRecordReservation(const std::vector<WireWrite>& writes, size_t regions) {
  return static_cast<uint32_t>(TxLogRecord::SizeFor(writes, regions, kMaxPiggyback));
}

// Finish's two commit outcomes, outside flight::AbortReason's values.
constexpr auto kCommitted = static_cast<flight::AbortReason>(0);
constexpr auto kRecoveredCommit = static_cast<flight::AbortReason>(flight::kNumAbortReasons + 1);

// When an exit hands back the transaction's reserved allocation slots.
enum class Release : uint8_t {
  kLater,         // never (committed) or in the destructor (unresolved)
  kBeforeRecord,  // before the kAbort flight record
  kAfterRecord,   // after it
};

// What each outcome of a commit attempt does, indexed by the outcome.
struct ExitRule {
  bool committed;                // counts tx_committed; otherwise writes kAbort
  uint64_t NodeStats::*counter;  // the outcome's own counter, if any
  bool abort_participants;       // writes ABORT to primaries holding LOCK records
  Release release;
};
constexpr ExitRule kExitRules[] = {
    {true, nullptr, false, Release::kLater},                                 // committed
    {false, &NodeStats::tx_aborted_lock, true, Release::kBeforeRecord},      // lock_conflict
    {false, &NodeStats::tx_aborted_validate, true, Release::kBeforeRecord},  // validate_conflict
    {false, &NodeStats::tx_aborted_lock, false, Release::kBeforeRecord},     // no_placement
    {false, &NodeStats::tx_aborted_lock, false, Release::kBeforeRecord},     // log_reservation
    {false, &NodeStats::tx_recovered_abort, false, Release::kAfterRecord},   // recovery_abort
    // unresolved_lock, unresolved_backup_ack, unresolved_backup_failure, unresolved_primary_ack
    {false, &NodeStats::tx_unresolved, false, Release::kLater},
    {false, &NodeStats::tx_unresolved, false, Release::kLater},
    {false, &NodeStats::tx_unresolved, false, Release::kLater},
    {false, &NodeStats::tx_unresolved, false, Release::kLater},
    {true, &NodeStats::tx_recovered_commit, false, Release::kLater},         // recovered commit
};
static_assert(std::size(kExitRules) == flight::kNumAbortReasons + 2);

}  // namespace

Transaction::Transaction(Node* node, int thread)
    : node_(node),
      thread_(thread),
      begin_time_(node->sim().Now()) {}

Transaction::~Transaction() {
  *alive_ = false;
  if (registered_) {
    node_->UnregisterInflight(id_);
  }
  if (!committed_) {
    // An abandoned or aborted transaction returns its reserved slots.
    ReleaseAllocs();
  }
}

// ---------------------------------------------------------------------------
// Execution phase
// ---------------------------------------------------------------------------

Task<StatusOr<std::vector<uint8_t>>> Transaction::Read(GlobalAddr addr, uint32_t size) {
  FARM_CHECK(!commit_started_) << "Read after Commit";
  // Read-your-writes.
  auto wit = writes_.find(addr);
  if (wit != writes_.end() && !wit->second.value.empty()) {
    co_return wit->second.value.ToVector();
  }
  // Successive reads of the same object return the same data (section 3).
  auto rit = reads_.find(addr);
  if (rit != reads_.end()) {
    co_return rit->second.value;
  }

  const SimTime read_start = node_->sim().Now();
  std::optional<Node::RegionRef> ref = node_->CachedRef(addr.region);
  if (!ref) {
    auto resolved = co_await node_->ResolveRef(addr.region, thread_);
    if (!resolved.ok()) {
      co_return resolved.status();
    }
    ref = *resolved;
  }
  uint64_t word = 0;
  std::vector<uint8_t> value;
  if (ref->primary == node_->id()) {
    RegionReplica* rep = node_->replica(addr.region);
    if (rep == nullptr) {
      co_return NotFoundStatus("region moved");
    }
    co_await node_->worker(thread_).Execute(kCost.cpu_tx_read_local);
    word = rep->ReadHeader(addr.offset);
    const uint8_t* p = rep->Ptr(addr.offset + kObjectHeaderBytes, size);
    value.assign(p, p + size);
  } else {
    if (!node_->InConfig(ref->primary)) {
      co_return UnavailableStatus("primary not in configuration");
    }
    NetResult r = co_await node_->fabric().Read(node_->id(), ref->primary,
                                                ref->base + addr.offset,
                                                kObjectHeaderBytes + size,
                                                &node_->worker(thread_));
    if (!r.status.ok()) {
      co_return r.status;
    }
    std::memcpy(&word, r.data.data(), 8);
    r.data.erase(r.data.begin(), r.data.begin() + 8);
    value = std::move(r.data);
  }
  // A locked object may be mid-commit by another transaction; we record the
  // unlocked view of the header. If the writer commits, the version moves
  // and our validation/locking aborts; if it aborts, the header reverts to
  // exactly this word.
  ReadEntry entry;
  entry.word = VersionWord::WithoutLock(word);
  entry.value = value;
  reads_.insert_or_assign(addr, std::move(entry));
  node_->emit().Report(Step::kRead, 0, read_start, thread_);
  co_return value;
}

Status Transaction::Write(GlobalAddr addr, std::vector<uint8_t> value) {
  FARM_CHECK(!commit_started_) << "Write after Commit";
  auto wit = writes_.find(addr);
  if (wit != writes_.end()) {
    if (wit->second.clear_alloc) {
      return Status(StatusCode::kFailedPrecondition, "write to freed object");
    }
    wit->second.value = SharedBytes(std::move(value));
    return OkStatus();
  }
  auto rit = reads_.find(addr);
  if (rit == reads_.end()) {
    return Status(StatusCode::kFailedPrecondition,
                  "write requires a prior read (or allocation) of the object");
  }
  WriteEntry e;
  e.expected_version = VersionWord::Version(rit->second.word);
  e.expected_alloc = VersionWord::IsAllocated(rit->second.word);
  e.value = SharedBytes(std::move(value));
  writes_.insert_or_assign(addr, std::move(e));
  return OkStatus();
}

Task<StatusOr<GlobalAddr>> Transaction::Alloc(RegionId region, uint32_t payload_size) {
  FARM_CHECK(!commit_started_) << "Alloc after Commit";
  auto slot = co_await node_->AllocSlot(region, payload_size, thread_);
  if (!slot.ok()) {
    co_return slot.status();
  }
  WriteEntry e;
  e.expected_version = VersionWord::Version(slot->header_word);
  e.expected_alloc = false;
  e.set_alloc = true;
  writes_.insert_or_assign(slot->addr, std::move(e));
  allocs_.push_back(slot->addr);
  co_return slot->addr;
}

Status Transaction::Free(GlobalAddr addr) {
  FARM_CHECK(!commit_started_) << "Free after Commit";
  auto rit = reads_.find(addr);
  if (rit == reads_.end()) {
    return Status(StatusCode::kFailedPrecondition, "free requires a prior read");
  }
  WriteEntry e;
  e.expected_version = VersionWord::Version(rit->second.word);
  e.expected_alloc = VersionWord::IsAllocated(rit->second.word);
  e.clear_alloc = true;
  writes_.insert_or_assign(addr, std::move(e));
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Commit protocol
// ---------------------------------------------------------------------------

void Transaction::WakePhase() {
  if (phase_armed_ && !phase_wake_.Ready()) {
    phase_wake_.Set(Unit{});
  }
}

Task<bool> Transaction::AwaitPhase() {
  phase_armed_ = true;
  auto woke = co_await AwaitWithTimeout(node_->sim(), phase_wake_, kCommitResolutionTimeout);
  phase_armed_ = false;
  phase_wake_ = Future<Unit>();  // fresh future for the next phase
  co_return woke.has_value();
}

void Transaction::OnLockReply(MachineId from, bool ok) {
  (void)from;
  if (lock_replies_pending_ <= 0) {
    return;  // stale (e.g. duplicate after recovery)
  }
  lock_all_ok_ = lock_all_ok_ && ok;
  if (--lock_replies_pending_ == 0) {
    WakePhase();
  }
}

void Transaction::OnValidateReply(MachineId from, bool ok) {
  (void)from;
  if (validate_msgs_pending_ <= 0) {
    return;
  }
  validate_all_ok_ = validate_all_ok_ && ok;
  if (--validate_msgs_pending_ == 0) {
    WakePhase();
  }
}

void Transaction::ResolveByRecovery(bool committed) {
  if (recovery_resolution_.has_value()) {
    return;
  }
  recovery_resolution_ = committed;
  WakePhase();
}

StatusOr<Transaction::Participants> Transaction::BuildParticipants() const {
  Participants p;
  const Configuration& cfg = node_->config();
  for (const auto& [addr, w] : writes_) {
    const RegionPlacement* placement = cfg.Placement(addr.region);
    if (placement == nullptr) {
      return NotFoundStatus("written region has no placement");
    }
    p.written_regions.push_back(addr.region);
    WireWrite ww;
    ww.addr = addr;
    ww.expected_version = w.expected_version;
    ww.expected_alloc = w.expected_alloc;
    ww.set_alloc = w.set_alloc;
    ww.clear_alloc = w.clear_alloc;
    ww.value = w.value;
    p.primary_writes.try_emplace(placement->primary).first->second.push_back(ww);
    p.all_holders.push_back(placement->primary);
    for (MachineId b : placement->backups) {
      p.backup_writes.try_emplace(b).first->second.push_back(ww);
      p.all_holders.push_back(b);
    }
  }
  for (auto* ids : {&p.written_regions, &p.all_holders}) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }
  return p;
}

TxLogRecord Transaction::MakeRecord(LogRecordType type, MachineId dst,
                                    const std::vector<WireWrite>* writes,
                                    const std::vector<RegionId>& regions) const {
  TxLogRecord rec;
  rec.type = type;
  rec.tx = id_;
  rec.written_regions = regions;
  if (writes != nullptr) {
    rec.writes = *writes;
  }
  rec.truncate_ids = node_->TakeTruncationsFor(dst, kMaxPiggyback);
  return rec;
}

bool Transaction::ReserveLogs(const Participants& p) {
  // Reserve space for every record the commit may write -- LOCK +
  // COMMIT-PRIMARY/ABORT at primaries, COMMIT-BACKUP at backups, plus
  // truncation piggyback room -- before the protocol starts (section 4).
  struct Taken {
    MachineId m;
    uint32_t len;
  };
  std::vector<Taken> taken;
  auto reserve = [&](MachineId m, uint32_t len) {
    if (!node_->messenger().ReserveLog(m, len)) {
      return false;
    }
    taken.push_back({m, len});
    return true;
  };
  const size_t regions = p.written_regions.size();
  bool ok = true;
  for (const auto& [m, writes] : p.primary_writes) {
    ok = ok && reserve(m, WriteRecordReservation(writes, regions));  // LOCK
    ok = ok && reserve(m, kSmallRecordReservation);                  // CP / ABORT
    ok = ok && reserve(m, kSmallRecordReservation);                  // TRUNCATE
    if (!ok) {
      break;
    }
  }
  if (ok) {
    for (const auto& [m, writes] : p.backup_writes) {
      ok = ok && reserve(m, WriteRecordReservation(writes, regions));  // CB
      ok = ok && reserve(m, kSmallRecordReservation);                  // TRUNCATE
      if (!ok) {
        break;
      }
    }
  }
  if (!ok) {
    for (const Taken& t : taken) {
      node_->messenger().ReleaseLogReservation(t.m, t.len);
    }
    return false;
  }
  return true;
}

Task<Status> Transaction::Commit() {
  FARM_CHECK(!commit_started_) << "Commit called twice";
  commit_started_ = true;
  const NodeOptions& opts = node_->options();

  // Read-only transactions: validation only, no logging (section 4:
  // serialization point is the last read).
  id_ = node_->NextTxId(thread_);
  node_->RegisterInflight(this);
  registered_ = true;

  // The execute phase ran from Begin() to here; the id only exists now, so
  // its begin record is stamped retroactively (the postmortem merge sorts by
  // time, not append order).
  Emitter& emit = node_->emit();
  emit.PhaseSince(id_, flight::Phase::kExecute, begin_time_);
  Span commit_span(emit, Step::kCommit, 0, id_, thread_);

  co_await node_->worker(thread_).Execute(kCost.cpu_tx_commit_setup);

  if (writes_.empty()) {
    Span validate(emit, id_, thread_, flight::Phase::kValidate);
    Status v = co_await ValidatePhase();
    if (recovery_resolution_.has_value()) {
      // A reconfiguration changed a read region's primary mid-validation;
      // recovery decided the outcome (always abort for read-only: there is
      // no log record to attest to the validation).
      co_return FinishFromRecovery();
    }
    if (!v.ok()) {
      co_return Finish(flight::AbortReason::kValidateConflict, std::move(v));
    }
    validate.End();
    co_return Finish(kCommitted, OkStatus());
  }

  auto participants = BuildParticipants();
  if (!participants.ok()) {
    co_return Finish(flight::AbortReason::kNoPlacement, participants.status());
  }
  Participants& p = *participants;

  if (!ReserveLogs(p)) {
    co_return Finish(flight::AbortReason::kLogReservation,
                     Status(StatusCode::kResourceExhausted, "log reservation failed"));
  }

  // ---- Phase 1: LOCK ----
  {
    Span lock(emit, id_, thread_, flight::Phase::kLock);
    lock_replies_pending_ = static_cast<int>(p.primary_writes.size());
    lock_all_ok_ = true;
    for (const auto& [m, writes] : p.primary_writes) {
      // Each record consumes exactly the reservation ReserveLogs took for it.
      TxLogRecord rec = MakeRecord(LogRecordType::kLock, m, &writes, p.written_regions);
      uint32_t reserved = WriteRecordReservation(writes, p.written_regions.size());
      (void)node_->messenger().AppendLog(m, rec, reserved, thread_);
    }
    // NSDI'14-protocol ablation: LOCK records also go to backups (and are
    // simply stored); the optimized protocol eliminates them.
    if (opts.backup_lock_records) {
      for (const auto& [m, writes] : p.backup_writes) {
        TxLogRecord rec = MakeRecord(LogRecordType::kLock, m, &writes, p.written_regions);
        uint32_t len = static_cast<uint32_t>(rec.SerializedSize());
        if (node_->messenger().ReserveLog(m, len)) {
          (void)node_->messenger().AppendLog(m, rec, len, thread_);
        }
      }
    }

    bool woke = co_await AwaitPhase();
    if (recovery_resolution_.has_value()) {
      co_return FinishFromRecovery();
    }
    if (!woke) {
      co_return Finish(flight::AbortReason::kUnresolvedLock,
                       UnavailableStatus("commit unresolved: lock phase"));
    }
    if (!lock_all_ok_) {
      co_return Finish(flight::AbortReason::kLockConflict, AbortedStatus("lock conflict"), &p);
    }
    lock.End();
  }

  // ---- Phase 2: VALIDATE (one-sided reads; RPC above threshold t_r) ----
  {
    Span validate(emit, id_, thread_, flight::Phase::kValidate);
    Status v = co_await ValidatePhase();
    if (recovery_resolution_.has_value()) {
      co_return FinishFromRecovery();
    }
    if (!v.ok()) {
      co_return Finish(flight::AbortReason::kValidateConflict, std::move(v), &p);
    }
    validate.End();
  }

  // ---- Phase 3: COMMIT-BACKUP (one-sided writes; wait for NIC acks) ----
  {
    Span commit_backup(emit, id_, thread_, flight::Phase::kCommitBackup);
    WaitGroup wg;
    auto all_ok = std::make_shared<bool>(true);
    for (const auto& [m, writes] : p.backup_writes) {
      TxLogRecord rec = MakeRecord(LogRecordType::kCommitBackup, m, &writes,
                                   p.written_regions);
      uint32_t reserved = WriteRecordReservation(writes, p.written_regions.size());
      wg.Add();
      auto alive = alive_;
      node_->messenger()
          .AppendLog(m, rec, reserved, thread_)
          .OnReady([wg, all_ok, alive, this](NetResult& r) {
            if (!r.status.ok()) {
              *all_ok = false;
            }
            wg.Done();
            // Under the skip-backup-ack ablation nobody waits on this phase;
            // waking would spuriously rouse the COMMIT-PRIMARY await.
            if (*alive && wg.pending() == 0 && !node_->options().chaos_skip_backup_ack) {
              WakePhase();
            }
          });
    }
    // Chaos-only ablation: race ahead to COMMIT-PRIMARY without waiting for
    // the backup hardware acks. This is the protocol bug the chaos oracle
    // must catch (see NodeOptions::chaos_skip_backup_ack).
    if (wg.pending() > 0 && !node_->options().chaos_skip_backup_ack) {
      bool woke2 = co_await AwaitPhase();
      if (recovery_resolution_.has_value()) {
        co_return FinishFromRecovery();
      }
      if (!woke2) {
        co_return Finish(flight::AbortReason::kUnresolvedBackupAck,
                         UnavailableStatus("commit unresolved: backup acks"));
      }
    }
    // Serializability across failures requires ALL backup acks before any
    // COMMIT-PRIMARY is written (section 4, correctness). A missing ack
    // means a failure: wait for recovery to decide the outcome.
    if (!node_->options().chaos_skip_backup_ack && (!*all_ok || marked_recovering_)) {
      bool resolved = co_await AwaitPhase();
      if (recovery_resolution_.has_value()) {
        co_return FinishFromRecovery();
      }
      (void)resolved;
      co_return Finish(flight::AbortReason::kUnresolvedBackupFailure,
                       UnavailableStatus("commit unresolved: backup failure"));
    }
    commit_backup.End();
  }

  // ---- Phase 4: COMMIT-PRIMARY (report committed on the first ack) ----
  {
    Span commit_primary(emit, id_, thread_, flight::Phase::kCommitPrimary);
    struct CpState {
      int pending = 0;
      bool any_ok = false;
      Node* node = nullptr;
      TxId id;
      std::vector<MachineId> holders;
      // Truncate-slot reservations were taken per role (a machine can be
      // both a primary and a backup); releases must mirror that exactly.
      std::vector<MachineId> reserved_slots;
    };
    auto cp = std::make_shared<CpState>();
    cp->pending = static_cast<int>(p.primary_writes.size());
    cp->node = node_;
    cp->id = id_;
    cp->holders = p.all_holders;
    for (const auto& [m, writes] : p.primary_writes) {
      (void)writes;
      cp->reserved_slots.push_back(m);
    }
    for (const auto& [m, writes] : p.backup_writes) {
      (void)writes;
      cp->reserved_slots.push_back(m);
    }
    for (const auto& [m, writes] : p.primary_writes) {
      (void)writes;
      // COMMIT-PRIMARY carries only the transaction id (Table 1).
      TxLogRecord rec = MakeRecord(LogRecordType::kCommitPrimary, m, nullptr, {});
      auto alive = alive_;
      node_->messenger()
          .AppendLog(m, rec, kSmallRecordReservation, thread_)
          .OnReady([cp, alive, this](NetResult& r) {
            cp->pending--;
            // Hardware acks are rejected once the transaction is recovering.
            bool recovering = *alive && marked_recovering_;
            if (r.status.ok() && !cp->any_ok && !recovering) {
              cp->any_ok = true;
              if (*alive) {
                WakePhase();  // first hardware ack: report committed
              }
            }
            if (cp->pending == 0 && cp->any_ok && !recovering) {
              // All primaries acked: the coordinator may lazily truncate.
              // The per-role TRUNCATE reservations are handed back; the
              // flush path re-reserves when it actually writes records.
              for (MachineId h : cp->reserved_slots) {
                cp->node->messenger().ReleaseLogReservation(h, kSmallRecordReservation);
              }
              cp->node->QueueTruncation(cp->id, cp->holders);
            }
          });
    }
    if (!cp->any_ok) {
      bool woke3 = co_await AwaitPhase();
      if (recovery_resolution_.has_value()) {
        co_return FinishFromRecovery();
      }
      if (!woke3 || !cp->any_ok) {
        co_return Finish(flight::AbortReason::kUnresolvedPrimaryAck,
                         UnavailableStatus("commit unresolved: primary acks"));
      }
    }
    commit_primary.End();
  }

  co_return Finish(kCommitted, OkStatus());
}

Status Transaction::Finish(flight::AbortReason outcome, Status status, const Participants* p) {
  // Kept orders (each append is a fault point): ABORT records to the
  // participants, then the slot releases, then the kAbort flight record --
  // except that a recovery abort writes its record before releasing.
  const ExitRule& rule = kExitRules[static_cast<int>(outcome)];
  LogTxScope log_tx(id_.config, id_.machine, id_.thread, id_.local);
  if (registered_) {
    node_->UnregisterInflight(id_);
    registered_ = false;
  }
  if (rule.abort_participants && p != nullptr) {
    AbortParticipants(*p);
  }
  if (rule.release == Release::kBeforeRecord) {
    ReleaseAllocs();
  }
  NodeStats& stats = node_->stats_;
  if (rule.counter != nullptr) {
    stats.*rule.counter += 1;
  }
  if (rule.committed) {
    committed_ = true;
    stats.tx_committed++;
  } else {
    node_->emit().Abort(id_, outcome);
  }
  if (rule.release == Release::kAfterRecord) {
    ReleaseAllocs();
  }
  return status;
}

Status Transaction::FinishFromRecovery() {
  if (*recovery_resolution_) {
    return Finish(kRecoveredCommit, OkStatus());
  }
  return Finish(flight::AbortReason::kRecoveryAbort, AbortedStatus("aborted by recovery"));
}

Task<Status> Transaction::ValidatePhase() {
  // Group read-only objects by primary.
  FlatMap<MachineId, std::vector<std::pair<GlobalAddr, uint64_t>>> by_primary;
  for (const auto& [addr, entry] : reads_) {
    if (writes_.count(addr) != 0) {
      continue;  // locking covers written objects
    }
    const RegionPlacement* placement = node_->config().Placement(addr.region);
    if (placement == nullptr) {
      co_return UnavailableStatus("read region lost");
    }
    by_primary.try_emplace(placement->primary).first->second.push_back({addr, entry.word});
  }
  if (by_primary.empty()) {
    co_return OkStatus();
  }

  validate_all_ok_ = true;
  validate_msgs_pending_ = 0;
  WaitGroup rdma_wg;
  auto rdma_ok = std::make_shared<bool>(true);

  for (auto& [m, entries] : by_primary) {
    if (static_cast<int>(entries.size()) <= kValidateRpcThreshold) {
      // One-sided RDMA reads of the header words: no CPU at the primary.
      for (auto& [addr, word] : entries) {
        if (m == node_->id()) {
          RegionReplica* rep = node_->replica(addr.region);
          if (rep == nullptr || rep->ReadHeader(addr.offset) != word) {
            *rdma_ok = false;
          }
          continue;
        }
        auto ref = co_await node_->ResolveRef(addr.region, thread_);
        if (!ref.ok()) {
          co_return ref.status();
        }
        rdma_wg.Add();
        uint64_t expected_word = word;
        auto alive = alive_;
        node_->fabric()
            .Read(node_->id(), m, ref->base + addr.offset, 8, &node_->worker(thread_))
            .OnReady([rdma_wg, rdma_ok, expected_word, alive, this](NetResult& r) {
              if (!r.status.ok() || r.data.size() != 8) {
                *rdma_ok = false;
              } else {
                uint64_t current;
                std::memcpy(&current, r.data.data(), 8);
                if (current != expected_word) {
                  *rdma_ok = false;
                }
              }
              rdma_wg.Done();
              if (*alive && rdma_wg.pending() == 0) {
                WakePhase();
              }
            });
      }
    } else {
      // Validation over RPC (the VALIDATE message) above t_r objects.
      BufWriter w;
      PutTxId(w, id_);
      w.PutU32(static_cast<uint32_t>(entries.size()));
      for (auto& [addr, word] : entries) {
        PutAddr(w, addr);
        w.PutU64(word);
      }
      validate_msgs_pending_++;
      node_->messenger().SendMessage(m, MsgType::kValidate, w.Take(), thread_);
    }
  }

  while (rdma_wg.pending() > 0 || validate_msgs_pending_ > 0) {
    bool woke = co_await AwaitPhase();
    if (recovery_resolution_.has_value()) {
      co_return OkStatus();  // outcome handled by the caller
    }
    if (!woke) {
      co_return UnavailableStatus("validation unresolved");
    }
  }
  if (!*rdma_ok || !validate_all_ok_) {
    co_return AbortedStatus("validation conflict");
  }
  co_return OkStatus();
}

void Transaction::AbortParticipants(const Participants& p) {
  for (const auto& [m, writes] : p.primary_writes) {
    (void)writes;
    TxLogRecord rec = MakeRecord(LogRecordType::kAbort, m, nullptr, {});
    (void)node_->messenger().AppendLog(m, rec, kSmallRecordReservation, thread_);
  }
  // Backups never saw a record for this transaction; release their
  // COMMIT-BACKUP and TRUNCATE reservations.
  for (const auto& [m, writes] : p.backup_writes) {
    node_->messenger().ReleaseLogReservation(
        m, WriteRecordReservation(writes, p.written_regions.size()));
    node_->messenger().ReleaseLogReservation(m, kSmallRecordReservation);
  }
  for (const auto& [m, writes] : p.primary_writes) {
    (void)writes;
    node_->messenger().ReleaseLogReservation(m, kSmallRecordReservation);  // TRUNCATE slot
  }
  // The aborted transaction's LOCK/ABORT records still get truncated.
  std::vector<MachineId> primaries;
  primaries.reserve(p.primary_writes.size());
  for (const auto& [m, writes] : p.primary_writes) {
    (void)writes;
    primaries.push_back(m);
  }
  node_->QueueTruncation(id_, primaries);
}

void Transaction::ReleaseAllocs() {
  for (const GlobalAddr& addr : allocs_) {
    node_->ReleaseAllocSlot(addr, thread_);
  }
  allocs_.clear();
}

}  // namespace farm
