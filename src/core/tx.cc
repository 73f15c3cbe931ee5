#include "src/core/tx.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

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

// Finish's two commit outcomes, outside flight::AbortReason's values.
constexpr auto kCommitted = static_cast<flight::AbortReason>(0);
constexpr auto kRecoveredCommit = static_cast<flight::AbortReason>(flight::kNumAbortReasons + 1);

// When an exit hands back the transaction's reserved allocation slots.
enum class Release : uint8_t {
  kLater,         // never (committed) or in the destructor (unresolved)
  kBeforeRecord,  // before the kAbort flight record
  kAfterRecord,   // after it
};

// What each outcome of a commit attempt does, indexed by the outcome: committed,
// flight::AbortReason's reasons in their order, then the recovered commit.
struct ExitRule {
  bool committed;                // counts tx_committed; otherwise writes kAbort
  uint64_t NodeStats::*counter;  // the outcome's own counter, if any
  bool abort_participants;       // writes ABORT to primaries holding LOCK records
  Release release;
  const char* gave_up;           // the status message of a wait that ended unanswered
};
constexpr ExitRule kExitRules[] = {
    {true, nullptr, false, Release::kLater, nullptr},
    {false, &NodeStats::tx_aborted_lock, true, Release::kBeforeRecord, nullptr},
    {false, &NodeStats::tx_aborted_validate, true, Release::kBeforeRecord, "validation unresolved"},
    {false, &NodeStats::tx_aborted_lock, false, Release::kBeforeRecord, nullptr},
    {false, &NodeStats::tx_aborted_lock, false, Release::kBeforeRecord, nullptr},
    {false, &NodeStats::tx_recovered_abort, false, Release::kAfterRecord, nullptr},
    {false, &NodeStats::tx_unresolved, false, Release::kLater, "commit unresolved: lock phase"},
    {false, &NodeStats::tx_unresolved, false, Release::kLater, "commit unresolved: backup acks"},
    {false, &NodeStats::tx_unresolved, false, Release::kLater, "commit unresolved: backup failure"},
    {false, &NodeStats::tx_unresolved, false, Release::kLater, "commit unresolved: primary acks"},
    {true, &NodeStats::tx_recovered_commit, false, Release::kLater, nullptr},
};
static_assert(std::size(kExitRules) == flight::kNumAbortReasons + 2);

// The status of a wait that ended unanswered, reported as `outcome`.
Status GaveUp(flight::AbortReason outcome) {
  return UnavailableStatus(kExitRules[static_cast<int>(outcome)].gave_up);
}

}  // namespace

// The commit plan (section 4): who holds this commit's log records and the
// log space reserved for them. The coordinator reserves every record the
// commit may write before LOCK -- LOCK, COMMIT-PRIMARY or ABORT, and
// TRUNCATE at each primary; COMMIT-BACKUP and TRUNCATE at each backup -- and
// every reservation is consumed by its record's append or released, once,
// on every exit.
struct Transaction::CommitPlan {
  // A holder's reservations.
  enum Slot : uint8_t {
    kWrite,     // LOCK at a primary, COMMIT-BACKUP at a backup
    kOutcome,   // COMMIT-PRIMARY or ABORT (primaries only)
    kTruncate,  // TRUNCATE
    kNumSlots,
  };
  // One machine in one role, with the record that carries its writes.
  struct Holder {
    Holder(MachineId m, bool p) : machine(m), primary(p) {}
    MachineId machine;
    bool primary;
    uint32_t ring = 0;  // the ring the slots were reserved on
    // Bytes each slot holds: 0 before it is taken and once it is consumed
    // or released.
    uint32_t held[kNumSlots] = {};
    TxLogRecord record;  // its LOCK or COMMIT-BACKUP record, less piggyback
  };

  Node* node;
  TxId id;
  std::vector<RegionId> written_regions;  // sorted
  std::vector<MachineId> holders;         // every machine holding log records
  // Primaries in machine order, then backups in machine order.
  std::vector<Holder> entries;
  size_t primaries = 0;
  // COMMIT-PRIMARY acks outstanding, and whether any came back ok.
  int cp_pending = 0;
  bool cp_any_ok = false;

  std::span<Holder> Primaries() { return {entries.data(), primaries}; }
  std::span<Holder> Backups() { return std::span<Holder>(entries).subspan(primaries); }

  // Takes every slot, in entry order; all or nothing. The write record's
  // slot has room for a full truncation piggyback, which h.record does not
  // carry yet.
  bool Reserve() {
    for (Holder& h : entries) {
      const uint32_t bytes[kNumSlots] = {
          static_cast<uint32_t>(WireSize(h.record) + kMaxPiggyback * kTxIdWireBytes),
          h.primary ? kSmallRecordReservation : 0, kSmallRecordReservation};
      for (int s = 0; s < kNumSlots; s++) {
        if (bytes[s] == 0) {
          continue;
        }
        const uint32_t ring = node->messenger().ReserveLog(h.machine, bytes[s]);
        if (ring == 0) {
          ReleaseAll();
          return false;
        }
        h.ring = ring;
        h.held[s] = bytes[s];
      }
    }
    return true;
  }

  // Appends `rec` to `h`'s ring, consuming slot `s`.
  Future<NetResult> Append(Holder& h, Slot s, const TxLogRecord& rec, int thread) {
    FARM_CHECK(h.held[s] != 0) << "append without its reservation";
    return node->messenger().AppendLog(h.machine, rec, std::exchange(h.held[s], 0), thread);
  }

  // Releases every slot still held; a slot goes back at most once.
  void ReleaseAll() {
    for (Holder& h : entries) {
      for (uint32_t& bytes : h.held) {
        if (bytes != 0) {
          node->messenger().ReleaseLogReservation(h.machine, std::exchange(bytes, 0), h.ring);
        }
      }
    }
  }
};

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
  return node_->ReadObject(this, addr, size, thread_);
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
  BufferedWrite w;
  w.expected_version = VersionWord::Version(rit->second.word);
  w.expected_alloc = VersionWord::IsAllocated(rit->second.word);
  w.value = SharedBytes(std::move(value));
  writes_.insert_or_assign(addr, std::move(w));
  return OkStatus();
}

Task<StatusOr<GlobalAddr>> Transaction::Alloc(RegionId region, uint32_t payload_size) {
  FARM_CHECK(!commit_started_) << "Alloc after Commit";
  auto slot = co_await node_->AllocSlot(region, payload_size, thread_);
  if (!slot.ok()) {
    co_return slot.status();
  }
  BufferedWrite w;
  w.expected_version = VersionWord::Version(slot->header_word);
  w.expected_alloc = false;
  w.set_alloc = true;
  writes_.insert_or_assign(slot->addr, std::move(w));
  allocs_.push_back(slot->addr);
  co_return slot->addr;
}

Status Transaction::Free(GlobalAddr addr) {
  FARM_CHECK(!commit_started_) << "Free after Commit";
  auto rit = reads_.find(addr);
  if (rit == reads_.end()) {
    return Status(StatusCode::kFailedPrecondition, "free requires a prior read");
  }
  BufferedWrite w;
  w.expected_version = VersionWord::Version(rit->second.word);
  w.expected_alloc = VersionWord::IsAllocated(rit->second.word);
  w.clear_alloc = true;
  writes_.insert_or_assign(addr, std::move(w));
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

Task<std::optional<Status>> Transaction::AwaitPhase(flight::AbortReason on_timeout) {
  phase_armed_ = true;
  auto woke = co_await AwaitWithTimeout(node_->sim(), phase_wake_, kCommitResolutionTimeout);
  phase_armed_ = false;
  phase_wake_ = Future<Unit>();  // fresh future for the next phase
  co_return StepExit(on_timeout, woke.has_value() ? OkStatus() : GaveUp(on_timeout));
}

void Transaction::OnLockReply(bool ok) {
  if (lock_replies_pending_ <= 0) {
    return;  // stale (e.g. duplicate after recovery)
  }
  lock_all_ok_ = lock_all_ok_ && ok;
  if (--lock_replies_pending_ == 0) {
    WakePhase();
  }
}

void Transaction::OnValidateReply(bool ok) {
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

Status Transaction::BuildPlan() {
  auto plan = std::make_shared<CommitPlan>();
  plan->node = node_;
  plan->id = id_;
  const Configuration& cfg = node_->config();
  // The written regions and every machine holding records; writes_ is sorted
  // by address, so a region's writes are adjacent.
  size_t records = 0;  // holder records, counting a machine once per region
  for (const auto& entry : writes_) {
    const RegionId region = entry.first.region;
    if (!plan->written_regions.empty() && plan->written_regions.back() == region) {
      continue;
    }
    const RegionPlacement* placement = cfg.Placement(region);
    if (placement == nullptr) {
      return NotFoundStatus("written region has no placement");
    }
    plan->written_regions.push_back(region);
    plan->holders.push_back(placement->primary);
    plan->holders.insert(plan->holders.end(), placement->backups.begin(),
                         placement->backups.end());
    records += 1 + placement->backups.size();
  }
  std::sort(plan->holders.begin(), plan->holders.end());
  plan->holders.erase(std::unique(plan->holders.begin(), plan->holders.end()),
                      plan->holders.end());
  // One entry per holder record: a machine holds at most one as a primary
  // and one as a backup.
  plan->entries.reserve(std::min(records, 2 * plan->holders.size()));
  auto add = [&](MachineId m, bool primary, const WireWrite& w) {
    auto it = std::find_if(plan->entries.begin(), plan->entries.end(), [&](const auto& h) {
      return h.machine == m && h.primary == primary;
    });
    (it != plan->entries.end() ? *it : plan->entries.emplace_back(m, primary))
        .record.writes.push_back(w);
  };
  for (const auto& [addr, w] : writes_) {
    const WireWrite ww{w, addr};
    const RegionPlacement& placement = *cfg.Placement(addr.region);
    add(placement.primary, true, ww);
    for (MachineId b : placement.backups) {
      add(b, false, ww);
    }
  }
  std::sort(plan->entries.begin(), plan->entries.end(), [](const auto& a, const auto& b) {
    return a.primary != b.primary ? a.primary : a.machine < b.machine;
  });
  for (CommitPlan::Holder& h : plan->entries) {
    plan->primaries += h.primary ? 1 : 0;
    h.record.written_regions = plan->written_regions;
  }
  plan_ = std::move(plan);
  return OkStatus();
}

const TxLogRecord& Transaction::MakeRecord(TxLogRecord& rec, LogRecordType type,
                                           MachineId dst) const {
  rec.type = type;
  rec.tx = id_;
  rec.truncate_ids = node_->TakeTruncationsFor(dst, kMaxPiggyback);
  return rec;
}

Task<Status> Transaction::Commit() {
  FARM_CHECK(!commit_started_) << "Commit called twice";
  commit_started_ = true;

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
    // A reconfiguration that moves a read region's primary mid-validation
    // hands the outcome to recovery (always abort for read-only: there is no
    // log record to attest to the validation).
    Span validate(emit, id_, thread_, flight::Phase::kValidate);
    std::optional<Status> exit = co_await ValidatePhase();
    if (exit.has_value()) {
      co_return std::move(*exit);
    }
    validate.End();
    co_return Finish(kCommitted, OkStatus());
  }

  Status planned = BuildPlan();
  if (!planned.ok()) {
    co_return Finish(flight::AbortReason::kNoPlacement, std::move(planned));
  }
  CommitPlan& plan = *plan_;
  if (!plan.Reserve()) {
    co_return Finish(flight::AbortReason::kLogReservation,
                     Status(StatusCode::kResourceExhausted, "log reservation failed"));
  }

  // ---- Phase 1: LOCK ----
  {
    Span lock(emit, id_, thread_, flight::Phase::kLock);
    lock_replies_pending_ = static_cast<int>(plan.primaries);
    lock_all_ok_ = true;
    for (CommitPlan::Holder& h : plan.Primaries()) {
      const TxLogRecord& rec = MakeRecord(h.record, LogRecordType::kLock, h.machine);
      (void)plan.Append(h, CommitPlan::kWrite, rec, thread_);
    }
    // NSDI'14-protocol ablation: LOCK records also go to backups, reserved as
    // sent and simply stored; the optimized protocol eliminates them.
    if (node_->options().backup_lock_records) {
      for (CommitPlan::Holder& h : plan.Backups()) {
        const TxLogRecord& rec = MakeRecord(h.record, LogRecordType::kLock, h.machine);
        uint32_t len = static_cast<uint32_t>(WireSize(rec));
        if (node_->messenger().ReserveLog(h.machine, len)) {
          (void)node_->messenger().AppendLog(h.machine, rec, len, thread_);
        }
      }
    }
    std::optional<Status> exit = co_await AwaitPhase(flight::AbortReason::kUnresolvedLock);
    if (exit.has_value()) {
      co_return std::move(*exit);
    }
    if (!lock_all_ok_) {
      co_return Finish(flight::AbortReason::kLockConflict, AbortedStatus("lock conflict"));
    }
    lock.End();
  }

  // ---- Phase 2: VALIDATE (one-sided reads; RPC above threshold t_r) ----
  {
    Span validate(emit, id_, thread_, flight::Phase::kValidate);
    std::optional<Status> exit = co_await ValidatePhase();
    if (exit.has_value()) {
      co_return std::move(*exit);
    }
    validate.End();
  }

  // ---- Phase 3: COMMIT-BACKUP (one-sided writes; wait for NIC acks) ----
  {
    Span commit_backup(emit, id_, thread_, flight::Phase::kCommitBackup);
    WaitGroup wg;
    auto all_ok = std::make_shared<bool>(true);
    for (CommitPlan::Holder& h : plan.Backups()) {
      const TxLogRecord& rec = MakeRecord(h.record, LogRecordType::kCommitBackup, h.machine);
      wg.Add();
      auto alive = alive_;
      plan.Append(h, CommitPlan::kWrite, rec, thread_)
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
      std::optional<Status> exit = co_await AwaitPhase(flight::AbortReason::kUnresolvedBackupAck);
      if (exit.has_value()) {
        co_return std::move(*exit);
      }
    }
    // Serializability across failures requires ALL backup acks before any
    // COMMIT-PRIMARY is written (section 4, correctness). A missing ack
    // means a failure: wait for recovery to decide the outcome.
    if (!node_->options().chaos_skip_backup_ack && (!*all_ok || marked_recovering_)) {
      std::optional<Status> exit =
          co_await AwaitPhase(flight::AbortReason::kUnresolvedBackupFailure);
      co_return exit.has_value() ? std::move(*exit)
                                 : Finish(flight::AbortReason::kUnresolvedBackupFailure,
                                          GaveUp(flight::AbortReason::kUnresolvedBackupFailure));
    }
    commit_backup.End();
  }

  // ---- Phase 4: COMMIT-PRIMARY (report committed on the first ack) ----
  {
    Span commit_primary(emit, id_, thread_, flight::Phase::kCommitPrimary);
    plan.cp_pending = static_cast<int>(plan.primaries);
    // COMMIT-PRIMARY carries only the transaction id (Table 1).
    TxLogRecord rec;
    for (CommitPlan::Holder& h : plan.Primaries()) {
      MakeRecord(rec, LogRecordType::kCommitPrimary, h.machine);
      auto alive = alive_;
      plan.Append(h, CommitPlan::kOutcome, rec, thread_)
          .OnReady([plan = plan_, alive, this](NetResult& r) {
            plan->cp_pending--;
            // Hardware acks are rejected once the transaction is recovering.
            bool recovering = *alive && marked_recovering_;
            if (r.status.ok() && !plan->cp_any_ok && !recovering) {
              plan->cp_any_ok = true;
              if (*alive) {
                WakePhase();  // first hardware ack: report committed
              }
            }
            if (plan->cp_pending == 0) {
              // Every primary answered: the TRUNCATE slots go back (unless an
              // exit already returned them); the flush path re-reserves when
              // it actually writes records. After all acks the coordinator
              // may lazily truncate.
              plan->ReleaseAll();
              if (plan->cp_any_ok && !recovering) {
                plan->node->QueueTruncation(plan->id, plan->holders);
              }
            }
          });
    }
    if (!plan.cp_any_ok) {
      std::optional<Status> exit = co_await AwaitPhase(flight::AbortReason::kUnresolvedPrimaryAck);
      if (exit.has_value()) {
        co_return std::move(*exit);
      }
      if (!plan.cp_any_ok) {
        co_return Finish(flight::AbortReason::kUnresolvedPrimaryAck,
                         GaveUp(flight::AbortReason::kUnresolvedPrimaryAck));
      }
    }
    commit_primary.End();
  }

  co_return Finish(kCommitted, OkStatus());
}

Status Transaction::Finish(flight::AbortReason outcome, Status status) {
  // Kept orders (each append is a fault point): ABORT records to the
  // participants, then the slot releases, then the kAbort flight record --
  // except that a recovery abort writes its record before releasing.
  const ExitRule& rule = kExitRules[static_cast<int>(outcome)];
  LogTxScope log_tx(id_.config, id_.machine, id_.thread, id_.local);
  if (registered_) {
    node_->UnregisterInflight(id_);
    registered_ = false;
  }
  if (plan_ != nullptr) {
    if (rule.abort_participants) {
      // ABORT to every primary holding a LOCK record; those records still
      // get truncated.
      TxLogRecord rec;
      std::vector<MachineId> primaries;
      primaries.reserve(plan_->primaries);
      for (CommitPlan::Holder& h : plan_->Primaries()) {
        MakeRecord(rec, LogRecordType::kAbort, h.machine);
        (void)plan_->Append(h, CommitPlan::kOutcome, rec, thread_);
        primaries.push_back(h.machine);
      }
      node_->QueueTruncation(id_, primaries);
    }
    // A commit keeps its TRUNCATE slots until every COMMIT-PRIMARY ack is
    // in; every other exit writes nothing more and returns its log space.
    if (outcome != kCommitted) {
      plan_->ReleaseAll();
    }
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

std::optional<Status> Transaction::StepExit(flight::AbortReason outcome, Status s) {
  if (recovery_resolution_.has_value()) {
    return FinishFromRecovery();
  }
  if (!s.ok()) {
    return Finish(outcome, std::move(s));
  }
  return std::nullopt;
}

Task<std::optional<Status>> Transaction::ValidatePhase() {
  // Group read-only objects by primary.
  FlatMap<MachineId, std::vector<ObjectWord>> by_primary;
  for (const auto& [addr, entry] : reads_) {
    if (writes_.count(addr) != 0) {
      continue;  // locking covers written objects
    }
    const RegionPlacement* placement = node_->config().Placement(addr.region);
    if (placement == nullptr) {
      co_return StepExit(flight::AbortReason::kValidateConflict,
                         UnavailableStatus("read region lost"));
    }
    by_primary.try_emplace(placement->primary).first->second.push_back({addr, entry.word});
  }
  if (by_primary.empty()) {
    co_return StepExit(flight::AbortReason::kValidateConflict, OkStatus());
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
          co_return StepExit(flight::AbortReason::kValidateConflict, ref.status());
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
      validate_msgs_pending_++;
      node_->messenger().Send(m, Validate{id_, std::move(entries)}, thread_);
    }
  }

  while (rdma_wg.pending() > 0 || validate_msgs_pending_ > 0) {
    std::optional<Status> exit = co_await AwaitPhase(flight::AbortReason::kValidateConflict);
    if (exit.has_value()) {
      co_return exit;
    }
  }
  const bool valid = *rdma_ok && validate_all_ok_;
  co_return StepExit(flight::AbortReason::kValidateConflict,
                     valid ? OkStatus() : AbortedStatus("validation conflict"));
}

void Transaction::ReleaseAllocs() {
  for (const GlobalAddr& addr : allocs_) {
    node_->ReleaseAllocSlot(addr, thread_);
  }
  allocs_.clear();
}

}  // namespace farm
