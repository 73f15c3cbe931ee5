#include "src/core/node.h"

#include <algorithm>
#include <iterator>

#include "src/common/logging.h"
#include "src/core/cluster.h"
#include "src/net/cost_model.h"

namespace farm {

namespace {

constexpr SimDuration kRefRequestTimeout = 50 * kMillisecond;
constexpr SimDuration kBlockedRegionPollInterval = 500 * kMicrosecond;
// How long queued truncation ids wait for a carrier record before an
// explicit TRUNCATE record goes out.
constexpr SimDuration kTruncateFlushInterval = 200 * kMicrosecond;

}  // namespace

Node::Node(Cluster* cluster, Machine* machine, NvramStore* store, NodeOptions options)
    : cluster_(cluster),
      machine_(machine),
      store_(store),
      options_(options),
      emit_(cluster->sim(), machine->id(), *cluster->flight_recorder(machine->id()),
            cluster->sinks(), cluster->metrics_registry()) {
  // Worker threads + one dedicated lease-manager thread (section 5.1).
  FARM_CHECK(machine_->NumThreads() == options_.worker_threads + 1)
      << "machine must have worker_threads + 1 hardware threads";
  messenger_ = std::make_unique<Messenger>(fabric(), *machine_, *store_, Messenger::Options{},
                                           options_.worker_threads);
  messenger_->SetHandlers(
      [this](MachineId from, uint64_t seq, TxLogRecord rec) {
        HandleLogRecord(from, seq, std::move(rec));
      },
      [this](MachineId from, MsgType type, std::vector<uint8_t> payload) {
        HandleMessage(from, type, std::move(payload));
      });
  lease_ = std::make_unique<LeaseManager>(this, options_.lease);
  fabric().SetDatagramHandler(id(), [this](MachineId from, std::vector<uint8_t> payload) {
    lease_->OnDatagram(from, std::move(payload));
  });
  // Probe/control word: the CM's probe read targets this (it holds
  // LastDrained, read during reconfiguration probes).
  control_block_addr_ = store_->Allocate(8);
}

Node::~Node() = default;

Simulator& Node::sim() { return cluster_->sim(); }
Fabric& Node::fabric() { return cluster_->fabric(); }

void Node::Bootstrap(const Configuration& initial) {
  config_ = initial;
  lease_->Start();
  StartEvictionMonitor();
}

void Node::ReplayNvramLogs() {
  pending_.clear();
  logged_.clear();
  messenger_->RebuildFromNvram();
  messenger_->DrainAllNow();
}

void Node::RestartRecovery() {
  ReplayNvramLogs();
  restart_recover_all_ = true;
  BeginTransactionStateRecovery();
  restart_recover_all_ = false;
  // A power failure parks the previous monitor's in-flight awaits forever;
  // arm a fresh one so the recovered instance still polices its membership.
  StartEvictionMonitor();
}

void Node::ColdRestart() {
  restart_epoch_++;
  config_ = Configuration{};
  last_drained_ = 0;
  std::memset(store_->Data(control_block_addr_, 8), 0, 8);
  replicas_.clear();
  allocators_.clear();
  ref_cache_.clear();
  deferred_refs_.clear();
  // next_local_tx_ is deliberately NOT reset: the machine id is reused, so
  // the monotonic counter is what keeps post-restart TxIds distinct from
  // pre-restart ones (the incarnation number of a real deployment).
  inflight_.clear();
  pending_truncations_.clear();
  truncate_flush_armed_ = false;
  truncate_pending_.clear();
  pending_.clear();
  logged_.clear();
  truncated_ = TruncatedSet();
  pending_requests_.clear();
  restart_recover_all_ = false;
  pending_reconfig_.reset();
  reconfig_in_flight_ = false;
  pending_joins_.clear();
  region_recovery_.clear();
  decisions_.clear();
  new_backup_regions_.clear();
  promoted_regions_.clear();
  regions_active_sent_ = false;
  regions_active_pending_.clear();
  messenger_->Reset();
  lease_->ColdRestart();
}

void Node::DropLogRecordsFrom(MachineId m) {
  for (auto it = logged_.begin(); it != logged_.end();) {
    std::erase_if(it->second, [m](const LoggedRecord& l) { return l.from == m; });
    it = it->second.empty() ? logged_.erase(it) : std::next(it);
  }
}

size_t Node::logged_records() const {
  size_t n = 0;
  for (const auto& [tid, records] : logged_) {
    (void)tid;
    n += records.size();
  }
  return n;
}

void Node::BeginJoin() {
  RunJoin(restart_epoch_);
  StartEvictionMonitor();
}

RegionReplica* Node::InstallReplica(RegionId r, uint32_t size, uint32_t object_stride) {
  FARM_CHECK(replicas_.count(r) == 0);
  auto rep = std::make_unique<RegionReplica>(r, size, object_stride, store_);
  RegionReplica* ptr = rep.get();
  replicas_[r] = std::move(rep);
  if (object_stride == 0) {
    allocators_[r] = std::make_unique<RegionAllocator>(ptr, options_.block_size);
  }
  return ptr;
}

bool Node::IsPrimaryOf(RegionId r) const {
  const RegionPlacement* p = config_.Placement(r);
  return p != nullptr && p->primary == id();
}

bool Node::IsBackupOf(RegionId r) const {
  const RegionPlacement* p = config_.Placement(r);
  if (p == nullptr) {
    return false;
  }
  return std::find(p->backups.begin(), p->backups.end(), id()) != p->backups.end();
}

RegionReplica* Node::replica(RegionId r) {
  auto it = replicas_.find(r);
  return it == replicas_.end() ? nullptr : it->second.get();
}

RegionAllocator* Node::allocator(RegionId r) {
  auto it = allocators_.find(r);
  return it == allocators_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------------

std::unique_ptr<Transaction> Node::Begin(int thread) {
  FARM_CHECK(thread >= 0 && thread < options_.worker_threads);
  return std::make_unique<Transaction>(this, thread);
}

Task<StatusOr<std::vector<uint8_t>>> Node::LockFreeRead(GlobalAddr addr, uint32_t size,
                                                        int thread) {
  stats_.lockfree_reads++;
  for (int attempt = 0; attempt < 64; attempt++) {
    std::optional<RegionRef> ref = CachedRef(addr.region);
    if (!ref) {
      auto resolved = co_await ResolveRef(addr.region, thread);
      if (!resolved.ok()) {
        co_return resolved.status();
      }
      ref = *resolved;
    }
    uint64_t word = 0;
    std::vector<uint8_t> value;
    if (ref->primary == id()) {
      RegionReplica* rep = replica(addr.region);
      if (rep == nullptr) {
        co_return NotFoundStatus("region moved");
      }
      co_await worker(thread).Execute(kCost.cpu_tx_read_local);
      word = rep->ReadHeader(addr.offset);
      const uint8_t* p = rep->Ptr(addr.offset + kObjectHeaderBytes, size);
      value.assign(p, p + size);
    } else {
      if (!InConfig(ref->primary)) {
        co_return UnavailableStatus("primary not in configuration");
      }
      NetResult r = co_await fabric().Read(id(), ref->primary, ref->base + addr.offset,
                                           kObjectHeaderBytes + size, &worker(thread));
      if (!r.status.ok()) {
        co_return r.status;
      }
      std::memcpy(&word, r.data.data(), 8);
      r.data.erase(r.data.begin(), r.data.begin() + 8);
      value = std::move(r.data);
    }
    if (!VersionWord::IsLocked(word)) {
      co_return value;
    }
    // Locked: the writer serialized already but has not exposed the update;
    // returning the old value here would violate strictness. Retry shortly.
    co_await SleepFor(sim(), 2 * kMicrosecond);
  }
  co_return AbortedStatus("object persistently locked");
}

Task<StatusOr<RegionId>> Node::CreateRegion(uint32_t size, uint32_t object_stride,
                                            RegionId colocate_with, int thread) {
  BufWriter w;
  w.PutU32(size);
  w.PutU32(object_stride);
  w.PutU32(colocate_with);
  auto reply =
      co_await Request(config_.cm, MsgType::kRegionCreate, w.Take(), thread, 100 * kMillisecond);
  if (!reply.ok()) {
    co_return reply.status();
  }
  BufReader r(*reply);
  co_return RegionId{r.GetU32()};
}

// ---------------------------------------------------------------------------
// RDMA references
// ---------------------------------------------------------------------------

Task<StatusOr<Node::RegionRef>> Node::ResolveRef(RegionId region, int thread) {
  if (std::optional<RegionRef> cached = CachedRef(region)) {
    co_return *cached;
  }
  const RegionPlacement* p = config_.Placement(region);
  if (p == nullptr) {
    co_return NotFoundStatus("unknown region");
  }
  // `p` points into config_.regions; a reconfiguration during any await below
  // reassigns config_ and frees it. Copy what we need so the pointer is dead
  // before the first suspension point.
  const MachineId primary = p->primary;
  if (primary == id()) {
    // Local references are blocked while the region recovers locks
    // (section 5.3 step 1).
    for (;;) {
      RegionReplica* rep = replica(region);
      if (rep == nullptr) {
        co_return NotFoundStatus("replica not installed");
      }
      if (rep->active()) {
        break;
      }
      co_await SleepFor(sim(), kBlockedRegionPollInterval);
    }
    co_return CacheRef(region, RegionRef{config_.id, id(), replica(region)->base()});
  }
  if (!InConfig(primary)) {
    co_return UnavailableStatus("primary not in configuration");
  }
  BufWriter w;
  w.PutU32(region);
  auto reply =
      co_await Request(primary, MsgType::kRefRequest, w.Take(), thread, kRefRequestTimeout);
  if (!reply.ok()) {
    co_return reply.status();
  }
  BufReader rr(*reply);
  co_return CacheRef(region, RegionRef{config_.id, primary, rr.GetU64()});
}

std::optional<Node::RegionRef> Node::CachedRef(RegionId region) const {
  const RegionPlacement* p = config_.Placement(region);
  if (p == nullptr || region >= ref_cache_.size()) {
    return std::nullopt;
  }
  const RegionRef& ref = ref_cache_[region];
  if (ref.primary != p->primary || ref.as_of < p->last_primary_change) {
    return std::nullopt;
  }
  return ref;
}

Node::RegionRef Node::CacheRef(RegionId region, RegionRef ref) {
  if (region >= ref_cache_.size()) {
    ref_cache_.resize(region + 1);
  }
  ref_cache_[region] = ref;
  return ref;
}

Task<StatusOr<RegionAllocator::Slot>> Node::AllocSlot(RegionId region, uint32_t payload_size,
                                                      int thread) {
  const RegionPlacement* p = config_.Placement(region);
  if (p == nullptr) {
    co_return NotFoundStatus("unknown region");
  }
  // Same pattern as ResolveRef: copy the primary so `p` is dead before the
  // awaits below can outlive the configuration it points into.
  const MachineId primary = p->primary;
  if (primary == id()) {
    RegionAllocator* alloc = allocator(region);
    if (alloc == nullptr) {
      co_return Status(StatusCode::kInvalidArgument, "region is app-managed");
    }
    co_await worker(thread).Execute(kCost.cpu_tx_write_buffer);
    auto slot = alloc->Reserve(payload_size);
    if (slot.ok()) {
      ShipPendingBlockHeaders(region);
    }
    co_return slot;
  }
  BufWriter w;
  w.PutU32(region);
  w.PutU32(payload_size);
  auto reply =
      co_await Request(primary, MsgType::kAllocRequest, w.Take(), thread, 50 * kMillisecond);
  if (!reply.ok()) {
    co_return reply.status();
  }
  BufReader r(*reply);
  RegionAllocator::Slot slot;
  slot.addr = GetAddr(r);
  slot.header_word = r.GetU64();
  co_return slot;
}

void Node::ReleaseAllocSlot(GlobalAddr addr, int thread) {
  const RegionPlacement* p = config_.Placement(addr.region);
  if (p == nullptr) {
    return;
  }
  if (p->primary == id()) {
    RegionAllocator* alloc = allocator(addr.region);
    if (alloc != nullptr) {
      alloc->Release(addr);
    }
    return;
  }
  if (messenger_->ConnectedTo(p->primary) && fabric().IsAlive(p->primary)) {
    BufWriter w;
    PutAddr(w, addr);
    messenger_->SendMessage(p->primary, MsgType::kAllocRelease, w.Take(), thread);
  }
}

// ---------------------------------------------------------------------------
// Coordinator bookkeeping
// ---------------------------------------------------------------------------

TxId Node::NextTxId(int thread) {
  return TxId{config_.id, id(), static_cast<uint16_t>(thread), ++next_local_tx_};
}

void Node::RegisterInflight(Transaction* tx) { inflight_[tx->id()] = tx; }

void Node::UnregisterInflight(const TxId& id) { inflight_.erase(id); }

void Node::QueueTruncation(const TxId& tx_id, const std::vector<MachineId>& holders) {
  for (MachineId m : holders) {
    pending_truncations_[m].push_back(tx_id);
  }
  if (!holders.empty() && truncate_pending_.count(tx_id) == 0) {
    emit_.TxStep(tx_id, flight::EventKind::kPhaseBegin,
                 static_cast<uint8_t>(flight::Phase::kTruncate), 0, "truncate");
    truncate_pending_[tx_id] = {sim().Now(), static_cast<int>(holders.size())};
  }
  ArmTruncateFlush();
}

void Node::ArmTruncateFlush() {
  if (truncate_flush_armed_) {
    return;
  }
  truncate_flush_armed_ = true;
  sim().After(kTruncateFlushInterval, [this]() {
    truncate_flush_armed_ = false;
    FlushTruncations();
  });
}

std::vector<TxId> Node::TakeTruncationsFor(MachineId dst, size_t max) {
  std::vector<TxId> out;
  auto it = pending_truncations_.find(dst);
  if (it == pending_truncations_.end()) {
    return out;
  }
  while (!it->second.empty() && out.size() < max) {
    out.push_back(it->second.front());
    it->second.pop_front();
  }
  if (it->second.empty()) {
    pending_truncations_.erase(it);
  }
  for (const TxId& t : out) {
    TruncationDequeued(t, /*dispatched=*/true);
  }
  return out;
}

void Node::TruncationDequeued(const TxId& tx_id, bool dispatched) {
  auto it = truncate_pending_.find(tx_id);
  if (it == truncate_pending_.end()) {
    return;
  }
  if (--it->second.second > 0) {
    return;
  }
  if (dispatched) {
    emit_.PhaseEnd(tx_id, flight::Phase::kTruncate, it->second.first);
  }
  truncate_pending_.erase(it);
}

void Node::FlushTruncations() {
  // Writes explicit TRUNCATE records for ids that found no carrier record
  // (needed for liveness when traffic to a peer stops; section 4).
  std::vector<MachineId> peers;
  peers.reserve(pending_truncations_.size());
  for (const auto& [m, q] : pending_truncations_) {
    (void)q;
    peers.push_back(m);
  }
  for (MachineId m : peers) {
    if (!InConfig(m) || !fabric().IsAlive(m)) {
      for (const TxId& t : pending_truncations_[m]) {
        TruncationDequeued(t, /*dispatched=*/false);
      }
      pending_truncations_.erase(m);
      continue;
    }
    TxLogRecord rec;
    rec.type = LogRecordType::kTruncate;
    rec.truncate_ids = TakeTruncationsFor(m, kMaxPiggyback);
    if (rec.truncate_ids.empty()) {
      continue;
    }
    uint32_t len = static_cast<uint32_t>(rec.SerializedSize());
    if (!messenger_->ReserveLog(m, len)) {
      // Log full; requeue and retry on the next flush.
      for (const TxId& t : rec.truncate_ids) {
        pending_truncations_[m].push_back(t);
      }
      continue;
    }
    (void)messenger_->AppendLog(m, rec, len, 0);
  }
  if (!pending_truncations_.empty()) {
    ArmTruncateFlush();
  }
}

// ---------------------------------------------------------------------------
// Request / reply plumbing
// ---------------------------------------------------------------------------

Task<StatusOr<std::vector<uint8_t>>> Node::Request(MachineId dst, MsgType type,
                                                   std::vector<uint8_t> body, int thread,
                                                   SimDuration timeout) {
  if (!messenger_->ConnectedTo(dst)) {
    co_return UnavailableStatus("no channel to machine");
  }
  uint64_t correlation = next_correlation_++;
  BufWriter w;
  w.PutU64(correlation);
  w.Append(body.data(), body.size());
  Future<StatusOr<std::vector<uint8_t>>> fut;
  pending_requests_.emplace(correlation, fut);
  messenger_->SendMessage(dst, type, w.Take(), thread);
  auto result = co_await AwaitWithTimeout(sim(), fut, timeout);
  pending_requests_.erase(correlation);
  if (!result.has_value()) {
    co_return Status(StatusCode::kTimedOut, "request timed out");
  }
  co_return std::move(*result);
}

void Node::Respond(MachineId dst, uint64_t correlation, Status status,
                   std::vector<uint8_t> body, int thread) {
  BufWriter w;
  w.PutU64(correlation);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.Append(body.data(), body.size());
  messenger_->SendMessage(dst, MsgType::kReply, w.Take(), thread);
}

// ---------------------------------------------------------------------------
// Log record processing (participant side)
// ---------------------------------------------------------------------------

void Node::HandleLogRecord(MachineId from, uint64_t seq, TxLogRecord rec) {
  // The kept record keeps its piggybacked ids, and truncating them may drop
  // the kept record itself; copy them first.
  std::vector<TxId> piggyback = rec.truncate_ids;

  if (rec.type == LogRecordType::kTruncate) {
    messenger_->TruncateLogRecord(from, seq);
  } else if (rec.tx.config <= last_drained_ && rec.tx.config < config_.id &&
             IsRecoveringTx(rec, config_)) {
    // Records from configurations already drained are rejected if their
    // transaction is recovering -- recovery owns its outcome (section 5.3).
    messenger_->TruncateLogRecord(from, seq);
  } else {
    std::vector<LoggedRecord>& kept = logged_[rec.tx];
    kept.push_back({from, seq, std::move(rec)});
    const TxLogRecord& r = kept.back().rec;
    switch (r.type) {
      case LogRecordType::kLock:
        ProcessLock(from, r);
        break;
      case LogRecordType::kCommitBackup:
        // No foreground CPU work at backups: the record just sits in the
        // non-volatile log until truncation applies it (section 4).
        emit_.TxStep(r.tx, flight::EventKind::kCommitBackupRecord, 0, from);
        break;
      case LogRecordType::kCommitPrimary:
        ProcessCommitPrimary(from, r);
        break;
      case LogRecordType::kAbort:
        ProcessAbort(from, r);
        break;
      case LogRecordType::kTruncate:  // never kept
        break;
    }
  }
  for (const TxId& t : piggyback) {
    ProcessTruncation(from, t);
  }
}

void Node::ProcessLock(MachineId from, const TxLogRecord& rec) {
  LogTxScope log_tx(rec.tx.config, rec.tx.machine, rec.tx.thread, rec.tx.local);
  // The NSDI'14-protocol ablation also writes LOCK records to backups; a
  // backup just stores the record (no CAS, no reply) -- replies come only
  // from primaries in either protocol.
  bool any_primary = false;
  for (const WireWrite& w : rec.writes) {
    if (IsPrimaryOf(w.addr.region)) {
      any_primary = true;
      break;
    }
  }
  if (!any_primary) {
    return;
  }
  HwThread& worker_thread = machine_->thread(messenger_->WorkerFor(from));
  PendingTx pending;
  pending.lock_record = rec;

  // Precise membership (section 3): reject lock requests from coordinators
  // outside our configuration -- e.g. a machine evicted by a partition that
  // is still running on a stale configuration. The failed lock reply makes
  // it abort cleanly.
  if (!config_.Contains(from)) {
    emit_.TxStep(rec.tx, flight::EventKind::kLockReject, /*arg=*/1, from);
    BufWriter rej;
    PutTxId(rej, rec.tx);
    rej.PutU8(0);
    messenger_->SendMessage(from, MsgType::kLockReply, rej.Take(), -1);
    return;
  }

  size_t locked = 0;
  for (; locked < rec.writes.size(); locked++) {
    const WireWrite& w = rec.writes[locked];
    RegionReplica* rep = replica(w.addr.region);
    if (rep == nullptr || !IsPrimaryOf(w.addr.region) || !rep->active()) {
      break;
    }
    worker_thread.InjectBusy(kCost.cpu_lock_per_object);
    uint64_t expected = w.ExpectedWord();
    if (!rep->CasHeader(w.addr.offset, expected, VersionWord::WithLock(expected))) {
      break;
    }
  }
  const bool ok = locked == rec.writes.size();
  if (!ok) {
    // Roll back the locks taken by this record and report failure; the
    // coordinator will write an ABORT record.
    for (size_t i = 0; i < locked; i++) {
      Unlock(rec.writes[i]);
    }
    emit_.TxStep(rec.tx, flight::EventKind::kLockReject, /*arg=*/0,
                 rec.writes[locked].addr.region);
  } else {
    pending.locks_held = true;
    pending_[rec.tx] = std::move(pending);
    emit_.TxStep(rec.tx, flight::EventKind::kLockAcquire,
                 static_cast<uint8_t>(rec.writes.size() > 255 ? 255 : rec.writes.size()),
                 rec.writes.empty() ? 0 : rec.writes.front().addr.region);
  }

  BufWriter w;
  PutTxId(w, rec.tx);
  w.PutU8(ok ? 1 : 0);
  messenger_->SendMessage(from, MsgType::kLockReply, w.Take(), -1);
}

bool Node::ApplyWrite(const WireWrite& w) {
  RegionReplica* rep = replica(w.addr.region);
  // A missing replica means placement changed and data recovery brings this
  // machine up to date; a later version means a newer transaction applied.
  if (rep == nullptr ||
      VersionWord::Version(rep->ReadHeader(w.addr.offset)) > w.expected_version) {
    return false;
  }
  rep->WriteData(w.addr.offset, w.value.data(), static_cast<uint32_t>(w.value.size()));
  rep->WriteHeader(w.addr.offset,
                   VersionWord::Pack(w.expected_version + 1, w.AllocAfter(), false));
  if (w.clear_alloc && IsPrimaryOf(w.addr.region)) {
    RegionAllocator* alloc = allocator(w.addr.region);
    if (alloc != nullptr) {
      alloc->OnFreeCommitted(w.addr);
    }
  }
  return true;
}

void Node::Unlock(const WireWrite& w) {
  RegionReplica* rep = replica(w.addr.region);
  if (rep == nullptr) {
    return;
  }
  uint64_t current = rep->ReadHeader(w.addr.offset);
  if (VersionWord::Version(current) == w.expected_version && VersionWord::IsLocked(current)) {
    rep->WriteHeader(w.addr.offset, w.ExpectedWord());
  }
}

void Node::ProcessCommitPrimary(MachineId from, const TxLogRecord& rec) {
  LogTxScope log_tx(rec.tx.config, rec.tx.machine, rec.tx.thread, rec.tx.local);
  auto it = pending_.find(rec.tx);
  if (it == pending_.end() || !it->second.locks_held || it->second.applied) {
    return;  // already handled (possibly by recovery)
  }
  emit_.TxStep(rec.tx, flight::EventKind::kCommitPrimaryRecord, 0, from);
  HwThread& worker_thread = machine_->thread(messenger_->WorkerFor(rec.tx.machine));
  for (const WireWrite& w : it->second.lock_record.writes) {
    worker_thread.InjectBusy(kCost.cpu_lock_per_object);
    // The held lock pins the object at `expected_version`.
    FARM_CHECK(ApplyWrite(w));
  }
  it->second.applied = true;
  it->second.locks_held = false;
}

void Node::ProcessAbort(MachineId from, const TxLogRecord& rec) {
  LogTxScope log_tx(rec.tx.config, rec.tx.machine, rec.tx.thread, rec.tx.local);
  auto it = pending_.find(rec.tx);
  if (it == pending_.end()) {
    return;
  }
  emit_.TxStep(rec.tx, flight::EventKind::kAbortRecord, 0, from);
  if (it->second.locks_held && !it->second.applied) {
    for (const WireWrite& w : it->second.lock_record.writes) {
      Unlock(w);
    }
    it->second.locks_held = false;
  }
}

void Node::ProcessTruncation(MachineId from, const TxId& id, bool apply_backup_writes) {
  emit_.TxStep(id, flight::EventKind::kTruncateRecord, 0, from);
  truncated_.Insert(id);
  auto it = logged_.find(id);
  if (it != logged_.end()) {
    for (const LoggedRecord& l : it->second) {
      // Backups apply the buffered updates to their region copies at
      // truncation time (section 4, step 5).
      if (apply_backup_writes && l.rec.type == LogRecordType::kCommitBackup) {
        HwThread& worker_thread = machine_->thread(messenger_->WorkerFor(l.from));
        for (const WireWrite& w : l.rec.writes) {
          worker_thread.InjectBusy(kCost.cpu_lock_per_object);
          ApplyWrite(w);
        }
      }
      messenger_->TruncateLogRecord(l.from, l.seq);
    }
    logged_.erase(it);
  }
  pending_.erase(id);
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void Node::HandleMessage(MachineId from, MsgType type, std::vector<uint8_t> payload) {
  BufReader r(payload);
  switch (type) {
    case MsgType::kLockReply: {
      TxId tx_id = GetTxId(r);
      bool ok = r.GetU8() != 0;
      auto it = inflight_.find(tx_id);
      if (it != inflight_.end()) {
        it->second->OnLockReply(from, ok);
      }
      break;
    }
    case MsgType::kValidate:
      HandleValidate(from, r);
      break;
    case MsgType::kValidateReply: {
      TxId tx_id = GetTxId(r);
      bool ok = r.GetU8() != 0;
      auto it = inflight_.find(tx_id);
      if (it != inflight_.end()) {
        it->second->OnValidateReply(from, ok);
      }
      break;
    }
    case MsgType::kReply: {
      uint64_t correlation = r.GetU64();
      auto code = static_cast<StatusCode>(r.GetU8());
      std::vector<uint8_t> body(payload.begin() + 9, payload.end());
      auto it = pending_requests_.find(correlation);
      if (it != pending_requests_.end()) {
        auto fut = it->second;
        pending_requests_.erase(it);
        if (code == StatusCode::kOk) {
          fut.Set(std::move(body));
        } else {
          fut.Set(Status(code, "remote error"));
        }
      }
      break;
    }
    case MsgType::kAllocRequest:
      HandleAllocRequest(from, r);
      break;
    case MsgType::kAllocRelease: {
      GlobalAddr addr = GetAddr(r);
      RegionAllocator* alloc = allocator(addr.region);
      if (alloc != nullptr && IsPrimaryOf(addr.region)) {
        alloc->Release(addr);
      }
      break;
    }
    case MsgType::kRefRequest:
      HandleRefRequest(from, r);
      break;
    case MsgType::kBlockHeader:
      HandleBlockHeader(from, r);
      break;
    case MsgType::kRegionCreate:
      HandleRegionCreate(from, r);
      break;
    case MsgType::kRegionPrepare: {
      uint64_t correlation = r.GetU64();
      RegionId rid = r.GetU32();
      uint32_t size = r.GetU32();
      uint32_t stride = r.GetU32();
      if (replicas_.count(rid) == 0) {
        InstallReplica(rid, size, stride);
      }
      Respond(from, correlation, OkStatus(), {}, -1);
      break;
    }
    case MsgType::kRegionCreateReply: {
      // CM broadcast: new region mapping.
      RegionId rid = r.GetU32();
      config_.regions[rid] = GetPlacement(r);
      if (rid >= config_.next_region_id) {
        config_.next_region_id = rid + 1;
      }
      break;
    }
    case MsgType::kRegionsActive:
      HandleRegionsActive(from, r);
      break;
    case MsgType::kAllRegionsActive:
      OnAllRegionsActive();
      break;
    case MsgType::kReconfigRequest: {
      MachineId suspect = r.GetU32();
      StartReconfiguration({suspect}, "reconfig request");
      break;
    }
    case MsgType::kJoinRequest:
      HandleJoinRequest(from, r);
      break;
    case MsgType::kNewConfig: {
      Configuration cfg = Configuration::Parse(r);
      OnNewConfig(from, std::move(cfg));
      break;
    }
    case MsgType::kNewConfigAck: {
      ConfigId cid = r.GetU64();
      OnNewConfigAck(from, cid);
      break;
    }
    case MsgType::kNewConfigCommit: {
      ConfigId cid = r.GetU64();
      OnNewConfigCommit(cid);
      break;
    }
    case MsgType::kNeedRecovery:
      HandleNeedRecovery(from, r);
      break;
    case MsgType::kFetchTxState:
      // The reply (SEND-TX-STATE) travels as a generic correlated kReply.
      HandleFetchTxState(from, r);
      break;
    case MsgType::kReplicateTxState:
      HandleReplicateTxState(from, r);
      break;
    case MsgType::kReplicateTxStateAck:
      HandleReplicateTxStateAck(from, r);
      break;
    case MsgType::kRecoveryVote:
      HandleRecoveryVote(from, r);
      break;
    case MsgType::kRequestVote:
      HandleRequestVote(from, r);
      break;
    case MsgType::kCommitRecovery:
    case MsgType::kAbortRecovery:
      HandleRecoveryDecision(from, type, r);
      break;
    case MsgType::kRecoveryDecisionAck: {
      TxId tx_id = GetTxId(r);
      OnRecoveryDecisionAck(from, tx_id);
      break;
    }
    case MsgType::kTruncateRecovery:
      HandleTruncateRecovery(from, r);
      break;
    case MsgType::kLeaseMsg:
      lease_->OnRingMessage(from, std::move(payload));
      break;
    default:
      FARM_LOG(Warn) << "node " << id() << ": unhandled message type "
                     << static_cast<int>(type);
  }
}

void Node::Deliver(MachineId dst, MsgType type, std::vector<uint8_t> payload) {
  if (dst == id()) {
    HandleMessage(id(), type, std::move(payload));
  } else {
    messenger_->SendMessage(dst, type, std::move(payload), -1);
  }
}

void Node::HandleValidate(MachineId from, BufReader& r) {
  TxId tx_id = GetTxId(r);
  LogTxScope log_tx(tx_id.config, tx_id.machine, tx_id.thread, tx_id.local);
  uint32_t n = r.GetU32();
  bool ok = true;
  RegionId fail_region = 0;
  for (uint32_t i = 0; i < n; i++) {
    GlobalAddr addr = GetAddr(r);
    uint64_t word = r.GetU64();
    RegionReplica* rep = replica(addr.region);
    if (rep == nullptr || !IsPrimaryOf(addr.region)) {
      ok = false;
      fail_region = addr.region;
      continue;
    }
    uint64_t current = rep->ReadHeader(addr.offset);
    if (current != word) {  // version moved, alloc changed, or locked
      ok = false;
      fail_region = addr.region;
    }
  }
  if (!ok) {
    emit_.TxStep(tx_id, flight::EventKind::kValidateFail, 0, fail_region);
  }
  BufWriter w;
  PutTxId(w, tx_id);
  w.PutU8(ok ? 1 : 0);
  messenger_->SendMessage(from, MsgType::kValidateReply, w.Take(), -1);
}

void Node::HandleAllocRequest(MachineId from, BufReader& r) {
  uint64_t correlation = r.GetU64();
  RegionId rid = r.GetU32();
  uint32_t size = r.GetU32();
  RegionAllocator* alloc = allocator(rid);
  if (alloc == nullptr || !IsPrimaryOf(rid)) {
    Respond(from, correlation, NotFoundStatus("not primary"), {}, -1);
    return;
  }
  auto slot = alloc->Reserve(size);
  if (!slot.ok()) {
    Respond(from, correlation, slot.status(), {}, -1);
    return;
  }
  ShipPendingBlockHeaders(rid);
  BufWriter w;
  PutAddr(w, slot->addr);
  w.PutU64(slot->header_word);
  Respond(from, correlation, OkStatus(), w.Take(), -1);
}

void Node::HandleRefRequest(MachineId from, BufReader& r) {
  uint64_t correlation = r.GetU64();
  RegionId rid = r.GetU32();
  RegionReplica* rep = replica(rid);
  if (rep == nullptr || !IsPrimaryOf(rid)) {
    Respond(from, correlation, NotFoundStatus("not primary"), {}, -1);
    return;
  }
  if (!rep->active()) {
    // Deferred until lock recovery completes (section 5.3 step 4).
    deferred_refs_[rid].push_back({from, correlation});
    return;
  }
  BufWriter w;
  w.PutU64(rep->base());
  Respond(from, correlation, OkStatus(), w.Take(), -1);
}

void Node::HandleBlockHeader(MachineId from, BufReader& r) {
  (void)from;
  RegionId rid = r.GetU32();
  uint32_t n = r.GetU32();
  RegionAllocator* alloc = allocator(rid);
  for (uint32_t i = 0; i < n; i++) {
    RegionAllocator::BlockHeader h;
    h.block_index = r.GetU32();
    h.slot_payload = r.GetU32();
    if (alloc != nullptr) {
      alloc->InstallBlockHeader(h);
    }
  }
}

void Node::ShipPendingBlockHeaders(RegionId rid) {
  RegionAllocator* alloc = allocator(rid);
  if (alloc == nullptr) {
    return;
  }
  auto headers = alloc->TakePendingBlockHeaders();
  if (!headers.empty()) {
    SendBlockHeaders(rid, headers);
  }
}

void Node::SendBlockHeaders(RegionId rid,
                            const std::vector<RegionAllocator::BlockHeader>& headers) {
  const RegionPlacement* p = config_.Placement(rid);
  if (p == nullptr) {
    return;
  }
  BufWriter w(8 + 8 * headers.size());
  w.PutU32(rid);
  w.PutU32(static_cast<uint32_t>(headers.size()));
  for (const auto& h : headers) {
    w.PutU32(h.block_index);
    w.PutU32(h.slot_payload);
  }
  std::vector<uint8_t> msg = w.Take();
  for (MachineId b : p->backups) {
    if (b != id()) {
      messenger_->SendMessage(b, MsgType::kBlockHeader, msg, -1);
    }
  }
}

}  // namespace farm
