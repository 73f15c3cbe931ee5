// A FaRM node: one machine's worth of the system.
//
// Each node is simultaneously (a) storage: primary/backup region replicas in
// NVRAM plus inbound transaction logs and message queues, (b) a transaction
// participant: LOCK / COMMIT-PRIMARY / ABORT processing, validation, slab
// allocation, (c) a transaction coordinator for application threads running
// on it (unreplicated, per section 4), (d) a failure detector via leases,
// and (e) potentially the configuration manager (CM).
//
// Implementation is split across: node.cc (construction, config handling,
// participant processing, message dispatch), tx.cc (coordinator side),
// cm.cc (CM duties and reconfiguration), lease.cc (failure detection),
// recovery.cc (transaction state recovery), data_recovery.cc (region
// re-replication and allocator recovery).
#ifndef SRC_CORE_NODE_H_
#define SRC_CORE_NODE_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/status.h"
#include "src/core/alloc.h"
#include "src/core/config.h"
#include "src/core/emit.h"
#include "src/core/lease.h"
#include "src/core/msgr.h"
#include "src/core/region.h"
#include "src/core/tx.h"
#include "src/core/types.h"
#include "src/core/wire.h"
#include "src/net/fabric.h"
#include "src/nvram/nvram.h"
#include "src/sim/task.h"
#include "src/zk/coord.h"

namespace farm {

class Cluster;

struct NodeOptions {
  int worker_threads = 4;                    // foreground event-loop threads
  uint32_t region_size = 4 << 20;            // scaled down from the paper's 2 GB
  uint32_t block_size = 64 << 10;            // scaled down from 1 MB
  LeaseOptions lease;
  int replication_factor = 3;                // f+1 copies per region
  // NSDI'14-protocol ablation: also send LOCK records to backups (the
  // optimized protocol eliminates these messages; see section 7).
  bool backup_lock_records = false;
  // Recovery pacing (sections 5.4, 5.5).
  uint32_t recovery_block_bytes = 8 << 10;
  SimDuration recovery_fetch_interval = 4 * kMillisecond;  // randomized window
  int recovery_concurrent_fetches = 1;       // per region being re-replicated
  // Chaos-only protocol mutation: commit without waiting for COMMIT-BACKUP
  // hardware acks. Deliberately UNSAFE -- it exists so the chaos oracle can
  // demonstrate it catches the resulting serializability violations.
  bool chaos_skip_backup_ack = false;
};

// Per-node counters. Cluster::TotalStats sums them and the cluster's
// teardown dump writes them as tx_committed{node="m3"}-style cells.
struct NodeStats {
  uint64_t tx_committed = 0;
  uint64_t tx_aborted_lock = 0;
  uint64_t tx_aborted_validate = 0;
  uint64_t tx_unresolved = 0;        // gave up waiting (failures)
  uint64_t tx_recovered_commit = 0;  // coordinator learned the outcome from recovery
  uint64_t tx_recovered_abort = 0;
  uint64_t lockfree_reads = 0;
  uint64_t recovering_txs_seen = 0;  // counted at vote coordinators
  uint64_t regions_rereplicated = 0;
  uint64_t reconfigurations = 0;
};

// The ids of the transactions this node truncated, which recovery asks
// about (section 5.3). One bitmap per coordinator (machine, thread) over
// the coordinator's local ids: a node hands out locals from one counter,
// so a coordinator's bitmap has a bit for every local id its node issued
// up to the highest one truncated here. Nothing tells a participant which
// ids it may forget, so a bitmap only grows.
class TruncatedSet {
 public:
  void Insert(const TxId& id) {
    std::vector<uint64_t>& words = bits_.try_emplace({id.machine, id.thread}).first->second;
    const uint64_t word = id.local >> 6;
    if (word >= words.size()) {
      words.resize(word + 1);
    }
    words[word] |= uint64_t{1} << (id.local & 63);
  }
  bool Contains(const TxId& id) const {
    auto it = bits_.find({id.machine, id.thread});
    if (it == bits_.end()) {
      return false;
    }
    const uint64_t word = id.local >> 6;
    return word < it->second.size() && (it->second[word] >> (id.local & 63) & 1) != 0;
  }

 private:
  FlatMap<std::pair<MachineId, uint16_t>, std::vector<uint64_t>> bits_;
};

class Node {
 public:
  Node(Cluster* cluster, Machine* machine, NvramStore* store, NodeOptions options);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // ---------------- Application API ----------------

  // Starts a transaction coordinated by this node's `thread`.
  std::unique_ptr<Transaction> Begin(int thread);

  // Optimized single-object read-only transaction (lock-free read).
  Task<StatusOr<std::vector<uint8_t>>> LockFreeRead(GlobalAddr addr, uint32_t size, int thread);

  // Allocates a new region via the CM's two-phase protocol (section 3).
  // object_stride > 0 declares an app-managed fixed layout (stride = header
  // + payload per object); 0 means slab-managed.
  Task<StatusOr<RegionId>> CreateRegion(uint32_t size, uint32_t object_stride,
                                        RegionId colocate_with, int thread);

  // ---------------- Introspection ----------------

  MachineId id() const { return machine_->id(); }
  const Configuration& config() const { return config_; }
  bool IsCm() const { return config_.cm == id(); }
  bool IsPrimaryOf(RegionId r) const;
  bool IsBackupOf(RegionId r) const;
  RegionReplica* replica(RegionId r);
  RegionAllocator* allocator(RegionId r);
  const NodeStats& stats() const { return stats_; }
  // Reports this machine's protocol steps to the cluster's sinks.
  Emitter& emit() { return emit_; }
  Machine& machine() { return *machine_; }
  Messenger& messenger() { return *messenger_; }
  LeaseManager& lease_manager() { return *lease_; }
  NodeOptions& options() { return options_; }
  Cluster& cluster() { return *cluster_; }
  ConfigId last_drained() const { return last_drained_; }
  // Inbound log records kept until their transaction is truncated.
  size_t logged_records() const;
  uint64_t control_block_addr() const { return control_block_addr_; }

  // ---------------- Lifecycle (called by Cluster) ----------------

  // Adopts the initial configuration and starts timers/leases.
  void Bootstrap(const Configuration& initial);
  // Whole-cluster power-failure restart (section 5's durability guarantee):
  // forgets volatile state and replays the non-truncated NVRAM log records,
  // re-applying any COMMIT-PRIMARY whose in-place update had not reached
  // region memory when power was lost. Replay is idempotent: a LOCK whose
  // object version already advanced fails its CAS and the transaction is
  // treated as already applied.
  void ReplayNvramLogs();
  // Full restart recovery after a whole-cluster power failure: replays the
  // NVRAM logs and then runs transaction-state recovery treating every
  // surviving (non-truncated) transaction as recovering, so in-flight
  // transactions caught by the power cut get voted, decided, and their
  // locks resolved (section 5's durability discussion). Call on every node,
  // then run the simulator so votes and decisions flow.
  void RestartRecovery();
  // Restart with EMPTY state (a replaced process): forgets all volatile
  // protocol state, regions, and the adopted configuration. The TxId counter
  // survives, standing in for the incarnation number a real system would
  // fold into transaction ids. Cluster re-wires rings, then BeginJoin()
  // petitions the CM until this machine is back in a configuration.
  void ColdRestart();
  // Forgets the records kept from `m`'s rings, which Cluster re-wires when
  // `m` restarts empty: their frames are gone with the old rings.
  void DropLogRecordsFrom(MachineId m);
  // Spawns the join-retry loop (reads the configuration from the
  // coordination service, sends kJoinRequest to its CM).
  void BeginJoin();
  // Installs a replica for a region this node hosts (bootstrap/region-create).
  RegionReplica* InstallReplica(RegionId r, uint32_t size, uint32_t object_stride);

  // ---------------- Internal: used by Transaction (tx.cc) ----------------

  Simulator& sim();
  Fabric& fabric();
  HwThread& worker(int idx) { return machine_->thread(idx); }

  struct RegionRef {
    ConfigId as_of = 0;
    MachineId primary = kInvalidMachine;
    uint64_t base = 0;  // NVRAM base of the region at the primary
  };
  // Resolves the RDMA reference for a region (may wait for an active
  // primary; fails if the region is unknown or the primary unreachable).
  Task<StatusOr<RegionRef>> ResolveRef(RegionId region, int thread);
  // The cached reference for a region if it is still valid (same primary,
  // cached no earlier than the primary's last change), without suspending;
  // nullopt means ResolveRef must fetch it.
  std::optional<RegionRef> CachedRef(RegionId region) const;

  TxId NextTxId(int thread);
  void RegisterInflight(Transaction* tx);
  void UnregisterInflight(const TxId& id);

  // Truncation: the coordinator calls this once a transaction got acks from
  // all primaries; ids are piggybacked on future records to each holder.
  void QueueTruncation(const TxId& id, const std::vector<MachineId>& holders);
  // Pops up to `max` pending truncation ids for records headed to `dst`.
  std::vector<TxId> TakeTruncationsFor(MachineId dst, size_t max);

  // Generic request/reply over the message queues. Returns the reply body.
  Task<StatusOr<std::vector<uint8_t>>> Request(MachineId dst, MsgType type,
                                               std::vector<uint8_t> body, int thread,
                                               SimDuration timeout);
  void Respond(MachineId dst, uint64_t correlation, Status status,
               std::vector<uint8_t> body, int thread);

  // Precise membership check before issuing one-sided operations.
  bool InConfig(MachineId m) const { return config_.Contains(m); }

  // Object allocation on behalf of a transaction: reserves a free slot at
  // the region's primary (locally or via ALLOC-REQUEST message).
  Task<StatusOr<RegionAllocator::Slot>> AllocSlot(RegionId region, uint32_t payload_size,
                                                  int thread);
  void ReleaseAllocSlot(GlobalAddr addr, int thread);

  // ---------------- Internal: CM duties (cm.cc) ----------------

  // Starts reconfiguration suspecting the given machines (runs the 7-step
  // protocol of section 5.2; no-op if this node loses the ZK CAS race).
  void StartReconfiguration(std::vector<MachineId> suspects, const char* reason);
  // Called by the lease manager.
  void OnMachineSuspected(MachineId m);
  void OnCmSuspected();

  // ---------------- Internal: recovery (recovery.cc) ----------------

  void OnNewConfig(MachineId from, Configuration new_config);
  void OnNewConfigAck(MachineId from, ConfigId id);
  void OnNewConfigCommit(ConfigId id);
  void OnRecoveryDecisionAck(MachineId from, const TxId& id);
  void ResolveInflightByRecovery(const TxId& id, bool commit);

 private:
  friend class Transaction;

  // ---- participant-side processing (node.cc) ----
  void HandleLogRecord(MachineId from, uint64_t seq, TxLogRecord rec);
  void HandleMessage(MachineId from, MsgType type, std::vector<uint8_t> payload);
  // Sends a message to `dst`, or handles it in place when `dst` is this node.
  void Deliver(MachineId dst, MsgType type, std::vector<uint8_t> payload);
  void ProcessLock(MachineId from, const TxLogRecord& rec);
  void ProcessCommitPrimary(MachineId from, const TxLogRecord& rec);
  void ProcessAbort(MachineId from, const TxLogRecord& rec);
  // `apply_backup_writes` is false only for TRUNCATE-RECOVERY after an abort
  // decision: the kept COMMIT-BACKUP records must be discarded, not applied.
  void ProcessTruncation(MachineId from, const TxId& id, bool apply_backup_writes = true);
  // Installs a committed write at this replica unless the replica is gone or
  // the object is already past `expected_version`; at the region's primary a
  // slot the write freed goes back to the allocator. False if skipped.
  bool ApplyWrite(const WireWrite& w);
  // Releases the lock a write's transaction holds: restores the header only
  // while it is locked at `expected_version`.
  void Unlock(const WireWrite& w);
  // Stores `ref` in ref_cache_ and returns it.
  RegionRef CacheRef(RegionId region, RegionRef ref);

  void HandleValidate(MachineId from, BufReader& r);
  void HandleAllocRequest(MachineId from, BufReader& r);
  void HandleRefRequest(MachineId from, BufReader& r);
  void HandleBlockHeader(MachineId from, BufReader& r);
  void FlushTruncations();  // periodic explicit TRUNCATE records
  void ArmTruncateFlush();   // schedules FlushTruncations unless one is due
  // One holder's truncation id left the queue; records the truncate phase
  // once the last holder's copy is dispatched (or abandons it for dead peers).
  void TruncationDequeued(const TxId& id, bool dispatched);
  void ShipPendingBlockHeaders(RegionId r);
  // Sends `headers` of region `r` to its backups (section 5.5).
  void SendBlockHeaders(RegionId r, const std::vector<RegionAllocator::BlockHeader>& headers);

  // ---- CM-side duties (cm.cc) ----
  void HandleJoinRequest(MachineId from, BufReader& r);
  Detached RunJoin(uint64_t restart_epoch);
  // Eviction monitor: periodically reads the authoritative configuration
  // from the coordination service; a machine that finds itself evicted
  // (alive but excluded) restarts empty and rejoins as a new instance, the
  // paper's model for machines on the losing side of a healed partition.
  Detached RunEvictionMonitor(uint64_t generation);
  void StartEvictionMonitor() { RunEvictionMonitor(++eviction_monitor_generation_); }
  void HandleRegionCreate(MachineId from, BufReader& r);
  Detached RunRegionCreate(MachineId from, uint64_t correlation, uint32_t size,
                           uint32_t object_stride, RegionId colocate_with);
  Detached RunReconfiguration(std::vector<MachineId> suspects);
  // f+1 members in distinct failure domains for a new region: the
  // colocation target's replicas if all are members, else the least loaded.
  StatusOr<std::vector<MachineId>> PickReplicas(RegionId colocate_with) const;
  // Drops failed replicas from `cfg`'s placements, promotes a surviving
  // backup where the primary failed, and refills each region to f+1.
  void RemapRegions(Configuration& cfg) const;
  void HandleRegionsActive(MachineId from, BufReader& r);
  void BroadcastAllRegionsActive();

  // ---- recovery (recovery.cc) ----
  struct ReplicaTxState {
    Vote strength = Vote::kUnknown;  // strongest record seen (CP > CB > LOCK)
    bool saw_abort_recovery = false;
    bool has_contents = false;
    TxLogRecord contents;  // lock-record contents (writes for this machine)

    // Folds in one piece of evidence: keeps the stronger vote and the first
    // contents seen (`rec` may be null).
    void Merge(Vote s, const TxLogRecord* rec);
  };
  struct RegionRecoveryTx {
    ReplicaTxState merged;
    std::set<MachineId> backups_with_state;
    int replicate_acks_pending = 0;
    bool voted = false;
  };
  struct RegionRecovery {
    std::set<MachineId> backups_pending;  // NEED-RECOVERY not yet received
    std::map<TxId, RegionRecoveryTx> txs;
    bool lock_recovery_done = false;
  };
  struct DecisionState {
    std::map<RegionId, Vote> votes;
    std::set<RegionId> regions;  // modified regions (from vote messages)
    bool decided = false;
    bool committed = false;
    int acks_pending = 0;
    bool vote_timer_armed = false;
    int timer_rounds = 0;
  };

  bool IsRecoveringTx(const TxLogRecord& rec, const Configuration& cfg) const;
  bool TxIsRecovering(Transaction* tx, const Configuration& cfg) const;
  void BeginTransactionStateRecovery();
  void MaybeStartLockRecovery(RegionId region);
  Detached FinishLockRecovery(RegionId region);
  void CheckAllRegionsActive();
  void SendVotesForRegion(RegionId region);
  void SendVote(MachineId dst, RegionId region, const TxId& id, Vote v,
                const std::vector<RegionId>& written_regions);
  // Every replica of `regions` in the current configuration.
  std::set<MachineId> ReplicasOf(const std::set<RegionId>& regions) const;
  Vote ComputeVote(const RegionRecoveryTx& t) const;
  MachineId RecoveryCoordinatorFor(const TxId& id) const;
  void HandleNeedRecovery(MachineId from, BufReader& r);
  void HandleFetchTxState(MachineId from, BufReader& r);
  void HandleReplicateTxState(MachineId from, BufReader& r);
  void HandleReplicateTxStateAck(MachineId from, BufReader& r);
  void HandleRecoveryVote(MachineId from, BufReader& r);
  void HandleRequestVote(MachineId from, BufReader& r);
  void HandleRecoveryDecision(MachineId from, MsgType type, BufReader& r);
  void HandleTruncateRecovery(MachineId from, BufReader& r);
  void MaybeDecide(const TxId& id);
  void ArmVoteTimer(const TxId& id);
  // One vote-timeout round; re-arms itself until the decision is made.
  void VoteTimerTick(const TxId& id, ConfigId cid);
  void Decide(const TxId& id, bool commit);

  // ---- data recovery (data_recovery.cc) ----
  void OnAllRegionsActive();
  Detached ReplicateRegionFrom(RegionId region, MachineId primary);
  void ApplyRecoveredBlock(RegionId region, uint32_t offset,
                           const std::vector<uint8_t>& bytes);
  Detached RunAllocatorRecovery(RegionId region);

  Cluster* cluster_;
  Machine* machine_;
  NvramStore* store_;
  NodeOptions options_;
  std::unique_ptr<Messenger> messenger_;
  std::unique_ptr<LeaseManager> lease_;

  Configuration config_;
  ConfigId last_drained_ = 0;
  uint64_t control_block_addr_ = 0;  // probe target; holds LastDrained

  std::map<RegionId, std::unique_ptr<RegionReplica>> replicas_;
  std::map<RegionId, std::unique_ptr<RegionAllocator>> allocators_;
  // Indexed by RegionId (the CM hands ids out densely); a slot whose
  // primary is kInvalidMachine was never filled.
  std::vector<RegionRef> ref_cache_;
  // Ref requests deferred while a region is blocked (section 5.3 step 1).
  std::map<RegionId, std::vector<std::pair<MachineId, uint64_t>>> deferred_refs_;

  // Coordinator-side state.
  uint64_t next_local_tx_ = 0;
  // TxId-keyed protocol state lives in ordered maps: recovery iterates these
  // (e.g. BeginTransactionStateRecovery walks inflight_) and the visit order
  // feeds message order, so it must not depend on hash layout.
  std::map<TxId, Transaction*> inflight_;
  std::map<MachineId, std::deque<TxId>> pending_truncations_;
  bool truncate_flush_armed_ = false;
  // Truncate-phase tracking: queue time + holders still awaiting dispatch,
  // so the truncate histogram measures queue-to-last-dispatch latency.
  std::map<TxId, std::pair<SimTime, int>> truncate_pending_;

  // Participant-side state.
  struct PendingTx {
    TxLogRecord lock_record;
    bool locks_held = false;
    bool applied = false;
    // Durable memory of a recovery decision (section 5.3 step 7): the
    // COMMIT-RECOVERY / ABORT-RECOVERY records the paper logs at every
    // participant. A later recovery round must re-derive the same outcome
    // even when every machine that held the deciding evidence is gone.
    bool commit_recovered = false;
    bool abort_recovered = false;
  };
  std::map<TxId, PendingTx> pending_;
  // Every inbound record but TRUNCATE, kept until its transaction is
  // truncated (section 4): backups apply COMMIT-BACKUP writes then, and
  // recovery finds recovering transactions here (section 5.3). A
  // transaction's records all come from its coordinator's ring, so each
  // vector is in ring order; (from, seq) names the record's frame.
  struct LoggedRecord {
    MachineId from;
    uint64_t seq;
    TxLogRecord rec;
  };
  std::map<TxId, std::vector<LoggedRecord>> logged_;
  TruncatedSet truncated_;

  // Request/reply correlation.
  uint64_t next_correlation_ = 1;
  std::map<uint64_t, Future<StatusOr<std::vector<uint8_t>>>> pending_requests_;

  // True while a power-failure restart treats every logged transaction as
  // recovering (see RestartRecovery).
  bool restart_recover_all_ = false;

  // Reconfiguration / recovery state.
  struct PendingReconfig {
    Configuration cfg;
    std::set<MachineId> ack_pending;
    Future<Unit> acks_done;
  };
  std::optional<PendingReconfig> pending_reconfig_;  // CM side
  bool reconfig_in_flight_ = false;
  // CM side: machines that asked to rejoin (joiner -> failure domain),
  // folded into the next configuration's membership.
  std::map<MachineId, int> pending_joins_;
  // Bumped by ColdRestart so a superseded join loop exits.
  uint64_t restart_epoch_ = 0;
  // Bumped by StartEvictionMonitor so superseded monitor loops exit.
  uint64_t eviction_monitor_generation_ = 0;
  std::map<RegionId, RegionRecovery> region_recovery_;
  std::map<TxId, DecisionState> decisions_;
  std::set<RegionId> new_backup_regions_;   // to re-replicate after active
  std::set<RegionId> promoted_regions_;     // allocator free lists to rebuild
  bool regions_active_sent_ = false;
  // CM-side: REGIONS-ACTIVE collection.
  std::set<MachineId> regions_active_pending_;

  NodeStats stats_;
  Emitter emit_;
};

}  // namespace farm

#endif  // SRC_CORE_NODE_H_
