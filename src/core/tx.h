// FaRM transactions: the application-facing API and the coordinator half of
// the commit protocol (section 4).
//
// Usage (inside a sim coroutine running on a node worker thread):
//
//   auto tx = node.Begin(thread);
//   auto v = co_await tx->Read(addr, size);
//   if (!v.ok()) { /* abort path */ }
//   tx->Write(addr, new_bytes);
//   Status s = co_await tx->Commit();
//
// Execution buffers writes locally and reads objects from their primaries
// (local access or one-sided RDMA). Commit runs LOCK / VALIDATE /
// COMMIT-BACKUP / COMMIT-PRIMARY / TRUNCATE. Committed read-write
// transactions serialize at the point all write locks were acquired;
// read-only transactions at their last read.
#ifndef SRC_CORE_TX_H_
#define SRC_CORE_TX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/status.h"
#include "src/core/types.h"
#include "src/core/wire.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/task.h"

namespace farm {

class Node;

class Transaction {
 public:
  Transaction(Node* node, int thread);
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  // Reads `size` payload bytes of the object at addr. Guarantees: atomic,
  // committed data; repeated reads return the same value; reads of objects
  // written by this transaction return the written value. Cross-object
  // atomicity is NOT guaranteed during execution -- conflicting transactions
  // are caught at commit (section 3).
  Task<StatusOr<std::vector<uint8_t>>> Read(GlobalAddr addr, uint32_t size);

  // Buffers a write. The object must have been read or allocated by this
  // transaction (OCC needs the observed version).
  Status Write(GlobalAddr addr, std::vector<uint8_t> value);

  // Allocates an object of `payload_size` bytes in the given region (the
  // region's primary hands out a free slot). Visible on commit.
  Task<StatusOr<GlobalAddr>> Alloc(RegionId region, uint32_t payload_size);

  // Frees the object (clears its alloc bit on commit). Requires prior Read.
  Status Free(GlobalAddr addr);

  // Runs the commit protocol. OK = strictly serializable commit; kAborted =
  // conflict; kUnavailable = gave up due to failures (outcome resolved by
  // recovery; the write set was NOT applied unless recovery committed it).
  Task<Status> Commit();

  // True once Commit resolved successfully.
  bool committed() const { return committed_; }
  const TxId& id() const { return id_; }
  int thread() const { return thread_; }
  Node* node() const { return node_; }

  // --- internal: called by the node's message dispatch ---
  void OnLockReply(bool ok);
  void OnValidateReply(bool ok);
  // Called by recovery when this in-flight transaction's outcome was decided
  // by the recovery protocol instead of the normal path.
  void ResolveByRecovery(bool committed);
  // Reconfiguration turned this into a recovering transaction: hardware acks
  // are rejected from now on; recovery owns the outcome (section 5.3).
  void MarkRecovering() { marked_recovering_ = true; }
  bool marked_recovering() const { return marked_recovering_; }

 private:
  friend class Node;

  struct ReadEntry {
    uint64_t word = 0;  // unlocked view of the header observed at read time
    std::vector<uint8_t> value;
  };

  // Who holds the commit's log records, and their reservations (tx.cc).
  struct CommitPlan;

  // Builds plan_ from the write set; fails if a written region has no
  // placement.
  Status BuildPlan();
  // Ends the commit attempt; every exit of Commit returns through here.
  // `outcome` is the flight::AbortReason of an abort or unresolved exit, or
  // one of the commit outcomes defined in tx.cc. Returns `status`.
  Status Finish(flight::AbortReason outcome, Status status);
  // Finish with the outcome recovery decided.
  Status FinishFromRecovery();
  // Validates the read set. Returns the commit's exit if validation ended
  // it, nullopt if the commit goes on.
  Task<std::optional<Status>> ValidatePhase();
  // The exit a commit step that ended with `s` makes: recovery's decision
  // first, then `outcome` if s failed; nullopt when the commit goes on.
  std::optional<Status> StepExit(flight::AbortReason outcome, Status s);
  void ReleaseAllocs();
  // Stamps `rec` as a `type` record for `dst` with the truncation ids queued
  // for dst: the only fields that differ between sends of one record.
  const TxLogRecord& MakeRecord(TxLogRecord& rec, LogRecordType type, MachineId dst) const;

  // Wakes the commit coroutine from its current wait; each phase arms a
  // fresh future. Recovery resolution also fires it.
  void WakePhase();
  // Waits for WakePhase or the safety-net timeout. Returns the commit's exit
  // when the wait ended it -- recovery decided, or the timeout gave up as
  // `on_timeout` -- and nullopt when the phase was woken.
  Task<std::optional<Status>> AwaitPhase(flight::AbortReason on_timeout);

  Node* node_;
  int thread_;
  bool committed_ = false;
  bool commit_started_ = false;
  bool registered_ = false;
  TxId id_;  // assigned at commit start
  uint64_t begin_time_ = 0;  // sim time of Begin(); start of the execute phase

  // Sorted by address, iterated in std::map order (src/common/flat_map.h).
  FlatMap<GlobalAddr, ReadEntry> reads_;
  FlatMap<GlobalAddr, BufferedWrite> writes_;
  std::vector<GlobalAddr> allocs_;  // reserved slots to release on abort
  // Set once the commit has a write set; shared with the COMMIT-PRIMARY ack
  // callbacks, which may outlive the Transaction.
  std::shared_ptr<CommitPlan> plan_;

  Future<Unit> phase_wake_;
  bool phase_armed_ = false;

  // Lock / validate reply collection.
  bool lock_all_ok_ = true;
  int lock_replies_pending_ = 0;
  int validate_msgs_pending_ = 0;
  bool validate_all_ok_ = true;
  // Set when the recovery protocol decided this transaction's outcome.
  std::optional<bool> recovery_resolution_;
  bool marked_recovering_ = false;
  // Outlives the Transaction in completion closures; cleared by the dtor so
  // late acks never touch a dead object.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace farm

#endif  // SRC_CORE_TX_H_
