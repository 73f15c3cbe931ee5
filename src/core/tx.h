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
#include <map>
#include <memory>
#include <optional>
#include <vector>

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
  void OnLockReply(MachineId from, bool ok);
  void OnValidateReply(MachineId from, bool ok);
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
    MachineId read_from = kInvalidMachine;
  };

  struct WriteEntry {
    uint64_t expected_version = 0;
    bool expected_alloc = false;
    bool set_alloc = false;
    bool clear_alloc = false;
    SharedBytes value;  // shared by every record that carries this write
  };

  // Commit-phase helpers (tx.cc).
  struct Participants {
    // primary machine -> writes shipped in its LOCK record
    std::map<MachineId, std::vector<WireWrite>> primary_writes;
    // backup machine -> writes shipped in its COMMIT-BACKUP record
    std::map<MachineId, std::vector<WireWrite>> backup_writes;
    std::vector<RegionId> written_regions;
    std::vector<MachineId> all_holders;  // every machine holding log records
  };
  StatusOr<Participants> BuildParticipants() const;
  bool ReserveLogs(const Participants& p);
  // Ends the commit attempt; every exit of Commit returns through here.
  // `outcome` is the flight::AbortReason of an abort or unresolved exit, or
  // one of the commit outcomes defined in tx.cc. `p` is set once LOCK
  // records are out, so an abort can release them. Returns `status`.
  Status Finish(flight::AbortReason outcome, Status status, const Participants* p = nullptr);
  // Finish with the outcome recovery decided.
  Status FinishFromRecovery();
  Task<Status> ValidatePhase();
  void AbortParticipants(const Participants& p);
  void ReleaseAllocs();
  TxLogRecord MakeRecord(LogRecordType type, MachineId dst,
                         const std::vector<WireWrite>* writes,
                         const std::vector<RegionId>& regions) const;

  // Wakes the commit coroutine from its current wait; each phase arms a
  // fresh future. Recovery resolution also fires it.
  void WakePhase();
  // Waits for WakePhase or the safety-net timeout; false on timeout.
  Task<bool> AwaitPhase();

  Node* node_;
  int thread_;
  TxId id_;  // assigned at commit start
  ConfigId begin_config_;
  uint64_t begin_time_ = 0;  // sim time of Begin(); start of the execute phase
  bool committed_ = false;
  bool commit_started_ = false;
  bool registered_ = false;

  std::map<GlobalAddr, ReadEntry> reads_;
  std::map<GlobalAddr, WriteEntry> writes_;
  std::vector<GlobalAddr> allocs_;  // reserved slots to release on abort

  Future<Unit> phase_wake_;
  bool phase_armed_ = false;

  // Lock / validate reply collection.
  int lock_replies_pending_ = 0;
  bool lock_all_ok_ = true;
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
