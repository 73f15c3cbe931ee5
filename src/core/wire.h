// Wire formats: log record types (Table 1) and message types (Table 2).
//
// Log records travel inside ring-buffer transaction logs written with
// one-sided RDMA; messages travel in ring-buffer message queues. Both are
// flat byte sequences produced with BufWriter.
#ifndef SRC_CORE_WIRE_H_
#define SRC_CORE_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/common/serde.h"
#include "src/core/types.h"

namespace farm {

// Table 1.
enum class LogRecordType : uint8_t {
  kLock = 1,
  kCommitBackup = 2,
  kCommitPrimary = 3,
  kAbort = 4,
  kTruncate = 5,
};

// Table 2, plus configuration-management and allocation messages that the
// paper describes in prose (sections 3, 5.2, 5.4, 5.5).
enum class MsgType : uint8_t {
  // Transaction protocol.
  kLockReply = 1,
  kValidate = 2,
  kValidateReply = 3,
  // Transaction state recovery (section 5.3).
  kNeedRecovery = 10,
  kFetchTxState = 11,
  kReplicateTxState = 13,
  kReplicateTxStateAck = 14,
  kRecoveryVote = 15,
  kRequestVote = 16,
  kCommitRecovery = 17,
  kAbortRecovery = 18,
  kTruncateRecovery = 19,
  kRecoveryDecisionAck = 20,
  // Reconfiguration (section 5.2).
  kNewConfig = 30,
  kNewConfigAck = 31,
  kNewConfigCommit = 32,
  kRegionsActive = 33,
  kAllRegionsActive = 34,
  kReconfigRequest = 35,  // non-CM asks a backup CM to reconfigure
  kJoinRequest = 36,      // restarted machine asks the CM to re-admit it
  // Region allocation (section 3) and slab allocation (section 5.5).
  kRegionPrepare = 40,
  kRegionCreate = 43,     // app -> CM: allocate a new region
  kRegionCreateReply = 44,
  kAllocRequest = 45,
  kAllocRelease = 47,
  kBlockHeader = 48,      // primary -> backups: replicate slab block header
  kRefRequest = 49,       // fetch a region's RDMA reference from its primary
  // Generic correlated reply envelope for request/response messages.
  kReply = 60,
  // Lease handshake over the message queues (the RPC lease variant).
  kLeaseMsg = 70,
};

// Recovery vote values (section 5.3, step 6).
enum class Vote : uint8_t {
  kCommitPrimary = 1,
  kCommitBackup = 2,
  kLock = 3,
  kAbort = 4,
  kTruncated = 5,
  kUnknown = 6,
};

// Serialized size of a TxId (see PutTxId: u64 + u32 + u16 + u64).
constexpr uint32_t kTxIdWireBytes = 22;

// A write buffered for one object: what it expects there and installs.
struct BufferedWrite {
  uint64_t expected_version = 0;  // version observed at read time
  bool expected_alloc = false;    // alloc bit observed at read time
  bool set_alloc = false;         // allocation: sets the alloc bit
  bool clear_alloc = false;       // free: clears the alloc bit
  SharedBytes value;              // new object payload (empty for free)

  // The full header word this write expects to CAS-lock at the primary.
  uint64_t ExpectedWord() const {
    return (expected_version & ((1ULL << 62) - 1)) | (expected_alloc ? (1ULL << 62) : 0);
  }
  // The alloc bit after this write commits.
  bool AllocAfter() const { return set_alloc ? true : (clear_alloc ? false : expected_alloc); }
};

// A buffered write with its address, as LOCK / COMMIT-BACKUP records carry it.
struct WireWrite : BufferedWrite {
  GlobalAddr addr;
};

// The payload shared by LOCK and COMMIT-BACKUP records (and the tx-state
// recovery messages that carry lock-record contents).
struct TxLogRecord {
  LogRecordType type = LogRecordType::kLock;
  TxId tx;
  // IDs of all regions with objects written by the transaction.
  std::vector<RegionId> written_regions;
  // Writes for objects the destination is primary/backup for.
  std::vector<WireWrite> writes;
  // Piggybacked truncation: transactions whose log records the destination
  // may discard (Table 1's "low bound + IDs to truncate").
  std::vector<TxId> truncate_ids;

  // Appends the record's bytes (SerializedSize() of them) to `w`.
  void SerializeTo(BufWriter& w) const;
  std::vector<uint8_t> Serialize() const;
  // Parses a record occupying `bytes`; its write values are slices of them.
  static TxLogRecord Parse(const SharedBytes& bytes);

  // Serialized size (used for log-space reservations before commit).
  size_t SerializedSize() const;
  // Serialized size of a record carrying `writes`, `regions` written
  // regions and `truncs` truncation ids (what log reservations are sized by).
  static size_t SizeFor(const std::vector<WireWrite>& writes, size_t regions, size_t truncs);
};

void PutTxId(BufWriter& w, const TxId& id);
TxId GetTxId(BufReader& r);
void PutAddr(BufWriter& w, const GlobalAddr& a);
GlobalAddr GetAddr(BufReader& r);

// Truncation ids one record may piggyback.
constexpr size_t kMaxPiggyback = 8;

// Log-space reservation for a record without writes or regions (COMMIT-
// PRIMARY, ABORT, TRUNCATE) with a full piggyback: type, id, three counts, ids.
constexpr uint32_t kSmallRecordReservation =
    1 + kTxIdWireBytes + 3 * 4 + kMaxPiggyback * kTxIdWireBytes;

}  // namespace farm

#endif  // SRC_CORE_WIRE_H_
