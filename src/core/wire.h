// Wire formats: log record types (Table 1) and message bodies (Table 2).
//
// Log records travel inside ring-buffer transaction logs written with
// one-sided RDMA; messages travel in ring-buffer message queues. Both are
// flat byte sequences. Every record and message body is a struct whose
// Fields(f) member lists its fields once, in wire order; Encode and Decode
// walk that list, so each layout is written down in exactly one place.
#ifndef SRC_CORE_WIRE_H_
#define SRC_CORE_WIRE_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/serde.h"
#include "src/core/alloc.h"
#include "src/core/config.h"
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

// Serialized size of a TxId (u64 + u32 + u16 + u64).
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

// A buffered write with its address, as LOCK / COMMIT-BACKUP records carry
// it: address, expected version, one flags byte, then the length-prefixed value.
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

  template <class F> void Fields(F&& f) { f(type, tx, written_regions, writes, truncate_ids); }
};

// Truncation ids one record may piggyback.
constexpr size_t kMaxPiggyback = 8;

// Log-space reservation for a record without writes or regions (COMMIT-
// PRIMARY, ABORT, TRUNCATE) with a full piggyback: type, id, three counts, ids.
constexpr uint32_t kSmallRecordReservation =
    1 + kTxIdWireBytes + 3 * 4 + kMaxPiggyback * kTxIdWireBytes;

// ---------------------------------------------------------------------------
// The field codec. A field is an unsigned integer, an enum (as its
// underlying type), a bool (u8), a GlobalAddr (u64), a WireWrite, a
// SharedBytes (u32 length, bytes), a Configuration, a struct with its own
// Fields (TxId, RegionPlacement, a message body), or a u32-counted
// std::vector of fields. Prefixed<T>{x} writes x after its u32 byte length.
// ---------------------------------------------------------------------------

template <class T>
struct Prefixed {
  T& value;
};

// A writer sink that only counts: Encode sizes its buffer exactly with it.
struct ByteCounter {
  size_t size = 0;
  void PutU8(uint8_t) { size += 1; }
  void PutU16(uint16_t) { size += 2; }
  void PutU32(uint32_t) { size += 4; }
  void PutU64(uint64_t) { size += 8; }
  void PutBytes(const void*, size_t len) { size += 4 + len; }
};

template <class... Parts>
size_t WireSize(const Parts&... parts);

template <class T>
concept HasFields = requires(T& t) { t.Fields([](auto&&...) {}); };
template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

// Writes fields in wire order to a BufWriter or a ByteCounter.
template <class Sink>
class WireWriter {
 public:
  explicit WireWriter(Sink& sink) : sink_(sink) {}
  template <class... T>
  void operator()(const T&... v) {
    (Put(v), ...);
  }

 private:
  template <class T>
  void Put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      Put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      // Typed puts: Append(&v, sizeof(T)) encoded records half as fast (GCC 12, -O2).
      static_assert(std::is_unsigned_v<T>, "wire integers are unsigned");
      if constexpr (sizeof(T) == 1) {
        sink_.PutU8(v);
      } else if constexpr (sizeof(T) == 2) {
        sink_.PutU16(v);
      } else if constexpr (sizeof(T) == 4) {
        sink_.PutU32(v);
      } else {
        sink_.PutU64(v);
      }
    } else if constexpr (kIsVector<T>) {
      Put(static_cast<uint32_t>(v.size()));
      for (const auto& e : v) {
        Put(e);
      }
    } else if constexpr (HasFields<T>) {
      const_cast<T&>(v).Fields(*this);  // the list only reads through here
    } else {
      PutLeaf(v);
    }
  }

  void PutLeaf(const GlobalAddr& a) { Put(a.Packed()); }
  void PutLeaf(const SharedBytes& b) { sink_.PutBytes(b.data(), b.size()); }
  void PutLeaf(const WireWrite& w) {
    const uint8_t flags =
        (w.set_alloc ? 1 : 0) | (w.clear_alloc ? 2 : 0) | (w.expected_alloc ? 4 : 0);
    (*this)(w.addr, w.expected_version, flags, w.value);
  }
  // A configuration (the NEW-CONFIG body, and what the coordination service
  // stores): each member with its failure domain (0 if none is listed), the
  // CM, the next region id, then each region's id and placement.
  void PutLeaf(const Configuration& c) {
    (*this)(c.id, static_cast<uint32_t>(c.machines.size()));
    for (MachineId m : c.machines) {
      auto it = c.failure_domains.find(m);
      (*this)(m, it == c.failure_domains.end() ? 0u : static_cast<uint32_t>(it->second));
    }
    (*this)(c.cm, c.next_region_id, static_cast<uint32_t>(c.regions.size()));
    for (const auto& [rid, p] : c.regions) {
      (*this)(rid, p);
    }
  }
  template <class T>
  void PutLeaf(const Prefixed<T>& p) {
    (*this)(static_cast<uint32_t>(WireSize(p.value)), p.value);
  }

  Sink& sink_;
};

// Reads fields in wire order. A SharedBytes field (a write's value) is a
// slice of the buffer being read, not a copy.
class WireReader {
 public:
  explicit WireReader(const SharedBytes& bytes)
      : r_(bytes.data(), bytes.size()), shared_(bytes) {}
  // The first slice takes `bytes` over (moving a vector keeps its buffer).
  explicit WireReader(std::vector<uint8_t>& bytes) : r_(bytes), owner_(&bytes) {}
  template <class... T>
  void operator()(T&&... v) {
    (Get(v), ...);
  }

 private:
  template <class T>
  void Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.Get<uint8_t>() != 0;
    } else if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
      using Wire = typename std::conditional_t<std::is_enum_v<T>, std::underlying_type<T>,
                                               std::type_identity<T>>::type;
      v = static_cast<T>(r_.Get<Wire>());
    } else if constexpr (kIsVector<T>) {
      const uint32_t n = r_.Get<uint32_t>();
      v.clear();
      v.reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        Get(v.emplace_back());
      }
    } else if constexpr (HasFields<T>) {
      v.Fields(*this);
    } else {
      GetLeaf(v);
    }
  }

  void GetLeaf(GlobalAddr& a) { a = GlobalAddr::FromPacked(r_.Get<uint64_t>()); }
  void GetLeaf(SharedBytes& b);
  void GetLeaf(WireWrite& w);
  void GetLeaf(Configuration& c);
  template <class T>
  void GetLeaf(Prefixed<T>& p) {
    const uint32_t len = r_.Get<uint32_t>();
    const size_t start = r_.pos();
    Get(p.value);
    FARM_CHECK(r_.pos() - start == len) << "length-prefixed field overrun";
  }

  BufReader r_;
  SharedBytes shared_;
  std::vector<uint8_t>* owner_ = nullptr;
};

// The number of bytes Encode(parts...) returns (log-space reservations and
// ring frames are sized by it).
template <class... Parts>
size_t WireSize(const Parts&... parts) {
  ByteCounter n;
  WireWriter<ByteCounter> count(n);
  count(parts...);
  return n.size;
}

// The bytes of `parts`, back to back, in one exactly sized buffer.
template <class... Parts>
std::vector<uint8_t> Encode(const Parts&... parts) {
  BufWriter w(WireSize(parts...));
  WireWriter<BufWriter> write(w);
  write(parts...);
  return w.Take();
}

// Reads an M from the front of `bytes` (a SharedBytes, or a vector that its
// first SharedBytes field takes over); SharedBytes fields are slices of them.
template <class M, class Bytes>
M Decode(Bytes&& bytes) {
  M m;
  WireReader r(bytes);
  r(m);
  return m;
}

// ---------------------------------------------------------------------------
// Requests and replies. A request body follows the caller's u64
// correlation; the answer is a kReply carrying the correlation, a u8 status
// code and, if the code is kOk, the request's Reply body.
// ---------------------------------------------------------------------------

template <class Req>
struct Correlated {
  uint64_t correlation = 0;
  Req body;
  template <class F> void Fields(F&& f) { f(correlation, body); }
};

struct ReplyHeader {
  uint64_t correlation = 0;
  uint8_t code = 0;  // a StatusCode
  template <class F> void Fields(F&& f) { f(correlation, code); }
};

template <class Rep>
struct Replied {
  ReplyHeader header;
  Rep body;
  template <class F> void Fields(F&& f) { f(header, body); }
};

// ---------------------------------------------------------------------------
// Table 2: one body per message type. Bodies of the same shape share a
// template; each message is still one named type.
// ---------------------------------------------------------------------------

template <MsgType T>
struct TxMsg {
  static constexpr MsgType kType = T;
  TxId tx;
  template <class F> void Fields(F&& f) { f(tx); }
};

template <MsgType T>
struct TxOutcomeMsg {
  static constexpr MsgType kType = T;
  TxId tx;
  bool ok = false;
  template <class F> void Fields(F&& f) { f(tx, ok); }
};

template <MsgType T>
struct ConfigMsg {
  static constexpr MsgType kType = T;
  ConfigId config = 0;
  template <class F> void Fields(F&& f) { f(config); }
};

// Names one recovering transaction at one region in one configuration.
template <MsgType T, class R = void>
struct RegionTxMsg {
  static constexpr MsgType kType = T;
  using Reply = R;
  ConfigId config = 0;
  RegionId region = 0;
  TxId tx;
  template <class F> void Fields(F&& f) { f(config, region, tx); }
};

// Transaction protocol (section 4).
using LockReply = TxOutcomeMsg<MsgType::kLockReply>;
using ValidateReply = TxOutcomeMsg<MsgType::kValidateReply>;

struct ObjectWord {
  GlobalAddr addr;
  uint64_t word = 0;  // the header word read at execution time
  template <class F> void Fields(F&& f) { f(addr, word); }
};

struct Validate {
  static constexpr MsgType kType = MsgType::kValidate;
  TxId tx;
  std::vector<ObjectWord> objects;
  template <class F> void Fields(F&& f) { f(tx, objects); }
};

// Transaction state recovery (section 5.3).
struct RecoveringTx {
  TxId tx;
  Vote strength = Vote::kUnknown;
  bool saw_abort_recovery = false;
  bool has_contents = false;
  template <class F> void Fields(F&& f) { f(tx, strength, saw_abort_recovery, has_contents); }
};

struct NeedRecovery {
  static constexpr MsgType kType = MsgType::kNeedRecovery;
  ConfigId config = 0;
  RegionId region = 0;
  std::vector<RecoveringTx> txs;
  template <class F> void Fields(F&& f) { f(config, region, txs); }
};

// Answered with the backup's kept record for the transaction (SEND-TX-STATE).
using FetchTxState = RegionTxMsg<MsgType::kFetchTxState, TxLogRecord>;

struct ReplicateTxState {
  static constexpr MsgType kType = MsgType::kReplicateTxState;
  ConfigId config = 0;
  RegionId region = 0;
  TxId tx;
  TxLogRecord record;
  template <class F> void Fields(F&& f) { f(config, region, tx, Prefixed<TxLogRecord>{record}); }
};

using ReplicateTxStateAck = RegionTxMsg<MsgType::kReplicateTxStateAck>;

struct RecoveryVote {
  static constexpr MsgType kType = MsgType::kRecoveryVote;
  ConfigId config = 0;
  RegionId region = 0;
  TxId tx;
  std::vector<RegionId> written_regions;
  Vote vote = Vote::kUnknown;
  template <class F> void Fields(F&& f) { f(config, region, tx, written_regions, vote); }
};

using RequestVote = RegionTxMsg<MsgType::kRequestVote>;
using CommitRecovery = TxMsg<MsgType::kCommitRecovery>;
using AbortRecovery = TxMsg<MsgType::kAbortRecovery>;
using RecoveryDecisionAck = TxMsg<MsgType::kRecoveryDecisionAck>;

struct TruncateRecovery {
  static constexpr MsgType kType = MsgType::kTruncateRecovery;
  TxId tx;
  bool commit = false;  // false: discard kept COMMIT-BACKUP records
  template <class F> void Fields(F&& f) { f(tx, commit); }
};

// Reconfiguration (section 5.2).
struct NewConfig {
  static constexpr MsgType kType = MsgType::kNewConfig;
  Configuration config;
  template <class F> void Fields(F&& f) { f(config); }
};

using NewConfigAck = ConfigMsg<MsgType::kNewConfigAck>;
using NewConfigCommit = ConfigMsg<MsgType::kNewConfigCommit>;
using RegionsActive = ConfigMsg<MsgType::kRegionsActive>;
using AllRegionsActive = ConfigMsg<MsgType::kAllRegionsActive>;

struct ReconfigRequest {
  static constexpr MsgType kType = MsgType::kReconfigRequest;
  MachineId suspect = kInvalidMachine;
  template <class F> void Fields(F&& f) { f(suspect); }
};

struct JoinRequest {
  static constexpr MsgType kType = MsgType::kJoinRequest;
  uint32_t failure_domain = 0;
  template <class F> void Fields(F&& f) { f(failure_domain); }
};

// Region allocation (section 3) and slab allocation (section 5.5).
struct RegionPrepare {
  static constexpr MsgType kType = MsgType::kRegionPrepare;
  RegionId region = 0;
  uint32_t size = 0;
  uint32_t object_stride = 0;
  template <class F> void Fields(F&& f) { f(region, size, object_stride); }
  struct Reply {
    template <class F> void Fields(F&&) {}
  };
};

struct RegionCreate {
  static constexpr MsgType kType = MsgType::kRegionCreate;
  uint32_t size = 0;
  uint32_t object_stride = 0;
  RegionId colocate_with = kInvalidRegion;
  template <class F> void Fields(F&& f) { f(size, object_stride, colocate_with); }
  struct Reply {
    RegionId region = 0;
    template <class F> void Fields(F&& f) { f(region); }
  };
};

// The CM's broadcast of a new region's mapping.
struct RegionCreateReply {
  static constexpr MsgType kType = MsgType::kRegionCreateReply;
  RegionId region = 0;
  RegionPlacement placement;
  template <class F> void Fields(F&& f) { f(region, placement); }
};

struct AllocRequest {
  static constexpr MsgType kType = MsgType::kAllocRequest;
  RegionId region = 0;
  uint32_t payload_size = 0;
  template <class F> void Fields(F&& f) { f(region, payload_size); }
  using Reply = RegionAllocator::Slot;
};

struct AllocRelease {
  static constexpr MsgType kType = MsgType::kAllocRelease;
  GlobalAddr addr;
  template <class F> void Fields(F&& f) { f(addr); }
};

struct BlockHeader {
  static constexpr MsgType kType = MsgType::kBlockHeader;
  RegionId region = 0;
  std::vector<RegionAllocator::BlockHeader> headers;
  template <class F> void Fields(F&& f) { f(region, headers); }
};

struct RefRequest {
  static constexpr MsgType kType = MsgType::kRefRequest;
  RegionId region = 0;
  template <class F> void Fields(F&& f) { f(region); }
  struct Reply {
    uint64_t base = 0;  // NVRAM base of the region at its primary
    template <class F> void Fields(F&& f) { f(base); }
  };
};

}  // namespace farm

#endif  // SRC_CORE_WIRE_H_
