// Per-node communication endpoint: the transaction log and message queue
// rings to/from every peer (section 3).
//
// Sending a log record is a one-sided RDMA write acked by the receiver's
// NIC; the returned future IS the hardware ack. Record processing happens
// later on a receiver worker thread (the poll loop), which is why backups do
// no foreground work during commit. Messages use the same rings but are
// freed as soon as they are handled; log records persist until truncated.
#ifndef SRC_CORE_MSGR_H_
#define SRC_CORE_MSGR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/core/ringlog.h"
#include "src/core/wire.h"
#include "src/net/fabric.h"
#include "src/nvram/nvram.h"

namespace farm {

class Messenger {
 public:
  struct Options {
    uint32_t txlog_capacity = 1 << 20;
    uint32_t msgq_capacity = 1 << 19;
  };

  // The handler owns the parsed record; seq names its frame for
  // TruncateLogRecord.
  using LogRecordHandler = std::function<void(MachineId from, uint64_t seq, TxLogRecord rec)>;
  using MessageHandler =
      std::function<void(MachineId from, MsgType type, std::vector<uint8_t> payload)>;

  // Inbound processing runs on threads [0, worker_threads); ring appends
  // report to the node's `emit`.
  Messenger(Fabric& fabric, Machine& machine, NvramStore& store, Options options,
            int worker_threads, Emitter* emit = nullptr);

  void SetHandlers(LogRecordHandler log_handler, MessageHandler msg_handler);

  // Creates the ring pair between two nodes (both directions). Self-rings
  // (a == b) give the local fast path when the coordinator is itself a
  // participant.
  static void Connect(Messenger& a, Messenger& b);
  // Tears down any existing ring pair between the two nodes (both
  // directions) and wires a fresh one. Used when a machine rejoins with
  // empty state: the old rings' NVRAM space is abandoned (never recycled),
  // which mirrors a replacement process registering new queue pairs.
  static void Reconnect(Messenger& a, Messenger& b);
  // Drops all rings (a cold process restart forgetting its queue pairs).
  void Reset() {
    inbound_.clear();
    outbound_.clear();
  }
  bool ConnectedTo(MachineId peer) const { return outbound_.count(peer) != 0; }

  MachineId id() const { return machine_.id(); }
  Machine& machine() { return machine_; }

  // ---- transaction log ----
  // Reserves room for a record of `payload_len` bytes on the ring toward
  // `dst`; returns the ring's id, or 0 if it cannot fit. Reconnect and Reset
  // drop a ring with its reservations, so a release names the ring it
  // reserved on and does nothing once that ring is gone.
  uint32_t ReserveLog(MachineId dst, uint32_t payload_len);
  void ReleaseLogReservation(MachineId dst, uint32_t payload_len, uint32_t ring);
  // Bytes reserved on the ring toward `dst`, not yet consumed or released.
  uint64_t LogReserved(MachineId dst) const {
    return outbound_.at(dst).lanes[kTxLog]->reserved();
  }
  // Consumes a reservation of `reserved_len` bytes (>= the record's
  // serialized size). Future completes on the hardware ack.
  Future<NetResult> AppendLog(MachineId dst, const TxLogRecord& rec, uint32_t reserved_len,
                              int thread_idx);
  // Frees an inbound record's frame (its space becomes reusable).
  void TruncateLogRecord(MachineId from, uint64_t seq);

  // ---- messages ----
  void SendMessage(MachineId dst, MsgType type, std::vector<uint8_t> payload, int thread_idx);
  // Sends one message body (a struct from wire.h).
  template <class M>
  void Send(MachineId dst, const M& msg, int thread_idx) {
    SendMessage(dst, M::kType, Encode(msg), thread_idx);
  }

  // ---- recovery support ----
  // Synchronously processes everything already in the inbound rings
  // (section 5.3 step 2, "drain logs"). CPU cost is charged as one lump on
  // thread 0 by the caller's recovery logic.
  void DrainAllNow();

  // Power-failure restart: drops all volatile ring state and re-parses the
  // NVRAM rings from their persisted heads. Non-truncated records surface
  // again through the normal handlers (which are idempotent).
  void RebuildFromNvram();

  // Total log payload bytes appended (stats).
  uint64_t log_bytes_sent() const { return log_bytes_sent_; }

  // The worker thread that polls `peer`'s rings and runs its handlers.
  int WorkerFor(MachineId peer) const {
    return static_cast<int>(peer % static_cast<MachineId>(worker_threads_));
  }

 private:
  // The two ring kinds of a pair, in the order every step visits them.
  enum Kind { kTxLog = 0, kMsgQueue = 1, kKinds = 2 };

  // One inbound ring from a peer.
  struct Lane {
    std::unique_ptr<RingReceiver> rx;
    uint64_t peer_feedback = 0;  // word in the *peer's* NVRAM where we post freed heads
    uint64_t reported_freed = 0;
    bool poll_scheduled = false;
  };

  struct Inbound {
    std::array<Lane, kKinds> lanes;
  };

  struct Outbound {
    std::array<std::unique_ptr<RingSender>, kKinds> lanes;
    uint32_t id = 0;  // names the pair: this messenger's wiring count at Connect
  };

  uint32_t Capacity(Kind kind) const {
    return kind == kTxLog ? options_.txlog_capacity : options_.msgq_capacity;
  }
  void SchedulePoll(MachineId from, Kind kind);
  void ProcessInbound(MachineId from, Kind kind);
  void MaybeSendFeedback(MachineId from);

  Fabric& fabric_;
  Emitter* emit_;
  Machine& machine_;
  NvramStore& store_;
  Options options_;
  int worker_threads_;
  LogRecordHandler log_handler_;
  MessageHandler msg_handler_;
  std::map<MachineId, Inbound> inbound_;
  std::map<MachineId, Outbound> outbound_;
  uint64_t log_bytes_sent_ = 0;
  uint32_t wirings_ = 0;
};

}  // namespace farm

#endif  // SRC_CORE_MSGR_H_
