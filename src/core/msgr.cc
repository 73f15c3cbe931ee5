#include "src/core/msgr.h"

#include <cstring>

#include "src/net/cost_model.h"

namespace farm {

Messenger::Messenger(Fabric& fabric, Machine& machine, NvramStore& store, Options options,
                     int worker_threads, Emitter* emit)
    : fabric_(fabric),
      emit_(emit),
      machine_(machine),
      store_(store),
      options_(options),
      worker_threads_(worker_threads) {
  FARM_CHECK(worker_threads_ >= 1 && worker_threads_ <= machine_.NumThreads());
}

void Messenger::SetHandlers(LogRecordHandler log_handler, MessageHandler msg_handler) {
  log_handler_ = std::move(log_handler);
  msg_handler_ = std::move(msg_handler);
}

void Messenger::Connect(Messenger& a, Messenger& b) {
  auto wire = [](Messenger& rx, Messenger& tx) {
    // rx hosts the inbound rings for tx; tx gets senders pointing at them.
    FARM_CHECK(rx.inbound_.count(tx.id()) == 0) << "already connected";
    Inbound in;
    in.txlog = std::make_unique<RingReceiver>(&rx.store_, rx.options_.txlog_capacity);
    in.msgq = std::make_unique<RingReceiver>(&rx.store_, rx.options_.msgq_capacity);
    // Feedback words live in the sender's NVRAM.
    uint64_t fb_log = tx.store_.Allocate(8);
    uint64_t fb_msg = tx.store_.Allocate(8);
    in.peer_txlog_feedback = fb_log;
    in.peer_msgq_feedback = fb_msg;

    bool local = &rx == &tx;
    MachineId rx_id = rx.id();
    Messenger* rxp = &rx;
    Outbound out;
    out.id = ++tx.wirings_;
    MachineId tx_id = tx.id();
    out.txlog = std::make_unique<RingSender>(
        &tx.fabric_, tx_id, rx_id, in.txlog->data_base(), rx.options_.txlog_capacity, fb_log,
        &tx.store_, local ? in.txlog.get() : nullptr,
        [rxp, tx_id]() { rxp->SchedulePoll(tx_id, /*is_log=*/true); }, tx.emit_);
    out.msgq = std::make_unique<RingSender>(
        &tx.fabric_, tx_id, rx_id, in.msgq->data_base(), rx.options_.msgq_capacity, fb_msg,
        &tx.store_, local ? in.msgq.get() : nullptr,
        [rxp, tx_id]() { rxp->SchedulePoll(tx_id, /*is_log=*/false); }, tx.emit_);

    rx.inbound_[tx_id] = std::move(in);
    tx.outbound_[rx_id] = std::move(out);
  };
  wire(a, b);
  if (&a != &b) {
    wire(b, a);
  }
}

void Messenger::Reconnect(Messenger& a, Messenger& b) {
  a.inbound_.erase(b.id());
  a.outbound_.erase(b.id());
  b.inbound_.erase(a.id());
  b.outbound_.erase(a.id());
  Connect(a, b);
}

uint32_t Messenger::ReserveLog(MachineId dst, uint32_t payload_len) {
  auto it = outbound_.find(dst);
  FARM_CHECK(it != outbound_.end()) << "no ring to machine " << dst;
  return it->second.txlog->Reserve(payload_len) ? it->second.id : 0;
}

void Messenger::ReleaseLogReservation(MachineId dst, uint32_t payload_len, uint32_t ring) {
  auto it = outbound_.find(dst);
  if (it != outbound_.end() && it->second.id == ring) {
    it->second.txlog->ReleaseReservation(payload_len);
  }
}

Future<NetResult> Messenger::AppendLog(MachineId dst, const TxLogRecord& rec,
                                       uint32_t reserved_len, int thread_idx) {
  uint32_t len = static_cast<uint32_t>(rec.SerializedSize());
  BufWriter w = StartFrame(len);
  rec.SerializeTo(w);
  log_bytes_sent_ += len;
  HwThread* thread = thread_idx >= 0 ? &machine_.thread(thread_idx) : nullptr;
  return outbound_.at(dst).txlog->Append(FinishFrame(w), reserved_len, thread);
}

void Messenger::TruncateLogRecord(MachineId from, uint64_t seq) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  it->second.txlog->MarkFreeable(seq);
  MaybeSendFeedback(from);
}

void Messenger::SendMessage(MachineId dst, MsgType type, std::vector<uint8_t> payload,
                            int thread_idx) {
  auto it = outbound_.find(dst);
  FARM_CHECK(it != outbound_.end()) << "no ring to machine " << dst;
  uint32_t len = static_cast<uint32_t>(1 + payload.size());
  BufWriter w = StartFrame(len);
  w.PutU8(static_cast<uint8_t>(type));
  w.Append(payload.data(), payload.size());
  // Messages are short-lived; if the queue is momentarily full the sender
  // spins on the reservation (receivers free messages as they process).
  FARM_CHECK(it->second.msgq->Reserve(len)) << "message queue to " << dst << " overflow";
  HwThread* thread = nullptr;
  if (thread_idx >= 0) {
    thread = &machine_.thread(thread_idx);
  } else {
    // Replies sent from handler context: charge the send cost to the worker
    // that routes traffic for this peer (the handler's thread).
    machine_.thread(WorkerFor(dst)).InjectBusy(kCost.cpu_rpc_issue / 2);
  }
  (void)it->second.msgq->Append(FinishFrame(w), len, thread);
}

void Messenger::SchedulePoll(MachineId from, bool is_log) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  Inbound& in = it->second;
  bool& flag = is_log ? in.txlog_poll_scheduled : in.msgq_poll_scheduled;
  if (flag) {
    return;
  }
  flag = true;
  // The poll loop runs on a worker thread chosen by sender id; the cost of
  // noticing + dispatching records is charged per record in ProcessInbound.
  machine_.thread(WorkerFor(from)).Run(0, [this, from, is_log]() {
    ProcessInbound(from, is_log);
  });
}

void Messenger::ProcessInbound(MachineId from, bool is_log) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  Inbound& in = it->second;
  HwThread& worker = machine_.thread(WorkerFor(from));
  if (is_log) {
    in.txlog_poll_scheduled = false;
    in.txlog->Drain([&](uint64_t seq, const uint8_t* p, uint32_t n) {
      worker.InjectBusy(kCost.cpu_log_poll + kCost.CpuBytes(n));
      // One copy out of ring memory, which truncation zeroes and a wrap
      // reuses; the record's write values are slices of this copy.
      TxLogRecord rec = TxLogRecord::Parse(SharedBytes(std::vector<uint8_t>(p, p + n)));
      if (log_handler_) {
        log_handler_(from, seq, std::move(rec));
      }
    });
  } else {
    in.msgq_poll_scheduled = false;
    in.msgq->Drain([&](uint64_t seq, const uint8_t* p, uint32_t n) {
      worker.InjectBusy(kCost.cpu_log_poll + kCost.CpuBytes(n));
      FARM_CHECK(n >= 1) << "message without a type";
      MsgType type = static_cast<MsgType>(p[0]);
      std::vector<uint8_t> body(p + 1, p + n);  // before MarkFreeable zeroes it
      in.msgq->MarkFreeable(seq);
      if (msg_handler_) {
        msg_handler_(from, type, std::move(body));
      }
    });
    MaybeSendFeedback(from);
  }
}

void Messenger::MaybeSendFeedback(MachineId from) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  Inbound& in = it->second;
  auto post = [&](RingReceiver& rx, uint64_t& reported, uint64_t peer_addr, uint32_t cap) {
    if (rx.bytes_freed_total() - reported < cap / 8) {
      return;
    }
    reported = rx.bytes_freed_total();
    uint64_t head = rx.head();
    std::vector<uint8_t> bytes(8);
    std::memcpy(bytes.data(), &head, 8);
    if (from == id()) {
      std::memcpy(store_.Data(peer_addr, 8), bytes.data(), 8);
    } else {
      (void)fabric_.Write(id(), from, peer_addr, std::move(bytes), nullptr);
    }
  };
  post(*in.txlog, in.reported_txlog_freed, in.peer_txlog_feedback, options_.txlog_capacity);
  post(*in.msgq, in.reported_msgq_freed, in.peer_msgq_feedback, options_.msgq_capacity);
}

void Messenger::RebuildFromNvram() {
  for (auto& [from, in] : inbound_) {
    (void)from;
    in.txlog_poll_scheduled = false;
    in.msgq_poll_scheduled = false;
    in.txlog->RebuildFromNvram();
    in.msgq->RebuildFromNvram();
  }
}

void Messenger::DrainAllNow() {
  for (auto& [from, in] : inbound_) {
    (void)in;
    ProcessInbound(from, /*is_log=*/true);
    ProcessInbound(from, /*is_log=*/false);
  }
}

}  // namespace farm
