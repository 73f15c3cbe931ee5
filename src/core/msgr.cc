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
    for (Kind k : {kTxLog, kMsgQueue}) {
      in.lanes[k].rx = std::make_unique<RingReceiver>(&rx.store_, rx.Capacity(k));
    }
    Outbound out;
    out.id = ++tx.wirings_;
    MachineId tx_id = tx.id();
    Messenger* rxp = &rx;
    for (Kind k : {kTxLog, kMsgQueue}) {
      Lane& lane = in.lanes[k];
      // Feedback words live in the sender's NVRAM.
      lane.peer_feedback = tx.store_.Allocate(8);
      out.lanes[k] = std::make_unique<RingSender>(
          &tx.fabric_, tx_id, rx.id(), lane.rx->data_base(), rx.Capacity(k), lane.peer_feedback,
          &tx.store_, &rx == &tx ? lane.rx.get() : nullptr,
          [rxp, tx_id, k]() { rxp->SchedulePoll(tx_id, k); }, tx.emit_);
    }
    rx.inbound_[tx_id] = std::move(in);
    tx.outbound_[rx.id()] = std::move(out);
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
  return it->second.lanes[kTxLog]->Reserve(payload_len) ? it->second.id : 0;
}

void Messenger::ReleaseLogReservation(MachineId dst, uint32_t payload_len, uint32_t ring) {
  auto it = outbound_.find(dst);
  if (it != outbound_.end() && it->second.id == ring) {
    it->second.lanes[kTxLog]->ReleaseReservation(payload_len);
  }
}

Future<NetResult> Messenger::AppendLog(MachineId dst, const TxLogRecord& rec,
                                       uint32_t reserved_len, int thread_idx) {
  uint32_t len = static_cast<uint32_t>(WireSize(rec));
  BufWriter w = StartFrame(len);
  WireWriter<BufWriter> write(w);
  write(rec);
  log_bytes_sent_ += len;
  HwThread* thread = thread_idx >= 0 ? &machine_.thread(thread_idx) : nullptr;
  return outbound_.at(dst).lanes[kTxLog]->Append(FinishFrame(w), reserved_len, thread);
}

void Messenger::TruncateLogRecord(MachineId from, uint64_t seq) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  it->second.lanes[kTxLog].rx->MarkFreeable(seq);
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
  RingSender& msgq = *it->second.lanes[kMsgQueue];
  FARM_CHECK(msgq.Reserve(len)) << "message queue to " << dst << " overflow";
  HwThread* thread = nullptr;
  if (thread_idx >= 0) {
    thread = &machine_.thread(thread_idx);
  } else {
    // Replies sent from handler context: charge the send cost to the worker
    // that routes traffic for this peer (the handler's thread).
    machine_.thread(WorkerFor(dst)).InjectBusy(kCost.cpu_rpc_issue / 2);
  }
  (void)msgq.Append(FinishFrame(w), len, thread);
}

void Messenger::SchedulePoll(MachineId from, Kind kind) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  Lane& lane = it->second.lanes[kind];
  if (lane.poll_scheduled) {
    return;
  }
  lane.poll_scheduled = true;
  // The poll loop runs on a worker thread chosen by sender id; the cost of
  // noticing + dispatching records is charged per record in ProcessInbound.
  machine_.thread(WorkerFor(from)).Run(0, [this, from, kind]() { ProcessInbound(from, kind); });
}

void Messenger::ProcessInbound(MachineId from, Kind kind) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  Lane& lane = it->second.lanes[kind];
  HwThread& worker = machine_.thread(WorkerFor(from));
  lane.poll_scheduled = false;
  lane.rx->Drain([&](uint64_t seq, const uint8_t* p, uint32_t n) {
    worker.InjectBusy(kCost.cpu_log_poll + kCost.CpuBytes(n));
    if (kind == kTxLog) {
      // One copy out of ring memory, which truncation zeroes and a wrap
      // reuses; the record's write values are slices of this copy.
      auto rec = Decode<TxLogRecord>(SharedBytes(std::vector<uint8_t>(p, p + n)));
      if (log_handler_) {
        log_handler_(from, seq, std::move(rec));
      }
      return;
    }
    FARM_CHECK(n >= 1) << "message without a type";
    MsgType type = static_cast<MsgType>(p[0]);
    std::vector<uint8_t> body(p + 1, p + n);  // before MarkFreeable zeroes it
    lane.rx->MarkFreeable(seq);
    if (msg_handler_) {
      msg_handler_(from, type, std::move(body));
    }
  });
  if (kind == kMsgQueue) {
    MaybeSendFeedback(from);
  }
}

void Messenger::MaybeSendFeedback(MachineId from) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  for (Kind k : {kTxLog, kMsgQueue}) {
    Lane& lane = it->second.lanes[k];
    if (lane.rx->bytes_freed_total() - lane.reported_freed < Capacity(k) / 8) {
      continue;
    }
    lane.reported_freed = lane.rx->bytes_freed_total();
    uint64_t head = lane.rx->head();
    std::vector<uint8_t> bytes(8);
    std::memcpy(bytes.data(), &head, 8);
    if (from == id()) {
      std::memcpy(store_.Data(lane.peer_feedback, 8), bytes.data(), 8);
    } else {
      (void)fabric_.Write(id(), from, lane.peer_feedback, std::move(bytes), nullptr);
    }
  }
}

void Messenger::RebuildFromNvram() {
  for (auto& [from, in] : inbound_) {
    (void)from;
    for (Lane& lane : in.lanes) {
      lane.poll_scheduled = false;
      lane.rx->RebuildFromNvram();
    }
  }
}

void Messenger::DrainAllNow() {
  for (auto& [from, in] : inbound_) {
    (void)in;
    for (Kind k : {kTxLog, kMsgQueue}) {
      ProcessInbound(from, k);
    }
  }
}

}  // namespace farm
