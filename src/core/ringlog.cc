#include "src/core/ringlog.h"

#include <cstring>

#include "src/common/hash.h"
#include "src/core/emit.h"
#include "src/obs/fault_hook.h"

namespace farm {

namespace {

// One FNV-1a step over an 8-byte word, folding the high half down after the
// multiply so every input bit reaches the kept 32.
uint64_t CheckStep(uint64_t h, uint64_t word) {
  h = (h ^ word) * 1099511628211ULL;
  return h ^ (h >> 32);
}

uint64_t LoadWord(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

}  // namespace

uint32_t FrameCheck(const uint8_t* payload, uint32_t len) {
  // Four independent lanes over each 32-byte block, so the multiplies of a
  // block overlap instead of forming one serial chain; the zero-padded tail
  // words go into lane 0.
  constexpr uint64_t kBasis = 14695981039346656037ULL;
  uint64_t h0 = kBasis;
  uint64_t h1 = kBasis + 1;
  uint64_t h2 = kBasis + 2;
  uint64_t h3 = kBasis + 3;
  uint32_t i = 0;
  for (; len - i >= 32; i += 32) {
    h0 = CheckStep(h0, LoadWord(payload + i));
    h1 = CheckStep(h1, LoadWord(payload + i + 8));
    h2 = CheckStep(h2, LoadWord(payload + i + 16));
    h3 = CheckStep(h3, LoadWord(payload + i + 24));
  }
  for (; i < len; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, payload + i, len - i >= 8 ? 8 : len - i);
    h0 = CheckStep(h0, word);
  }
  uint64_t h = HashCombine(HashCombine(h0, h1), HashCombine(h2, h3));
  return static_cast<uint32_t>(HashCombine(h, len)) | 1u;
}

BufWriter StartFrame(uint32_t payload_len) {
  BufWriter w(FramedLen(payload_len));
  w.PutU32(payload_len);
  w.PutU32(0);  // check: RingSender::Append fills it in
  return w;
}

std::vector<uint8_t> FinishFrame(BufWriter& w) {
  std::vector<uint8_t> frame = w.Take();
  uint32_t len;
  std::memcpy(&len, frame.data(), 4);
  FARM_CHECK(frame.size() == kFrameHeaderBytes + len) << "payload differs from its frame header";
  frame.resize(FramedLen(len));
  return frame;
}

RingReceiver::RingReceiver(NvramStore* store, uint32_t capacity) : cap_(capacity) {
  FARM_CHECK(capacity % 8 == 0 && capacity >= 64);
  base_ = store->Allocate(8 + capacity);  // [u64 persisted head][data]
  head_word_ = store->Data(base_, 8 + capacity);
}

uint8_t* RingReceiver::At(uint64_t abs, uint32_t len) {
  uint64_t off = abs % cap_;
  FARM_CHECK(off + len <= cap_) << "frame straddles ring end";
  return head_word_ + 8 + off;
}

uint32_t RingReceiver::PeekLen(uint64_t abs) {
  uint32_t len;
  std::memcpy(&len, At(abs, 4), 4);
  return len;
}

int RingReceiver::Drain(Visitor fn) {
  int surfaced = 0;
  for (;;) {
    uint64_t off = parse_ % cap_;
    uint32_t contiguous = cap_ - static_cast<uint32_t>(off);
    if (contiguous < kFrameHeaderBytes) {
      // Degenerate tail; senders never leave <8 bytes (frames are 8-aligned).
      parse_ += contiguous;
      continue;
    }
    uint32_t len = PeekLen(parse_);
    if (len == 0) {
      break;  // nothing (yet) at the parse position
    }
    if (len == kWrapMarker) {
      frames_.push_back(Frame{parse_, contiguous, true, true, 0});
      parse_ += contiguous;
      AdvanceHead();
      continue;
    }
    uint32_t framed = FramedLen(len);
    if (len > cap_ || framed > contiguous) {
      // Implausible length: a torn header. The single writer appends frames
      // in order, so this can only be the tail of the log -- stop here.
      NoteTorn();
      break;
    }
    const uint8_t* f = At(parse_, framed);
    uint32_t check;
    std::memcpy(&check, f + 4, 4);
    if (check != FrameCheck(f + kFrameHeaderBytes, len)) {
      NoteTorn();  // torn payload (or checksum word): stop at the tear
      break;
    }
    uint64_t seq = next_seq_++;
    frames_.push_back(Frame{parse_, framed, false, false, seq});
    parse_ += framed;
    surfaced++;
    fn(seq, f + kFrameHeaderBytes, len);
  }
  return surfaced;
}

void RingReceiver::MarkFreeable(uint64_t seq) {
  for (Frame& f : frames_) {
    if (!f.is_marker && f.seq == seq) {
      f.freeable = true;
      break;
    }
  }
  AdvanceHead();
}

void RingReceiver::AdvanceHead() {
  bool moved = false;
  while (!frames_.empty() && frames_.front().freeable) {
    Frame f = frames_.front();
    frames_.pop_front();
    // Zero the freed range so a future wrap parses cleanly.
    std::memset(At(f.pos, f.framed_len), 0, f.framed_len);
    head_ += f.framed_len;
    bytes_freed_total_ += f.framed_len;
    moved = true;
  }
  if (moved) {
    // Persist the head so power-failure recovery knows where to re-parse.
    std::memcpy(head_word_, &head_, 8);
  }
}

void RingReceiver::NoteTorn() {
  // Count each tear once even though every Drain poll re-observes it
  // (positions are absolute, so this also dedupes across RebuildFromNvram).
  if (torn_at_ != parse_ + 1) {
    torn_frames_++;
    torn_at_ = parse_ + 1;
  }
}

void RingReceiver::RebuildFromNvram() {
  frames_.clear();
  std::memcpy(&head_, head_word_, 8);
  parse_ = head_;
  next_seq_ = 0;
}

RingSender::RingSender(Fabric* fabric, MachineId self, MachineId peer, uint64_t ring_data_base,
                       uint32_t capacity, uint64_t feedback_addr, NvramStore* self_store,
                       RingReceiver* local_receiver, std::function<void()> poke_receiver,
                       Emitter* emit)
    : fabric_(fabric),
      emit_(emit),
      self_(self),
      peer_(peer),
      data_base_(ring_data_base),
      cap_(capacity),
      feedback_(self_store->Data(feedback_addr, 8)),
      self_store_(self_store),
      local_receiver_(local_receiver),
      poke_receiver_(std::move(poke_receiver)) {}

uint64_t RingSender::HeadView() const {
  uint64_t head;
  std::memcpy(&head, feedback_, 8);
  return head;
}

uint64_t RingSender::FreeBytes() const {
  uint64_t used = tail_ - HeadView();
  FARM_CHECK(used <= cap_);
  return cap_ - used;
}

bool RingSender::Reserve(uint32_t payload_len) {
  // Doubled to cover worst-case wrap-marker waste.
  uint64_t need = 2ULL * FramedLen(payload_len);
  if (FreeBytes() < reserved_ + need) {
    return false;
  }
  reserved_ += need;
  return true;
}

void RingSender::ReleaseReservation(uint32_t payload_len) {
  uint64_t give = 2ULL * FramedLen(payload_len);
  FARM_CHECK(reserved_ >= give);
  reserved_ -= give;
}

Future<NetResult> RingSender::Append(std::vector<uint8_t> frame, uint32_t reserved_len,
                                     HwThread* thread) {
  uint32_t len;
  std::memcpy(&len, frame.data(), 4);
  uint32_t framed = static_cast<uint32_t>(frame.size());
  FARM_CHECK(framed == FramedLen(len)) << "not a frame from StartFrame/FinishFrame";
  FARM_CHECK(len <= reserved_len) << "record larger than its reservation";
  uint32_t effect = emit_ != nullptr ? emit_->Report(Step::kRingAppend, peer_) : fault::kEffectNone;
  ReleaseReservation(reserved_len);
  FARM_CHECK(tail_ - HeadView() + framed <= cap_) << "ring overflow despite reservation";

  uint32_t off = static_cast<uint32_t>(tail_ % cap_);
  uint32_t contiguous = cap_ - off;
  if (framed > contiguous) {
    // Emit a wrap marker and continue at the ring start.
    std::vector<uint8_t> marker(4, 0xFF);  // kWrapMarker
    if (local_receiver_ != nullptr) {
      std::memcpy(self_store_->Data(data_base_ + off, 4), marker.data(), 4);
    } else {
      // Fire-and-forget, and nothing orders it before the record write
      // below: the fabric sends a machine's verbs out of its NICs in turn,
      // so the record can land first and its receiver's poke find zeros
      // here (ROADMAP item 1, "model RC ordering").
      (void)fabric_->Write(self_, peer_, data_base_ + off, std::move(marker), nullptr);
    }
    tail_ += contiguous;
    off = 0;
    FARM_CHECK(tail_ - HeadView() + framed <= cap_) << "ring overflow after wrap";
  }

  uint32_t check = FrameCheck(frame.data() + kFrameHeaderBytes, len);
  std::memcpy(frame.data() + 4, &check, 4);
  tail_ += framed;

  // Torn write: only the first half of the frame reaches NVRAM (at least
  // the length word, never the whole frame), so the receiver sees a header
  // with a bad checksum -- exactly what a crash mid-DMA leaves behind.
  uint32_t torn_keep = framed / 2;

  if (local_receiver_ != nullptr) {
    // Local log write: a plain store into our own NVRAM, but routed through
    // RdmaWrite so an armed tear applies to it too.
    if (effect & fault::kEffectTornWrite) {
      self_store_->ArmTornWrite(torn_keep);
    }
    FARM_CHECK(self_store_->RdmaWrite(data_base_ + off, frame.data(), framed));
    poke_receiver_();
    Future<NetResult> done;
    done.Set(NetResult{OkStatus(), {}});
    return done;
  }
  if (effect & fault::kEffectTornWrite) {
    frame.resize(torn_keep);
  }
  return fabric_->Write(self_, peer_, data_base_ + off, std::move(frame), thread,
                        poke_receiver_);
}

}  // namespace farm
