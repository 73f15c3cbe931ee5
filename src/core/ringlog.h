// Ring-buffer logs and message queues (section 3).
//
// Each sender-receiver machine pair has its own ring, physically located in
// the receiver's NVRAM. The sender appends records with one-sided RDMA
// writes to the tail (acknowledged by the receiver's NIC without CPU); the
// receiver's CPU polls the head to process records. Records persist in the
// ring until truncated -- recovery re-reads non-truncated records -- so
// freeing space (advancing the head) is separate from processing. The
// receiver lazily reports the freed head position back to a feedback word
// in the sender's NVRAM so the sender can reuse space.
//
// Framing: 8-byte-aligned frames of [u32 payload_len][u32 check][payload]
// [pad]. A length of 0 means "no record here yet"; kWrapMarker means
// "continue at the ring start". `check` is a checksum of the payload (and
// length), making a torn append -- a crash or power cut after only a prefix
// of the frame's bytes reached NVRAM -- detectable: the receiver treats a
// frame with an implausible length or a mismatched checksum as the torn
// tail of the log and stops parsing there (a single writer appends frames
// in order, so a tear can only be the last write). Torn frames are counted
// (torn_frames()) for the chaos explorer's coverage report.
#ifndef SRC_CORE_RINGLOG_H_
#define SRC_CORE_RINGLOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <vector>

#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/nvram/nvram.h"

namespace farm {

class Emitter;

constexpr uint32_t kWrapMarker = 0xFFFFFFFFu;

// Frame header: [u32 payload_len][u32 check].
constexpr uint32_t kFrameHeaderBytes = 8;

// Payload checksum stored in the frame header. Folds the length in so a
// tear that garbles the length word cannot pair a stale checksum with a
// different-length payload; the |1 keeps valid checksums nonzero, so the
// all-zero bytes of freed ring space never validate.
uint32_t FrameCheck(const uint8_t* payload, uint32_t len);

inline uint32_t FramedLen(uint32_t payload_len) {
  return (kFrameHeaderBytes + payload_len + 7) & ~7u;
}

// Starts the frame of a `payload_len`-byte payload: the writer holds the
// header (length set, check still zero) and has room for exactly the frame.
BufWriter StartFrame(uint32_t payload_len);
// Pads a frame whose payload has been written; the result is what
// RingSender::Append takes.
std::vector<uint8_t> FinishFrame(BufWriter& w);

// Receiver half: owns the NVRAM ring, parses frames, tracks which records
// may be freed, and advances the head over freeable prefixes.
class RingReceiver {
 public:
  RingReceiver(NvramStore* store, uint32_t capacity);

  uint64_t data_base() const { return base_ + 8; }  // senders write here
  uint32_t capacity() const { return cap_; }

  // Non-owning reference to a Drain callback fn(seq, payload, len). The
  // payload points into ring memory, valid only during the call (freed
  // frames are zeroed and reused): anything kept must be copied out.
  class Visitor {
   public:
    template <typename F>
    Visitor(F&& f)  // NOLINT(runtime/explicit): lambdas bind directly
        : fn_(const_cast<void*>(static_cast<const void*>(&f))),
          call_([](void* fn, uint64_t seq, const uint8_t* p, uint32_t n) {
            (*static_cast<std::remove_reference_t<F>*>(fn))(seq, p, n);
          }) {}
    void operator()(uint64_t seq, const uint8_t* p, uint32_t n) const { call_(fn_, seq, p, n); }

   private:
    void* fn_;
    void (*call_)(void*, uint64_t, const uint8_t*, uint32_t);
  };

  // Parses complete records at the parse position and calls fn once per
  // record; seq identifies the record for MarkFreeable. Returns the number
  // of records surfaced.
  int Drain(Visitor fn);

  // Marks a surfaced record freeable; frees (zeroes) any freeable prefix
  // and persists the new head to NVRAM.
  void MarkFreeable(uint64_t seq);

  uint64_t head() const { return head_; }
  uint64_t bytes_freed_total() const { return bytes_freed_total_; }
  // Torn frames observed at the parse position (each tear counts once).
  uint64_t torn_frames() const { return torn_frames_; }

  // Power-failure recovery: forget volatile state and re-parse everything
  // still in the ring (head comes from the persisted NVRAM word).
  void RebuildFromNvram();

 private:
  struct Frame {
    uint64_t pos;
    uint32_t framed_len;
    bool is_marker;
    bool freeable;
    uint64_t seq;
  };

  uint8_t* At(uint64_t abs, uint32_t len);
  uint32_t PeekLen(uint64_t abs);
  void AdvanceHead();
  void NoteTorn();

  uint64_t base_;
  uint8_t* head_word_;  // [u64 head][data]; NVRAM segments never move
  uint32_t cap_;
  uint64_t head_ = 0;
  uint64_t parse_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t bytes_freed_total_ = 0;
  uint64_t torn_frames_ = 0;
  uint64_t torn_at_ = 0;  // parse position of the counted tear, +1 (0 = none)
  std::deque<Frame> frames_;  // unfreed frames in ring order
};

// Sender half: tracks the tail and the lazily-updated head view, enforces
// space reservations (section 4: coordinators reserve log space for all
// commit records before starting the commit), and issues the writes.
class RingSender {
 public:
  // `feedback_addr` is a u64 in the *sender's* NVRAM where the receiver
  // posts freed-head updates. For same-machine rings, local_receiver is the
  // receiver half and appends become local memory copies. Appends report to
  // the sending node's `emit`.
  RingSender(Fabric* fabric, MachineId self, MachineId peer, uint64_t ring_data_base,
             uint32_t capacity, uint64_t feedback_addr, NvramStore* self_store,
             RingReceiver* local_receiver, std::function<void()> poke_receiver,
             Emitter* emit = nullptr);

  // Reserves space for one record of `payload_len` (conservatively doubled
  // to cover wrap-marker waste). Fails if the ring might not fit it.
  bool Reserve(uint32_t payload_len);
  void ReleaseReservation(uint32_t payload_len);

  // Appends one frame built with StartFrame/FinishFrame, consuming a prior
  // reservation made with Reserve(reserved_len); its payload must be at most
  // reserved_len bytes. Fills in the frame's checksum and writes the buffer
  // as is. The returned future completes on the NIC hardware ack (remote) or
  // immediately after the local copy (same machine).
  Future<NetResult> Append(std::vector<uint8_t> frame, uint32_t reserved_len, HwThread* thread);

  uint64_t FreeBytes() const;
  uint64_t tail() const { return tail_; }
  uint64_t reserved() const { return reserved_; }

 private:
  uint64_t HeadView() const;

  Fabric* fabric_;
  Emitter* emit_;
  MachineId self_;
  MachineId peer_;
  uint64_t data_base_;
  uint32_t cap_;
  const uint8_t* feedback_;  // the feedback word, in our own NVRAM
  NvramStore* self_store_;
  RingReceiver* local_receiver_;
  std::function<void()> poke_receiver_;
  uint64_t tail_ = 0;
  uint64_t reserved_ = 0;
};

}  // namespace farm

#endif  // SRC_CORE_RINGLOG_H_
