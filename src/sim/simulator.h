// Deterministic single-threaded discrete-event simulator.
//
// All cluster components (machines, NICs, the fabric, the coordination
// service) schedule closures on one Simulator instance. Events at equal
// timestamps fire in scheduling order, so a run is fully determined by the
// seed of the random number generators feeding it.
//
// Hot-path design (this queue processes tens of millions of events per
// bench run):
//   - The ordering heap is a hand-written 4-ary min-heap over a contiguous
//     vector of 24-byte POD entries {time, seq, slot}; sift operations are
//     plain integer compares and trivial copies, never closure moves.
//   - Closures live in a separate slot array (recycled through an index
//     free list) and are held in SmallFn (small_fn.h), so capture lists up
//     to 48 bytes never touch the allocator. Each closure is moved exactly
//     once: out of its slot just before it runs.
//   - Popping moves the entry out before the heap is re-linked, so there
//     is no const_cast through priority_queue::top() (which was undefined
//     behavior) and a closure that throws or schedules new events
//     reentrantly leaves the queue consistent.
//   - Scheduling returns an EventId (slot, seq). Cancel() destroys the
//     closure and frees the slot at once, but leaves the heap entry in
//     place: an entry is live only while its slot still carries its seq.
//     Dead entries are dropped uncounted when they reach the top, and
//     filtered out wholesale (then re-heapified) once they outnumber the
//     live ones. Timeouts that lose their race are cancelled this way, so
//     the queue holds live events rather than a long tail of dead timers.
// The (time, seq) key is a total order, so pop order -- and therefore
// trace byte-identity -- is independent of the heap's internal layout,
// of cancellation and of compaction.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/small_fn.h"
#include "src/sim/time.h"

namespace farm {

// Names one scheduled event for Simulator::Cancel. The default value names
// no event.
struct EventId {
  uint32_t slot = 0;
  uint64_t seq = ~uint64_t{0};
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules fn at absolute time t (>= Now()).
  template <typename F>
  EventId At(SimTime t, F&& fn) {
    return AtGuarded(t, nullptr, 0, std::forward<F>(fn));
  }

  // Schedules fn after the given delay.
  template <typename F>
  EventId After(SimDuration delay, F&& fn) {
    return At(now_ + delay, std::forward<F>(fn));
  }

  // Schedules fn at t, to run only if *guard still equals expected at fire
  // time. This is how HwThread drops work items whose machine died or
  // rebooted before completion, without wrapping every closure (and its
  // captures) in a second, larger closure. The guard word must stay valid
  // until the simulator itself is destroyed (machines are; they outlive all
  // stepping). A skipped event still counts as processed, matching the old
  // behavior where the epoch-check wrapper ran and did nothing; a cancelled
  // one never does.
  template <typename F>
  EventId AtGuarded(SimTime t, const uint64_t* guard, uint64_t expected, F&& fn) {
    FARM_CHECK(t >= now_) << "scheduling into the past: " << t << " < " << now_;
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    uint64_t seq = next_seq_++;
    Slot& s = slots_[slot];
    s.seq = seq;
    s.guard = guard;
    s.guard_expected = expected;
    s.fn.Assign(std::forward<F>(fn));  // constructs the closure in place
    heap_.push_back(Entry{t, seq, slot});
    SiftUp(heap_.size() - 1);
    return EventId{slot, seq};
  }

  // Cancels a scheduled event: its closure is destroyed now and it will
  // never run or count as processed. Returns false, doing nothing, if the
  // event already ran (or is running) or was cancelled before.
  bool Cancel(EventId id) {
    if (id.seq == kFreeSeq || id.slot >= slots_.size() || slots_[id.slot].seq != id.seq) {
      return false;
    }
    SmallFn fn = ReleaseSlot(id.slot);
    dead_entries_++;
    if (dead_entries_ * 2 > heap_.size()) {
      Compact();
    }
    return true;  // fn's captures are destroyed here, with the queue consistent
  }

  // Processes the next event; returns false if the queue is empty.
  bool Step() {
    if (!DropDeadTops()) {
      return false;
    }
    Entry ev = PopTop();
    now_ = ev.time;
    events_processed_++;
    // Move the closure out and release the slot *before* invoking: the
    // closure may schedule new events (growing/reusing the slot array) or
    // throw, and either must leave the queue consistent.
    Slot& s = slots_[ev.slot];
    bool runnable = s.guard == nullptr || *s.guard == s.guard_expected;
    SmallFn fn = ReleaseSlot(ev.slot);
    if (runnable) {
      fn();
    }
    return true;
  }

  // Runs until the event queue is empty.
  void Run() {
    while (Step()) {
    }
  }

  // Runs all events with time <= t, then advances the clock to t.
  void RunUntil(SimTime t) {
    while (DropDeadTops() && heap_.front().time <= t) {
      Step();
    }
    if (t > now_) {
      now_ = t;
    }
  }

  // Runs for the given additional duration of simulated time.
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  bool Idle() const { return pending_events() == 0; }
  uint64_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return heap_.size() - dead_entries_; }

 private:
  // Heap entry: POD, 24 bytes. The closure is looked up by slot only when
  // the entry actually fires.
  struct Entry {
    SimTime time;
    uint64_t seq;  // FIFO tie-break for events at the same time
    uint32_t slot;
  };

  // Marks a slot that holds no pending event.
  static constexpr uint64_t kFreeSeq = ~uint64_t{0};

  struct Slot {
    uint64_t seq = kFreeSeq;  // seq of the pending event held here
    const uint64_t* guard = nullptr;  // nullptr = unconditional
    uint64_t guard_expected = 0;
    SmallFn fn;
  };

  // An entry whose slot no longer carries its seq was cancelled.
  bool Dead(const Entry& e) const { return slots_[e.slot].seq != e.seq; }

  // Takes the closure out of a slot and returns the slot to the free list.
  SmallFn ReleaseSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    SmallFn fn = std::move(s.fn);
    s.seq = kFreeSeq;
    s.guard = nullptr;
    free_slots_.push_back(slot);
    return fn;
  }

  // Pops cancelled entries off the top, uncounted and without touching the
  // clock; returns whether a live one is left. RunUntil needs this before it
  // compares the top's time with its bound.
  bool DropDeadTops() {
    while (!heap_.empty() && Dead(heap_.front())) {
      PopTop();
      dead_entries_--;
    }
    return !heap_.empty();
  }

  // Filters out every cancelled entry and rebuilds the heap from the rest.
  void Compact() {
    std::erase_if(heap_, [this](const Entry& e) { return Dead(e); });
    for (size_t i = 1; i < heap_.size(); i++) {
      SiftUp(i);
    }
    dead_entries_ = 0;
  }

  // The (time, seq) pair compared as one 128-bit key. A single integer
  // compare lets the sift loops run branchlessly (cmov instead of a
  // data-dependent branch per child, which mispredicts half the time on
  // random timestamps and dominated pop cost at bench queue depths).
  static unsigned __int128 Key(const Entry& e) {
    return (static_cast<unsigned __int128>(e.time) << 64) | e.seq;
  }

  // Strict-weak order: a fires before b.
  static bool Before(const Entry& a, const Entry& b) { return Key(a) < Key(b); }

  // Children of node i are 4i+1 .. 4i+4; parent of i is (i-1)/4.
  void SiftUp(size_t i) {
    Entry e = heap_[i];
    while (i > 0) {
      size_t parent = (i - 1) >> 2;
      if (!Before(e, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Removes and returns the minimum entry, then re-links the heap by
  // sifting the displaced last entry down from the root. The min-of-four
  // child selection is written so the compiler emits conditional moves; the
  // only branch left per level is the well-predicted "keep descending".
  Entry PopTop() {
    Entry top = heap_.front();
    Entry last = heap_.back();
    heap_.pop_back();
    size_t n = heap_.size();
    if (n > 0) {
      unsigned __int128 last_key = Key(last);
      size_t i = 0;
      for (;;) {
        size_t child = 4 * i + 1;
        if (child >= n) {
          break;
        }
        size_t end = child + 4 < n ? child + 4 : n;
        size_t best = child;
        unsigned __int128 best_key = Key(heap_[child]);
        for (size_t c = child + 1; c < end; c++) {
          unsigned __int128 k = Key(heap_[c]);
          bool less = k < best_key;
          best = less ? c : best;
          best_key = less ? k : best_key;
        }
        if (best_key >= last_key) {
          break;
        }
        if (4 * best + 1 < n) {
          __builtin_prefetch(&heap_[4 * best + 1]);
        }
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return top;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  size_t dead_entries_ = 0;  // cancelled entries still in heap_
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace farm

#endif  // SRC_SIM_SIMULATOR_H_
