// Unit tests for the discrete-event simulator, CPU model, and coroutines.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/frame_arena.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/sim/small_fn.h"
#include "src/sim/task.h"

namespace farm {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.After(30, [&]() { order.push_back(3); });
  sim.After(10, [&]() { order.push_back(1); });
  sim.After(20, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.At(100, [&, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, RunUntilAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.After(50, [&]() { fired++; });
  sim.After(150, [&]() { fired++; });
  sim.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 100u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  SimTime second_fire = 0;
  sim.After(10, [&]() { sim.After(10, [&]() { second_fire = sim.Now(); }); });
  sim.Run();
  EXPECT_EQ(second_fire, 20u);
}

TEST(HwThreadTest, SerializesWork) {
  Simulator sim;
  Machine m(sim, 0, 2, 0);
  std::vector<SimTime> completions;
  m.thread(0).Run(100, [&]() { completions.push_back(sim.Now()); });
  m.thread(0).Run(100, [&]() { completions.push_back(sim.Now()); });
  // Different thread runs in parallel.
  m.thread(1).Run(100, [&]() { completions.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 100u);  // thread 0 first item
  EXPECT_EQ(completions[1], 100u);  // thread 1 item, concurrent
  EXPECT_EQ(completions[2], 200u);  // thread 0 second item, queued
}

TEST(HwThreadTest, KilledMachineDropsWork) {
  Simulator sim;
  Machine m(sim, 0, 1, 0);
  bool ran = false;
  m.thread(0).Run(100, [&]() { ran = true; });
  m.Kill();
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(HwThreadTest, RebootDropsPreRebootWork) {
  Simulator sim;
  Machine m(sim, 0, 1, 0);
  bool old_ran = false;
  bool new_ran = false;
  m.thread(0).Run(100, [&]() { old_ran = true; });
  m.Kill();
  m.Reboot();
  m.thread(0).Run(100, [&]() { new_ran = true; });
  sim.Run();
  EXPECT_FALSE(old_ran);  // scheduled under the old epoch
  EXPECT_TRUE(new_ran);
}

TEST(TaskTest, BasicCoroutineCompletes) {
  Simulator sim;
  int result = 0;
  auto coro = [&]() -> Task<void> {
    co_await SleepFor(sim, 100);
    result = 7;
  };
  Spawn(coro());
  EXPECT_EQ(result, 0);
  sim.Run();
  EXPECT_EQ(result, 7);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(TaskTest, NestedTasksReturnValues) {
  Simulator sim;
  int result = 0;
  auto inner = [&](int x) -> Task<int> {
    co_await SleepFor(sim, 10);
    co_return x * 2;
  };
  auto outer = [&]() -> Task<void> {
    int a = co_await inner(21);
    result = a;
  };
  Spawn(outer());
  sim.Run();
  EXPECT_EQ(result, 42);
}

TEST(TaskTest, FutureSetBeforeAwait) {
  Simulator sim;
  Future<int> f;
  f.Set(5);
  int got = 0;
  auto coro = [&]() -> Task<void> { got = co_await f; };
  Spawn(coro());
  sim.Run();
  EXPECT_EQ(got, 5);
}

TEST(TaskTest, FutureSetAfterAwait) {
  Simulator sim;
  Future<int> f;
  int got = 0;
  auto coro = [&]() -> Task<void> { got = co_await f; };
  Spawn(coro());
  sim.After(100, [&]() { f.Set(9); });
  sim.Run();
  EXPECT_EQ(got, 9);
}

TEST(TaskTest, WaitGroupGathersAll) {
  Simulator sim;
  WaitGroup wg;
  int done_at = -1;
  for (int i = 1; i <= 3; i++) {
    wg.Add();
    sim.After(static_cast<SimDuration>(i * 100), [wg]() { wg.Done(); });
  }
  auto coro = [&]() -> Task<void> {
    co_await wg.Wait();
    done_at = static_cast<int>(sim.Now());
  };
  Spawn(coro());
  sim.Run();
  EXPECT_EQ(done_at, 300);
}

TEST(TaskTest, WaitGroupAlreadyZero) {
  Simulator sim;
  WaitGroup wg;
  bool done = false;
  auto coro = [&]() -> Task<void> {
    co_await wg.Wait();
    done = true;
  };
  Spawn(coro());
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(TaskTest, AwaitWithTimeoutValueWins) {
  Simulator sim;
  Future<int> f;
  std::optional<int> got;
  auto coro = [&]() -> Task<void> { got = co_await AwaitWithTimeout(sim, f, 1000); };
  Spawn(coro());
  sim.After(100, [&]() { f.Set(3); });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 3);
  // The winning value cancelled the timer: nothing fires at t=1000.
  EXPECT_EQ(sim.Now(), 100u);
  EXPECT_TRUE(sim.Idle());
}

TEST(TaskTest, AwaitWithTimeoutTimerWins) {
  Simulator sim;
  Future<int> f;
  std::optional<int> got = 1;
  bool finished = false;
  auto coro = [&]() -> Task<void> {
    got = co_await AwaitWithTimeout(sim, f, 1000);
    finished = true;
  };
  Spawn(coro());
  sim.After(5000, [&]() {
    if (!f.Ready()) {
      f.Set(3);  // late value must be dropped
    }
  });
  sim.Run();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(got.has_value());
}

TEST(TaskTest, ExecuteChargesCpu) {
  Simulator sim;
  Machine m(sim, 0, 1, 0);
  SimTime end = 0;
  auto coro = [&]() -> Task<void> {
    co_await m.thread(0).Execute(250);
    co_await m.thread(0).Execute(250);
    end = sim.Now();
  };
  Spawn(coro());
  sim.Run();
  EXPECT_EQ(end, 500u);
  EXPECT_EQ(m.thread(0).total_busy(), 500u);
}

// NOTE: a coroutine lambda's captures live in the lambda *object*, not the
// coroutine frame. A capturing lambda must therefore outlive its coroutine.
// For loop-spawned coroutines, pass state as parameters instead.
Task<void> SleepAndCount(Simulator& sim, int delay, int& counter) {
  co_await SleepFor(sim, static_cast<SimDuration>(delay));
  counter++;
}

TEST(TaskTest, ManyConcurrentCoroutines) {
  Simulator sim;
  int completed = 0;
  for (int i = 0; i < 1000; i++) {
    Spawn(SleepAndCount(sim, i % 17 + 1, completed));
  }
  sim.Run();
  EXPECT_EQ(completed, 1000);
}

#ifndef FARM_FRAME_ARENA_DISABLED
TEST(TaskTest, CoroutineFramesAreArenaRecycled) {
  // Sequentially churned frames must come back from the arena free lists
  // rather than the allocator. (The arena is compiled out under ASan, where
  // recycling would mask use-after-free on destroyed frames.)
  Simulator sim;
  int completed = 0;
  uint64_t before = FrameArena::recycled_hits();
  for (int i = 0; i < 100; i++) {
    Spawn(SleepAndCount(sim, i + 1, completed));
    sim.Run();  // the i-th frames are destroyed before the (i+1)-th allocate
  }
  EXPECT_EQ(completed, 100);
  // The frames all have the same size classes, so after the first iteration
  // every frame allocation is a free-list pop.
  EXPECT_GT(FrameArena::recycled_hits(), before);
}
#endif

TEST(SmallFnTest, InlineAndHeapCallablesRunAndDestroy) {
  // A capture over the inline budget takes the heap path; both paths must
  // run exactly once and destroy their captures exactly once.
  auto witness_small = std::make_shared<int>(0);
  auto witness_big = std::make_shared<int>(0);
  {
    SmallFn small = [witness_small]() { (*witness_small)++; };
    struct Big {
      std::shared_ptr<int> w;
      uint64_t pad[8];  // 64 bytes of padding: forces the heap path
      void operator()() { (*w)++; }
    };
    SmallFn big = Big{witness_big, {}};
    SmallFn moved = std::move(small);
    EXPECT_FALSE(static_cast<bool>(small));  // NOLINT(bugprone-use-after-move)
    moved();
    big();
    EXPECT_EQ(*witness_small, 1);
    EXPECT_EQ(*witness_big, 1);
  }
  EXPECT_EQ(witness_small.use_count(), 1);  // capture destroyed
  EXPECT_EQ(witness_big.use_count(), 1);
}

// Regression for the old priority_queue event loop, which moved closures out
// of top() through a const_cast (undefined behavior) and corrupted the heap
// if a closure scheduled reentrantly mid-pop. A million pops where every
// closure reschedules exercises slot recycling and heap re-linking; the
// sanitizer CI job runs this under ASan/UBSan.
TEST(SimulatorTest, MillionReentrantPops) {
  Simulator sim;
  constexpr uint64_t kChains = 64;
  constexpr uint64_t kPerChain = 1'000'000 / kChains;
  uint64_t fired = 0;
  struct Chain {
    Simulator* sim;
    uint64_t* fired;
    uint64_t left;
    uint64_t salt;
    void operator()() {
      (*fired)++;
      if (left > 0) {
        sim->After(1 + (salt * 2654435761ULL + left) % 13, Chain{sim, fired, left - 1, salt});
      }
    }
  };
  for (uint64_t s = 0; s < kChains; s++) {
    sim.After(s % 7, Chain{&sim, &fired, kPerChain - 1, s});
  }
  sim.Run();
  EXPECT_EQ(fired, kChains * kPerChain);
  EXPECT_EQ(sim.events_processed(), kChains * kPerChain);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ThrowingClosureLeavesQueueConsistent) {
  Simulator sim;
  std::vector<int> order;
  sim.At(10, [&]() { order.push_back(1); });
  sim.At(20, []() { throw std::runtime_error("boom"); });
  sim.At(30, [&]() { order.push_back(3); });
  EXPECT_TRUE(sim.Step());
  EXPECT_THROW(sim.Step(), std::runtime_error);
  // The throwing event was popped and its slot released before it ran, so
  // the clock advanced, the queue holds only the remaining event, and new
  // work can still be scheduled and interleaves correctly.
  EXPECT_EQ(sim.Now(), 20u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.At(25, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 4u);
}

// Property: among events scheduled for the same timestamp -- from any mix of
// outer code and reentrant closures -- firing order equals scheduling order.
// Timestamps are drawn from a small window to force heavy collisions.
TEST(SimulatorTest, EqualTimestampFifoProperty) {
  Simulator sim;
  std::vector<std::pair<SimTime, uint64_t>> log;
  uint64_t scheduled = 0;
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  struct Ev {
    Simulator* sim;
    std::vector<std::pair<SimTime, uint64_t>>* log;
    uint64_t* scheduled;
    uint64_t* rng;
    uint64_t idx;
    int depth;
    void operator()() {
      log->push_back({sim->Now(), idx});
      if (depth >= 5) {
        return;
      }
      for (int k = 0; k < 2; k++) {
        *rng = *rng * 6364136223846793005ULL + 1442695040888963407ULL;
        SimDuration d = (*rng >> 33) % 3;  // collide with siblings and peers
        sim->After(d, Ev{sim, log, scheduled, rng, (*scheduled)++, depth + 1});
      }
    }
  };
  for (int i = 0; i < 40; i++) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    sim.At((rng >> 33) % 4, Ev{&sim, &log, &scheduled, &rng, scheduled, 0});
    scheduled++;
  }
  sim.Run();
  ASSERT_EQ(log.size(), sim.events_processed());
  size_t collisions = 0;
  for (size_t i = 1; i < log.size(); i++) {
    ASSERT_LE(log[i - 1].first, log[i].first);  // time order
    if (log[i - 1].first == log[i].first) {
      collisions++;
      // FIFO tie-break: scheduling index decides among equal timestamps.
      EXPECT_LT(log[i - 1].second, log[i].second)
          << "FIFO violated at t=" << log[i].first;
    }
  }
  EXPECT_GT(collisions, 100u);  // the property was actually exercised
}

TEST(SimulatorTest, CancelledEventNeverRunsOrCounts) {
  Simulator sim;
  std::vector<int> order;
  EventId a = sim.At(10, [&]() { order.push_back(1); });
  EventId b = sim.At(20, [&]() { order.push_back(2); });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_FALSE(sim.Cancel(a));          // already cancelled
  EXPECT_FALSE(sim.Cancel(EventId{}));  // names no event
  EXPECT_EQ(sim.pending_events(), 1u);
  // a's slot is reused; the stale id must not cancel the new occupant.
  EventId c = sim.At(30, [&]() { order.push_back(3); });
  EXPECT_EQ(c.slot, a.slot);
  EXPECT_FALSE(sim.Cancel(a));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.Now(), 30u);
  EXPECT_FALSE(sim.Cancel(b));  // already ran
}

TEST(SimulatorTest, CancelDestroysClosureAtOnce) {
  Simulator sim;
  auto witness = std::make_shared<int>(0);
  EventId id = sim.At(10, [witness]() {});
  EXPECT_EQ(witness.use_count(), 2);
  sim.Cancel(id);
  EXPECT_EQ(witness.use_count(), 1);
}

// A cancelled top must not let RunUntil(t) run the next live event when that
// event is due after t.
TEST(SimulatorTest, RunUntilSkipsCancelledTopWithoutOverrunning) {
  Simulator sim;
  bool late_ran = false;
  EventId early = sim.At(10, []() {});
  sim.At(20, [&]() { late_ran = true; });
  sim.Cancel(early);
  sim.RunUntil(15);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.Now(), 15u);
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntil(20);
  EXPECT_TRUE(late_ran);
  EXPECT_TRUE(sim.Idle());
}

// One event cancels most of the queue from inside its closure, which
// compacts the heap mid-step; the survivors still fire in (time, seq) order.
TEST(SimulatorTest, CompactionMidRunKeepsOrder) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; i++) {
    ids.push_back(sim.At(1 + i / 3, [&order, i]() { order.push_back(i); }));
  }
  sim.At(0, [&]() {
    for (int i = 0; i < 100; i++) {
      if (i % 5 != 0) {
        EXPECT_TRUE(sim.Cancel(ids[i]));
      }
    }
    EXPECT_EQ(sim.pending_events(), 20u);
  });
  sim.Run();
  std::vector<int> want;
  for (int i = 0; i < 100; i += 5) {
    want.push_back(i);
  }
  EXPECT_EQ(order, want);
  EXPECT_EQ(sim.events_processed(), 21u);
  EXPECT_EQ(sim.Now(), 1u + 95 / 3);
}

// Property: Cancel behaves exactly like deleting the event from an ideal
// queue. Random interleavings of At/AtGuarded/Cancel/Step/RunUntil, with
// closures that cancel themselves, their successor or a run of later events,
// or schedule children, run against a reference model: an ordered set of the
// live events, keyed (time, scheduling order). After every operation the
// pop order, the results of every Cancel, events_processed(), Now(), Idle()
// and pending_events() must match the model. Timestamps collide heavily,
// stale ids (slots since reused) are cancelled often, and span cancels inside
// closures push the dead entries past half the heap, forcing compaction
// mid-run.
class CancelModel {
 public:
  enum class Act { kNone, kCancelSelf, kCancelNext, kCancelSpan, kSpawn };
  struct Spec {
    Act act = Act::kNone;
    SimDuration delay = 0;  // kSpawn: child delay
    uint32_t child = 0;     // kSpawn: label the child got when the parent ran
    int guard = -1;         // -1: unguarded; else index into guards_
    uint64_t expected = 0;
  };
  struct Fired {
    uint32_t label;
    SimTime at;
  };

  explicit CancelModel(uint64_t seed) : rng_(seed) {}

  void RunOps(int ops) {
    for (int i = 0; i < ops; i++) {
      uint32_t r = Draw(100);
      if (r < 30) {
        Spec spec;
        uint32_t a = Draw(10);
        spec.act = a < 4 ? Act::kNone
                 : a < 5 ? Act::kCancelSelf
                 : a < 7 ? Act::kCancelNext
                 : a < 8 ? Act::kCancelSpan
                         : Act::kSpawn;
        spec.delay = Draw(4);
        if (Draw(4) == 0) {
          spec.guard = static_cast<int>(Draw(2));
          spec.expected = guards_[spec.guard] ^ Draw(2);
        }
        Schedule(now_ + Draw(6), spec);
      } else if (r < 50) {
        CancelLabel(Draw(static_cast<uint32_t>(specs_.size()) + 1));
      } else if (r < 55 && !queue_.empty()) {
        // Cancel the live top, then run exactly up to its time: the next
        // live event may be later and must stay queued.
        auto [t, seq, label] = *queue_.begin();
        CancelLabel(label);
        RunUntil(t);
      } else if (r < 75) {
        StepOnce();
      } else if (r < 95) {
        RunUntil(now_ + Draw(8));
      } else {
        guards_[Draw(2)] ^= 1;
      }
      CheckCounters();
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
    // Drain.
    size_t from = fired_.size();
    size_t cancels_from = cancels_.size();
    sim_.Run();
    std::vector<Fired> want;
    std::vector<bool> want_cancels;
    while (!queue_.empty()) {
      ModelPop(&want, &want_cancels);
    }
    ExpectLogs(from, cancels_from, want, want_cancels);
    CheckCounters();
  }

  uint64_t cancels_hit() const { return cancels_hit_; }
  uint64_t fired() const { return fired_.size(); }

 private:
  using Key = std::tuple<SimTime, uint64_t, uint32_t>;  // time, model seq, label

  uint32_t Draw(uint32_t n) {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>((rng_ >> 33) % n);
  }

  // Schedules in the simulator only; returns the new event's label.
  uint32_t SimSchedule(SimTime t, Spec spec) {
    uint32_t label = static_cast<uint32_t>(specs_.size());
    specs_.push_back(spec);
    auto fn = [this, label]() { Run(label); };
    ids_.push_back(spec.guard < 0 ? sim_.At(t, fn)
                                  : sim_.AtGuarded(t, &guards_[spec.guard], spec.expected, fn));
    return label;
  }

  void Schedule(SimTime t, Spec spec) { ModelSchedule(t, SimSchedule(t, spec)); }

  void ModelSchedule(SimTime t, uint32_t label) {
    Key k{t, model_seq_++, label};
    queue_.insert(k);
    pending_[label] = k;
  }

  bool ModelCancel(uint32_t label) {
    auto it = pending_.find(label);
    if (it == pending_.end()) {
      return false;
    }
    queue_.erase(it->second);
    pending_.erase(it);
    return true;
  }

  EventId IdOf(uint32_t label) const { return label < ids_.size() ? ids_[label] : EventId{}; }

  // The closure of every simulator event.
  void Run(uint32_t label) {
    fired_.push_back({label, sim_.Now()});
    Spec spec = specs_[label];
    switch (spec.act) {
      case Act::kNone:
        break;
      case Act::kCancelSelf:
        cancels_.push_back(sim_.Cancel(IdOf(label)));
        break;
      case Act::kCancelNext:
        cancels_.push_back(sim_.Cancel(IdOf(label + 1)));
        break;
      case Act::kCancelSpan:
        for (uint32_t l = label + 1; l < label + 24; l++) {
          cancels_.push_back(sim_.Cancel(IdOf(l)));
        }
        break;
      case Act::kSpawn: {
        // The model schedules the child itself when it replays this event.
        Spec child;
        child.act = label % 3 == 0 ? Act::kCancelNext : Act::kNone;
        uint32_t c = SimSchedule(sim_.Now() + spec.delay, child);
        specs_[label].child = c;
        break;
      }
    }
  }

  // Pops the model's next event and replays its closure on the model.
  void ModelPop(std::vector<Fired>* fired, std::vector<bool>* cancels) {
    auto [t, seq, label] = *queue_.begin();
    queue_.erase(queue_.begin());
    pending_.erase(label);
    now_ = t;
    processed_++;
    const Spec spec = specs_[label];
    if (spec.guard >= 0 && guards_[spec.guard] != spec.expected) {
      return;  // guard-skipped: counted, never run
    }
    fired->push_back({label, t});
    switch (spec.act) {
      case Act::kNone:
        break;
      case Act::kCancelSelf:
        cancels->push_back(ModelCancel(label));
        break;
      case Act::kCancelNext:
        cancels->push_back(ModelCancel(label + 1));
        break;
      case Act::kCancelSpan:
        for (uint32_t l = label + 1; l < label + 24; l++) {
          cancels->push_back(ModelCancel(l));
        }
        break;
      case Act::kSpawn:
        ModelSchedule(t + spec.delay, spec.child);
        break;
    }
  }

  void CancelLabel(uint32_t label) {
    bool want = ModelCancel(label);
    EXPECT_EQ(sim_.Cancel(IdOf(label)), want) << "label " << label;
    cancels_hit_ += want ? 1 : 0;
  }

  void StepOnce() {
    size_t from = fired_.size();
    size_t cancels_from = cancels_.size();
    bool stepped = sim_.Step();
    EXPECT_EQ(stepped, !queue_.empty());
    std::vector<Fired> want;
    std::vector<bool> want_cancels;
    if (!queue_.empty()) {
      ModelPop(&want, &want_cancels);
    }
    ExpectLogs(from, cancels_from, want, want_cancels);
  }

  void RunUntil(SimTime t) {
    size_t from = fired_.size();
    size_t cancels_from = cancels_.size();
    sim_.RunUntil(t);
    std::vector<Fired> want;
    std::vector<bool> want_cancels;
    while (!queue_.empty() && std::get<0>(*queue_.begin()) <= t) {
      ModelPop(&want, &want_cancels);
    }
    now_ = std::max(now_, t);
    for (size_t i = from; i < fired_.size(); i++) {
      EXPECT_LE(fired_[i].at, t) << "RunUntil ran label " << fired_[i].label << " past " << t;
    }
    ExpectLogs(from, cancels_from, want, want_cancels);
  }

  void ExpectLogs(size_t from, size_t cancels_from, const std::vector<Fired>& want,
                  const std::vector<bool>& want_cancels) {
    std::vector<Fired> got(fired_.begin() + static_cast<std::ptrdiff_t>(from), fired_.end());
    std::vector<bool> got_cancels(cancels_.begin() + static_cast<std::ptrdiff_t>(cancels_from),
                                  cancels_.end());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); i++) {
      EXPECT_EQ(got[i].label, want[i].label) << "pop " << i;
      EXPECT_EQ(got[i].at, want[i].at) << "pop " << i;
    }
    EXPECT_EQ(got_cancels, want_cancels);
  }

  void CheckCounters() {
    EXPECT_EQ(sim_.Now(), now_);
    EXPECT_EQ(sim_.events_processed(), processed_);
    EXPECT_EQ(sim_.Idle(), queue_.empty());
    EXPECT_EQ(sim_.pending_events(), queue_.size());
  }

  uint64_t rng_;
  Simulator sim_;
  uint64_t guards_[2] = {0, 0};
  std::vector<Spec> specs_;
  std::vector<EventId> ids_;
  std::vector<Fired> fired_;
  std::vector<bool> cancels_;
  uint64_t cancels_hit_ = 0;
  // Reference model.
  SimTime now_ = 0;
  uint64_t processed_ = 0;
  uint64_t model_seq_ = 0;
  std::set<Key> queue_;
  std::map<uint32_t, Key> pending_;
};

TEST(SimulatorTest, CancelMatchesReferenceModel) {
  uint64_t hits = 0;
  uint64_t fired = 0;
  for (uint64_t seed = 1; seed <= 24; seed++) {
    CancelModel model(seed);
    model.RunOps(4000);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    hits += model.cancels_hit();
    fired += model.fired();
  }
  EXPECT_GT(hits, 1000u);  // the property was actually exercised
  EXPECT_GT(fired, 10000u);
}

}  // namespace
}  // namespace farm
