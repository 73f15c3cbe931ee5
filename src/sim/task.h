// C++20 coroutine support for the simulator.
//
// Protocol sequences (transaction commit, reconfiguration, recovery) are
// written as coroutines returning sim Task<T>. Completions produced by
// callbacks (NIC acks, message replies, timers) are surfaced as Future<T>.
//
// Cancellation model: coroutines belonging to a killed machine are simply
// never resumed (their completions are dropped by the delivery layer). This
// keeps the protocol code free of cancellation plumbing. Every top-level
// (Detached) frame is tracked on an intrusive list, and simulation teardown
// calls ReclaimParkedFrames() to destroy the frames that are still suspended;
// destroying a Detached frame cascades down its ownership chain, so the
// child Task frames, futures, and wait groups it holds are released too.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/frame_arena.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace farm {

struct Unit {};

template <typename T>
class Task;

namespace task_internal {

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    std::coroutine_handle<> cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

template <typename T>
struct TaskPromise : ArenaFrame {
  std::coroutine_handle<> continuation = nullptr;
  std::optional<T> value;

  Task<T> get_return_object();
  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void return_value(T v) { value.emplace(std::move(v)); }
  void unhandled_exception() { std::terminate(); }
};

template <>
struct TaskPromise<void> : ArenaFrame {
  std::coroutine_handle<> continuation = nullptr;

  Task<void> get_return_object();
  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void return_void() {}
  void unhandled_exception() { std::terminate(); }
};

}  // namespace task_internal

// A lazily-started coroutine. Ownership of the frame is held by the Task;
// the frame is destroyed when the Task is destroyed (after completion, in
// normal co_await usage).
template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = task_internal::TaskPromise<T>;

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }

  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        handle.promise().continuation = cont;
        return handle;
      }
      T await_resume() {
        if constexpr (!std::is_void_v<T>) {
          return std::move(*handle.promise().value);
        }
      }
    };
    FARM_CHECK(handle_ != nullptr) << "co_await on empty Task";
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
};

namespace task_internal {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace task_internal

namespace task_internal {

// Intrusive list node embedded in every Detached frame's promise so the
// simulation can find frames that were parked forever (their machine died
// and the delivery layer dropped the completion that would have resumed
// them). The list is thread_local: a simulation runs on one thread (at most
// one live Cluster per thread), so reclaiming at teardown touches only that
// simulation's frames.
struct DetachedNode {
  DetachedNode* prev = nullptr;
  DetachedNode* next = nullptr;
  std::coroutine_handle<> frame;
};

inline DetachedNode*& DetachedListHead() {
  static thread_local DetachedNode* head = nullptr;
  return head;
}

inline void LinkDetached(DetachedNode* n) {
  DetachedNode*& head = DetachedListHead();
  n->next = head;
  if (head != nullptr) {
    head->prev = n;
  }
  head = n;
}

inline void UnlinkDetached(DetachedNode* n) {
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    DetachedListHead() = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  }
  n->prev = nullptr;
  n->next = nullptr;
}

}  // namespace task_internal

// Fire-and-forget coroutine; frame self-destructs on completion. Frames
// still alive when the simulation is torn down are reclaimed via
// ReclaimParkedFrames().
struct Detached {
  struct promise_type : task_internal::DetachedNode, ArenaFrame {
    promise_type() {
      frame = std::coroutine_handle<promise_type>::from_promise(*this);
      task_internal::LinkDetached(this);
    }
    ~promise_type() { task_internal::UnlinkDetached(this); }
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

// Destroys every Detached frame of this thread still suspended, newest
// first (creation order is deterministic, so reclaim order is too). Call
// only when the simulation has quiesced — i.e. nothing will resume these
// frames later. Returns the number of top-level frames reclaimed.
inline int ReclaimParkedFrames() {
  int reclaimed = 0;
  while (task_internal::DetachedNode* head = task_internal::DetachedListHead()) {
    head->frame.destroy();  // ~promise_type unlinks the node
    reclaimed++;
  }
  return reclaimed;
}

// Starts a Task and detaches from it. The Task's frame is owned by the
// wrapper coroutine and is destroyed when the task completes.
inline Detached Spawn(Task<void> task) { co_await std::move(task); }

// One-shot completion channel. Producer calls Set(); the single consumer
// either co_awaits it or registers an OnReady callback. Copyable handle to
// shared state, so callbacks can outlive the stack frame that created it.
template <typename T>
class Future {
 public:
  Future() : state_(std::make_shared<State>()) {}

  void Set(T v) const {
    FARM_CHECK(!state_->value.has_value()) << "Future::Set called twice";
    state_->value.emplace(std::move(v));
    if (state_->callback) {
      auto cb = std::move(state_->callback);
      state_->callback = nullptr;
      cb(*state_->value);
    }
  }

  bool Ready() const { return state_->value.has_value(); }

  T& Peek() const {
    FARM_CHECK(Ready());
    return *state_->value;
  }

  // Registers the single consumer callback; fired immediately if already set.
  void OnReady(std::function<void(T&)> cb) const {
    FARM_CHECK(!state_->callback) << "Future already has a consumer";
    if (state_->value.has_value()) {
      cb(*state_->value);
    } else {
      state_->callback = std::move(cb);
    }
  }

  auto operator co_await() const {
    struct Awaiter {
      std::shared_ptr<State> state;
      bool await_ready() { return state->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        FARM_CHECK(!state->callback) << "Future already has a consumer";
        state->callback = [h](T&) { h.resume(); };
      }
      T await_resume() { return std::move(*state->value); }
    };
    return Awaiter{state_};
  }

 private:
  struct State {
    std::optional<T> value;
    std::function<void(T&)> callback;
  };
  std::shared_ptr<State> state_;
};

// Counts down outstanding work items; Wait() resumes when the count is zero.
class WaitGroup {
 public:
  WaitGroup() : state_(std::make_shared<State>()) {}

  void Add(int n = 1) const { state_->pending += n; }

  void Done() const {
    FARM_CHECK(state_->pending > 0) << "WaitGroup::Done without Add";
    state_->pending--;
    if (state_->pending == 0 && state_->waiter) {
      auto h = state_->waiter;
      state_->waiter = nullptr;
      h.resume();
    }
  }

  int pending() const { return state_->pending; }

  auto Wait() const {
    struct Awaiter {
      std::shared_ptr<State> state;
      bool await_ready() { return state->pending == 0; }
      void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
      void await_resume() {}
    };
    return Awaiter{state_};
  }

 private:
  struct State {
    int pending = 0;
    std::coroutine_handle<> waiter = nullptr;
  };
  std::shared_ptr<State> state_;
};

// co_await SleepFor(sim, d): resumes after d of simulated time.
inline auto SleepFor(Simulator& sim, SimDuration d) {
  struct Awaiter {
    Simulator& sim;
    SimDuration d;
    bool await_ready() { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim.After(d, [h]() { h.resume(); });
    }
    void await_resume() {}
  };
  return Awaiter{sim, d};
}

// Awaits the future with a deadline; nullopt on timeout. A value that wins
// cancels the timer, so it leaves nothing in the event queue; a value that
// arrives after the timeout is dropped.
template <typename T>
Task<std::optional<T>> AwaitWithTimeout(Simulator& sim, Future<T> future, SimDuration timeout) {
  Future<std::optional<T>> out;
  EventId timer = sim.After(timeout, [out]() { out.Set(std::nullopt); });
  future.OnReady([out, &sim, timer](T& v) {
    if (!out.Ready()) {
      sim.Cancel(timer);
      out.Set(std::optional<T>(std::move(v)));
    }
  });
  co_return co_await out;
}

}  // namespace farm

#endif  // SRC_SIM_TASK_H_
