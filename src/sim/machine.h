// Simulated machines and hardware threads.
//
// A hardware thread is modeled as a serial server with a busy-until horizon:
// executing a work item of CPU cost c that arrives at time t occupies the
// thread for [max(t, busy_until), max(t, busy_until) + c). Queueing delay --
// and therefore CPU saturation, the effect FaRM's one-sided-RDMA design is
// built around -- emerges from this model.
#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace farm {

using MachineId = uint32_t;
constexpr MachineId kInvalidMachine = UINT32_MAX;

class Machine;

class HwThread {
 public:
  HwThread(Simulator& sim, Machine* machine, int index)
      : sim_(sim), machine_(machine), index_(index) {}

  // Acquires the CPU for `cost`, then runs fn (at completion time). Work
  // items execute in FIFO order. If the machine dies or reboots before the
  // item completes, fn is dropped (via the simulator's event guard on the
  // machine's liveness word, so no wrapper closure is allocated).
  template <typename F>
  void Run(SimDuration cost, F&& fn);

  // Coroutine flavor: resumes the awaiter once the CPU work completes.
  Future<Unit> Execute(SimDuration cost);

  // Occupies the CPU without running anything (preemption by other system
  // activity; used by the lease false-positive experiments).
  void InjectBusy(SimDuration cost);

  // Occupies the CPU and returns the completion time of that work item.
  SimTime AcquireCpu(SimDuration cost) {
    InjectBusy(cost);
    return busy_until_;
  }

  SimTime busy_until() const { return busy_until_; }
  SimDuration total_busy() const { return total_busy_; }
  int index() const { return index_; }

 private:
  Simulator& sim_;
  Machine* machine_;
  int index_;
  SimTime busy_until_ = 0;
  SimDuration total_busy_ = 0;
};

// A simulated machine: a set of hardware threads plus liveness state.
// Kill() makes it permanently silent to the fabric; Reboot() (used only by
// whole-cluster power-failure tests) bumps the epoch so callbacks scheduled
// before the reboot are dropped.
class Machine {
 public:
  Machine(Simulator& sim, MachineId id, int num_threads, int failure_domain);

  MachineId id() const { return id_; }
  int failure_domain() const { return failure_domain_; }
  bool alive() const { return alive_; }
  uint64_t epoch() const { return epoch_; }
  Simulator& sim() const { return sim_; }

  int NumThreads() const { return static_cast<int>(threads_.size()); }
  HwThread& thread(int i) { return *threads_[static_cast<size_t>(i)]; }

  void Kill() {
    alive_ = false;
    guard_word_ = epoch_ << 1;
  }
  void Reboot() {
    alive_ = true;
    epoch_++;
    guard_word_ = (epoch_ << 1) | 1;
  }

  // Liveness guard for Simulator::AtGuarded: (epoch << 1) | alive. An event
  // scheduled while the machine is up fires only if the word is unchanged,
  // i.e. the machine is still alive in the same epoch.
  const uint64_t* guard_word() const { return &guard_word_; }
  uint64_t live_guard() const { return (epoch_ << 1) | 1; }

 private:
  Simulator& sim_;
  MachineId id_;
  int failure_domain_;
  bool alive_ = true;
  uint64_t epoch_ = 0;
  uint64_t guard_word_ = 1;  // (epoch_ << 1) | alive_
  std::vector<std::unique_ptr<HwThread>> threads_;
};

template <typename F>
void HwThread::Run(SimDuration cost, F&& fn) {
  SimTime start = std::max(sim_.Now(), busy_until_);
  busy_until_ = start + cost;
  total_busy_ += cost;
  sim_.AtGuarded(busy_until_, machine_->guard_word(), machine_->live_guard(),
                 std::forward<F>(fn));
}

}  // namespace farm

#endif  // SRC_SIM_MACHINE_H_
