#include "src/sim/machine.h"

namespace farm {

Future<Unit> HwThread::Execute(SimDuration cost) {
  Future<Unit> done;
  Run(cost, [done]() { done.Set(Unit{}); });
  return done;
}

void HwThread::InjectBusy(SimDuration cost) {
  SimTime start = std::max(sim_.Now(), busy_until_);
  busy_until_ = start + cost;
  total_busy_ += cost;
}

Machine::Machine(Simulator& sim, MachineId id, int num_threads, int failure_domain)
    : sim_(sim), id_(id), failure_domain_(failure_domain) {
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; i++) {
    threads_.push_back(std::make_unique<HwThread>(sim_, this, i));
  }
}

}  // namespace farm
