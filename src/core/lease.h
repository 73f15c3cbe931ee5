// Lease-based failure detection (section 5.1).
//
// Every machine holds a lease at the CM and the CM holds a lease at every
// machine, granted by a 3-way handshake and renewed every 1/5 of the expiry
// period. Expiry of any lease triggers reconfiguration.
//
// Four implementations are modeled (Figure 16):
//   kRpc              - lease messages share the data-plane message queues
//                       and are processed on busy worker threads.
//   kUdShared         - unreliable datagrams, still handled on a worker.
//   kUdDedicated      - datagrams handled on the dedicated lease thread at
//                       normal priority (subject to preemption noise).
//   kUdDedicatedHighPri - dedicated thread, interrupt-driven at the highest
//                       user-space priority: immune to preemption noise but
//                       paying interrupt latency and system-timer quantization.
#ifndef SRC_CORE_LEASE_H_
#define SRC_CORE_LEASE_H_

#include <cstdint>
#include <map>

#include "src/common/rand.h"
#include "src/sim/machine.h"
#include "src/sim/task.h"

namespace farm {

class Node;

enum class LeaseImpl : uint8_t {
  kRpc = 0,
  kUdShared = 1,
  kUdDedicated = 2,
  kUdDedicatedHighPri = 3,
};

struct LeaseOptions {
  SimDuration duration = 10 * kMillisecond;
  LeaseImpl impl = LeaseImpl::kUdDedicatedHighPri;
  // When false, expiries are only counted (Figure 16's methodology disables
  // recovery and measures false positives).
  bool trigger_recovery = true;
};

class LeaseManager {
 public:
  LeaseManager(Node* node, LeaseOptions options);

  void Start();
  // Reconfiguration resets the lease protocol (NEW-CONFIG acts as a lease
  // request from a new CM).
  void OnNewConfig();
  // Process restart with empty state: kill stale timer chains and forget
  // granted leases. Timers re-arm when the node adopts a configuration.
  void ColdRestart() {
    epoch_++;
    expiry_.clear();
  }

  // Entry points from the transports.
  void OnDatagram(MachineId from, std::vector<uint8_t> payload);
  void OnRingMessage(MachineId from, std::vector<uint8_t> payload);

  // Benchmark knobs: background OS activity preempting the (normal
  // priority) lease thread.
  void SetPreemptionNoise(double events_per_sec, SimDuration burst);

  // Chaos injection: expire the lease held for `peer` right now, as if every
  // renewal in the period had been lost, and run the expiry check. No-op if
  // no lease for `peer` is held (e.g. this node is not the CM and peer is
  // not its CM).
  void ForceExpiry(MachineId peer);

  uint64_t expiry_events() const { return expiry_events_; }
  const LeaseOptions& options() const { return options_; }

 private:
  // Handshake steps.
  static constexpr uint8_t kStepRequest = 1;     // machine -> CM
  static constexpr uint8_t kStepGrantRequest = 2;  // CM -> machine
  static constexpr uint8_t kStepGrant = 3;       // machine -> CM

  int ProcessingThread() const;
  SimTime Quantize(SimTime t) const;
  void Send(MachineId dst, uint8_t step);
  void Process(MachineId from, uint8_t step);
  void ScheduleRenewTimer();
  void ScheduleExpiryTimer();
  void ScheduleNoise();
  void CheckExpiries();

  Node* node_;
  LeaseOptions options_;
  bool started_ = false;
  uint64_t epoch_ = 0;  // bumped on config change; stale timers drop out
  std::map<MachineId, SimTime> expiry_;  // CM: all members; member: {cm}
  uint64_t expiry_events_ = 0;
  double noise_rate_ = 0.0;
  SimDuration noise_burst_ = 0;
  Pcg32 noise_rng_{0x1ea5e};
};

}  // namespace farm

#endif  // SRC_CORE_LEASE_H_
