#include "src/core/lease.h"

#include "src/core/cluster.h"
#include "src/core/node.h"

namespace farm {

namespace {

constexpr uint8_t kLeaseMagic = 0x1e;
// The system timer limits when timer-driven work can be scheduled (0.5 ms
// resolution in the paper's setup).
constexpr SimDuration kTimerResolution = 500 * kMicrosecond;
constexpr SimDuration kInterruptLatency = 3 * kMicrosecond;  // interrupt-driven wakeup cost
constexpr SimDuration kProcessCost = 400;                    // CPU ns per lease message

}  // namespace

LeaseManager::LeaseManager(Node* node, LeaseOptions options)
    : node_(node), options_(options) {}

void LeaseManager::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  OnNewConfig();
  ScheduleNoise();
}

void LeaseManager::OnNewConfig() {
  epoch_++;
  expiry_.clear();
  SimTime grace = node_->sim().Now() + options_.duration;
  const Configuration& cfg = node_->config();
  if (cfg.cm == node_->id()) {
    for (MachineId m : cfg.machines) {
      if (m != node_->id()) {
        expiry_[m] = grace;
      }
    }
  } else {
    expiry_[cfg.cm] = grace;
  }
  ScheduleRenewTimer();
  ScheduleExpiryTimer();
}

int LeaseManager::ProcessingThread() const {
  switch (options_.impl) {
    case LeaseImpl::kRpc:
    case LeaseImpl::kUdShared:
      return 0;  // a busy foreground worker
    case LeaseImpl::kUdDedicated:
    case LeaseImpl::kUdDedicatedHighPri:
      return node_->machine().NumThreads() - 1;  // the dedicated lease thread
  }
  return 0;
}

SimTime LeaseManager::Quantize(SimTime t) const {
  return (t + kTimerResolution - 1) / kTimerResolution * kTimerResolution;
}

void LeaseManager::Send(MachineId dst, uint8_t step) {
  if (!node_->fabric().IsAlive(node_->id())) {
    return;
  }
  node_->emit().Report(Step::kLeaseSend, dst);
  std::vector<uint8_t> payload = {kLeaseMagic, step};
  if (options_.impl == LeaseImpl::kRpc) {
    // Lease messages share the data-plane message queues: they wait behind
    // queued records at both NICs and busy worker threads.
    if (node_->messenger().ConnectedTo(dst)) {
      node_->messenger().SendMessage(dst, MsgType::kLeaseMsg, std::move(payload), -1);
    }
  } else {
    // Unreliable datagrams on a dedicated queue pair (one extra QP total).
    node_->fabric().SendDatagram(node_->id(), dst, std::move(payload),
                                 /*bypass_nic_queue=*/true);
  }
}

void LeaseManager::OnDatagram(MachineId from, std::vector<uint8_t> payload) {
  if (payload.size() != 2 || payload[0] != kLeaseMagic) {
    return;
  }
  uint8_t step = payload[1];
  switch (options_.impl) {
    case LeaseImpl::kUdDedicatedHighPri: {
      // Interrupt-driven at the highest user-space priority: preempts
      // whatever occupies the CPU, at the cost of interrupt latency.
      node_->sim().After(kInterruptLatency + kProcessCost,
                         [this, from, step]() { Process(from, step); });
      break;
    }
    case LeaseImpl::kUdDedicated:
    case LeaseImpl::kUdShared: {
      node_->machine()
          .thread(ProcessingThread())
          .Run(kProcessCost, [this, from, step]() { Process(from, step); });
      break;
    }
    case LeaseImpl::kRpc:
      // RPC leases do not arrive as datagrams.
      break;
  }
}

void LeaseManager::OnRingMessage(MachineId from, std::vector<uint8_t> payload) {
  // Reached via the normal message path (worker CPU already charged).
  if (payload.size() == 2 && payload[0] == kLeaseMagic) {
    Process(from, payload[1]);
  }
}

void LeaseManager::Process(MachineId from, uint8_t step) {
  const Configuration& cfg = node_->config();
  SimTime renewed = node_->sim().Now() + options_.duration;
  switch (step) {
    case kStepRequest:
      // At the CM: grant + request back (3-way handshake, message 2).
      if (cfg.cm == node_->id()) {
        expiry_[from] = renewed;
        Send(from, kStepGrantRequest);
      }
      break;
    case kStepGrantRequest:
      // At a member: our lease was granted; grant the CM its lease.
      if (from == cfg.cm) {
        expiry_[from] = renewed;
        Send(from, kStepGrant);
      }
      break;
    case kStepGrant:
      if (cfg.cm == node_->id()) {
        expiry_[from] = renewed;
      }
      break;
    default:
      break;
  }
}

void LeaseManager::ScheduleRenewTimer() {
  uint64_t epoch = epoch_;
  SimTime next = Quantize(node_->sim().Now() + options_.duration / 5);
  if (next <= node_->sim().Now()) {
    next = node_->sim().Now() + options_.duration / 5;
  }
  node_->sim().At(next, [this, epoch]() {
    if (epoch != epoch_ || !node_->machine().alive()) {
      return;
    }
    const Configuration& cfg = node_->config();
    if (cfg.cm != node_->id() && cfg.Contains(node_->id())) {
      Send(cfg.cm, kStepRequest);
    }
    ScheduleRenewTimer();
  });
}

void LeaseManager::ScheduleExpiryTimer() {
  uint64_t epoch = epoch_;
  node_->sim().After(kTimerResolution, [this, epoch]() {
    if (epoch != epoch_ || !node_->machine().alive()) {
      return;
    }
    CheckExpiries();
    ScheduleExpiryTimer();
  });
}

void LeaseManager::CheckExpiries() {
  SimTime now = node_->sim().Now();
  const Configuration& cfg = node_->config();
  for (auto& [m, expiry] : expiry_) {
    if (now <= expiry) {
      continue;
    }
    expiry_events_++;
    expiry = now + options_.duration;  // re-arm so one failure counts once per period
    node_->emit().Report(Step::kLeaseExpired, m, 0, node_->machine().NumThreads() - 1);
    if (!options_.trigger_recovery) {
      continue;
    }
    if (cfg.cm == node_->id()) {
      node_->OnMachineSuspected(m);
    } else if (m == cfg.cm) {
      node_->OnCmSuspected();
    }
  }
}

void LeaseManager::ForceExpiry(MachineId peer) {
  auto it = expiry_.find(peer);
  if (it == expiry_.end()) {
    return;
  }
  it->second = 0;
  CheckExpiries();
}

void LeaseManager::SetPreemptionNoise(double events_per_sec, SimDuration burst) {
  noise_rate_ = events_per_sec;
  noise_burst_ = burst;
  ScheduleNoise();
}

void LeaseManager::ScheduleNoise() {
  if (noise_rate_ <= 0) {
    return;
  }
  double mean_ns = 1e9 / noise_rate_;
  SimDuration wait = static_cast<SimDuration>(noise_rng_.Exponential(mean_ns)) + 1;
  node_->sim().After(wait, [this]() {
    if (!node_->machine().alive()) {
      return;
    }
    // Background OS work preempts the lease thread unless the lease manager
    // runs interrupt-driven at high priority.
    if (options_.impl != LeaseImpl::kUdDedicatedHighPri) {
      node_->machine().thread(ProcessingThread()).InjectBusy(noise_burst_);
    }
    ScheduleNoise();
  });
}

}  // namespace farm
