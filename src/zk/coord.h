// Quorum-replicated coordination service (ZooKeeper substitute).
//
// FaRM uses ZooKeeper only as the configuration store of Vertical Paxos: an
// atomic compare-and-swap on the configuration znode, invoked once per
// configuration change (section 3). This module provides exactly that: a
// versioned blob replicated over 2k+1 service machines, with linearizable
// read and CAS served by a leader that commits through a majority quorum.
//
// Simplification vs. real ZAB: leadership is ordered by replica index; a
// replica assumes leadership when every lower-indexed replica is dead, and
// re-syncs from a majority before serving. This matches the failure scope of
// the paper's experiments (the ZooKeeper ensemble itself is not the system
// under test).
#ifndef SRC_ZK_COORD_H_
#define SRC_ZK_COORD_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/sim/task.h"

namespace farm {

struct ZnodeValue {
  uint64_t version = 0;
  std::vector<uint8_t> data;
};

constexpr uint16_t kZkServiceId = 100;

class CoordinationService {
 public:
  // Installs replica RPC services on the given machines (majority required
  // for progress). Machines must already be registered with the fabric.
  CoordinationService(Fabric& fabric, std::vector<MachineId> replicas);

  // Linearizable read of the configuration znode.
  Task<StatusOr<ZnodeValue>> Read(MachineId src, HwThread* thread = nullptr);

  // Atomic CAS: succeeds (returning the new version, expected_version + 1)
  // only if the stored version still equals expected_version; otherwise
  // kFailedPrecondition. kUnavailable if no majority is reachable.
  Task<StatusOr<uint64_t>> CompareAndSwap(MachineId src, uint64_t expected_version,
                                          std::vector<uint8_t> value,
                                          HwThread* thread = nullptr);

  const std::vector<MachineId>& replicas() const { return replicas_; }

 private:
  // Wire op codes within the zk RPC service.
  enum class Op : uint8_t { kRead = 1, kCas = 2, kReplicate = 3 };

  struct Replica {
    MachineId id = kInvalidMachine;
    ZnodeValue value;
    bool synced = false;  // leader has re-synced from a majority
    // Leader-side serialization of CAS processing.
    bool cas_in_flight = false;
    std::deque<std::function<void()>> pending;
  };

  void HandleRpc(size_t replica_idx, MachineId from, std::vector<uint8_t> req,
                 Fabric::ReplyFn reply);
  void ProcessCas(size_t replica_idx, std::vector<uint8_t> req, Fabric::ReplyFn reply);
  Detached RunCas(size_t replica_idx, uint64_t expected_version, std::vector<uint8_t> value,
                  Fabric::ReplyFn reply);
  Detached SyncAndServe(size_t replica_idx, std::function<void()> then);
  // Sends `msg` from replica `replica_idx` to every other live, reachable
  // replica; `on_reply(NetResult&)` sees each completion (reply or timeout)
  // before the returned group counts it done.
  template <typename F>
  WaitGroup FanOut(size_t replica_idx, const std::vector<uint8_t>& msg, F on_reply);
  void PumpPending(size_t replica_idx);

  Fabric& fabric_;
  std::vector<MachineId> replicas_;
  std::vector<Replica> state_;
};

}  // namespace farm

#endif  // SRC_ZK_COORD_H_
