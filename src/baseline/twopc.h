// Two-phase commit over Paxos-replicated participants (Spanner stand-in).
//
// Section 4 argues analytically that a Spanner-style commit needs
// 4P(2f+1) messages versus FaRM's Pw(f+3) one-sided writes. This baseline
// makes the comparison measurable: data is sharded over participant groups
// of 2f+1 replicas; the coordinator log is itself a replicated group; every
// step is a message (RPC) that burns remote CPU.
//
// Protocol per transaction (all steps leader-driven):
//   1. client -> coordinator leader: BEGIN-COMMIT
//   2. coordinator -> each participant leader: PREPARE(writes)
//   3. participant leader -> its followers: replicate prepare (majority ack)
//   4. participant leader -> coordinator: VOTE
//   5. coordinator -> its followers: replicate decision (majority ack)
//   6. coordinator -> participant leaders: COMMIT
//   7. participant leaders replicate + apply + ACK; coordinator -> client.
#ifndef SRC_BASELINE_TWOPC_H_
#define SRC_BASELINE_TWOPC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/net/fabric.h"
#include "src/sim/task.h"

namespace farm {

class TwoPcSystem {
 public:
  struct Options {
    int groups = 3;  // participant groups (data shards)
  };
  static constexpr int kReplicasPerGroup = 3;  // 2f+1

  // machines must hold (groups + 1) * kReplicasPerGroup entries: group g
  // uses machines [g*r, (g+1)*r), the last group is the coordinator log.
  TwoPcSystem(Fabric& fabric, std::vector<MachineId> machines, Options options);

  // Runs one transaction writing `keys` (key -> owning group = key % groups)
  // coordinated from `client`. Returns commit success.
  Task<bool> RunTx(MachineId client, const std::vector<uint64_t>& keys);

  uint64_t committed() const { return committed_; }

 private:
  static constexpr uint16_t kServiceId = 210;

  MachineId GroupLeader(int group) const {
    return machines_[static_cast<size_t>(group) * kReplicasPerGroup];
  }
  int CoordinatorGroup() const { return options_.groups; }

  void HandleRpc(int group, int replica, MachineId from, std::vector<uint8_t> req,
                 Fabric::ReplyFn reply);
  Detached HandlePrepare(int group, MachineId from, uint64_t txid,
                         std::vector<uint64_t> keys, Fabric::ReplyFn reply);
  Detached HandleDecide(int group, MachineId from, uint64_t txid, bool commit,
                        Fabric::ReplyFn reply);
  // Replicates a log entry within the group; resolves when a majority acked.
  Task<bool> Replicate(int group, std::vector<uint8_t> entry);

  Fabric& fabric_;
  std::vector<MachineId> machines_;
  Options options_;
  uint64_t next_tx_ = 1;
  uint64_t committed_ = 0;
  // Per-group storage (at the leader; follower copies are modeled by the
  // replication message flow, which is what the comparison measures).
  std::vector<std::map<uint64_t, std::vector<uint8_t>>> store_;
  std::vector<std::map<uint64_t, std::vector<uint64_t>>> prepared_;  // txid -> keys
};

}  // namespace farm

#endif  // SRC_BASELINE_TWOPC_H_
