#include "src/baseline/twopc.h"

#include "src/common/serde.h"

namespace farm {

namespace {

enum class Op : uint8_t {
  kPrepare = 1,
  kDecide = 2,
  kReplicate = 3,
};

constexpr SimDuration kRpcTimeout = 20 * kMillisecond;
constexpr uint32_t kValueBytes = 64;

}  // namespace

TwoPcSystem::TwoPcSystem(Fabric& fabric, std::vector<MachineId> machines, Options options)
    : fabric_(fabric), machines_(std::move(machines)), options_(options) {
  int total_groups = options_.groups + 1;  // + coordinator log group
  FARM_CHECK(static_cast<int>(machines_.size()) ==
             total_groups * kReplicasPerGroup);
  store_.resize(static_cast<size_t>(total_groups));
  prepared_.resize(static_cast<size_t>(total_groups));
  for (int g = 0; g < total_groups; g++) {
    for (int r = 0; r < kReplicasPerGroup; r++) {
      MachineId m = machines_[static_cast<size_t>(g) * kReplicasPerGroup +
                              static_cast<size_t>(r)];
      Machine* machine = fabric_.machine(m);
      fabric_.RegisterRpcService(
          m, kServiceId, 0, machine->NumThreads() - 1,
          [this, g, r](MachineId from, std::vector<uint8_t> req, Fabric::ReplyFn reply) {
            HandleRpc(g, r, from, std::move(req), std::move(reply));
          });
    }
  }
}

void TwoPcSystem::HandleRpc(int group, int replica, MachineId from, std::vector<uint8_t> req,
                            Fabric::ReplyFn reply) {
  BufReader r(req);
  Op op = static_cast<Op>(r.GetU8());
  switch (op) {
    case Op::kReplicate: {
      (void)replica;
      // Follower: append to the (modeled) local log and ack.
      reply({1});
      break;
    }
    case Op::kPrepare: {
      uint64_t txid = r.GetU64();
      uint32_t n = r.GetU32();
      std::vector<uint64_t> keys;
      for (uint32_t i = 0; i < n; i++) {
        keys.push_back(r.GetU64());
      }
      HandlePrepare(group, from, txid, std::move(keys), std::move(reply));
      break;
    }
    case Op::kDecide: {
      uint64_t txid = r.GetU64();
      bool commit = r.GetU8() != 0;
      HandleDecide(group, from, txid, commit, std::move(reply));
      break;
    }
  }
}

Task<bool> TwoPcSystem::Replicate(int group, std::vector<uint8_t> entry) {
  BufWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kReplicate));
  w.Append(entry.data(), entry.size());
  std::vector<uint8_t> msg = w.Take();
  int majority = kReplicasPerGroup / 2 + 1;
  auto acks = std::make_shared<int>(1);  // leader itself
  WaitGroup wg;
  MachineId leader = GroupLeader(group);
  for (int r = 1; r < kReplicasPerGroup; r++) {
    MachineId follower = machines_[static_cast<size_t>(group) * kReplicasPerGroup +
                                   static_cast<size_t>(r)];
    if (!fabric_.IsAlive(follower)) {
      continue;  // a dead follower would only stall the quorum wait
    }
    wg.Add();
    fabric_.Call(leader, follower, kServiceId, msg, nullptr, kRpcTimeout)
        .OnReady([acks, wg](NetResult& res) {
          if (res.status.ok()) {
            (*acks)++;
          }
          wg.Done();
        });
  }
  co_await wg.Wait();
  co_return *acks >= majority;
}

Detached TwoPcSystem::HandlePrepare(int group, MachineId from, uint64_t txid,
                                    std::vector<uint64_t> keys, Fabric::ReplyFn reply) {
  (void)from;
  // Participant leader: log the prepare through its Paxos group.
  BufWriter entry;
  entry.PutU64(txid);
  bool ok = co_await Replicate(group, entry.Take());
  if (ok) {
    prepared_[static_cast<size_t>(group)][txid] = std::move(keys);
  }
  reply({static_cast<uint8_t>(ok ? 1 : 0)});
}

Detached TwoPcSystem::HandleDecide(int group, MachineId from, uint64_t txid, bool commit,
                                   Fabric::ReplyFn reply) {
  (void)from;
  BufWriter entry;
  entry.PutU64(txid);
  bool ok = co_await Replicate(group, entry.Take());
  auto it = prepared_[static_cast<size_t>(group)].find(txid);
  if (ok && commit && it != prepared_[static_cast<size_t>(group)].end()) {
    for (uint64_t key : it->second) {
      store_[static_cast<size_t>(group)][key].assign(kValueBytes, 1);
    }
  }
  if (it != prepared_[static_cast<size_t>(group)].end()) {
    prepared_[static_cast<size_t>(group)].erase(it);
  }
  reply({static_cast<uint8_t>(ok ? 1 : 0)});
}

Task<bool> TwoPcSystem::RunTx(MachineId client, const std::vector<uint64_t>& keys) {
  uint64_t txid = next_tx_++;
  // Which participant groups does this transaction touch?
  std::vector<int> groups;
  for (uint64_t key : keys) {
    int g = static_cast<int>(key % static_cast<uint64_t>(options_.groups));
    if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
      groups.push_back(g);
    }
  }

  // Phase 1: PREPARE at every participant leader.
  bool all_yes = true;
  for (int g : groups) {
    BufWriter w;
    w.PutU8(static_cast<uint8_t>(Op::kPrepare));
    w.PutU64(txid);
    std::vector<uint64_t> group_keys;
    for (uint64_t key : keys) {
      if (static_cast<int>(key % static_cast<uint64_t>(options_.groups)) == g) {
        group_keys.push_back(key);
      }
    }
    w.PutU32(static_cast<uint32_t>(group_keys.size()));
    for (uint64_t key : group_keys) {
      w.PutU64(key);
    }
    NetResult r = co_await fabric_.Call(client, GroupLeader(g), kServiceId, w.Take(), nullptr,
                                        kRpcTimeout);
    if (!r.status.ok() || r.data.empty() || r.data[0] != 1) {
      all_yes = false;
    }
  }

  // Replicate the commit decision through the coordinator's own group.
  {
    BufWriter w;
    w.PutU8(static_cast<uint8_t>(Op::kDecide));
    w.PutU64(txid);
    w.PutU8(all_yes ? 1 : 0);
    NetResult r = co_await fabric_.Call(client, GroupLeader(CoordinatorGroup()), kServiceId,
                                        w.Take(), nullptr, kRpcTimeout);
    if (!r.status.ok()) {
      all_yes = false;
    }
  }

  // Phase 2: COMMIT/ABORT at participants.
  for (int g : groups) {
    BufWriter w;
    w.PutU8(static_cast<uint8_t>(Op::kDecide));
    w.PutU64(txid);
    w.PutU8(all_yes ? 1 : 0);
    (void)co_await fabric_.Call(client, GroupLeader(g), kServiceId, w.Take(), nullptr,
                                kRpcTimeout);
  }
  if (all_yes) {
    committed_++;
  }
  co_return all_yes;
}

}  // namespace farm
