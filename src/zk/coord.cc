#include "src/zk/coord.h"

#include "src/common/serde.h"

namespace farm {

namespace {

constexpr uint8_t kOpLocalGet = 4;  // internal: read replica-local state

enum class WireStatus : uint8_t {
  kOk = 0,
  kNotLeader = 1,
  kPrecondition = 2,
  kUnavailable = 3,
};

constexpr SimDuration kZkRpcTimeout = 2 * kMillisecond;

}  // namespace

CoordinationService::CoordinationService(Fabric& fabric, std::vector<MachineId> replicas)
    : fabric_(fabric), replicas_(std::move(replicas)) {
  FARM_CHECK(!replicas_.empty());
  state_.resize(replicas_.size());
  // The initial leader starts synced (nothing to recover at time zero).
  state_[0].synced = true;
  for (size_t i = 0; i < replicas_.size(); i++) {
    state_[i].id = replicas_[i];
    Machine* m = fabric_.machine(replicas_[i]);
    int hi = m->NumThreads() - 1;
    fabric_.RegisterRpcService(
        replicas_[i], kZkServiceId, 0, hi,
        [this, i](MachineId from, std::vector<uint8_t> req, Fabric::ReplyFn reply) {
          HandleRpc(i, from, std::move(req), std::move(reply));
        });
  }
}

void CoordinationService::HandleRpc(size_t replica_idx, MachineId from,
                                    std::vector<uint8_t> req, Fabric::ReplyFn reply) {
  (void)from;
  Replica& rep = state_[replica_idx];
  BufReader r(req);
  uint8_t op = r.GetU8();

  if (op == kOpLocalGet) {
    BufWriter w;
    w.PutU8(static_cast<uint8_t>(WireStatus::kOk));
    w.PutU64(rep.value.version);
    w.PutBytes(rep.value.data.data(), rep.value.data.size());
    reply(w.Take());
    return;
  }

  if (op == static_cast<uint8_t>(Op::kReplicate)) {
    uint64_t version = r.GetU64();
    auto data = r.GetBytes();
    if (version > rep.value.version) {
      rep.value.version = version;
      rep.value.data = std::move(data);
    }
    BufWriter w;
    w.PutU8(static_cast<uint8_t>(WireStatus::kOk));
    reply(w.Take());
    return;
  }

  // Leadership check from this replica's viewpoint: the lowest-indexed
  // replica that is alive and reachable from here.
  int my_leader = -1;
  for (size_t i = 0; i < replicas_.size(); i++) {
    if (fabric_.IsAlive(replicas_[i]) && fabric_.Reachable(replicas_[replica_idx], replicas_[i])) {
      my_leader = static_cast<int>(i);
      break;
    }
  }
  if (my_leader != static_cast<int>(replica_idx)) {
    BufWriter w;
    w.PutU8(static_cast<uint8_t>(WireStatus::kNotLeader));
    reply(w.Take());
    return;
  }

  auto serve = [this, replica_idx, op, req = std::move(req), reply]() mutable {
    Replica& me = state_[replica_idx];
    if (!me.synced) {
      BufWriter w;
      w.PutU8(static_cast<uint8_t>(WireStatus::kUnavailable));
      reply(w.Take());
      return;
    }
    if (op == static_cast<uint8_t>(Op::kRead)) {
      BufWriter w;
      w.PutU8(static_cast<uint8_t>(WireStatus::kOk));
      w.PutU64(me.value.version);
      w.PutBytes(me.value.data.data(), me.value.data.size());
      reply(w.Take());
      return;
    }
    if (op == static_cast<uint8_t>(Op::kCas)) {
      ProcessCas(replica_idx, std::move(req), std::move(reply));
      return;
    }
    BufWriter w;
    w.PutU8(static_cast<uint8_t>(WireStatus::kUnavailable));
    reply(w.Take());
  };

  if (!rep.synced) {
    SyncAndServe(replica_idx, std::move(serve));
  } else {
    serve();
  }
}

template <typename F>
WaitGroup CoordinationService::FanOut(size_t replica_idx, const std::vector<uint8_t>& msg,
                                      F on_reply) {
  WaitGroup wg;
  for (size_t i = 0; i < replicas_.size(); i++) {
    if (i == replica_idx || !fabric_.IsAlive(replicas_[i]) ||
        !fabric_.Reachable(replicas_[replica_idx], replicas_[i])) {
      continue;  // a dead/unreachable replica would only delay the quorum wait
    }
    wg.Add();
    fabric_.Call(replicas_[replica_idx], replicas_[i], kZkServiceId, msg, nullptr, kZkRpcTimeout)
        .OnReady([on_reply, wg](NetResult& r) {
          on_reply(r);
          wg.Done();
        });
  }
  return wg;
}

Detached CoordinationService::SyncAndServe(size_t replica_idx, std::function<void()> then) {
  // farmlint: allow(await-hazard): state_ is sized once at construction and
  // never resized, so references into it survive every suspension here.
  Replica& rep = state_[replica_idx];
  size_t majority = replicas_.size() / 2 + 1;

  BufWriter w;
  w.PutU8(kOpLocalGet);
  std::vector<uint8_t> msg = w.Take();

  auto best = std::make_shared<ZnodeValue>(rep.value);
  auto responses = std::make_shared<size_t>(1);  // self
  WaitGroup wg = FanOut(replica_idx, msg, [best, responses](NetResult& r) {
    if (r.status.ok() && !r.data.empty()) {
      BufReader rr(r.data);
      if (rr.GetU8() == static_cast<uint8_t>(WireStatus::kOk)) {
        uint64_t version = rr.GetU64();
        auto data = rr.GetBytes();
        (*responses)++;
        if (version > best->version) {
          best->version = version;
          best->data = std::move(data);
        }
      }
    }
  });
  co_await wg.Wait();

  if (*responses >= majority) {
    rep.value = *best;
    rep.synced = true;
  }
  // Without a majority the replica stays unsynced, and serve() answers
  // kUnavailable.
  then();
}

void CoordinationService::ProcessCas(size_t replica_idx, std::vector<uint8_t> req,
                                     Fabric::ReplyFn reply) {
  Replica& rep = state_[replica_idx];
  if (rep.cas_in_flight) {
    rep.pending.push_back([this, replica_idx, req = std::move(req), reply]() mutable {
      ProcessCas(replica_idx, std::move(req), std::move(reply));
    });
    return;
  }
  BufReader r(req);
  uint8_t op = r.GetU8();
  FARM_CHECK(op == static_cast<uint8_t>(Op::kCas));
  uint64_t expected = r.GetU64();
  auto data = r.GetBytes();
  rep.cas_in_flight = true;
  RunCas(replica_idx, expected, std::move(data), std::move(reply));
}

void CoordinationService::PumpPending(size_t replica_idx) {
  Replica& rep = state_[replica_idx];
  rep.cas_in_flight = false;
  if (!rep.pending.empty()) {
    auto next = std::move(rep.pending.front());
    rep.pending.pop_front();
    next();
  }
}

Detached CoordinationService::RunCas(size_t replica_idx, uint64_t expected_version,
                                     std::vector<uint8_t> value, Fabric::ReplyFn reply) {
  // farmlint: allow(await-hazard): state_ is sized once at construction and
  // never resized, so references into it survive every suspension here.
  Replica& rep = state_[replica_idx];
  if (!rep.synced || rep.value.version != expected_version) {
    BufWriter w;
    w.PutU8(static_cast<uint8_t>(rep.synced ? WireStatus::kPrecondition
                                            : WireStatus::kUnavailable));
    w.PutU64(rep.value.version);
    reply(w.Take());
    PumpPending(replica_idx);
    co_return;
  }

  uint64_t new_version = expected_version + 1;
  BufWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kReplicate));
  w.PutU64(new_version);
  w.PutBytes(value.data(), value.size());
  std::vector<uint8_t> msg = w.Take();

  size_t majority = replicas_.size() / 2 + 1;
  auto acks = std::make_shared<size_t>(1);  // self
  WaitGroup wg = FanOut(replica_idx, msg, [acks](NetResult& r) {
    if (r.status.ok() && !r.data.empty() && r.data[0] == static_cast<uint8_t>(WireStatus::kOk)) {
      (*acks)++;
    }
  });
  co_await wg.Wait();

  BufWriter out;
  if (*acks >= majority) {
    rep.value.version = new_version;
    rep.value.data = std::move(value);
    out.PutU8(static_cast<uint8_t>(WireStatus::kOk));
    out.PutU64(new_version);
  } else {
    out.PutU8(static_cast<uint8_t>(WireStatus::kUnavailable));
    out.PutU64(rep.value.version);
  }
  reply(out.Take());
  PumpPending(replica_idx);
}

Task<StatusOr<ZnodeValue>> CoordinationService::Read(MachineId src, HwThread* thread) {
  BufWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kRead));
  std::vector<uint8_t> msg = w.Take();
  for (size_t i = 0; i < replicas_.size(); i++) {
    NetResult r = co_await fabric_.Call(src, replicas_[i], kZkServiceId, msg, thread, kZkRpcTimeout);
    if (!r.status.ok() || r.data.empty()) {
      continue;
    }
    BufReader rr(r.data);
    auto ws = static_cast<WireStatus>(rr.GetU8());
    if (ws == WireStatus::kOk) {
      ZnodeValue v;
      v.version = rr.GetU64();
      v.data = rr.GetBytes();
      co_return v;
    }
    // NOT_LEADER / UNAVAILABLE: try the next replica.
  }
  co_return UnavailableStatus("no zk majority reachable");
}

Task<StatusOr<uint64_t>> CoordinationService::CompareAndSwap(MachineId src,
                                                             uint64_t expected_version,
                                                             std::vector<uint8_t> value,
                                                             HwThread* thread) {
  BufWriter w;
  w.PutU8(static_cast<uint8_t>(Op::kCas));
  w.PutU64(expected_version);
  w.PutBytes(value.data(), value.size());
  std::vector<uint8_t> msg = w.Take();
  for (size_t i = 0; i < replicas_.size(); i++) {
    NetResult r = co_await fabric_.Call(src, replicas_[i], kZkServiceId, msg, thread, kZkRpcTimeout);
    if (!r.status.ok() || r.data.empty()) {
      continue;
    }
    BufReader rr(r.data);
    auto ws = static_cast<WireStatus>(rr.GetU8());
    if (ws == WireStatus::kOk) {
      co_return rr.GetU64();
    }
    if (ws == WireStatus::kPrecondition) {
      co_return Status(StatusCode::kFailedPrecondition, "configuration version moved");
    }
    // NOT_LEADER / UNAVAILABLE: try the next replica.
  }
  co_return UnavailableStatus("no zk majority reachable");
}

}  // namespace farm
