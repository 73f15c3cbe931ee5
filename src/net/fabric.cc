#include "src/net/fabric.h"

#include <cstring>

#include "src/net/cost_model.h"
#include "src/obs/flight_recorder.h"

namespace farm {

namespace {

// Message-level flight records (msg-send at the caller, msg-recv at the
// handler). Service id in arg, peer machine in detail; no transaction id at
// this layer.
void FlightMsg(flight::Recorder* ring, SimTime now, flight::EventKind kind,
               uint16_t service, MachineId peer) {
  if (ring == nullptr) {
    return;
  }
  flight::Record r;
  r.time_ns = now;
  r.kind = static_cast<uint8_t>(kind);
  r.arg = static_cast<uint8_t>(service & 0xff);
  r.detail = peer;
  ring->Append(r);
}

// Wire sizes of verb headers (request without payload / response framing).
constexpr uint32_t kVerbHeaderBytes = 32;
constexpr uint32_t kCasResponseBytes = 8;
constexpr uint32_t kAckBytes = 8;

// Two NICs per machine, as in the paper's testbed (two 56 Gbps ConnectX-3).
constexpr size_t kNicsPerMachine = 2;

// Per-op instant on the initiator's track plus the cumulative byte counter
// for the op's transport (counter_name may be null for datagrams).
// High-volume, so double-gated: tracer attached AND capture_net on.
void TraceOp(trace::Tracer* tracer, const char* name, MachineId src, HwThread* thread,
             const char* counter_name, uint64_t counter_value) {
  if (tracer == nullptr || !tracer->capture_net()) {
    return;
  }
  tracer->Instant(static_cast<uint32_t>(src), thread != nullptr ? static_cast<uint32_t>(thread->index()) : 0,
                  "net", name);
  if (counter_name != nullptr) {
    tracer->CounterValue(static_cast<uint32_t>(src), counter_name, counter_value);
  }
}

// Injected faults are rare and load-bearing for chaos debugging, so they
// trace whenever a tracer is attached (not gated on capture_net).
void TraceFault(trace::Tracer* tracer, const char* name, MachineId src) {
  if (tracer != nullptr) {
    tracer->Instant(static_cast<uint32_t>(src), 0, "chaos", name);
  }
}

}  // namespace

void Fabric::AddMachine(Machine* machine, RdmaMemory* memory) {
  MachineId id = machine->id();
  if (id >= endpoints_.size()) {
    endpoints_.resize(id + 1);
    partition_group_.resize(id + 1, 0);
  }
  Endpoint& ep = endpoints_[id];
  ep.machine = machine;
  ep.memory = memory;
  ep.nics.assign(kNicsPerMachine, NicPort{});
}

bool Fabric::IsAlive(MachineId m) const {
  return m < endpoints_.size() && endpoints_[m].machine != nullptr && endpoints_[m].machine->alive();
}

Machine* Fabric::machine(MachineId m) const {
  FARM_CHECK(m < endpoints_.size() && endpoints_[m].machine != nullptr);
  return endpoints_[m].machine;
}

void Fabric::SetPartition(const std::vector<std::vector<MachineId>>& groups) {
  partitioned_ = true;
  std::fill(partition_group_.begin(), partition_group_.end(), -1);
  int g = 0;
  for (const auto& group : groups) {
    for (MachineId m : group) {
      FARM_CHECK(m < partition_group_.size());
      partition_group_[m] = g;
    }
    g++;
  }
}

void Fabric::ClearPartition() {
  partitioned_ = false;
  std::fill(partition_group_.begin(), partition_group_.end(), 0);
}

void Fabric::SetLinkFaults(MachineId src, MachineId dst, LinkFaults faults) {
  if (!faults.Any()) {
    link_faults_.erase({src, dst});
    return;
  }
  link_faults_[{src, dst}] = faults;
}

void Fabric::SetMachineLinkFaults(MachineId m, LinkFaults faults) {
  for (MachineId peer = 0; peer < endpoints_.size(); peer++) {
    if (peer == m || endpoints_[peer].machine == nullptr) {
      continue;
    }
    SetLinkFaults(m, peer, faults);
    SetLinkFaults(peer, m, faults);
  }
}

void Fabric::ClearLinkFaults(MachineId src, MachineId dst) {
  link_faults_.erase({src, dst});
}

Fabric::FaultOutcome Fabric::DrawFaults(MachineId src, MachineId dst) {
  FaultOutcome out;
  if (link_faults_.empty()) {
    return out;  // fault-free runs draw no randomness here
  }
  auto it = link_faults_.find({src, dst});
  if (it == link_faults_.end()) {
    return out;
  }
  const LinkFaults& f = it->second;
  // Draw order is fixed (drop, latency, reorder, dup) so a policy change in
  // one dimension does not shift the stream consumed by the others.
  if (f.drop > 0 && fault_rng_.Bernoulli(f.drop)) {
    out.drop = true;
    stats_.faults_dropped++;
    TraceFault(sinks_.tracer, "fault_drop", src);
    return out;
  }
  out.delay = f.extra_latency;
  if (f.jitter > 0) {
    out.delay += fault_rng_.Uniform64(f.jitter);
  }
  if (f.reorder > 0 && fault_rng_.Bernoulli(f.reorder)) {
    // Holding one message back past its successors is a bounded reorder on
    // an otherwise FIFO link.
    SimDuration window = f.reorder_window > 0 ? f.reorder_window : kMillisecond;
    out.delay += fault_rng_.Uniform64(window);
    stats_.faults_reordered++;
    TraceFault(sinks_.tracer, "fault_reorder", src);
  }
  if (out.delay > 0) {
    stats_.faults_delayed++;
    TraceFault(sinks_.tracer, "fault_delay", src);
  }
  if (f.dup > 0 && fault_rng_.Bernoulli(f.dup)) {
    out.duplicate = true;
    out.dup_delay = out.delay + (f.jitter > 0 ? fault_rng_.Uniform64(f.jitter) : 0);
    stats_.faults_duplicated++;
    TraceFault(sinks_.tracer, "fault_dup", src);
  }
  return out;
}

bool Fabric::Reachable(MachineId a, MachineId b) const {
  if (!partitioned_) {
    return true;
  }
  if (a >= partition_group_.size() || b >= partition_group_.size()) {
    return false;
  }
  return partition_group_[a] >= 0 && partition_group_[a] == partition_group_[b];
}

void Fabric::CompleteOnThread(Future<NetResult> done, NetResult result, HwThread* thread,
                              SimDuration cpu_cost) {
  if (thread != nullptr) {
    thread->Run(cpu_cost, [done, result = std::move(result)]() mutable {
      done.Set(std::move(result));
    });
  } else {
    done.Set(std::move(result));
  }
}

Future<NetResult> Fabric::Read(MachineId src, MachineId dst, uint64_t addr, uint32_t len,
                               HwThread* thread) {
  stats_.rdma_reads++;
  stats_.rdma_bytes += len;
  TraceOp(sinks_.tracer, "rdma_read", src, thread, "rdma_bytes", stats_.rdma_bytes);
  return OneSided(Verb::kRead, src, dst, addr, len, {}, 0, 0, thread);
}

Future<NetResult> Fabric::Write(MachineId src, MachineId dst, uint64_t addr,
                                std::vector<uint8_t> data, HwThread* thread,
                                std::function<void()> on_delivered) {
  stats_.rdma_writes++;
  stats_.rdma_bytes += data.size();
  TraceOp(sinks_.tracer, "rdma_write", src, thread, "rdma_bytes", stats_.rdma_bytes);
  return OneSided(Verb::kWrite, src, dst, addr, static_cast<uint32_t>(data.size()),
                  std::move(data), 0, 0, thread, std::move(on_delivered));
}

Future<NetResult> Fabric::Cas(MachineId src, MachineId dst, uint64_t addr, uint64_t expected,
                              uint64_t desired, HwThread* thread) {
  stats_.rdma_cas++;
  stats_.rdma_bytes += 16;
  TraceOp(sinks_.tracer, "rdma_cas", src, thread, "rdma_bytes", stats_.rdma_bytes);
  return OneSided(Verb::kCas, src, dst, addr, 8, {}, expected, desired, thread);
}

Fabric::OneSidedOp* Fabric::AcquireOneSided() {
  OneSidedOp* op = one_sided_free_;
  if (op != nullptr) {
    one_sided_free_ = op->next_free;
    op->next_free = nullptr;
  } else {
    one_sided_owned_.push_back(std::make_unique<OneSidedOp>());
    op = one_sided_owned_.back().get();
    op->fabric = this;
  }
  return op;
}

void Fabric::ReleaseOneSided(OneSidedOp* op) {
  op->data.clear();
  op->on_delivered = nullptr;
  op->result.status = OkStatus();
  op->result.data.clear();
  op->next_free = one_sided_free_;
  one_sided_free_ = op;
}

Future<NetResult> Fabric::OneSided(Verb verb, MachineId src, MachineId dst, uint64_t addr,
                                   uint32_t len, std::vector<uint8_t> data, uint64_t expected,
                                   uint64_t desired, HwThread* thread,
                                   std::function<void()> on_delivered) {
  Ep(src);  // validate endpoints exist
  Ep(dst);

  OneSidedOp* op = AcquireOneSided();
  op->verb = verb;
  op->src = src;
  op->dst = dst;
  op->addr = addr;
  op->len = len;
  op->expected = expected;
  op->desired = desired;
  op->thread = thread;
  op->data = std::move(data);
  op->on_delivered = std::move(on_delivered);
  op->done = Future<NetResult>();
  // Request sizes: reads/CAS carry a header; writes carry the payload.
  op->req_bytes = verb == Verb::kWrite ? kVerbHeaderBytes + len : kVerbHeaderBytes;
  op->resp_bytes =
      verb == Verb::kRead ? len : (verb == Verb::kCas ? kCasResponseBytes : kAckBytes);

  SimTime issue_done = thread != nullptr ? thread->AcquireCpu(kCost.cpu_rdma_issue) : sim_.Now();
  sim_.At(issue_done, [op]() { op->fabric->OneSidedIssue(op); });
  return op->done;
}

// RC transport gave up on an unreachable/dead peer: surface a timeout to the
// initiator one rc_op_timeout from now. The pending completion must not
// reference the record (it is released here), so it captures the future.
void Fabric::OneSidedFail(OneSidedOp* op) {
  Future<NetResult> done = op->done;
  HwThread* thread = op->thread;
  MachineId src = op->src;
  ReleaseOneSided(op);
  sim_.At(sim_.Now() + kCost.rc_op_timeout, [this, done, thread, src]() {
    if (!IsAlive(src)) {
      return;  // initiator died; nobody is polling the CQ
    }
    CompleteOnThread(done, NetResult{UnavailableStatus("one-sided op timed out"), {}}, thread,
                     kCost.cpu_rdma_completion);
  });
}

void Fabric::OneSidedIssue(OneSidedOp* op) {
  if (!IsAlive(op->src)) {
    ReleaseOneSided(op);
    return;
  }
  if (!Reachable(op->src, op->dst) || !IsAlive(op->dst)) {
    OneSidedFail(op);
    return;
  }
  NicPort& src_nic = PickNic(Ep(op->src));
  SimTime sent = src_nic.Acquire(sim_.Now(), kCost.NicOccupancy(op->req_bytes));
  SimTime arrival = sent + kCost.wire_latency;
  sim_.At(arrival, [op]() { op->fabric->OneSidedArrive(op); });
}

void Fabric::OneSidedArrive(OneSidedOp* op) {
  if (!Reachable(op->src, op->dst) || !IsAlive(op->dst)) {
    OneSidedFail(op);
    return;
  }
  NicPort& dst_nic = PickNic(Ep(op->dst));
  // The target NIC serves the verb: DMA in/out of target memory.
  SimTime served = dst_nic.Acquire(sim_.Now(), kCost.NicOccupancy(op->req_bytes + op->resp_bytes));
  sim_.At(served, [op]() { op->fabric->OneSidedServe(op); });
}

void Fabric::OneSidedServe(OneSidedOp* op) {
  if (!Reachable(op->src, op->dst) || !IsAlive(op->dst)) {
    OneSidedFail(op);
    return;
  }
  Endpoint& dst_ep = Ep(op->dst);
  NetResult& result = op->result;
  switch (op->verb) {
    case Verb::kRead: {
      result.data.resize(op->len);
      if (!dst_ep.memory->RdmaRead(op->addr, op->len, result.data.data())) {
        result.status = Status(StatusCode::kInvalidArgument, "rdma read protection fault");
        result.data.clear();
      }
      break;
    }
    case Verb::kWrite: {
      if (!dst_ep.memory->RdmaWrite(op->addr, op->data.data(), op->data.size())) {
        result.status = Status(StatusCode::kInvalidArgument, "rdma write protection fault");
      } else if (op->on_delivered) {
        op->on_delivered();
      }
      break;
    }
    case Verb::kCas: {
      uint64_t observed = 0;
      if (!dst_ep.memory->RdmaCas(op->addr, op->expected, op->desired, &observed)) {
        result.status = Status(StatusCode::kInvalidArgument, "rdma cas protection fault");
      } else {
        result.data.resize(8);
        std::memcpy(result.data.data(), &observed, 8);
      }
      break;
    }
  }
  // Response (data / hardware ack) crosses back through the initiator NIC.
  NicPort& back_nic = PickNic(Ep(op->src));
  SimTime resp_arrival = sim_.Now() + kCost.wire_latency;
  SimTime delivered = back_nic.Acquire(resp_arrival, kCost.NicOccupancy(op->resp_bytes));
  sim_.At(delivered, [op]() { op->fabric->OneSidedComplete(op); });
}

void Fabric::OneSidedComplete(OneSidedOp* op) {
  if (!IsAlive(op->src)) {
    ReleaseOneSided(op);
    return;
  }
  if (op->thread != nullptr) {
    // The record stays alive until the completion poll runs; if the machine
    // dies first the guard drops the closure and the record is stranded.
    op->thread->Run(kCost.cpu_rdma_completion, [op]() {
      op->done.Set(std::move(op->result));
      op->fabric->ReleaseOneSided(op);
    });
  } else {
    op->done.Set(std::move(op->result));
    ReleaseOneSided(op);
  }
}

void Fabric::RegisterRpcService(MachineId m, uint16_t service, int thread_lo, int thread_hi,
                                RpcHandler handler) {
  Endpoint& ep = Ep(m);
  FARM_CHECK(thread_lo >= 0 && thread_hi >= thread_lo &&
             thread_hi < ep.machine->NumThreads());
  Endpoint::Service svc;
  svc.handler = std::move(handler);
  svc.thread_lo = thread_lo;
  svc.thread_hi = thread_hi;
  svc.next_thread = thread_lo;
  ep.services[service] = std::move(svc);
}

Fabric::RpcOp* Fabric::AcquireRpc() {
  RpcOp* op = rpc_free_;
  if (op != nullptr) {
    rpc_free_ = op->next_free;
    op->next_free = nullptr;
  } else {
    rpc_owned_.push_back(std::make_unique<RpcOp>());
    op = rpc_owned_.back().get();
    op->fabric = this;
  }
  return op;
}

void Fabric::DropRpcRef(RpcOp* op) {
  FARM_CHECK(op->refs > 0);
  if (--op->refs == 0) {
    op->request.clear();
    op->result.status = OkStatus();
    op->result.data.clear();
    op->next_free = rpc_free_;
    rpc_free_ = op;
  }
}

void Fabric::SetFlightRecorder(MachineId m, flight::Recorder* rec) {
  Ep(m).flight = rec;
}

Future<NetResult> Fabric::Call(MachineId src, MachineId dst, uint16_t service,
                               std::vector<uint8_t> request, HwThread* thread,
                               SimDuration timeout) {
  stats_.rpcs++;
  stats_.rpc_bytes += request.size();
  TraceOp(sinks_.tracer, "rpc", src, thread, "rpc_bytes", stats_.rpc_bytes);
  FlightMsg(Ep(src).flight, sim_.Now(), flight::EventKind::kMsgSend, service, dst);
  uint32_t effect = sinks_.HitPoint(static_cast<uint32_t>(src), "msg-send",
                                    static_cast<uint64_t>(dst));

  RpcOp* op = AcquireRpc();
  op->src = src;
  op->dst = dst;
  op->service = service;
  op->thread = thread;
  op->request = std::move(request);
  op->done = Future<NetResult>();
  op->req_bytes = kVerbHeaderBytes + op->request.size();
  op->decided = false;
  op->replied = false;
  op->refs = 2;  // the timeout event and the request chain

  SimTime issue_done = thread != nullptr ? thread->AcquireCpu(kCost.cpu_rpc_issue) : sim_.Now();
  op->timeout = sim_.At(issue_done + timeout, [op]() { op->fabric->RpcTimeout(op); });
  if (effect & fault::kEffectDropMessage) {
    // Injected drop: the request never reaches the wire (same shape as the
    // request-leg drop in RpcSend); the timeout completes the call.
    sim_.At(issue_done, [op]() { op->fabric->DropRpcRef(op); });
  } else {
    sim_.At(issue_done, [op]() { op->fabric->RpcSend(op); });
  }
  return op->done;
}

// First completion (reply or timeout) wins: the `decided` guard makes the
// client-visible completion at-most-once over an at-least-once wire. A reply
// that wins cancels the timeout and drops its ref; the caller's chain still
// holds one, so the record outlives this call.
void Fabric::RpcComplete(RpcOp* op, NetResult r) {
  if (op->decided) {
    return;
  }
  op->decided = true;
  if (sim_.Cancel(op->timeout)) {
    DropRpcRef(op);
  }
  if (!IsAlive(op->src)) {
    return;
  }
  if (op->thread != nullptr) {
    op->result = std::move(r);
    op->refs++;  // the completion-poll event keeps the record alive
    op->thread->Run(kCost.cpu_rpc_completion, [op]() {
      op->done.Set(std::move(op->result));
      op->fabric->DropRpcRef(op);
    });
  } else {
    op->done.Set(std::move(r));
  }
}

void Fabric::RpcTimeout(RpcOp* op) {
  RpcComplete(op, NetResult{Status(StatusCode::kTimedOut, "rpc timeout"), {}});
  DropRpcRef(op);
}

void Fabric::RpcSend(RpcOp* op) {
  if (!IsAlive(op->src) || !Reachable(op->src, op->dst) || !IsAlive(op->dst)) {
    DropRpcRef(op);
    return;  // timeout will fire
  }
  // Request-leg faults: a dropped request models RC retry exhaustion and
  // surfaces as the client-side timeout.
  FaultOutcome req_fault = DrawFaults(op->src, op->dst);
  if (req_fault.drop) {
    DropRpcRef(op);
    return;  // timeout will fire
  }
  NicPort& src_nic = PickNic(Ep(op->src));
  SimTime sent = src_nic.Acquire(sim_.Now(), kCost.NicOccupancy(op->req_bytes));
  SimTime arrival = sent + kCost.wire_latency + req_fault.delay;
  sim_.At(arrival, [op]() { op->fabric->RpcArrive(op); });
}

void Fabric::RpcArrive(RpcOp* op) {
  if (!Reachable(op->src, op->dst) || !IsAlive(op->dst)) {
    DropRpcRef(op);
    return;
  }
  NicPort& dst_nic = PickNic(Ep(op->dst));
  SimTime received = dst_nic.Acquire(sim_.Now(), kCost.NicOccupancy(op->req_bytes));
  sim_.At(received, [op]() { op->fabric->RpcReceive(op); });
}

void Fabric::RpcReceive(RpcOp* op) {
  if (!IsAlive(op->dst)) {
    DropRpcRef(op);
    return;
  }
  Endpoint& dep = Ep(op->dst);
  auto it = dep.services.find(op->service);
  if (it == dep.services.end()) {
    RpcComplete(op, NetResult{Status(StatusCode::kNotFound, "no such rpc service"), {}});
    DropRpcRef(op);
    return;
  }
  Endpoint::Service& svc = it->second;
  int tid = svc.next_thread;
  svc.next_thread = svc.next_thread >= svc.thread_hi ? svc.thread_lo : svc.next_thread + 1;
  HwThread& handler_thread = dep.machine->thread(tid);
  SimDuration handler_cost = kCost.cpu_rpc_handler + kCost.CpuBytes(op->request.size());
  // The chain's ref rides into the handler event; if the machine dies before
  // the handler runs, the guard drops it and the record is stranded.
  handler_thread.Run(handler_cost, [op]() { op->fabric->RpcInvokeHandler(op); });
}

void Fabric::RpcInvokeHandler(RpcOp* op) {
  Endpoint& dep = Ep(op->dst);
  auto it = dep.services.find(op->service);
  if (it == dep.services.end()) {
    DropRpcRef(op);  // service vanished while the request was queued
    return;
  }
  FlightMsg(dep.flight, sim_.Now(), flight::EventKind::kMsgRecv, op->service, op->src);
  // The reply closure is two pointers wide, so the ReplyFn std::function the
  // handler receives stays in its small-object buffer. The handler may hold
  // it past this call; the chain's ref keeps the record alive until reply.
  ReplyFn reply = [op](std::vector<uint8_t> resp) { op->fabric->RpcReply(op, std::move(resp)); };
  it->second.handler(op->src, std::move(op->request), std::move(reply));
}

void Fabric::RpcReply(RpcOp* op, std::vector<uint8_t> resp) {
  if (op->replied) {
    return;  // handlers reply at most once; extra calls are ignored
  }
  op->replied = true;
  // Reply transport: dst NIC -> wire -> src NIC -> completion.
  if (!IsAlive(op->dst) || !Reachable(op->src, op->dst)) {
    DropRpcRef(op);
    return;
  }
  // Reply-leg faults: drops surface as the client timeout; a duplicated
  // reply is absorbed by the `decided` guard in RpcComplete.
  FaultOutcome resp_fault = DrawFaults(op->dst, op->src);
  if (resp_fault.drop) {
    DropRpcRef(op);
    return;  // timeout will fire
  }
  NicPort& out_nic = PickNic(Ep(op->dst));
  uint64_t resp_bytes = kVerbHeaderBytes + resp.size();
  stats_.rpc_bytes += resp.size();
  SimTime resp_sent = out_nic.Acquire(sim_.Now(), kCost.NicOccupancy(resp_bytes));
  if (resp_fault.duplicate) {
    op->refs++;  // the duplicate delivery chain holds its own ref
    SimTime dup_arrival = resp_sent + kCost.wire_latency + resp_fault.dup_delay;
    std::vector<uint8_t> dup = resp;
    sim_.At(dup_arrival, [op, copy = std::move(dup)]() mutable {
      op->fabric->RpcRespArrive(op, std::move(copy));
    });
  }
  SimTime resp_arrival = resp_sent + kCost.wire_latency + resp_fault.delay;
  sim_.At(resp_arrival, [op, copy = std::move(resp)]() mutable {
    op->fabric->RpcRespArrive(op, std::move(copy));
  });
}

void Fabric::RpcRespArrive(RpcOp* op, std::vector<uint8_t> copy) {
  if (!IsAlive(op->src)) {
    DropRpcRef(op);
    return;
  }
  NicPort& in_nic = PickNic(Ep(op->src));
  SimTime delivered = in_nic.Acquire(sim_.Now(), kCost.NicOccupancy(kVerbHeaderBytes + copy.size()));
  sim_.At(delivered, [op, copy = std::move(copy)]() mutable {
    op->fabric->RpcComplete(op, NetResult{OkStatus(), std::move(copy)});
    op->fabric->DropRpcRef(op);
  });
}

void Fabric::SetDatagramHandler(MachineId m, DatagramHandler handler) {
  Ep(m).datagram_handler = std::move(handler);
}

void Fabric::SendDatagram(MachineId src, MachineId dst, std::vector<uint8_t> payload,
                          bool bypass_nic_queue) {
  stats_.datagrams++;
  TraceOp(sinks_.tracer, "datagram", src, nullptr, nullptr, 0);
  if (!IsAlive(src) || !Reachable(src, dst) || !IsAlive(dst)) {
    return;
  }
  // The legacy global loss draw stays first so fault-free runs consume the
  // identical RNG stream they did before per-link policies existed.
  if (datagram_loss_ > 0 && fault_rng_.Bernoulli(datagram_loss_)) {
    return;
  }
  FaultOutcome fault = DrawFaults(src, dst);
  if (fault.drop) {
    return;
  }
  uint64_t bytes = kVerbHeaderBytes + payload.size();
  SimTime sent;
  if (bypass_nic_queue) {
    // Dedicated lease queue pair: pays transmission time but does not wait
    // behind data operations queued on the shared path.
    sent = sim_.Now() + kCost.NicOccupancy(bytes);
  } else {
    Endpoint& src_ep = Ep(src);
    sent = PickNic(src_ep).Acquire(sim_.Now(), kCost.NicOccupancy(bytes));
  }
  // The stage captures below (this + payload + ids + flag) fit SmallFn's
  // inline buffer exactly, so datagram delivery never allocates.
  if (fault.duplicate) {
    SimTime dup_arrival = sent + kCost.wire_latency + fault.dup_delay;
    std::vector<uint8_t> dup = payload;
    sim_.At(dup_arrival, [this, src, dst, bypass_nic_queue, copy = std::move(dup)]() mutable {
      DatagramArrive(src, dst, bypass_nic_queue, std::move(copy));
    });
  }
  SimTime arrival = sent + kCost.wire_latency + fault.delay;
  sim_.At(arrival, [this, src, dst, bypass_nic_queue, copy = std::move(payload)]() mutable {
    DatagramArrive(src, dst, bypass_nic_queue, std::move(copy));
  });
}

void Fabric::DatagramArrive(MachineId src, MachineId dst, bool bypass_nic_queue,
                            std::vector<uint8_t> copy) {
  if (!IsAlive(dst) || !Reachable(src, dst)) {
    return;
  }
  uint64_t bytes = kVerbHeaderBytes + copy.size();
  SimTime delivered;
  if (bypass_nic_queue) {
    delivered = sim_.Now() + kCost.NicOccupancy(bytes);
  } else {
    Endpoint& dst_ep = Ep(dst);
    delivered = PickNic(dst_ep).Acquire(sim_.Now(), kCost.NicOccupancy(bytes));
  }
  sim_.At(delivered, [this, src, dst, copy = std::move(copy)]() mutable {
    DatagramDeliver(src, dst, std::move(copy));
  });
}

void Fabric::DatagramDeliver(MachineId src, MachineId dst, std::vector<uint8_t> copy) {
  if (!IsAlive(dst)) {
    return;
  }
  Endpoint& ep = Ep(dst);
  if (ep.datagram_handler) {
    ep.datagram_handler(src, std::move(copy));
  }
}

}  // namespace farm
