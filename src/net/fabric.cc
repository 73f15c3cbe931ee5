#include "src/net/fabric.h"

#include <cstring>

#include "src/net/cost_model.h"
#include "src/obs/flight_recorder.h"

namespace farm {

namespace {

// Message-level flight records (msg-send at the caller, msg-recv at the
// handler). Service id in arg, peer machine in detail; no transaction id at
// this layer. Returns the effect mask of the record's fault point.
uint32_t FlightMsg(flight::Recorder* ring, SimTime now, flight::EventKind kind,
                   uint16_t service, MachineId peer) {
  if (ring == nullptr) {
    return fault::kEffectNone;
  }
  return ring->Append(flight::Record{.time_ns = now,
                                     .detail = peer,
                                     .kind = static_cast<uint8_t>(kind),
                                     .arg = static_cast<uint8_t>(service & 0xff)});
}

// Wire sizes of verb headers (request without payload / response framing).
constexpr uint32_t kVerbHeaderBytes = 32;
constexpr uint32_t kCasResponseBytes = 8;
constexpr uint32_t kAckBytes = 8;

// Wire size of a message that carries a payload: an RPC request or reply,
// or a datagram.
uint64_t WireBytes(const std::vector<uint8_t>& payload) {
  return kVerbHeaderBytes + payload.size();
}

// Two NICs per machine, as in the paper's testbed (two 56 Gbps ConnectX-3).
constexpr size_t kNicsPerMachine = 2;

// Op records are allocated this many at a time, so the pool grows a few
// times as a run ramps up rather than once per record.
constexpr size_t kOpsPerSlab = 64;

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
    out.dup_extra = f.jitter > 0 ? fault_rng_.Uniform64(f.jitter) : 0;
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

SimTime Fabric::Depart(MachineId from, uint64_t bytes, SimDuration delay, bool bypass) {
  return Arrive(from, sim_.Now(), bytes, bypass) + kCost.wire_latency + delay;
}

SimTime Fabric::Arrive(MachineId to, SimTime start, uint64_t bytes, bool bypass) {
  SimDuration occupancy = kCost.NicOccupancy(bytes);
  return bypass ? start + occupancy : PickNic(Ep(to)).Acquire(start, occupancy);
}

template <typename F>
int Fabric::SendCopies(MachineId from, MachineId to, std::vector<uint8_t> payload, bool bypass,
                       F arrive) {
  FaultOutcome fault = DrawFaults(from, to);
  if (fault.drop) {
    return 0;
  }
  SimTime arrival = Depart(from, WireBytes(payload), fault.delay, bypass);
  if (fault.duplicate) {
    sim_.At(arrival + fault.dup_extra,
            [arrive, copy = payload]() mutable { arrive(std::move(copy)); });
  }
  sim_.At(arrival, [arrive, copy = std::move(payload)]() mutable { arrive(std::move(copy)); });
  return fault.duplicate ? 2 : 1;
}

Fabric::Op* Fabric::NewOp(Verb verb, MachineId src, MachineId dst, HwThread* thread,
                          std::vector<uint8_t> payload, uint32_t resp_bytes) {
  if (free_ops_ == nullptr) {
    slabs_.push_back(std::make_unique<Op[]>(kOpsPerSlab));
    for (size_t i = 0; i < kOpsPerSlab; i++) {
      Op& fresh = slabs_.back()[i];
      fresh.fabric = this;
      fresh.next_free = free_ops_;
      free_ops_ = &fresh;
    }
  }
  Op* op = free_ops_;
  free_ops_ = op->next_free;
  op->verb = verb;
  op->src = src;
  op->dst = dst;
  op->thread = thread;
  op->payload = std::move(payload);
  op->done.emplace();
  // A one-sided request is booked as its verb header alone, so a write's
  // payload costs no NIC time at either end (ROADMAP: "write payloads
  // cost no NIC time"). Charging it moves every simulated number, so it is
  // left to a change of its own.
  op->req_bytes =
      verb == Verb::kRpc ? static_cast<uint32_t>(WireBytes(op->payload)) : kVerbHeaderBytes;
  op->resp_bytes = resp_bytes;
  op->decided = false;
  op->replied = false;
  op->refs = 1;
  return op;
}

void Fabric::Drop(Op* op) {
  FARM_CHECK(op->refs > 0);
  if (--op->refs == 0) {
    op->payload.clear();
    op->on_delivered = nullptr;
    op->result.status = OkStatus();
    op->result.data.clear();
    op->next_free = free_ops_;
    free_ops_ = op;
  }
}

Future<NetResult> Fabric::Read(MachineId src, MachineId dst, uint64_t addr, uint32_t len,
                               HwThread* thread) {
  stats_.rdma_reads++;
  stats_.rdma_bytes += len;
  TraceOp(sinks_.tracer, "rdma_read", src, thread, "rdma_bytes", stats_.rdma_bytes);
  Op* op = NewOp(Verb::kRead, src, dst, thread, {}, len);
  op->addr = addr;
  op->len = len;
  return OneSided(op);
}

Future<NetResult> Fabric::Write(MachineId src, MachineId dst, uint64_t addr,
                                std::vector<uint8_t> data, HwThread* thread,
                                std::function<void()> on_delivered) {
  stats_.rdma_writes++;
  stats_.rdma_bytes += data.size();
  TraceOp(sinks_.tracer, "rdma_write", src, thread, "rdma_bytes", stats_.rdma_bytes);
  Op* op = NewOp(Verb::kWrite, src, dst, thread, std::move(data), kAckBytes);
  op->addr = addr;
  op->on_delivered = std::move(on_delivered);
  return OneSided(op);
}

Future<NetResult> Fabric::Cas(MachineId src, MachineId dst, uint64_t addr, uint64_t expected,
                              uint64_t desired, HwThread* thread) {
  stats_.rdma_cas++;
  stats_.rdma_bytes += 16;
  TraceOp(sinks_.tracer, "rdma_cas", src, thread, "rdma_bytes", stats_.rdma_bytes);
  Op* op = NewOp(Verb::kCas, src, dst, thread, {}, kCasResponseBytes);
  op->addr = addr;
  op->expected = expected;
  op->desired = desired;
  return OneSided(op);
}

Future<NetResult> Fabric::OneSided(Op* op) {
  Ep(op->src);  // validate endpoints exist
  Ep(op->dst);
  SimTime issue_done =
      op->thread != nullptr ? op->thread->AcquireCpu(kCost.cpu_rdma_issue) : sim_.Now();
  sim_.At(issue_done, [op]() { op->fabric->Send(op); });
  return *op->done;
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

void Fabric::SetFlightRecorder(MachineId m, flight::Recorder* rec) {
  Ep(m).flight = rec;
}

Future<NetResult> Fabric::Call(MachineId src, MachineId dst, uint16_t service,
                               std::vector<uint8_t> request, HwThread* thread,
                               SimDuration timeout) {
  stats_.rpcs++;
  stats_.rpc_bytes += request.size();
  TraceOp(sinks_.tracer, "rpc", src, thread, "rpc_bytes", stats_.rpc_bytes);
  // The msg-send record is the send's fault point; ZooKeeper machines keep
  // no ring, so their sends reach the hook directly.
  flight::Recorder* ring = Ep(src).flight;
  uint32_t effect = ring != nullptr ? FlightMsg(ring, sim_.Now(), flight::EventKind::kMsgSend,
                                                service, dst)
                                    : sinks_.HitPoint(src, "msg-send", dst);

  Op* op = NewOp(Verb::kRpc, src, dst, thread, std::move(request));
  op->service = service;
  op->refs = 2;  // the timeout event and the request chain

  SimTime issue_done = thread != nullptr ? thread->AcquireCpu(kCost.cpu_rpc_issue) : sim_.Now();
  op->timeout = sim_.At(issue_done + timeout, [op]() {
    op->fabric->Decide(op, NetResult{Status(StatusCode::kTimedOut, "rpc timeout"), {}});
    op->fabric->Drop(op);
  });
  if (effect & fault::kEffectDropMessage) {
    // Injected drop: the request never reaches the wire (same shape as a
    // request-leg link drop); the timeout completes the call.
    sim_.At(issue_done, [op]() { op->fabric->Drop(op); });
  } else {
    sim_.At(issue_done, [op]() { op->fabric->Send(op); });
  }
  return *op->done;
}

void Fabric::Send(Op* op) {
  if (!IsAlive(op->src)) {
    Drop(op);
    return;
  }
  if (!Linked(op->src, op->dst)) {
    Lost(op);
    return;
  }
  // One-sided verbs model reliable RC transport and draw no link faults. An
  // RPC request draws them all but ignores a duplicate; a dropped request
  // models RC retry exhaustion and surfaces as the call's timeout.
  SimDuration delay = 0;
  if (op->verb == Verb::kRpc) {
    FaultOutcome fault = DrawFaults(op->src, op->dst);
    if (fault.drop) {
      Drop(op);
      return;
    }
    delay = fault.delay;
  }
  sim_.At(Depart(op->src, op->req_bytes, delay), [op]() { op->fabric->Land(op); });
}

void Fabric::Land(Op* op) {
  if (!Linked(op->src, op->dst)) {
    Lost(op);
    return;
  }
  // A one-sided verb's target NIC also DMAs the response out while it
  // serves the verb; an RPC's reply leaves later, on a leg of its own.
  SimTime taken = Arrive(op->dst, sim_.Now(), op->req_bytes + op->resp_bytes);
  sim_.At(taken, [op]() { op->fabric->Serve(op); });
}

void Fabric::Serve(Op* op) {
  if (op->verb == Verb::kRpc) {
    Receive(op);
    return;
  }
  if (!Linked(op->src, op->dst)) {
    Lost(op);
    return;
  }
  RdmaMemory* memory = Ep(op->dst).memory;
  NetResult& result = op->result;
  if (op->verb == Verb::kRead) {
    result.data.resize(op->len);
    if (!memory->RdmaRead(op->addr, op->len, result.data.data())) {
      result.status = Status(StatusCode::kInvalidArgument, "rdma read protection fault");
      result.data.clear();
    }
  } else if (op->verb == Verb::kWrite) {
    if (!memory->RdmaWrite(op->addr, op->payload.data(), op->payload.size())) {
      result.status = Status(StatusCode::kInvalidArgument, "rdma write protection fault");
    } else if (op->on_delivered) {
      op->on_delivered();
    }
  } else {
    uint64_t observed = 0;
    if (!memory->RdmaCas(op->addr, op->expected, op->desired, &observed)) {
      result.status = Status(StatusCode::kInvalidArgument, "rdma cas protection fault");
    } else {
      result.data.resize(8);
      std::memcpy(result.data.data(), &observed, 8);
    }
  }
  // The response (data / hardware ack) crosses back and books the initiator
  // NIC now, for the moment it lands.
  SimTime delivered = Arrive(op->src, sim_.Now() + kCost.wire_latency, op->resp_bytes);
  sim_.At(delivered, [op]() {
    op->fabric->Finish(op);
    op->fabric->Drop(op);
  });
}

// The target is dead or cut off. An RPC drops its chain and its timeout
// completes the call; RC transport gives up on a one-sided op and surfaces
// a timeout to the initiator one rc_op_timeout from now.
void Fabric::Lost(Op* op) {
  if (op->verb == Verb::kRpc) {
    Drop(op);
    return;
  }
  sim_.At(sim_.Now() + kCost.rc_op_timeout, [op]() {
    op->result.status = UnavailableStatus("one-sided op timed out");
    op->fabric->Finish(op);
    op->fabric->Drop(op);
  });
}

// The one completion path: the initiator's polling thread pays the
// completion CPU and then sets the future. The polling event holds its own
// ref; if the machine dies first, the guard drops the closure and the
// record is stranded.
void Fabric::Finish(Op* op) {
  if (!IsAlive(op->src)) {
    return;  // initiator died; nobody is polling the CQ
  }
  if (op->thread == nullptr) {
    op->done->Set(std::move(op->result));
    return;
  }
  op->refs++;
  SimDuration cpu =
      op->verb == Verb::kRpc ? kCost.cpu_rpc_completion : kCost.cpu_rdma_completion;
  op->thread->Run(cpu, [op]() {
    op->done->Set(std::move(op->result));
    op->fabric->Drop(op);
  });
}

// First completion (reply or timeout) wins: the `decided` guard makes the
// client-visible completion at-most-once over an at-least-once wire. A reply
// that wins cancels the timeout and drops its ref; the caller's chain still
// holds one, so the record outlives this call.
void Fabric::Decide(Op* op, NetResult r) {
  if (op->decided) {
    return;
  }
  op->decided = true;
  if (sim_.Cancel(op->timeout)) {
    Drop(op);
  }
  op->result = std::move(r);
  Finish(op);
}

void Fabric::Receive(Op* op) {
  if (!IsAlive(op->dst)) {
    Drop(op);
    return;
  }
  Endpoint& dep = Ep(op->dst);
  auto it = dep.services.find(op->service);
  if (it == dep.services.end()) {
    Decide(op, NetResult{Status(StatusCode::kNotFound, "no such rpc service"), {}});
    Drop(op);
    return;
  }
  Endpoint::Service& svc = it->second;
  int tid = svc.next_thread;
  svc.next_thread = svc.next_thread >= svc.thread_hi ? svc.thread_lo : svc.next_thread + 1;
  HwThread& handler_thread = dep.machine->thread(tid);
  SimDuration handler_cost = kCost.cpu_rpc_handler + kCost.CpuBytes(op->payload.size());
  // The chain's ref rides into the handler event; if the machine dies before
  // the handler runs, the guard drops it and the record is stranded.
  handler_thread.Run(handler_cost, [op]() { op->fabric->Invoke(op); });
}

void Fabric::Invoke(Op* op) {
  Endpoint& dep = Ep(op->dst);
  auto it = dep.services.find(op->service);
  if (it == dep.services.end()) {
    Drop(op);  // service vanished while the request was queued
    return;
  }
  FlightMsg(dep.flight, sim_.Now(), flight::EventKind::kMsgRecv, op->service, op->src);
  // The reply closure is two pointers wide, so the ReplyFn std::function the
  // handler receives stays in its small-object buffer. The handler may hold
  // it past this call; the chain's ref keeps the record alive until reply.
  ReplyFn reply = [op](std::vector<uint8_t> resp) { op->fabric->Reply(op, std::move(resp)); };
  it->second.handler(op->src, std::move(op->payload), std::move(reply));
}

void Fabric::Reply(Op* op, std::vector<uint8_t> resp) {
  if (op->replied) {
    return;  // handlers reply at most once; extra calls are ignored
  }
  op->replied = true;
  if (!Linked(op->src, op->dst)) {
    Drop(op);
    return;
  }
  // Reply-leg faults: a drop surfaces as the client timeout; a duplicated
  // reply is absorbed by the `decided` guard, and each copy holds a ref.
  size_t resp_size = resp.size();
  auto arrive = [op](std::vector<uint8_t> copy) { op->fabric->ReplyArrive(op, std::move(copy)); };
  int copies = SendCopies(op->dst, op->src, std::move(resp), false, arrive);
  if (copies == 0) {
    Drop(op);
    return;
  }
  stats_.rpc_bytes += resp_size;
  op->refs += copies - 1;
}

// A reply only needs its initiator alive to land; it makes no reachability
// check.
void Fabric::ReplyArrive(Op* op, std::vector<uint8_t> copy) {
  if (!IsAlive(op->src)) {
    Drop(op);
    return;
  }
  SimTime delivered = Arrive(op->src, sim_.Now(), WireBytes(copy));
  sim_.At(delivered, [op, copy = std::move(copy)]() mutable {
    op->fabric->Decide(op, NetResult{OkStatus(), std::move(copy)});
    op->fabric->Drop(op);
  });
}

void Fabric::SetDatagramHandler(MachineId m, DatagramHandler handler) {
  Ep(m).datagram_handler = std::move(handler);
}

void Fabric::SendDatagram(MachineId src, MachineId dst, std::vector<uint8_t> payload,
                          bool bypass_nic_queue) {
  stats_.datagrams++;
  TraceOp(sinks_.tracer, "datagram", src, nullptr, nullptr, 0);
  if (!IsAlive(src) || !Linked(src, dst)) {
    return;
  }
  // The legacy global loss draw stays first so fault-free runs consume the
  // identical RNG stream they did before per-link policies existed.
  if (datagram_loss_ > 0 && fault_rng_.Bernoulli(datagram_loss_)) {
    return;
  }
  // The arrival capture (this, ids, flag) plus the payload fills SmallFn's
  // inline buffer exactly, so a datagram never allocates on the wire.
  SendCopies(src, dst, std::move(payload), bypass_nic_queue,
             [this, src, dst, bypass_nic_queue](std::vector<uint8_t> copy) {
               DatagramArrive(src, dst, bypass_nic_queue, std::move(copy));
             });
}

void Fabric::DatagramArrive(MachineId src, MachineId dst, bool bypass, std::vector<uint8_t> copy) {
  if (!Linked(src, dst)) {
    return;
  }
  SimTime delivered = Arrive(dst, sim_.Now(), WireBytes(copy), bypass);
  sim_.At(delivered, [this, src, dst, copy = std::move(copy)]() mutable {
    Endpoint& ep = Ep(dst);
    if (IsAlive(dst) && ep.datagram_handler) {
      ep.datagram_handler(src, std::move(copy));
    }
  });
}

}  // namespace farm
