// Simulated RDMA fabric: one-sided verbs, RPC messaging, and unreliable
// datagrams over rate-limited NICs.
//
// The essential modeling decision (section 2.2 of the paper): one-sided
// READ / WRITE / CAS are served entirely by the target's NIC -- they touch
// target memory at NIC service time and never charge target CPU. RPCs charge
// CPU at both ends. Hardware acks for writes are generated by the NIC, which
// is why FaRM's commit protocol needs no foreground CPU at backups.
#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/rand.h"
#include "src/common/status.h"
#include "src/net/rdma_memory.h"
#include "src/obs/sinks.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace farm {

namespace flight {
class Recorder;
}  // namespace flight

// Completion of a fabric operation; `data` is the payload for reads, RPC
// replies, and the observed value (8 bytes) for CAS.
struct NetResult {
  Status status;
  std::vector<uint8_t> data;
};

// Per-link fault policy for the chaos layer. Applies to RPC and datagram
// traffic on a directed (src, dst) link; one-sided verbs model reliable RC
// transport and are only affected by partitions and machine death.
struct LinkFaults {
  double drop = 0.0;      // P(message silently dropped)
  double dup = 0.0;       // P(message delivered twice); RPCs dup the reply
  double reorder = 0.0;   // P(message held back up to reorder_window)
  SimDuration extra_latency = 0;   // deterministic added one-way latency
  SimDuration jitter = 0;          // uniform extra delay in [0, jitter)
  SimDuration reorder_window = 0;  // max hold-back when a reorder fires

  bool Any() const {
    return drop > 0 || dup > 0 || reorder > 0 || extra_latency > 0 || jitter > 0;
  }
};

// Fabric counters; the cluster's teardown dump writes them as fabric_* cells.
struct FabricStats {
  uint64_t rdma_reads = 0;
  uint64_t rdma_writes = 0;
  uint64_t rdma_cas = 0;
  uint64_t rpcs = 0;
  uint64_t datagrams = 0;
  uint64_t rdma_bytes = 0;
  uint64_t rpc_bytes = 0;
  // Injected-fault counters (chaos layer); only move when LinkFaults are set.
  uint64_t faults_dropped = 0;
  uint64_t faults_delayed = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_reordered = 0;

  // One-sided ops + 2x RPCs (request + reply), i.e. messages on the wire.
  uint64_t WireMessages() const { return rdma_reads + rdma_writes + rdma_cas + 2 * rpcs + datagrams; }
};

class Fabric {
 public:
  // `sinks` are the owning cluster's (tracer, fault hook); a standalone
  // fabric reports to none.
  explicit Fabric(Simulator& sim, const obs::Sinks& sinks = obs::kNoSinks)
      : sim_(sim), sinks_(sinks) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Registers a machine and its RDMA-accessible memory. Machines are added
  // once at cluster construction; killed machines stay registered but dead.
  void AddMachine(Machine* machine, RdmaMemory* memory);

  Simulator& sim() { return sim_; }
  const obs::Sinks& sinks() const { return sinks_; }
  const FabricStats& stats() const { return stats_; }
  // Attaches m's flight-recorder ring; RPC sends/handler invocations on that
  // machine then leave msg-send / msg-recv records (null detaches).
  void SetFlightRecorder(MachineId m, flight::Recorder* rec);

  // ---- One-sided verbs ----
  // If `thread` is non-null, issue and completion CPU costs are charged to
  // it (the initiating event-loop thread polling its completion queue).
  Future<NetResult> Read(MachineId src, MachineId dst, uint64_t addr, uint32_t len,
                         HwThread* thread = nullptr);
  // `on_delivered`, if set, fires at target NIC service time -- the instant
  // the bytes are in target memory (used by ring-buffer receivers to model
  // "the next CPU poll will see this record"). It runs on the simulator, not
  // on any CPU; it must only schedule work, mirroring how a real poller
  // discovers the record without sender involvement.
  Future<NetResult> Write(MachineId src, MachineId dst, uint64_t addr,
                          std::vector<uint8_t> data, HwThread* thread = nullptr,
                          std::function<void()> on_delivered = nullptr);
  // CAS on a 64-bit word; on success result.data holds the observed value.
  Future<NetResult> Cas(MachineId src, MachineId dst, uint64_t addr, uint64_t expected,
                        uint64_t desired, HwThread* thread = nullptr);

  // ---- RPC (request/response, charges remote CPU) ----
  using ReplyFn = std::function<void(std::vector<uint8_t>)>;
  using RpcHandler = std::function<void(MachineId from, std::vector<uint8_t> req, ReplyFn reply)>;

  // Handlers for `service` on machine m run on threads [thread_lo, thread_hi]
  // round-robin, each invocation charged the handler CPU cost.
  void RegisterRpcService(MachineId m, uint16_t service, int thread_lo, int thread_hi,
                          RpcHandler handler);

  Future<NetResult> Call(MachineId src, MachineId dst, uint16_t service,
                         std::vector<uint8_t> request, HwThread* thread = nullptr,
                         SimDuration timeout = 4 * kMillisecond);

  // ---- Unreliable datagrams (lease traffic) ----
  using DatagramHandler = std::function<void(MachineId from, std::vector<uint8_t> payload)>;
  void SetDatagramHandler(MachineId m, DatagramHandler handler);
  // Fire-and-forget; silently dropped on loss, partition, or dead target.
  // `bypass_nic_queue` models the dedicated lease queue pair: the datagram
  // still pays the per-message gap but does not wait behind queued data ops.
  void SendDatagram(MachineId src, MachineId dst, std::vector<uint8_t> payload,
                    bool bypass_nic_queue = false);
  void set_datagram_loss(double p) { datagram_loss_ = p; }

  // ---- Link fault injection (chaos layer) ----
  // Reseeds the fault RNG. The default seed reproduces the pre-chaos loss
  // stream byte-for-byte, so legacy traces are unchanged.
  void SeedFaultRng(uint64_t seed) { fault_rng_ = Pcg32(seed); }
  // Installs a fault policy on the directed link src -> dst. A policy with
  // no active field is removed from the map (links without a policy draw no
  // randomness at all, preserving determinism of fault-free runs).
  void SetLinkFaults(MachineId src, MachineId dst, LinkFaults faults);
  // Flaky-NIC helper: applies `faults` to every link into and out of `m`.
  void SetMachineLinkFaults(MachineId m, LinkFaults faults);
  void ClearLinkFaults(MachineId src, MachineId dst);

  // ---- Partitions ----
  // Machines in different groups cannot communicate. An empty set of groups
  // means no partition. Machines not listed in any group are unreachable
  // from everyone (fully isolated).
  void SetPartition(const std::vector<std::vector<MachineId>>& groups);
  void ClearPartition();
  bool Reachable(MachineId a, MachineId b) const;

  bool IsAlive(MachineId m) const;
  Machine* machine(MachineId m) const;

 private:
  struct NicPort {
    SimTime busy_until = 0;

    SimTime Acquire(SimTime now, SimDuration occupancy) {
      SimTime start = now > busy_until ? now : busy_until;
      busy_until = start + occupancy;
      return busy_until;
    }
  };

  struct Endpoint {
    Machine* machine = nullptr;
    RdmaMemory* memory = nullptr;
    std::vector<NicPort> nics;
    size_t next_nic = 0;
    flight::Recorder* flight = nullptr;
    DatagramHandler datagram_handler;
    struct Service {
      RpcHandler handler;
      int thread_lo = 0;
      int thread_hi = 0;
      int next_thread = 0;
    };
    std::map<uint16_t, Service> services;
  };

  enum class Verb { kRead, kWrite, kCas };

  Endpoint& Ep(MachineId m) {
    FARM_CHECK(m < endpoints_.size() && endpoints_[m].machine != nullptr)
        << "unknown machine " << m;
    return endpoints_[m];
  }

  NicPort& PickNic(Endpoint& ep) {
    NicPort& nic = ep.nics[ep.next_nic % ep.nics.size()];
    ep.next_nic++;
    return nic;
  }

  // Common one-sided verb path.
  Future<NetResult> OneSided(Verb verb, MachineId src, MachineId dst, uint64_t addr,
                             uint32_t len, std::vector<uint8_t> data, uint64_t expected,
                             uint64_t desired, HwThread* thread,
                             std::function<void()> on_delivered = nullptr);

  void CompleteOnThread(Future<NetResult> done, NetResult result, HwThread* thread,
                        SimDuration cpu_cost);

  // ---- Pooled in-flight operation records ----
  //
  // A fabric op crosses several simulator events (issue, wire, NIC service,
  // completion). Carrying the op state in per-stage closures meant every
  // stage allocated a capture block bigger than any inline buffer; instead
  // each in-flight op lives in a pooled record and every stage closure
  // captures one pointer, which always stays inline in SmallFn. Records are
  // recycled through LIFO free lists (single-threaded, so recycling order is
  // deterministic). Records owned by events that a machine-death guard
  // discards are stranded (never recycled, still owned by the pool) -- kills
  // are rare and the loss is bounded by in-flight ops per death.

  struct OneSidedOp {
    Fabric* fabric = nullptr;
    Verb verb = Verb::kRead;
    MachineId src = 0;
    MachineId dst = 0;
    uint64_t addr = 0;
    uint32_t len = 0;
    uint64_t expected = 0;
    uint64_t desired = 0;
    HwThread* thread = nullptr;
    std::vector<uint8_t> data;  // request payload (writes)
    std::function<void()> on_delivered;
    Future<NetResult> done;
    NetResult result;
    uint64_t req_bytes = 0;
    uint64_t resp_bytes = 0;
    OneSidedOp* next_free = nullptr;
  };

  struct RpcOp {
    Fabric* fabric = nullptr;
    MachineId src = 0;
    MachineId dst = 0;
    uint16_t service = 0;
    HwThread* thread = nullptr;
    std::vector<uint8_t> request;
    Future<NetResult> done;
    NetResult result;  // carried from RpcComplete to the completion event
    uint64_t req_bytes = 0;
    EventId timeout;       // cancelled when another completion wins
    bool decided = false;  // a completion (reply or timeout) won the race
    bool replied = false;  // handler's reply consumed (at most one per op)
    int refs = 0;          // timeout event + each live chain holds one
    RpcOp* next_free = nullptr;
  };

  OneSidedOp* AcquireOneSided();
  void ReleaseOneSided(OneSidedOp* op);
  RpcOp* AcquireRpc();
  void DropRpcRef(RpcOp* op);

  // One-sided stages, in timeline order.
  void OneSidedIssue(OneSidedOp* op);     // initiator CPU done, enter src NIC
  void OneSidedArrive(OneSidedOp* op);    // reached target, enter dst NIC
  void OneSidedServe(OneSidedOp* op);     // dst NIC serves the verb
  void OneSidedComplete(OneSidedOp* op);  // response back at initiator
  void OneSidedFail(OneSidedOp* op);      // schedules RC timeout, releases op

  // RPC stages, in timeline order.
  void RpcTimeout(RpcOp* op);
  void RpcSend(RpcOp* op);
  void RpcArrive(RpcOp* op);
  void RpcReceive(RpcOp* op);
  void RpcInvokeHandler(RpcOp* op);
  void RpcReply(RpcOp* op, std::vector<uint8_t> resp);
  void RpcRespArrive(RpcOp* op, std::vector<uint8_t> copy);
  void RpcComplete(RpcOp* op, NetResult r);

  // Datagram stages. No pooled record: the whole state (src, dst, bypass
  // flag, payload vector) fits a SmallFn inline capture.
  void DatagramArrive(MachineId src, MachineId dst, bool bypass_nic_queue,
                      std::vector<uint8_t> copy);
  void DatagramDeliver(MachineId src, MachineId dst, std::vector<uint8_t> copy);

  // Resolved effect of the (src, dst) link policy on one message. All
  // randomness is drawn here, at send time, in a fixed order.
  struct FaultOutcome {
    bool drop = false;
    SimDuration delay = 0;      // extra one-way latency for the message
    bool duplicate = false;     // deliver a second copy
    SimDuration dup_delay = 0;  // extra latency for the duplicate copy
  };
  FaultOutcome DrawFaults(MachineId src, MachineId dst);

  Simulator& sim_;
  const obs::Sinks& sinks_;
  FabricStats stats_;
  std::vector<Endpoint> endpoints_;
  double datagram_loss_ = 0.0;
  // Default seed keeps pre-chaos traces byte-identical; Cluster reseeds it
  // from ClusterOptions::fault_seed.
  Pcg32 fault_rng_{0x10552ULL};
  // Directed (src, dst) -> policy. Ordered map for deterministic iteration.
  std::map<std::pair<MachineId, MachineId>, LinkFaults> link_faults_;
  // partition_group_[m] == -1 when unlisted during an active partition.
  std::vector<int> partition_group_;
  bool partitioned_ = false;
  // Op record pools: the vectors own every record ever allocated; the
  // next_free chains thread the currently idle ones.
  std::vector<std::unique_ptr<OneSidedOp>> one_sided_owned_;
  OneSidedOp* one_sided_free_ = nullptr;
  std::vector<std::unique_ptr<RpcOp>> rpc_owned_;
  RpcOp* rpc_free_ = nullptr;
};

}  // namespace farm

#endif  // SRC_NET_FABRIC_H_
