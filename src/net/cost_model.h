// Cost model for the simulated cluster.
//
// Calibrated against the paper's measured regime (90 machines, two 56 Gbps
// ConnectX-3 NICs each): one-sided RDMA reads sustain ~20 ops/us/machine and
// are CPU bound at small sizes; RPC over RDMA is ~4x slower because it
// additionally burns remote CPU (Figure 2). The absolute constants are
// tunable per experiment; the *structure* (one-sided ops charge no remote
// CPU, RPCs do) is what reproduces the paper's shapes.
#ifndef SRC_NET_COST_MODEL_H_
#define SRC_NET_COST_MODEL_H_

#include "src/sim/time.h"

namespace farm {

struct CostModel {
  // --- Network ---
  SimDuration wire_latency = 650;             // one-way propagation + switch, ns
  SimDuration nic_msg_gap = 35;               // per-message NIC occupancy (~28M msg/s)
  double nic_bytes_per_ns = 7.0;              // 56 Gbps line rate = 7 bytes/ns
  SimDuration rc_op_timeout = 1 * kMillisecond;  // failed one-sided op detection

  // --- CPU: one-sided verbs (initiator only; remote CPU is never charged) ---
  SimDuration cpu_rdma_issue = 450;           // build + post work request
  SimDuration cpu_rdma_completion = 350;      // poll completion queue, dispatch

  // --- CPU: RPC messaging (charged at both ends) ---
  SimDuration cpu_rpc_issue = 800;
  SimDuration cpu_rpc_completion = 450;
  SimDuration cpu_rpc_handler = 1800;         // receive, dispatch, post reply
  double cpu_per_byte = 0.5;                  // ns/byte touched by a CPU copy

  // --- CPU: FaRM ring-buffer log/message processing ---
  SimDuration cpu_log_poll = 250;             // notice + parse a polled record
  SimDuration cpu_lock_per_object = 180;      // version CAS + bookkeeping

  // --- CPU: transaction execution bookkeeping at the coordinator ---
  SimDuration cpu_tx_begin = 150;
  SimDuration cpu_tx_read_local = 250;        // local memory read incl. version check
  SimDuration cpu_tx_write_buffer = 200;      // buffer a write locally
  SimDuration cpu_tx_commit_setup = 400;      // reservations + record marshalling

  // NIC occupancy of one message carrying `bytes` of payload.
  SimDuration NicOccupancy(uint64_t bytes) const {
    SimDuration transfer = static_cast<SimDuration>(static_cast<double>(bytes) / nic_bytes_per_ns);
    return transfer > nic_msg_gap ? transfer : nic_msg_gap;
  }

  // CPU time to copy/touch `bytes` in a handler.
  SimDuration CpuBytes(uint64_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) * cpu_per_byte);
  }
};

}  // namespace farm

#endif  // SRC_NET_COST_MODEL_H_
