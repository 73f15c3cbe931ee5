// Figure 2: per-machine RDMA and RPC read performance versus transfer size.
//
// Paper: on 90 machines with two 56 Gbps NICs each, both are CPU bound at
// small sizes and one-sided RDMA reads outperform RPC by ~4x (the RPC burns
// remote CPU); the gap narrows as transfers grow and the NICs become
// bandwidth bound.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/nvram/nvram.h"

namespace farm {
namespace {

constexpr int kMachines = 24;
constexpr int kThreads = 4;
constexpr int kConcurrency = 4;
constexpr uint16_t kEchoService = 240;
constexpr SimDuration kMeasure = 20 * kMillisecond;

uint64_t g_sim_events = 0;  // summed across the per-point rigs

struct Rig {
  Simulator sim;
  std::unique_ptr<Fabric> fabric;
  std::vector<std::unique_ptr<Machine>> machines;
  std::vector<std::unique_ptr<NvramStore>> stores;
  std::vector<uint64_t> blobs;  // one registered buffer per machine
};

std::unique_ptr<Rig> MakeRig() {
  auto rig = std::make_unique<Rig>();
  rig->fabric = std::make_unique<Fabric>(rig->sim);
  for (MachineId m = 0; m < kMachines; m++) {
    rig->machines.push_back(std::make_unique<Machine>(rig->sim, m, kThreads, m));
    rig->stores.push_back(std::make_unique<NvramStore>());
    rig->fabric->AddMachine(rig->machines.back().get(), rig->stores.back().get());
    rig->blobs.push_back(rig->stores.back()->Allocate(4096));
  }
  return rig;
}

Task<void> RdmaReader(Rig* rig, MachineId self, int thread, uint32_t size, uint64_t seed,
                      std::shared_ptr<uint64_t> ops, std::shared_ptr<bool> stop) {
  Pcg32 rng(seed);
  while (!*stop) {
    MachineId peer = static_cast<MachineId>(rng.Uniform(kMachines - 1));
    if (peer >= self) {
      peer++;
    }
    NetResult r = co_await rig->fabric->Read(self, peer, rig->blobs[peer], size,
                                             &rig->machines[self]->thread(thread));
    if (r.status.ok()) {
      (*ops)++;
    }
  }
}

Task<void> RpcReader(Rig* rig, MachineId self, int thread, uint32_t size, uint64_t seed,
                     std::shared_ptr<uint64_t> ops, std::shared_ptr<bool> stop) {
  Pcg32 rng(seed);
  std::vector<uint8_t> req(8, 0);
  std::memcpy(req.data(), &size, 4);
  while (!*stop) {
    MachineId peer = static_cast<MachineId>(rng.Uniform(kMachines - 1));
    if (peer >= self) {
      peer++;
    }
    NetResult r = co_await rig->fabric->Call(self, peer, kEchoService, req,
                                             &rig->machines[self]->thread(thread));
    if (r.status.ok()) {
      (*ops)++;
    }
  }
}

double MeasureOps(bool use_rpc, uint32_t size) {
  auto rig = MakeRig();
  if (use_rpc) {
    for (MachineId m = 0; m < kMachines; m++) {
      rig->fabric->RegisterRpcService(
          m, kEchoService, 0, kThreads - 1,
          [](MachineId, std::vector<uint8_t> req, Fabric::ReplyFn reply) {
            uint32_t n = 0;
            std::memcpy(&n, req.data(), 4);
            reply(std::vector<uint8_t>(n, 0));  // serve the requested bytes
          });
    }
  }
  auto ops = std::make_shared<uint64_t>(0);
  auto stop = std::make_shared<bool>(false);
  uint64_t seed = 1;
  for (MachineId m = 0; m < kMachines; m++) {
    for (int t = 0; t < kThreads; t++) {
      for (int c = 0; c < kConcurrency; c++) {
        if (use_rpc) {
          Spawn(RpcReader(rig.get(), m, t, size, seed++, ops, stop));
        } else {
          Spawn(RdmaReader(rig.get(), m, t, size, seed++, ops, stop));
        }
      }
    }
  }
  rig->sim.RunFor(2 * kMillisecond);  // warmup
  uint64_t before = *ops;
  rig->sim.RunFor(kMeasure);
  uint64_t measured = *ops - before;
  *stop = true;
  rig->sim.RunFor(kMillisecond);
  g_sim_events += rig->sim.events_processed();
  double per_machine_per_us =
      static_cast<double>(measured) / (static_cast<double>(kMeasure) / 1e3) / kMachines;
  return per_machine_per_us;
}

void Run() {
  bench::PrintHeader(
      "Figure 2: per-machine RDMA vs RPC read performance",
      "RDMA ~4x RPC at small sizes, both CPU bound; gap narrows with size (paper)",
      "24 machines x 4 threads x 4 outstanding reads, all-to-all random reads");
  std::printf("%10s %16s %16s %10s\n", "bytes", "rdma ops/us/m", "rpc ops/us/m", "ratio");
  for (uint32_t size : {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u, 2048u}) {
    double rdma = MeasureOps(false, size);
    double rpc = MeasureOps(true, size);
    std::printf("%10u %16.2f %16.2f %9.1fx\n", size, rdma, rpc, rdma / rpc);
    if (auto* j = bench::Json()) {
      j->AddPoint({{"bytes", size},
                   {"rdma_ops_per_us_per_machine", rdma},
                   {"rpc_ops_per_us_per_machine", rpc},
                   {"ratio", rdma / rpc}});
    }
  }
  if (auto* j = bench::Json()) {
    j->Set("machines", kMachines);
  }
  bench::ReportSimEvents(g_sim_events);
  std::printf("\nShape check: one-sided reads beat RPC by ~3-4x at small sizes because\n"
              "RPC burns remote CPU; the advantage shrinks once transfers get large\n"
              "and the NICs approach line rate.\n");
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  farm::bench::BenchEnv env(argc, argv);
  farm::Run();
  return 0;
}
