// Message-count ablation (section 4's analysis and section 7's claim).
//
// Paper: a FaRM commit uses Pw(f+3) one-sided writes plus Pr one-sided
// reads, with no CPU at backups; a Spanner-style 2PC over Paxos groups
// needs 4P(2f+1) messages; and the optimized protocol sends up to 44% fewer
// messages than the NSDI'14 FaRM protocol (which also wrote LOCK records to
// backups).
#include "bench/bench_util.h"
#include "src/baseline/twopc.h"
#include "src/nvram/nvram.h"

namespace farm {
namespace {

// Runs `txs` FaRM transactions each writing one object in `regions` distinct
// regions (Pw primaries, f=2 backups each) and returns ops per transaction.
struct FarmCounts {
  double writes_per_tx;
  double reads_per_tx;
  double rpcs_per_tx;
};

FarmCounts MeasureFarm(bool backup_lock_records, int num_regions, int read_only_objects) {
  ClusterOptions copts = bench::DefaultClusterOptions(14, 57);
  copts.node.backup_lock_records = backup_lock_records;
  auto cluster = std::make_unique<Cluster>(copts);
  cluster->Start();
  cluster->RunFor(5 * kMillisecond);

  std::vector<RegionId> regions;
  for (int i = 0; i < num_regions + 1; i++) {
    auto rid = RunTask(
        *cluster,
        [](Cluster* c, int idx) -> Task<StatusOr<RegionId>> {
          (void)idx;
          co_return co_await c->node(0).CreateRegion(64 << 10, 64, kInvalidRegion, 0);
        }(cluster.get(), i),
        10 * kSecond);
    FARM_CHECK(rid.has_value() && rid->ok());
    regions.push_back(rid->value());
  }

  // Coordinate from a machine that replicates none of the regions so every
  // participant is remote (the paper's Pw counts primaries, local or not;
  // local participation would hide writes from the wire counters).
  MachineId coordinator = 0;
  for (int m = 0; m < cluster->num_machines(); m++) {
    bool hosts = false;
    for (RegionId r : regions) {
      const RegionPlacement* pl = cluster->node(0).config().Placement(r);
      if (pl != nullptr && pl->Contains(static_cast<MachineId>(m))) {
        hosts = true;
        break;
      }
    }
    if (!hosts) {
      coordinator = static_cast<MachineId>(m);
      break;
    }
  }

  // Seed objects, then measure the steady-state commit (not the seeding).
  const int kTxs = 200;
  auto run = [](Cluster* c, MachineId coord, std::vector<RegionId> rs, int writes, int reads,
                int txs) -> Task<int> {
    int committed = 0;
    for (int i = 0; i < txs; i++) {
      auto tx = c->node(coord).Begin(0);
      bool ok = true;
      for (int w = 0; w < writes && ok; w++) {
        GlobalAddr addr{rs[static_cast<size_t>(w)], static_cast<uint32_t>((i % 16) * 64)};
        auto v = co_await tx->Read(addr, 48);
        ok = v.ok();
        if (ok) {
          std::vector<uint8_t> data(48, static_cast<uint8_t>(i));
          (void)tx->Write(addr, data);
        }
      }
      for (int r = 0; r < reads && ok; r++) {
        GlobalAddr addr{rs.back(), static_cast<uint32_t>(((i + r) % 16) * 64)};
        ok = (co_await tx->Read(addr, 48)).ok();
      }
      if (ok && (co_await tx->Commit()).ok()) {
        committed++;
      }
    }
    co_return committed;
  };
  // Warm up (also seeds versions).
  (void)RunTask(*cluster,
                run(cluster.get(), coordinator, regions, num_regions, read_only_objects, 32),
                60 * kSecond);
  FabricStats before = cluster->fabric().stats();
  auto committed = RunTask(
      *cluster, run(cluster.get(), coordinator, regions, num_regions, read_only_objects, kTxs),
      120 * kSecond);
  FARM_CHECK(committed.has_value() && *committed > 0);
  // Drain truncations so their (piggybacked/explicit) cost is included.
  cluster->RunFor(20 * kMillisecond);
  FabricStats after = cluster->fabric().stats();
  FarmCounts out;
  out.writes_per_tx =
      static_cast<double>(after.rdma_writes - before.rdma_writes) / *committed;
  out.reads_per_tx = static_cast<double>(after.rdma_reads - before.rdma_reads) / *committed;
  out.rpcs_per_tx = static_cast<double>(after.rpcs - before.rpcs) / *committed;
  return out;
}

double MeasureTwoPc(int participants) {
  Simulator sim;
  Fabric fabric(sim);
  std::vector<std::unique_ptr<Machine>> machines;
  std::vector<std::unique_ptr<NvramStore>> stores;
  int total = (participants + 1) * 3 + 1;
  for (MachineId i = 0; i < static_cast<MachineId>(total); i++) {
    machines.push_back(std::make_unique<Machine>(sim, i, 4, static_cast<int>(i)));
    stores.push_back(std::make_unique<NvramStore>());
    fabric.AddMachine(machines.back().get(), stores.back().get());
  }
  TwoPcSystem::Options opts;
  opts.groups = participants;
  std::vector<MachineId> members;
  for (int i = 0; i < (participants + 1) * 3; i++) {
    members.push_back(static_cast<MachineId>(i));
  }
  TwoPcSystem system(fabric, members, opts);
  MachineId client = static_cast<MachineId>(total - 1);

  const int kTxs = 100;
  auto run = [](TwoPcSystem* sys, MachineId cl, int parts, int txs) -> Task<int> {
    int committed = 0;
    for (int i = 0; i < txs; i++) {
      std::vector<uint64_t> keys;
      for (int p = 0; p < parts; p++) {
        keys.push_back(static_cast<uint64_t>(p));
      }
      if (co_await sys->RunTx(cl, keys)) {
        committed++;
      }
    }
    co_return committed;
  };
  auto committed = std::make_shared<std::optional<int>>();
  auto wrapper = [](Task<int> inner, std::shared_ptr<std::optional<int>> out) -> Task<void> {
    out->emplace(co_await std::move(inner));
  };
  uint64_t before = fabric.stats().rpcs;
  Spawn(wrapper(run(&system, client, participants, kTxs), committed));
  sim.Run();
  FARM_CHECK(committed->has_value() && **committed == kTxs);
  // Each RPC is a request + a response on the wire.
  return 2.0 * static_cast<double>(fabric.stats().rpcs - before) / kTxs;
}

void Run() {
  bench::PrintHeader(
      "Message-count ablation (sections 4 and 7)",
      "FaRM: Pw(f+3) writes + Pr reads; 2PC/Paxos: 4P(2f+1) msgs; NSDI'14 +44% (paper)",
      "f=2 (3-way replication), Pw in {1,2,3}, 200 measured transactions each");

  std::printf("%-34s %10s %10s %10s %12s\n", "configuration", "writes/tx", "reads/tx",
              "rpcs/tx", "analytical");
  for (int pw : {1, 2, 3}) {
    FarmCounts farm = MeasureFarm(false, pw, 0);
    std::printf("FaRM optimized, Pw=%-15d %10.1f %10.1f %10.1f %9d(w)\n", pw,
                farm.writes_per_tx, farm.reads_per_tx, farm.rpcs_per_tx, pw * (2 + 3));
  }
  {
    FarmCounts farm = MeasureFarm(false, 1, 4);
    std::printf("FaRM optimized, Pw=1 Pr=4%9s %10.1f %10.1f %10.1f %12s\n", "",
                farm.writes_per_tx, farm.reads_per_tx, farm.rpcs_per_tx, "+Pr reads");
  }
  {
    FarmCounts nsdi = MeasureFarm(true, 2, 0);
    FarmCounts opt = MeasureFarm(false, 2, 0);
    std::printf("FaRM NSDI'14 (backup LOCKs), Pw=2  %10.1f %10.1f %10.1f %12s\n",
                nsdi.writes_per_tx, nsdi.reads_per_tx, nsdi.rpcs_per_tx, "");
    double reduction_pct = (1.0 - opt.writes_per_tx / nsdi.writes_per_tx) * 100.0;
    std::printf("  -> optimized protocol sends %.0f%% fewer one-sided writes\n", reduction_pct);
    if (bench::JsonReport* j = bench::Json()) {
      j->Set("nsdi14_writes_per_tx_pw2", nsdi.writes_per_tx);
      j->Set("optimized_writes_per_tx_pw2", opt.writes_per_tx);
      j->Set("write_reduction_pct", reduction_pct);
    }
  }
  for (int p : {1, 2, 3}) {
    double msgs = MeasureTwoPc(p);
    std::printf("2PC over Paxos groups, P=%-9d %10s %10s %10.1f %9d(m)\n", p, "-", "-",
                msgs / 2.0, 4 * p * 5);
    if (bench::JsonReport* j = bench::Json()) {
      j->Set("twopc_msgs_per_tx_p" + std::to_string(p), msgs);
    }
  }
  std::printf("\nNote: FaRM per-tx writes include LOCK + COMMIT-BACKUP + COMMIT-PRIMARY\n"
              "records plus amortized truncation and ring-buffer feedback writes; the\n"
              "paper's Pw(f+3) counts the commit-critical records only. The 2PC\n"
              "baseline's analytical column is the paper's 4P(2f+1) with f=2.\n");
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  farm::bench::BenchEnv env(argc, argv);
  farm::Run();
  return 0;
}
