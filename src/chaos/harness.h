// Chaos harness: runs a bank-transfer workload against a simulated cluster
// while executing a ChaosPlan's fault timeline, then checks the committed
// history with the BankOracle and a liveness watchdog.
//
// A run is a pure function of (ChaosRunOptions, plan): the workload, the
// fault schedule, and the fabric fault RNG are all derived from the plan
// seed, so a failing seed's dumped plan replays byte-identically.
#ifndef SRC_CHAOS_HARNESS_H_
#define SRC_CHAOS_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/chaos/plan.h"

namespace farm {
namespace chaos {

// Coarse classification of a run failure; tools/chaos maps these to
// distinct exit codes so CI and --until-fail scripts can tell an invariant
// violation from a stuck cluster without parsing messages.
enum class FailureClass : uint8_t {
  kNone = 0,        // run passed
  kSetup = 1,       // the cluster never got off the ground (region creation)
  kRegionLost = 2,  // the bank region lost every replica (or its primary)
  kLiveness = 3,    // the cluster stopped committing after the faults
  kOracle = 4,      // a consistency invariant was violated
};

const char* FailureClassName(FailureClass c);

struct ChaosRunOptions {
  int machines = 6;
  int accounts = 16;
  uint64_t seed = 1;
  PlanOptions plan;  // plan.machines is forced to `machines`
  // Deliberately UNSAFE protocol mutation (skip waiting for backup hardware
  // acks before COMMIT-PRIMARY); used to prove the oracle catches real
  // protocol bugs. Never set outside that test.
  bool mutate_skip_backup_ack = false;
};

struct ChaosRunResult {
  bool ok = false;
  std::string failure;  // first violated invariant, empty when ok
  FailureClass failure_class = FailureClass::kNone;
  ChaosPlan plan;       // the executed plan (dump this to reproduce)
  uint64_t commits = 0;
  uint64_t unknown_outcomes = 0;
  SimTime last_commit = 0;
  // Fault-point hit counts observed by the injector (from plan.options.start
  // on): the explorer's discovery data. Keyed by point name.
  std::map<std::string, uint64_t> point_hits;
  // How many of plan.triggers actually fired.
  uint64_t triggers_fired = 0;
  // Live members of the freshest configuration after settling, for rejoin
  // assertions in regression tests.
  std::vector<uint32_t> final_members;
  // Human-readable record of the events as resolved against cluster state
  // ("t=120ms kill-primary -> m2"); goes in failing-seed artifacts.
  std::vector<std::string> event_log;
  // Flight-recorder postmortem (merged per-machine protocol timeline),
  // captured at the moment an invariant fired; empty when ok.
  std::string postmortem;
};

// Generates a plan from (options.plan, options.seed) and runs it.
ChaosRunResult RunChaos(const ChaosRunOptions& options);

// Runs an explicit plan (replay path). The plan's own options govern the
// horizon and sizing; options.seed still seeds the workload and fabric.
ChaosRunResult RunChaosPlan(const ChaosRunOptions& options, const ChaosPlan& plan);

}  // namespace chaos
}  // namespace farm

#endif  // SRC_CHAOS_HARNESS_H_
