// Systematic fault-point exploration (the tentpole of the robustness PR).
//
// Instead of sampling random fault timelines (plan.cc), the explorer
// enumerates the protocol's own fault points: a baseline discovery run
// records every point the workload reaches; then, for each reachable point
// and each applicable fault action, one run injects exactly that fault at
// that point and checks the BankOracle plus the liveness watchdog. Depth 2
// targets points that only become reachable during recovery from a first
// fault (e.g. "lock-recovery-begin" exists only after a primary died).
//
// Every schedule is a ChaosPlan (trigger lines only), so a failing schedule
// dumps, shrinks to a minimal reproducer, and replays byte-identically with
// the standard chaos tooling.
#ifndef SRC_CHAOS_EXPLORE_H_
#define SRC_CHAOS_EXPLORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/chaos/harness.h"
#include "src/obs/metrics.h"

namespace farm {
namespace chaos {

struct ExploreOptions {
  int machines = 5;
  uint64_t seed = 1;
  // Per-run workload horizon. Shorter than the sweep plans' 900 ms: each
  // schedule injects at most two faults, all anchored near `start`.
  SimTime horizon = 400 * kMillisecond;
  int max_depth = 1;       // 1 = one fault per run, 2 = nested second fault
  // Actions to sweep; per point, only the applicable subset runs.
  std::vector<FaultAction> actions = {FaultAction::kKill, FaultAction::kPartition,
                                      FaultAction::kDropMsg, FaultAction::kTornWrite,
                                      FaultAction::kLeaseExpiry};
  // Restrict the sweep to these points (empty = every discovered point).
  std::vector<std::string> points;
  // Thread the deliberate protocol mutation through to every run (the
  // explorer's own regression gate: the sweep must catch it).
  bool mutate_skip_backup_ack = false;
  // Coverage counters land here when non-null:
  //   explore_points{state=discovered|exercised|survived}
  //   explore_runs{outcome=pass|fail}
  metrics::Registry* metrics = nullptr;
  // Per-run progress line ("run 13/42 kill at phase-begin:lock ... pass").
  std::function<void(const std::string&)> progress;
};

struct ExploreFailure {
  ChaosPlan plan;    // the failing schedule as first found
  ChaosPlan shrunk;  // minimized reproducer (== plan past the first four failures)
  std::string failure;
  FailureClass failure_class = FailureClass::kNone;
  std::string postmortem;
  // The shrunk plan re-ran with an identical failure message, event log,
  // and postmortem (byte-compared).
  bool replay_identical = false;
};

struct ExploreResult {
  // Coverage ledger. A point is `discovered` when the baseline (or any
  // deeper run) hit it, `exercised` when some schedule fired a fault at it,
  // and `survived` when every schedule that injected there passed.
  std::map<std::string, uint64_t> discovered;  // point -> baseline hit count
  std::set<std::string> exercised;
  std::set<std::string> survived;
  uint64_t runs = 0;
  uint64_t failures = 0;
  std::vector<ExploreFailure> failing;  // detail for the first few failures

  bool ok() const { return failures == 0; }
  // Human-readable coverage summary (one line per point plus totals).
  std::string Report() const;
};

ExploreResult Explore(const ExploreOptions& options);

}  // namespace chaos
}  // namespace farm

#endif  // SRC_CHAOS_EXPLORE_H_
