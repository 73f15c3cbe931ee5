// chaos_repro: run seeded chaos sweeps, replay dumped schedules, and
// systematically explore fault points.
//
//   chaos_repro --seed=42            run one seed, print the outcome
//   chaos_repro --sweep=20           run seeds 1..20, fail on first violation
//   chaos_repro --sweep=20 --base=100  sweep seeds 101..120
//   chaos_repro --until-fail=200     run seeds until one fails (exit code
//                                    names the failure class, see below)
//   chaos_repro --plan=FILE          replay a dumped schedule file
//   chaos_repro --explore            fault-point exploration sweep
//     --depth=2                        nested second fault during recovery
//     --machines=5 --horizon-ms=400    per-run sizing
//     --actions=kill,partition         restrict the action set
//     --points=msg-send,ringlog-append restrict the point set
//   chaos_repro --dump-dir=DIR       write failing schedules + event logs +
//                                    postmortems here (liveness timeouts
//                                    dump the watchdog's at-expiry snapshot)
//   chaos_repro --mutate             enable the skip-backup-ack protocol bug
//
// Exit status: 0 when every run passes. Failures exit with their class so
// scripts can dispatch without parsing output:
//   1 generic failure (legacy sweep/replay modes)
//   2 bad arguments / unparseable plan
//   3 oracle (consistency invariant violated)
//   4 liveness (cluster stopped committing)
//   5 region-lost (bank region lost its replicas)
//   6 setup (cluster never got off the ground)
// --until-fail, --explore, and --plan replay report class codes; --sweep
// keeps the legacy 0/1 contract for existing CI scripts.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/explore.h"
#include "src/chaos/harness.h"
#include "src/chaos/plan.h"

namespace {

using farm::chaos::ChaosPlan;
using farm::chaos::ChaosRunOptions;
using farm::chaos::ChaosRunResult;
using farm::chaos::ExploreOptions;
using farm::chaos::ExploreResult;
using farm::chaos::FailureClass;
using farm::chaos::FaultAction;

struct Args {
  uint64_t seed = 0;
  int sweep = 0;
  int until_fail = 0;
  uint64_t base = 0;
  std::string plan_file;
  std::string dump_dir;
  bool mutate = false;
  bool explore = false;
  int depth = 1;
  int machines = 5;
  int horizon_ms = 400;
  std::string actions;  // comma-separated; empty = all
  std::string points;   // comma-separated; empty = all discovered
};

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&arg](const char* key) -> const char* {
      size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* seed = value("--seed=")) {
      out->seed = std::strtoull(seed, nullptr, 10);
    } else if (const char* sweep = value("--sweep=")) {
      out->sweep = std::atoi(sweep);
    } else if (const char* until = value("--until-fail=")) {
      out->until_fail = std::atoi(until);
    } else if (const char* base = value("--base=")) {
      out->base = std::strtoull(base, nullptr, 10);
    } else if (const char* plan = value("--plan=")) {
      out->plan_file = plan;
    } else if (const char* dump = value("--dump-dir=")) {
      out->dump_dir = dump;
    } else if (const char* depth = value("--depth=")) {
      out->depth = std::atoi(depth);
    } else if (const char* machines = value("--machines=")) {
      out->machines = std::atoi(machines);
    } else if (const char* horizon = value("--horizon-ms=")) {
      out->horizon_ms = std::atoi(horizon);
    } else if (const char* actions = value("--actions=")) {
      out->actions = actions;
    } else if (const char* points = value("--points=")) {
      out->points = points;
    } else if (arg == "--explore") {
      out->explore = true;
    } else if (arg == "--mutate") {
      out->mutate = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return true;
}

int ExitCodeFor(FailureClass c) {
  switch (c) {
    case FailureClass::kNone:
      return 0;
    case FailureClass::kOracle:
      return 3;
    case FailureClass::kLiveness:
      return 4;
    case FailureClass::kRegionLost:
      return 5;
    case FailureClass::kSetup:
      return 6;
  }
  return 1;
}

void DumpFailure(const Args& args, const ChaosRunResult& res) {
  if (args.dump_dir.empty()) {
    return;
  }
  std::string base = args.dump_dir + "/chaos-seed-" + std::to_string(res.plan.seed);
  std::ofstream plan_out(base + ".plan");
  plan_out << res.plan.ToText();
  std::ofstream log_out(base + ".log");
  log_out << "failure: " << res.failure << "\n";
  log_out << "class: " << FailureClassName(res.failure_class) << "\n";
  log_out << "commits: " << res.commits << " unknown: " << res.unknown_outcomes << "\n";
  for (const auto& line : res.event_log) {
    log_out << line << "\n";
  }
  if (!res.postmortem.empty()) {
    std::ofstream pm_out(base + ".postmortem");
    pm_out << res.postmortem;
    std::cerr << "dumped " << base << ".postmortem (inspect with txdump)\n";
  }
  std::cerr << "dumped " << base << ".plan (replay with --plan=)\n";
}

bool ReportRun(const Args& args, const ChaosRunResult& res) {
  std::ostringstream events;
  events << res.event_log.size();
  std::cout << "seed " << res.plan.seed << ": " << (res.ok ? "ok" : "FAIL") << " ("
            << res.commits << " commits, " << res.unknown_outcomes << " unknown outcomes, "
            << events.str() << " events)";
  if (!res.ok) {
    std::cout << " [" << FailureClassName(res.failure_class) << "] -- " << res.failure;
  }
  std::cout << "\n";
  if (!res.ok) {
    DumpFailure(args, res);
  }
  return res.ok;
}

int RunExplore(const Args& args) {
  ExploreOptions eo;
  eo.machines = args.machines;
  eo.seed = args.seed == 0 ? 1 : args.seed;
  eo.horizon = static_cast<farm::SimTime>(args.horizon_ms) * farm::kMillisecond;
  eo.max_depth = args.depth;
  eo.mutate_skip_backup_ack = args.mutate;
  eo.points = SplitCommas(args.points);
  if (!args.actions.empty()) {
    eo.actions.clear();
    for (const std::string& name : SplitCommas(args.actions)) {
      FaultAction a;
      if (!farm::chaos::FaultActionFromName(name, &a)) {
        std::cerr << "unknown action: " << name << "\n";
        return 2;
      }
      eo.actions.push_back(a);
    }
  }
  farm::metrics::Registry coverage;
  eo.metrics = &coverage;
  eo.progress = [](const std::string& line) { std::cout << line << "\n"; };

  ExploreResult res = farm::chaos::Explore(eo);
  std::cout << res.Report();
  std::cout << coverage.ToText();

  if (!args.dump_dir.empty()) {
    for (size_t i = 0; i < res.failing.size(); i++) {
      const auto& f = res.failing[i];
      std::string base = args.dump_dir + "/explore-fail-" + std::to_string(i);
      std::ofstream(base + ".plan") << f.shrunk.ToText();
      std::ofstream(base + "-full.plan") << f.plan.ToText();
      std::ofstream(base + ".log")
          << "failure: " << f.failure << "\n"
          << "class: " << FailureClassName(f.failure_class) << "\n"
          << "replay-identical: " << (f.replay_identical ? "yes" : "no") << "\n";
      if (!f.postmortem.empty()) {
        std::ofstream(base + ".postmortem") << f.postmortem;
      }
      std::cerr << "dumped " << base << ".plan (replay with --plan=)\n";
    }
  }
  if (res.ok()) {
    return 0;
  }
  return res.failing.empty() ? 1 : ExitCodeFor(res.failing.front().failure_class);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }

  if (args.explore) {
    return RunExplore(args);
  }

  ChaosRunOptions opts;
  opts.mutate_skip_backup_ack = args.mutate;

  if (!args.plan_file.empty()) {
    std::ifstream in(args.plan_file);
    if (!in) {
      std::cerr << "cannot open " << args.plan_file << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    ChaosPlan plan;
    if (!ChaosPlan::Parse(buf.str(), &plan)) {
      std::cerr << "cannot parse " << args.plan_file << "\n";
      return 2;
    }
    opts.seed = plan.seed;
    ChaosRunResult res = RunChaosPlan(opts, plan);
    return ReportRun(args, res) ? 0 : ExitCodeFor(res.failure_class);
  }

  if (args.until_fail > 0) {
    for (int i = 1; i <= args.until_fail; i++) {
      opts.seed = args.base + static_cast<uint64_t>(i);
      ChaosRunResult res = RunChaos(opts);
      if (!ReportRun(args, res)) {
        return ExitCodeFor(res.failure_class);
      }
    }
    std::cout << "no failure in " << args.until_fail << " runs\n";
    return 0;
  }

  if (args.sweep > 0) {
    int failures = 0;
    for (int i = 1; i <= args.sweep; i++) {
      opts.seed = args.base + static_cast<uint64_t>(i);
      if (!ReportRun(args, RunChaos(opts))) {
        failures++;
      }
    }
    std::cout << (args.sweep - failures) << "/" << args.sweep << " seeds passed\n";
    return failures == 0 ? 0 : 1;
  }

  opts.seed = args.seed;
  ChaosRunResult res = RunChaos(opts);
  return ReportRun(args, res) ? 0 : ExitCodeFor(res.failure_class);
}
