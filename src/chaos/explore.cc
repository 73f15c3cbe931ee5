#include "src/chaos/explore.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"

namespace farm {
namespace chaos {

namespace {

// Cap on depth-2 schedules (they multiply fast).
constexpr int kDepth2Budget = 24;

ChaosPlan MakePlan(const ExploreOptions& o, std::vector<FaultTrigger> triggers) {
  ChaosPlan plan;
  plan.seed = o.seed;
  plan.options.machines = o.machines;
  plan.options.horizon = o.horizon;
  plan.options.max_faults = static_cast<int>(triggers.size());
  plan.triggers = std::move(triggers);
  return plan;
}

ChaosRunResult RunPlan(const ExploreOptions& o, const ChaosPlan& plan) {
  ChaosRunOptions ro;
  ro.machines = o.machines;
  ro.seed = o.seed;
  ro.mutate_skip_backup_ack = o.mutate_skip_backup_ack;
  return RunChaosPlan(ro, plan);
}

// Everything a replay must reproduce byte-for-byte: the failure, the
// resolved event log (includes every `inject` line with its fire time), and
// the merged flight postmortem.
std::string RunFingerprint(const ChaosRunResult& r) {
  std::ostringstream out;
  out << r.failure << "\n" << r.commits << "\n";
  for (const auto& line : r.event_log) {
    out << line << "\n";
  }
  out << r.postmortem;
  return out.str();
}

// Greedy 1-minimal shrink: repeatedly drop any single event or trigger
// whose removal preserves a failure of the same class. Quadratic in plan
// size, but explorer schedules have at most a handful of faults.
ChaosPlan ShrinkPlan(const ExploreOptions& o, const ChaosPlan& failing, FailureClass cls,
                     uint64_t* extra_runs) {
  ChaosPlan cur = failing;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < cur.events.size() && !changed; i++) {
      ChaosPlan cand = cur;
      cand.events.erase(cand.events.begin() + static_cast<long>(i));
      ChaosRunResult r = RunPlan(o, cand);
      (*extra_runs)++;
      if (!r.ok && r.failure_class == cls) {
        cur = std::move(cand);
        changed = true;
      }
    }
    for (size_t i = 0; i < cur.triggers.size() && !changed; i++) {
      ChaosPlan cand = cur;
      cand.triggers.erase(cand.triggers.begin() + static_cast<long>(i));
      ChaosRunResult r = RunPlan(o, cand);
      (*extra_runs)++;
      if (!r.ok && r.failure_class == cls) {
        cur = std::move(cand);
        changed = true;
      }
    }
  }
  return cur;
}

}  // namespace

std::string ExploreResult::Report() const {
  std::ostringstream out;
  out << "fault-point exploration: " << discovered.size() << " points discovered, "
      << exercised.size() << " exercised, " << survived.size() << " survived; " << runs
      << " runs, " << failures << " failures\n";
  for (const auto& [point, hits] : discovered) {
    out << "  " << point << " hits=" << hits;
    if (exercised.count(point) == 0) {
      out << " NOT-EXERCISED";
    } else if (survived.count(point) == 0) {
      out << " FAILED";
    } else {
      out << " survived";
    }
    out << "\n";
  }
  for (const auto& f : failing) {
    out << "failure (" << FailureClassName(f.failure_class) << "): " << f.failure << "\n";
    out << "  shrunk to " << f.shrunk.triggers.size() << " trigger(s) + "
        << f.shrunk.events.size() << " event(s), replay "
        << (f.replay_identical ? "byte-identical" : "NOT byte-identical") << "\n";
  }
  return out.str();
}

ExploreResult Explore(const ExploreOptions& o) {
  ExploreResult res;
  auto say = [&o](const std::string& s) {
    if (o.progress) {
      o.progress(s);
    }
    FARM_LOG(Info) << "explore: " << s;
  };
  // Which points had a failing schedule (for the survived set).
  std::set<std::string> point_failed;
  uint64_t sweep_pass = 0;
  uint64_t sweep_fail = 0;

  auto handle_failure = [&](const ChaosPlan& plan, const ChaosRunResult& r) {
    res.failures++;
    sweep_fail++;
    if (res.failing.size() >= 8) {
      return;  // keep detail bounded; the counts still tell the story
    }
    ExploreFailure f;
    f.plan = plan;
    f.shrunk = plan;
    f.failure = r.failure;
    f.failure_class = r.failure_class;
    f.postmortem = r.postmortem;
    if (res.failing.size() < 4) {
      f.shrunk = ShrinkPlan(o, plan, r.failure_class, &res.runs);
      ChaosRunResult r1 = RunPlan(o, f.shrunk);
      ChaosRunResult r2 = RunPlan(o, f.shrunk);
      res.runs += 2;
      f.replay_identical = !r1.ok && RunFingerprint(r1) == RunFingerprint(r2);
      std::ostringstream line;
      line << "shrunk to " << f.shrunk.triggers.size() << " trigger(s), replay "
           << (f.replay_identical ? "byte-identical" : "NOT byte-identical");
      say(line.str());
    }
    res.failing.push_back(std::move(f));
  };

  // ---- discovery: a fault-free run enumerates every reachable point ----
  ChaosPlan baseline = MakePlan(o, {});
  ChaosRunResult base = RunPlan(o, baseline);
  res.runs++;
  if (!base.ok) {
    say("baseline (no-fault) run failed: " + base.failure);
    handle_failure(baseline, base);
    return res;
  }
  sweep_pass++;
  res.discovered = base.point_hits;
  say("discovered " + std::to_string(res.discovered.size()) + " fault points");

  std::vector<std::string> points;
  for (const auto& [p, hits] : res.discovered) {
    (void)hits;
    if (o.points.empty() ||
        std::find(o.points.begin(), o.points.end(), p) != o.points.end()) {
      points.push_back(p);
    }
  }

  // ---- depth 1: one fault per run, every applicable action ----
  // Depth-2 seeds: for each point first reached only under a depth-1 kill,
  // the schedule that revealed it.
  std::map<std::string, FaultTrigger> depth2_seeds;
  for (const std::string& p : points) {
    for (FaultAction a : o.actions) {
      if (!ActionApplicable(a, p)) {
        continue;
      }
      FaultTrigger t;
      t.point = p;
      t.action = a;
      ChaosPlan plan = MakePlan(o, {t});
      ChaosRunResult r = RunPlan(o, plan);
      res.runs++;
      if (r.triggers_fired > 0) {
        res.exercised.insert(p);
      }
      std::ostringstream line;
      line << "depth1 " << FaultActionName(a) << " at " << p
           << (r.triggers_fired > 0 ? "" : " (never fired)") << " -> "
           << (r.ok ? "pass" : r.failure);
      say(line.str());
      if (!r.ok) {
        point_failed.insert(p);
        handle_failure(plan, r);
      } else {
        sweep_pass++;
        if (o.max_depth >= 2 && a == FaultAction::kKill) {
          for (const auto& [np, hits] : r.point_hits) {
            (void)hits;
            if (res.discovered.count(np) == 0 && depth2_seeds.count(np) == 0) {
              depth2_seeds.emplace(np, t);
            }
          }
        }
      }
    }
  }

  // ---- depth 2: a second fault at a recovery-era point ----
  int depth2_done = 0;
  for (const auto& [np, seed_trigger] : depth2_seeds) {
    if (depth2_done >= kDepth2Budget) {
      say("depth2 budget exhausted; " +
          std::to_string(depth2_seeds.size() - static_cast<size_t>(depth2_done)) +
          " recovery-era points left unswept");
      break;
    }
    depth2_done++;
    FaultTrigger second;
    second.point = np;
    second.action = FaultAction::kKill;
    ChaosPlan plan = MakePlan(o, {seed_trigger, second});
    ChaosRunResult r = RunPlan(o, plan);
    res.runs++;
    res.discovered.emplace(np, 0);  // reachable only past the first fault
    if (r.triggers_fired >= 2) {
      res.exercised.insert(np);
    }
    std::ostringstream line;
    line << "depth2 kill at " << np << " (after kill at " << seed_trigger.point << ")"
         << (r.triggers_fired >= 2 ? "" : " (second never fired)") << " -> "
         << (r.ok ? "pass" : r.failure);
    say(line.str());
    if (!r.ok) {
      point_failed.insert(np);
      handle_failure(plan, r);
    } else {
      sweep_pass++;
    }
  }

  for (const std::string& p : res.exercised) {
    if (point_failed.count(p) == 0) {
      res.survived.insert(p);
    }
  }

  if (o.metrics != nullptr) {
    metrics::Registry& m = *o.metrics;
    m.GetCounter("explore_points", {{"state", "discovered"}}).Inc(res.discovered.size());
    m.GetCounter("explore_points", {{"state", "exercised"}}).Inc(res.exercised.size());
    m.GetCounter("explore_points", {{"state", "survived"}}).Inc(res.survived.size());
    m.GetCounter("explore_runs", {{"outcome", "pass"}}).Inc(sweep_pass);
    m.GetCounter("explore_runs", {{"outcome", "fail"}}).Inc(sweep_fail);
    uint64_t aux = res.runs - sweep_pass - sweep_fail;
    m.GetCounter("explore_runs", {{"outcome", "shrink"}}).Inc(aux);
  }
  return res;
}

}  // namespace chaos
}  // namespace farm
