// Fault triggers and the injector driving them (the chaos explorer's
// execution half).
//
// A FaultTrigger names a fault point ("phase-begin:commit_backup",
// "msg-send", "ringlog-append", ...; see src/obs/fault_hook.h for the
// taxonomy), a hit count, and an action. The FaultInjector attaches to one
// cluster as its fault::Hook and counts point hits; when the current
// trigger's point reaches its hit count the action fires, and counting
// restarts for the next trigger -- trigger i's count starts when trigger
// i-1 fires, so a depth-2 schedule can target a point that only becomes
// reachable during recovery from the first fault.
//
// Counting is driven by the deterministic simulation, so a schedule that
// fired once fires identically on every replay of the same plan.
#ifndef SRC_CHAOS_FAULTPOINT_H_
#define SRC_CHAOS_FAULTPOINT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/fault_hook.h"

namespace farm {
namespace chaos {

enum class FaultAction : uint8_t {
  kKill = 1,        // kill the machine that hit the point
  kPartition = 2,   // isolate it for `param` ns, then heal
  kDropMsg = 3,     // swallow this message (msg-send points only)
  kTornWrite = 4,   // tear this NVRAM append AND kill the writer
                    // (ringlog-append points only; a torn write without a
                    // crash is not a fault NVRAM can produce)
  kLeaseExpiry = 5, // force the lease held for the point's peer to expire
                    // (lease-send points only)
  kAnchor = 6,      // no fault; re-anchors hit counting for the next trigger
};

const char* FaultActionName(FaultAction a);
// Returns false when `name` is not a known action.
bool FaultActionFromName(const std::string& name, FaultAction* out);

// Whether `action` makes sense at `point`. Synchronous-effect actions are
// tied to the one point whose call site honors their effect; kill,
// partition, and anchor apply anywhere.
bool ActionApplicable(FaultAction action, const std::string& point);

struct FaultTrigger {
  std::string point;
  uint64_t hit = 1;  // fire on the hit-th occurrence (1-based)
  FaultAction action = FaultAction::kKill;
  int machine = -1;  // only count hits on this machine; -1 = any machine
  uint64_t param = 0;  // kPartition: isolation window in ns (0 = default)
};

class FaultInjector : public fault::Hook {
 public:
  // How the injector acts on the cluster. Deferred actions (kill,
  // partition, lease expiry) must not mutate cluster state synchronously
  // under the fault point's caller; the harness's callbacks schedule them
  // through the simulator at the current time.
  struct Callbacks {
    std::function<uint64_t()> now;
    std::function<void(uint32_t machine)> kill;
    std::function<void(uint32_t machine, uint64_t window_ns)> partition;
    std::function<void(uint32_t machine, uint32_t peer)> lease_expiry;
    std::function<void(const std::string& line)> note;  // event-log hook
  };

  struct Firing {
    size_t trigger = 0;   // index into triggers()
    uint64_t at = 0;      // simulated time it fired
    uint32_t machine = 0; // machine that hit the point
  };

  // Hits before `arm_at` (startup) neither count toward triggers nor appear
  // in point_hits().
  FaultInjector(std::vector<FaultTrigger> triggers, Callbacks cb, uint64_t arm_at);

  uint32_t OnPoint(uint32_t machine, const char* point, uint64_t arg) override;

  const std::vector<FaultTrigger>& triggers() const { return triggers_; }
  // Hit counts per point since arm, over the whole run: the explorer's
  // discovery data.
  const std::map<std::string, uint64_t>& point_hits() const { return point_hits_; }
  const std::vector<Firing>& firings() const { return firings_; }

 private:
  std::vector<FaultTrigger> triggers_;
  Callbacks cb_;
  uint64_t arm_at_;
  size_t next_ = 0;      // current trigger
  uint64_t counted_ = 0; // hits of the current trigger's point since anchor
  std::map<std::string, uint64_t> point_hits_;
  std::vector<Firing> firings_;
};

}  // namespace chaos
}  // namespace farm

#endif  // SRC_CHAOS_FAULTPOINT_H_
