// Fault-point hook: the seam between protocol code and the chaos explorer's
// fault injector.
//
// A fault point is a named place in the protocol where a fault can be
// injected. Every protocol step is one, and its row in the step table
// (src/core/emit.cc) names it: a step that writes a flight record is the
// point named after that record (the tap lives in flight::Recorder::Append,
// so the taxonomy of src/obs/flight_recorder.h is the taxonomy of
// injectable sites), and a step that writes none is a native point named
// in its row (reconfig-probe, reconfig-commit, lock-recovery-begin,
// lease-send, ringlog-append). The fabric's msg-send/msg-recv records are
// points the same way. Reporting a point returns the hook's effect mask;
// the two sites with a synchronous effect honor it: msg-send (a drop) and
// ringlog-append (a torn write).
//
// A hook is attached to one Cluster (Cluster::SetFaultHook) and reached
// through that cluster's obs::Sinks. With no hook attached a point costs a
// null check, so normal runs (including the byte-identity trace gates) are
// unaffected. Deferred actions (machine kills, partitions, lease expiries)
// are the hook's own business: it schedules them through the simulator
// rather than mutating state under the caller's feet. Clusters on separate
// threads have separate hooks.
#ifndef SRC_OBS_FAULT_HOOK_H_
#define SRC_OBS_FAULT_HOOK_H_

#include <cstdint>

namespace farm {
namespace fault {

// Effects a hook may request synchronously at the site that hit the point.
// Sites only honor the effects that make sense for them; everything else
// the hook does via deferred simulator events.
enum Effect : uint32_t {
  kEffectNone = 0,
  // fabric msg-send: swallow this message on the wire (the sender still
  // pays the issue cost and the RPC times out normally).
  kEffectDropMessage = 1u << 0,
  // ringlog-append: persist only a prefix of the frame (a torn NVRAM write;
  // the hook kills the writer at the same instant, modeling a crash mid-DMA).
  kEffectTornWrite = 1u << 1,
};

class Hook {
 public:
  virtual ~Hook() = default;
  // Called every time execution reaches a fault point. `machine` is the
  // machine the point fired on, `point` a static interned name (compare by
  // content, not address), `arg` a per-point scalar (peer, region, config).
  // Returns an Effect mask for the call site to honor.
  virtual uint32_t OnPoint(uint32_t machine, const char* point, uint64_t arg) = 0;
};

}  // namespace fault
}  // namespace farm

#endif  // SRC_OBS_FAULT_HOOK_H_
