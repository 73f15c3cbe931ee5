// Fault-point hook: the seam between protocol code and the chaos explorer's
// fault injector.
//
// A fault point is a named place in the protocol where a fault can be
// injected: every flight-recorder event type is one (the tap lives in
// flight::Recorder::Append, so the taxonomy of src/obs/flight_recorder.h is
// the taxonomy of injectable sites), plus a handful of native points at
// spots the recorder does not cover or where the injector needs a
// synchronous effect (fabric msg-send for message drops, ringlog-append for
// torn NVRAM writes, lease-send for forced expiries, reconfiguration steps
// in cm.cc, lock-recovery start in recovery.cc).
//
// A hook is attached to one Cluster (Cluster::SetFaultHook) and reaches
// every layer through that cluster's obs::Sinks: protocol code calls
// Sinks::HitPoint(machine, point, arg) and honors the returned effect mask.
// With no hook attached this is a null check, so normal runs (including the
// byte-identity trace gates) are unaffected. Deferred actions (machine
// kills, partitions, lease expiries) are the hook's own business: it
// schedules them through the simulator rather than mutating state under the
// caller's feet.
//
// Sinks are per cluster and a thread runs at most one live Cluster, so
// independent clusters with their own hooks can run on separate threads.
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
