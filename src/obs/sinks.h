// The observability sinks of one simulated cluster.
//
// A Cluster owns one Sinks and lends it to its fabric, its flight-recorder
// rings and its nodes' Emitters, through which protocol code reports. So a
// tracer or fault hook attached to one cluster reaches every layer of that
// cluster and no other, and no sink is process-global.
#ifndef SRC_OBS_SINKS_H_
#define SRC_OBS_SINKS_H_

#include <cstdint>

#include "src/obs/fault_hook.h"
#include "src/obs/trace.h"

namespace farm {
namespace obs {

struct Sinks {
  // Borrowed; null when tracing is off.
  trace::Tracer* tracer = nullptr;
  // Borrowed; null outside chaos exploration.
  fault::Hook* hook = nullptr;

  // Reports fault point `point` on `machine`; returns the effect mask the
  // call site must honor (kEffectNone without a hook).
  uint32_t HitPoint(uint32_t machine, const char* point, uint64_t arg = 0) const {
    return hook == nullptr ? fault::kEffectNone : hook->OnPoint(machine, point, arg);
  }
};

// The sinks of a component running outside any cluster: none attached.
inline constexpr Sinks kNoSinks{};

}  // namespace obs
}  // namespace farm

#endif  // SRC_OBS_SINKS_H_
