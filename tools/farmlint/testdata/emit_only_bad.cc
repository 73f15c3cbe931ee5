// Fixture: protocol code reaching the tracer, the milestone list and the
// fault hook directly instead of through its node's Emitter.
#include "src/obs/trace.h"

namespace demo {

void StartReconfiguration(Cluster* cluster, Emitter& emit, uint32_t node) {
  cluster->NoteMilestone("suspect");
  if (trace::Tracer* tracer = emit.sinks().tracer) {
    tracer->Instant(node, 0, "recovery", "suspect");
  }
  emit.sinks().HitPoint(node, "reconfig-probe", 0);
  trace::Tracer::Options options;
}

}  // namespace demo
