// Fixture: each step is one report on the node's Emitter or one Span scope.
// Names that merely contain the flagged words do not fire.
#include "src/core/emit.h"

namespace demo {

void StartReconfiguration(Emitter& emit, uint64_t config) {
  emit.Report(Step::kSuspect);
  Span span(emit, Step::kReconfiguration, config + 1);
  int trace = 0;  // a local named `trace` is not the tracer namespace
  (void)trace;
  const char* note = "NoteMilestone and HitPoint in a string do not fire";
  (void)note;
}

}  // namespace demo
