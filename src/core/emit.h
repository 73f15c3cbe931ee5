// One emission per protocol step.
//
// Each step of the commit protocol (section 4) and of recovery (section 5)
// is reported with one call on its node's Emitter, which fans the step out
// to every sink the owning Cluster attached:
//   - the machine's flight-recorder ring (always on; every append is also a
//     fault point for an attached fault hook, see src/obs/fault_hook.h);
//   - the cluster registry's per-phase latency histograms and abort-reason
//     counters:
//       tx_phase_ns{phase="lock"}                (histogram, one per Phase)
//       tx_abort_reason{reason="lock_conflict"}  (counter, one per AbortReason)
//     Every node binds to the same cells (the labels carry no node id), so
//     the registry dump and the bench phase rows see cluster totals;
//   - the cluster's tracer, when one is attached.
#ifndef SRC_CORE_EMIT_H_
#define SRC_CORE_EMIT_H_

#include <cstdint>
#include <string>

#include "src/core/types.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/sinks.h"
#include "src/sim/simulator.h"

namespace farm {

class Emitter {
 public:
  Emitter(const Simulator& sim, MachineId machine, flight::Recorder& ring,
          const obs::Sinks& sinks, metrics::Registry& reg);
  Emitter(const Emitter&) = delete;
  Emitter& operator=(const Emitter&) = delete;

  // The attached tracer (null when tracing is off), for trace-only events.
  trace::Tracer* tracer() const { return sinks_.tracer; }
  // `prefix` followed by `n` as a trace span id ("r7", "cfg3"), or "" when
  // no tracer is attached, so untraced runs do not build the string.
  std::string SpanId(const char* prefix, uint64_t n) const {
    return sinks_.tracer != nullptr ? prefix + std::to_string(n) : std::string();
  }
  // Native fault point on this machine (see src/obs/fault_hook.h).
  uint32_t HitPoint(const char* point, uint64_t arg) const {
    return sinks_.HitPoint(machine_, point, arg);
  }

  // A step without a transaction (reconfiguration, recovery progress). A
  // non-null `instant` also draws that trace instant on the machine's first
  // track, in category "recovery" for recovery steps and "tx" otherwise.
  void Step(flight::EventKind kind, uint8_t arg, uint32_t detail,
            const char* instant = nullptr);
  // A step of transaction `id` (record receipts, lock outcomes, recovery
  // decisions, truncation queued), with the same optional trace instant.
  void TxStep(const TxId& id, flight::EventKind kind, uint8_t arg = 0, uint32_t detail = 0,
              const char* instant = nullptr);
  // The commit attempt ended without committing: writes kAbort and, for a
  // counted reason (flight::kNumCountedAbortReasons), bumps tx_abort_reason.
  void Abort(const TxId& id, flight::AbortReason reason);
  // Ends phase `phase` of `id`, begun at `start`: writes kPhaseEnd and
  // records the tx_phase_ns sample.
  void PhaseEnd(const TxId& id, flight::Phase phase, SimTime start);
  // A whole phase that could only be reported at its end (execute: the tx
  // id is assigned at Commit): kPhaseBegin stamped `start`, then PhaseEnd.
  void PhaseSince(const TxId& id, flight::Phase phase, SimTime start);

 private:
  friend class TxSpan;

  void Append(SimTime at, flight::EventKind kind, const TxId* id, uint8_t arg,
              uint32_t detail, const char* instant = nullptr);
  // Begins or ends the async trace span of `id` on (machine, thread).
  void Span(bool begin, const TxId& id, int thread, const char* name);

  const Simulator& sim_;
  MachineId machine_;
  flight::Recorder& ring_;
  const obs::Sinks& sinks_;
  metrics::HistogramMetric phase_ns_[flight::kNumPhases];
  metrics::Counter abort_reason_[flight::kNumAbortReasons];
};

// A traced stretch of one transaction on one worker thread. It opens the
// trace span on construction and closes it on End() or destruction, so
// every exit of the enclosing coroutine (including an abort, a recovery
// hand-off or a parked frame reclaimed at teardown) closes it at the
// simulated time it ends. Constructed for a commit phase, it also writes
// kPhaseBegin, and End() writes kPhaseEnd and records the tx_phase_ns
// sample; a phase left without End() reports only through its abort.
class TxSpan {
 public:
  // Trace span only (the whole commit).
  TxSpan(Emitter& emit, const TxId& id, int thread, const char* name);
  // Commit phase `phase`; the span is named after it.
  TxSpan(Emitter& emit, const TxId& id, int thread, flight::Phase phase);
  TxSpan(const TxSpan&) = delete;
  TxSpan& operator=(const TxSpan&) = delete;
  ~TxSpan();

  // Completes the phase.
  void End();

 private:
  static constexpr uint8_t kNoPhase = 0xff;

  Emitter& emit_;
  TxId id_;
  SimTime start_;
  const char* name_;
  int thread_;
  uint8_t phase_;
  bool open_ = true;
};

}  // namespace farm

#endif  // SRC_CORE_EMIT_H_
