// One emission per protocol step.
//
// Protocol code reports each step of the commit protocol (section 4) and of
// leases, reconfiguration and recovery (section 5) with one call on its
// node's Emitter, or one Span scope, naming the step. The step's row in
// kSteps (emit.cc) names the sinks it feeds, in this order: the Cluster's
// milestone list (figures 9-11; it also draws a "milestone" instant on the
// trace's cluster track); the tracer, if attached (an instant, a complete
// span ending now, or a Span's async span); the machine's flight-recorder
// ring, whose every append is the fault point named after the record; else
// the step's native fault point (src/obs/fault_hook.h). A report returns the
// hook's effect mask (the ring-log append honors a torn write). Commit
// phases (flight::Phase) feed the ring, the tracer and the registry's
// latency histograms and abort-reason counters:
//       tx_phase_ns{phase="lock"}                (histogram, one per Phase)
//       tx_abort_reason{reason="lock_conflict"}  (counter, one per AbortReason)
// Every node binds to the same cells (the labels carry no node id), so the
// registry dump and the bench phase rows see cluster totals.
#ifndef SRC_CORE_EMIT_H_
#define SRC_CORE_EMIT_H_

#include <cstdint>

#include "src/core/types.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/sinks.h"
#include "src/sim/simulator.h"

namespace farm {

class Cluster;

// Every protocol step that is not a commit phase. Its row in kSteps
// (emit.cc) names the sinks it feeds.
enum class Step : uint8_t {
  // Reconfiguration (section 5.2).
  kSuspect, kProbe, kProbeMinority, kConfigCas, kConfigCommit, kReconfiguration, kReconfig,
  kNewConfig,
  // Transaction-state recovery (section 5.3).
  kTxStateStart, kLockRecovery, kLockRecoveryDone, kAllActive, kDecideCommit, kDecideAbort,
  kDecisionApply, kTruncateRecovery,
  // Data and allocator recovery (sections 5.4-5.5).
  kDataRecStart, kReReplication, kAllocatorRecovery,
  // Leases (section 5.1).
  kLeaseSend, kLeaseExpired,
  // Commit protocol (section 4).
  kCommit, kRead, kRingAppend, kLockAcquire, kLockReject, kValidateFail, kCommitBackupRecord,
  kCommitPrimaryRecord, kAbortRecord, kTruncateQueued, kTruncateRecord,
};
inline constexpr int kNumSteps = static_cast<int>(Step::kTruncateRecord) + 1;

class Emitter {
 public:
  Emitter(Cluster& cluster, MachineId machine);
  Emitter(const Emitter&) = delete;
  Emitter& operator=(const Emitter&) = delete;

  // Reports step `s` to its row's sinks; returns the hook's effect mask.
  // `arg` is the point's arg and the record's detail. A complete span runs
  // from `since` to now; the trace draws on worker `thread`'s track.
  uint32_t Report(Step s, uint64_t arg = 0, SimTime since = 0, int thread = 0) {
    return Emit(s, nullptr, arg, 0, since, thread);
  }
  // Reports step `s` of transaction `id`. `arg` is the record's arg where
  // the step leaves it to the event (lock count, reject cause).
  void TxReport(const TxId& id, Step s, uint32_t detail = 0, uint8_t arg = 0) {
    Emit(s, &id, detail, arg, 0, 0);
  }
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
  friend class Span;

  uint32_t Emit(Step s, const TxId* id, uint64_t arg, uint8_t record_arg, SimTime since,
                int thread);
  uint32_t Append(SimTime at, flight::EventKind kind, const TxId* id, uint8_t arg,
                  uint32_t detail);

  Cluster& cluster_;
  const Simulator& sim_;
  MachineId machine_;
  flight::Recorder& ring_;
  const obs::Sinks& sinks_;
  metrics::HistogramMetric phase_ns_[flight::kNumPhases];
  metrics::Counter abort_reason_[flight::kNumAbortReasons];
};

// A traced stretch of one step or commit phase. It reports its step (or
// writes its phase's kPhaseBegin) and opens the async trace span on
// construction, and closes the span on End() or destruction, so every exit
// of the enclosing coroutine (including an abort, a recovery hand-off or a
// parked frame reclaimed at teardown) closes it at the simulated time it
// ends. A phase's End() also writes kPhaseEnd and records the tx_phase_ns
// sample; a phase left without End() reports only through its abort. With
// no tracer attached a span builds no strings.
class Span {
 public:
  // Step `s`: of recovery flow `n`, which is also the step's point arg and
  // follows the row's prefix in the span id ("cfg3", "r7"), or of
  // transaction `id` on worker `thread` (the commit attempt).
  Span(Emitter& emit, Step s, uint64_t n, const TxId& id = {}, int thread = 0);
  // Commit phase `phase`; the span is named after it.
  Span(Emitter& emit, const TxId& id, int thread, flight::Phase phase);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  // Completes the phase.
  void End();

 private:
  static constexpr uint8_t kNoPhase = 0xff;

  // Begins or ends the trace span.
  void Edge(bool begin) const;

  Emitter& emit_;
  TxId id_;
  uint64_t n_ = 0;
  SimTime start_;
  int thread_;
  uint8_t phase_ = kNoPhase;
  Step step_ = Step::kCommit;
  bool open_ = true;
};

}  // namespace farm

#endif  // SRC_CORE_EMIT_H_
