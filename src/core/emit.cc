#include "src/core/emit.h"

#include <algorithm>
#include <array>
#include <string>

#include "src/core/cluster.h"

namespace farm {

namespace {

// How a step appears on the trace. kAsync steps are drawn by their Span.
enum class Draw : uint8_t { kNone, kInstant, kComplete, kAsync };

// A flight record: its kind and, where the kind's arg names a sub-site, arg.
struct RecordKind {
  flight::EventKind kind{};  // none: the step writes no record
  uint8_t arg = 0;
};

constexpr RecordKind Recovery(flight::RecoveryStep s) {
  return {flight::EventKind::kRecoveryStep, static_cast<uint8_t>(s)};
}

// The sinks of one step, fed in the order emit.h gives. A step's fault
// point is its record's name when it writes one, else its native `point`.
struct StepRow {
  Step step;
  RecordKind record = {};
  const char* point = nullptr;
  const char* milestone = nullptr;
  Draw draw = Draw::kNone;
  const char* name = nullptr;  // trace instant or span name
  const char* category = "recovery";
  const char* span_prefix = nullptr;  // async span id; none: the tx id
};

using enum Step;
using enum Draw;
using K = flight::EventKind;
using R = flight::RecoveryStep;
constexpr uint8_t kTruncatePhase = static_cast<uint8_t>(flight::Phase::kTruncate);

// Args: a configuration id (reconfiguration steps, kTxStateStart), a region
// (lock recovery, region spans), the peer (kLeaseSend, kRingAppend).
constexpr StepRow kSteps[kNumSteps] = {
    {.step = kSuspect, .milestone = "suspect", .draw = kInstant, .name = "suspect"},
    {.step = kProbe, .point = "reconfig-probe", .milestone = "probe", .draw = kComplete,
     .name = "probe"},
    {.step = kProbeMinority, .milestone = "probe", .draw = kComplete, .name = "probe"},
    {.step = kConfigCas, .point = "reconfig-commit", .milestone = "zookeeper", .draw = kComplete,
     .name = "new-config-cas"},
    {.step = kConfigCommit, .milestone = "config-commit", .draw = kComplete,
     .name = "new-config-commit"},
    {.step = kReconfiguration, .draw = kAsync, .name = "reconfiguration", .span_prefix = "cfg"},
    {.step = kReconfig, .record = {K::kReconfig}},
    {.step = kNewConfig, .record = Recovery(R::kNewConfig)},
    {.step = kTxStateStart, .record = Recovery(R::kTxStateStart), .draw = kInstant,
     .name = "tx-state-recovery"},
    {.step = kLockRecovery, .point = "lock-recovery-begin", .draw = kAsync,
     .name = "lock-recovery", .span_prefix = "r"},
    {.step = kLockRecoveryDone, .record = Recovery(R::kLockRecovery)},
    {.step = kAllActive, .milestone = "all-active"},
    {.step = kDecideCommit, .record = Recovery(R::kDecideCommit), .draw = kInstant,
     .name = "decide-commit"},
    {.step = kDecideAbort, .record = Recovery(R::kDecideAbort), .draw = kInstant,
     .name = "decide-abort"},
    {.step = kDecisionApply, .record = Recovery(R::kDecisionApply)},
    {.step = kTruncateRecovery, .record = Recovery(R::kTruncateRecovery)},
    {.step = kDataRecStart, .milestone = "data-rec-start"},
    {.step = kReReplication, .draw = kAsync, .name = "re-replication", .span_prefix = "r"},
    {.step = kAllocatorRecovery, .draw = kAsync, .name = "allocator-recovery", .span_prefix = "r"},
    {.step = kLeaseSend, .point = "lease-send"},
    {.step = kLeaseExpired, .draw = kInstant, .name = "lease-expired"},
    {.step = kCommit, .draw = kAsync, .name = "commit", .category = "tx"},
    {.step = kRead, .draw = kComplete, .name = "read", .category = "tx"},
    {.step = kRingAppend, .point = "ringlog-append"},
    {.step = kLockAcquire, .record = {K::kLockAcquire}},
    {.step = kLockReject, .record = {K::kLockReject}},
    {.step = kValidateFail, .record = {K::kValidateFail}},
    {.step = kCommitBackupRecord, .record = {K::kCommitBackupRecord}},
    {.step = kCommitPrimaryRecord, .record = {K::kCommitPrimaryRecord}},
    {.step = kAbortRecord, .record = {K::kAbortRecord}},
    {.step = kTruncateQueued, .record = {K::kPhaseBegin, kTruncatePhase}, .draw = kInstant,
     .name = "truncate", .category = "tx"},
    {.step = kTruncateRecord, .record = {K::kTruncateRecord}},
};

constexpr bool RowsInStepOrder() {
  for (int i = 0; i < kNumSteps; i++) {
    if (static_cast<int>(kSteps[i].step) != i) {
      return false;
    }
  }
  return true;
}
static_assert(RowsInStepOrder(), "kSteps has one row per Step, in enum order");

const StepRow& Row(Step s) { return kSteps[static_cast<int>(s)]; }

// Trace span names of the commit phases: the phase names with '-' for '_',
// as Perfetto shows them.
const char* PhaseSpanName(uint8_t phase) {
  static const std::array<std::string, flight::kNumPhases> kNames = [] {
    std::array<std::string, flight::kNumPhases> names;
    for (int p = 0; p < flight::kNumPhases; p++) {
      names[p] = flight::PhaseName(static_cast<flight::Phase>(p));
      std::replace(names[p].begin(), names[p].end(), '_', '-');
    }
    return names;
  }();
  return kNames[phase].c_str();
}

}  // namespace

Emitter::Emitter(Cluster& cluster, MachineId machine)
    : cluster_(cluster), sim_(cluster.sim()), machine_(machine),
      ring_(*cluster.flight_recorder(machine)), sinks_(cluster.sinks()) {
  metrics::Registry& reg = cluster.metrics_registry();
  for (int p = 0; p < flight::kNumPhases; p++) {
    phase_ns_[p] = reg.GetHistogram(
        "tx_phase_ns", {{"phase", flight::PhaseName(static_cast<flight::Phase>(p))}});
  }
  for (int r = 0; r < flight::kNumAbortReasons; r++) {
    abort_reason_[r] = reg.GetCounter(
        "tx_abort_reason",
        {{"reason", flight::AbortReasonName(static_cast<flight::AbortReason>(r + 1))}});
  }
}

uint32_t Emitter::Append(SimTime at, flight::EventKind kind, const TxId* id, uint8_t arg,
                         uint32_t detail) {
  flight::Record r{.time_ns = at, .detail = detail, .kind = static_cast<uint8_t>(kind), .arg = arg};
  if (id != nullptr) {
    r.tx_config = static_cast<uint32_t>(id->config);
    r.tx_machine = static_cast<uint16_t>(id->machine);
    r.tx_thread = id->thread;
    r.tx_local = id->local;
    r.flags |= flight::Record::kHasTx;
  }
  return ring_.Append(r);
}

uint32_t Emitter::Emit(Step s, const TxId* id, uint64_t arg, uint8_t record_arg, SimTime since,
                       int thread) {
  const StepRow& row = Row(s);
  if (row.milestone != nullptr) {
    cluster_.NoteMilestone(row.milestone);
  }
  if (trace::Tracer* tracer = sinks_.tracer) {
    uint32_t pid = static_cast<uint32_t>(machine_);
    uint32_t tid = static_cast<uint32_t>(thread);
    if (row.draw == Draw::kInstant) {
      tracer->Instant(pid, tid, row.category, row.name);
    } else if (row.draw == Draw::kComplete) {
      tracer->CompleteSpan(pid, tid, row.category, row.name, since);
    }
  }
  if (row.record.kind != flight::EventKind{}) {
    uint8_t rec_arg = static_cast<uint8_t>(row.record.arg | record_arg);
    return Append(sim_.Now(), row.record.kind, id, rec_arg, static_cast<uint32_t>(arg));
  }
  return row.point != nullptr ? sinks_.HitPoint(machine_, row.point, arg) : fault::kEffectNone;
}

void Emitter::Abort(const TxId& id, flight::AbortReason reason) {
  int r = static_cast<int>(reason);
  if (r <= flight::kNumCountedAbortReasons) {
    abort_reason_[r - 1].Inc();
  }
  Append(sim_.Now(), flight::EventKind::kAbort, &id, static_cast<uint8_t>(reason), 0);
}

void Emitter::PhaseEnd(const TxId& id, flight::Phase phase, SimTime start) {
  phase_ns_[static_cast<int>(phase)].Record(sim_.Now() - start);
  Append(sim_.Now(), flight::EventKind::kPhaseEnd, &id, static_cast<uint8_t>(phase), 0);
}

void Emitter::PhaseSince(const TxId& id, flight::Phase phase, SimTime start) {
  Append(start, flight::EventKind::kPhaseBegin, &id, static_cast<uint8_t>(phase), 0);
  PhaseEnd(id, phase, start);
}

Span::Span(Emitter& emit, Step s, uint64_t n, const TxId& id, int thread)
    : emit_(emit), id_(id), n_(n), start_(emit.sim_.Now()), thread_(thread), step_(s) {
  emit_.Emit(s, id.valid() ? &id_ : nullptr, n, 0, start_, thread_);
  Edge(true);
}

Span::Span(Emitter& emit, const TxId& id, int thread, flight::Phase phase)
    : emit_(emit), id_(id), start_(emit.sim_.Now()), thread_(thread),
      phase_(static_cast<uint8_t>(phase)) {
  Edge(true);
  emit_.Append(start_, flight::EventKind::kPhaseBegin, &id_, phase_, 0);
}

Span::~Span() {
  if (open_) {
    Edge(false);
  }
}

void Span::End() {
  if (phase_ != kNoPhase) {
    emit_.PhaseEnd(id_, static_cast<flight::Phase>(phase_), start_);
  }
  Edge(false);
  open_ = false;
}

void Span::Edge(bool begin) const {
  trace::Tracer* tracer = emit_.sinks_.tracer;
  if (tracer == nullptr) {
    return;
  }
  const StepRow& row = Row(step_);
  const bool phase = phase_ != kNoPhase;
  const char* category = phase ? "tx" : row.category;
  const char* name = phase ? PhaseSpanName(phase_) : row.name;
  std::string id = !phase && row.span_prefix != nullptr ? row.span_prefix + std::to_string(n_)
                                                        : id_.ToString();
  uint32_t pid = static_cast<uint32_t>(emit_.machine_);
  uint32_t tid = static_cast<uint32_t>(thread_);
  if (begin) {
    tracer->BeginSpan(pid, tid, category, name, id);
  } else {
    tracer->EndSpan(pid, tid, category, name, id);
  }
}

}  // namespace farm
