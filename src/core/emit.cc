#include "src/core/emit.h"

namespace farm {

namespace {

// Trace span names of the commit phases (hyphenated, as Perfetto shows them).
const char* const kPhaseSpanNames[flight::kNumPhases] = {
    "execute", "lock", "validate", "commit-backup", "commit-primary", "truncate",
};

}  // namespace

Emitter::Emitter(const Simulator& sim, MachineId machine, flight::Recorder& ring,
                 const obs::Sinks& sinks, metrics::Registry& reg)
    : sim_(sim), machine_(machine), ring_(ring), sinks_(sinks) {
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

void Emitter::Append(SimTime at, flight::EventKind kind, const TxId* id, uint8_t arg,
                     uint32_t detail, const char* instant) {
  if (instant != nullptr && sinks_.tracer != nullptr) {
    sinks_.tracer->Instant(static_cast<uint32_t>(machine_), 0,
                           kind == flight::EventKind::kRecoveryStep ? "recovery" : "tx", instant);
  }
  flight::Record r;
  r.time_ns = at;
  r.kind = static_cast<uint8_t>(kind);
  r.arg = arg;
  r.detail = detail;
  if (id != nullptr) {
    r.tx_config = static_cast<uint32_t>(id->config);
    r.tx_machine = static_cast<uint16_t>(id->machine);
    r.tx_thread = id->thread;
    r.tx_local = id->local;
    r.flags |= flight::Record::kHasTx;
  }
  ring_.Append(r);
}

void Emitter::Step(flight::EventKind kind, uint8_t arg, uint32_t detail, const char* instant) {
  Append(sim_.Now(), kind, nullptr, arg, detail, instant);
}

void Emitter::TxStep(const TxId& id, flight::EventKind kind, uint8_t arg, uint32_t detail,
                     const char* instant) {
  Append(sim_.Now(), kind, &id, arg, detail, instant);
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

void Emitter::Span(bool begin, const TxId& id, int thread, const char* name) {
  trace::Tracer* tracer = sinks_.tracer;
  if (tracer == nullptr) {
    return;
  }
  uint32_t pid = static_cast<uint32_t>(machine_);
  uint32_t tid = static_cast<uint32_t>(thread);
  if (begin) {
    tracer->BeginSpan(pid, tid, "tx", name, id.ToString());
  } else {
    tracer->EndSpan(pid, tid, "tx", name, id.ToString());
  }
}

TxSpan::TxSpan(Emitter& emit, const TxId& id, int thread, const char* name)
    : emit_(emit), id_(id), start_(emit.sim_.Now()), name_(name), thread_(thread),
      phase_(kNoPhase) {
  emit_.Span(true, id_, thread_, name_);
}

TxSpan::TxSpan(Emitter& emit, const TxId& id, int thread, flight::Phase phase)
    : emit_(emit), id_(id), start_(emit.sim_.Now()),
      name_(kPhaseSpanNames[static_cast<int>(phase)]), thread_(thread),
      phase_(static_cast<uint8_t>(phase)) {
  emit_.Span(true, id_, thread_, name_);
  emit_.Append(start_, flight::EventKind::kPhaseBegin, &id_, phase_, 0);
}

TxSpan::~TxSpan() {
  if (open_) {
    emit_.Span(false, id_, thread_, name_);
  }
}

void TxSpan::End() {
  if (phase_ != kNoPhase) {
    emit_.PhaseEnd(id_, static_cast<flight::Phase>(phase_), start_);
  }
  emit_.Span(false, id_, thread_, name_);
  open_ = false;
}

}  // namespace farm
