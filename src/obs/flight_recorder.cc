#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace farm {
namespace flight {

namespace {

const char* const kEventKindNames[kNumEventKinds] = {
    "phase-begin",    "phase-end",      "lock-acquire",  "lock-reject",
    "validate-fail",  "abort",          "commit-backup", "commit-primary",
    "abort-record",   "truncate",       "msg-send",      "msg-recv",
    "recovery",       "reconfig",
};

const char* const kPhaseNames[kNumPhases] = {
    "execute", "lock", "validate", "commit_backup", "commit_primary", "truncate",
};

const char* const kAbortReasonNames[kNumAbortReasons] = {
    "lock_conflict",        "validate_conflict",
    "no_placement",         "log_reservation",
    "recovery_abort",       "unresolved_lock",
    "unresolved_backup_ack", "unresolved_backup_failure",
    "unresolved_primary_ack",
};

const char* const kRecoveryStepNames[kNumRecoverySteps] = {
    "new-config",   "tx-state-start",    "lock-recovery",     "decide-commit",
    "decide-abort", "decision-apply",    "truncate-recovery",
};

// The symbolic names of a kind's arg: names[i] names arg `first + i`.
// Kinds whose arg is a plain scalar have none.
struct ArgNames {
  const char* const* names = nullptr;
  int count = 0;
  int first = 0;
};

ArgNames ArgNamesOf(uint8_t kind) {
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kPhaseBegin:
    case EventKind::kPhaseEnd:
      return {kPhaseNames, kNumPhases, 0};
    case EventKind::kAbort:
      return {kAbortReasonNames, kNumAbortReasons, 1};
    case EventKind::kRecoveryStep:
      return {kRecoveryStepNames, kNumRecoverySteps, 1};
    default:
      return {};
  }
}

// Renders `arg` the way FormatRecord does for `kind`: a symbolic name where
// the kind defines one, the raw number otherwise.
std::string ArgText(uint8_t kind, uint8_t arg) {
  ArgNames n = ArgNamesOf(kind);
  int i = arg - n.first;
  return i >= 0 && i < n.count ? n.names[i] : std::to_string(arg);
}

// Inverse of ArgText: resolves a symbolic or numeric arg for `kind`.
bool ParseArg(uint8_t kind, const std::string& text, uint8_t* out) {
  ArgNames n = ArgNamesOf(kind);
  for (int i = 0; i < n.count; i++) {
    if (text == n.names[i]) {
      *out = static_cast<uint8_t>(n.first + i);
      return true;
    }
  }
  char* end = nullptr;
  unsigned long v = std::strtoul(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v > 255) {
    return false;
  }
  *out = static_cast<uint8_t>(v);
  return true;
}

// The fault point a record is (see src/obs/fault_hook.h): the event-kind
// name, qualified with the arg's name where it selects a sub-site
// ("phase-begin:lock", "recovery:new-config"; an abort is one site whatever
// its reason). The names are interned, built once from the tables above.
const char* PointName(EventKind k, uint8_t arg) {
  static const auto kPoints = [] {
    std::array<std::vector<std::string>, kNumEventKinds + 1> points;
    for (int kind = 1; kind <= kNumEventKinds; kind++) {
      ArgNames n = ArgNamesOf(static_cast<uint8_t>(kind));
      for (int i = 0; i < n.count && kind != static_cast<int>(EventKind::kAbort); i++) {
        points[kind].push_back(std::string(kEventKindNames[kind - 1]) + ":" + n.names[i]);
      }
    }
    return points;
  }();
  int kind = static_cast<int>(k);
  if (kind >= 1 && kind <= kNumEventKinds) {
    int i = arg - ArgNamesOf(static_cast<uint8_t>(kind)).first;
    if (i >= 0 && i < static_cast<int>(kPoints[kind].size())) {
      return kPoints[kind][i].c_str();
    }
  }
  return EventKindName(k);
}

}  // namespace

const char* EventKindName(EventKind k) {
  int i = static_cast<int>(k);
  return (i >= 1 && i <= kNumEventKinds) ? kEventKindNames[i - 1] : "?";
}

const char* PhaseName(Phase p) {
  int i = static_cast<int>(p);
  return (i >= 0 && i < kNumPhases) ? kPhaseNames[i] : "?";
}

const char* AbortReasonName(AbortReason r) {
  int i = static_cast<int>(r);
  return (i >= 1 && i <= kNumAbortReasons) ? kAbortReasonNames[i - 1] : "?";
}

Recorder::Recorder(uint32_t machine, size_t capacity, const obs::Sinks& sinks)
    : machine_(machine), sinks_(sinks), ring_(capacity > 0 ? capacity : 1) {}

uint32_t Recorder::Append(const Record& r) {
  ring_[appended_ % ring_.size()] = r;
  appended_++;
  if (sinks_.hook == nullptr) {
    return fault::kEffectNone;
  }
  return sinks_.HitPoint(machine_, PointName(static_cast<EventKind>(r.kind), r.arg), r.detail);
}

std::vector<DrainedRecord> Recorder::Drain() const {
  std::vector<DrainedRecord> out;
  uint64_t retained = appended_ < ring_.size() ? appended_ : ring_.size();
  out.reserve(retained);
  for (uint64_t seq = appended_ - retained; seq < appended_; seq++) {
    DrainedRecord d;
    d.rec = ring_[seq % ring_.size()];
    d.seq = seq;
    d.machine = machine_;
    out.push_back(d);
  }
  return out;
}

std::string FormatRecord(const DrainedRecord& r) {
  char buf[160];
  std::string tx = "-";
  if (r.rec.flags & Record::kHasTx) {
    std::snprintf(buf, sizeof(buf), "%u,%u,%u,%" PRIu64,
                  r.rec.tx_config, static_cast<uint32_t>(r.rec.tx_machine),
                  static_cast<uint32_t>(r.rec.tx_thread), r.rec.tx_local);
    tx = buf;
  }
  std::snprintf(buf, sizeof(buf), "t=%" PRIu64 " m=%u seq=%" PRIu64 " %s %s tx=%s d=%u",
                r.rec.time_ns, r.machine, r.seq, EventKindName(static_cast<EventKind>(r.rec.kind)),
                ArgText(r.rec.kind, r.rec.arg).c_str(), tx.c_str(), r.rec.detail);
  return buf;
}

bool ParseRecordLine(const std::string& line, DrainedRecord* out) {
  // Tokenize on single spaces; the format is fixed-field.
  std::vector<std::string> f;
  for (size_t pos = 0, sp = 0; pos < line.size(); pos = sp + 1) {
    sp = std::min(line.find(' ', pos), line.size());
    if (sp > pos) {
      f.push_back(line.substr(pos, sp - pos));
    }
  }
  if (f.size() != 7 || f[0].rfind("t=", 0) != 0 || f[1].rfind("m=", 0) != 0 ||
      f[2].rfind("seq=", 0) != 0 || f[5].rfind("tx=", 0) != 0 || f[6].rfind("d=", 0) != 0) {
    return false;
  }
  DrainedRecord d;
  char* end = nullptr;
  d.rec.time_ns = std::strtoull(f[0].c_str() + 2, &end, 10);
  if (*end != '\0') {
    return false;
  }
  d.machine = static_cast<uint32_t>(std::strtoul(f[1].c_str() + 2, &end, 10));
  if (*end != '\0') {
    return false;
  }
  d.seq = std::strtoull(f[2].c_str() + 4, &end, 10);
  if (*end != '\0') {
    return false;
  }
  int kind = 0;
  for (int i = 1; i <= kNumEventKinds; i++) {
    if (f[3] == kEventKindNames[i - 1]) {
      kind = i;
      break;
    }
  }
  if (kind == 0) {
    return false;
  }
  d.rec.kind = static_cast<uint8_t>(kind);
  if (!ParseArg(d.rec.kind, f[4], &d.rec.arg)) {
    return false;
  }
  std::string tx = f[5].substr(3);
  if (tx != "-") {
    unsigned long long c = 0, m = 0, t = 0, l = 0;
    if (std::sscanf(tx.c_str(), "%llu,%llu,%llu,%llu", &c, &m, &t, &l) != 4) {
      return false;
    }
    d.rec.tx_config = static_cast<uint32_t>(c);
    d.rec.tx_machine = static_cast<uint16_t>(m);
    d.rec.tx_thread = static_cast<uint16_t>(t);
    d.rec.tx_local = l;
    d.rec.flags |= Record::kHasTx;
  }
  d.rec.detail = static_cast<uint32_t>(std::strtoul(f[6].c_str() + 2, &end, 10));
  if (*end != '\0') {
    return false;
  }
  *out = d;
  return true;
}

std::string BuildPostmortem(const std::vector<const Recorder*>& rings) {
  std::vector<DrainedRecord> all;
  std::string out = "farm-flight-postmortem v1\n";
  out += "rings=" + std::to_string(rings.size()) + "\n";
  for (const Recorder* r : rings) {
    if (r == nullptr) {
      continue;
    }
    out += "ring m=" + std::to_string(r->machine()) +
           " appended=" + std::to_string(r->appended()) +
           " dropped=" + std::to_string(r->dropped()) + "\n";
    std::vector<DrainedRecord> drained = r->Drain();
    all.insert(all.end(), drained.begin(), drained.end());
  }
  std::sort(all.begin(), all.end(), [](const DrainedRecord& a, const DrainedRecord& b) {
    if (a.rec.time_ns != b.rec.time_ns) {
      return a.rec.time_ns < b.rec.time_ns;
    }
    if (a.machine != b.machine) {
      return a.machine < b.machine;
    }
    return a.seq < b.seq;
  });
  out += "records=" + std::to_string(all.size()) + "\n";
  for (const DrainedRecord& d : all) {
    out += FormatRecord(d);
    out += "\n";
  }
  return out;
}

void AppendDump(const std::string& path, const std::string& postmortem,
                const std::string& section) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return;
  }
  std::string header = "==== flight: " + section + " ====\n";
  std::fwrite(header.data(), 1, header.size(), f);
  std::fwrite(postmortem.data(), 1, postmortem.size(), f);
  std::fclose(f);
}

}  // namespace flight
}  // namespace farm
