// Transaction flight recorder: an always-on, per-machine ring buffer of
// fixed-size POD protocol records.
//
// Every machine keeps the newest ~8k protocol events (tx phase begin/end,
// lock acquire/reject, validation failures, abort reasons, recovery and
// reconfiguration steps, message-level sends/receives) in a preallocated
// ring. Appending is a single 32-byte store plus a counter bump: no
// allocation, no simulator events, no randomness -- the recorder observes
// the execution without perturbing it, so same-seed runs stay byte-identical
// with recording on (the 32-machine trace gate runs with it enabled).
//
// When a chaos run fails, the harness drains every machine's ring into a
// causally merged postmortem -- records sorted by (time, machine, seq) --
// whose text format round-trips through ParseRecordLine and is consumed by
// tools/trace/txdump to reconstruct one transaction's cross-machine
// timeline.
//
// Records must stay trivially copyable and pointer-free (they are retained
// past the lifetime of everything they describe); farmlint's `recorder-pod`
// rule enforces this for any struct named `*Record` in files that include
// this header.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/obs/sinks.h"

namespace farm {
namespace flight {

// What a record describes. `arg` is interpreted per kind: a Phase for
// phase-begin/end, an AbortReason for abort, a RecoveryStep for recovery,
// and a small scalar (service id, reject cause) otherwise.
enum class EventKind : uint8_t {
  kPhaseBegin = 1,     // coordinator: commit phase entered (arg = Phase)
  kPhaseEnd,           // coordinator: commit phase completed (arg = Phase)
  kLockAcquire,        // primary: LOCK record locked all its objects
  kLockReject,         // primary: LOCK rejected (arg: 0 = conflict, 1 = non-member)
  kValidateFail,       // primary: kValidate RPC saw a changed version
  kAbort,              // coordinator: commit gave up (arg = AbortReason)
  kCommitBackupRecord,   // backup: COMMIT-BACKUP record arrived in the log
  kCommitPrimaryRecord,  // primary: COMMIT-PRIMARY applied, writes exposed
  kAbortRecord,        // primary: ABORT record processed, locks released
  kTruncateRecord,     // participant: truncation for a tx processed
  kMsgSend,            // fabric: RPC issued (arg = service, detail = dst)
  kMsgRecv,            // fabric: RPC handler invoked (arg = service, detail = src)
  kRecoveryStep,       // recovery machinery progressed (arg = RecoveryStep)
  kReconfig,           // new configuration installed (detail = config id)
};
constexpr int kNumEventKinds = 14;

// Commit-protocol phases, in paper order (section 4). `execute` is the
// span from transaction begin to Commit(); `truncate` is coordinator-side
// queue-to-dispatch of the lazy truncation.
enum class Phase : uint8_t {
  kExecute = 0,
  kLock,
  kValidate,
  kCommitBackup,
  kCommitPrimary,
  kTruncate,
};
constexpr int kNumPhases = 6;

// Why a commit attempt ended without committing. The first four plus
// kRecoveryAbort are real aborts and move the tx_abort_reason counters;
// the kUnresolved* reasons mirror the tx_unresolved outcome (the
// coordinator could not learn the result) and appear only in flight
// records.
enum class AbortReason : uint8_t {
  kLockConflict = 1,
  kValidateConflict,
  kNoPlacement,
  kLogReservation,
  kRecoveryAbort,
  kUnresolvedLock,
  kUnresolvedBackupAck,
  kUnresolvedBackupFailure,
  kUnresolvedPrimaryAck,
};
constexpr int kNumAbortReasons = 9;
// Reasons [1, kNumCountedAbortReasons] are bona fide aborts. Each
// coordinator outcome is counted once, where the coordinator finishes the
// transaction (Transaction::Finish), so their counters sum exactly to
// tx_aborted_lock + tx_aborted_validate + tx_recovered_abort.
constexpr int kNumCountedAbortReasons = 5;

// Steps of the section-5 recovery/reconfiguration flow (arg of
// kRecoveryStep records).
enum class RecoveryStep : uint8_t {
  kNewConfig = 1,        // NEW-CONFIG installed, regions blocked
  kTxStateStart,         // transaction-state recovery began (logs drained)
  kLockRecovery,         // lock recovery finished for a region (detail)
  kDecideCommit,         // vote coordinator decided commit for a tx
  kDecideAbort,          // vote coordinator decided abort for a tx
  kDecisionApply,        // participant applied a recovery decision
  kTruncateRecovery,     // TRUNCATE-RECOVERY processed for a tx
};
constexpr int kNumRecoverySteps = 7;

const char* EventKindName(EventKind k);
const char* PhaseName(Phase p);
const char* AbortReasonName(AbortReason r);

// One protocol event. Exactly 32 bytes, trivially copyable, pointer-free
// (enforced by the static_asserts below and the farmlint recorder-pod rule).
// The transaction id is stored unpacked (config truncated to 32 bits --
// configurations are small integers) and is only meaningful when the
// kHasTx flag is set.
struct Record {
  static constexpr uint16_t kHasTx = 1 << 0;

  uint64_t time_ns = 0;   // simulated time of the event
  uint64_t tx_local = 0;  // TxId.local
  uint32_t tx_config = 0; // TxId.config (low 32 bits)
  uint32_t detail = 0;    // region / peer machine / config, per kind
  uint16_t tx_machine = 0;  // TxId.machine (coordinator)
  uint16_t tx_thread = 0;   // TxId.thread
  uint8_t kind = 0;       // EventKind
  uint8_t arg = 0;        // per-kind argument (see EventKind)
  uint16_t flags = 0;
};
static_assert(sizeof(Record) == 32, "flight records are fixed 32-byte PODs");
static_assert(std::is_trivially_copyable_v<Record>,
              "flight records must be trivially copyable");

// A record drained from a ring, with its provenance: the machine whose ring
// held it and its per-ring append sequence number. (time, machine, seq) is
// the total merge order of a postmortem.
struct DrainedRecord {
  Record rec;
  uint64_t seq = 0;
  uint32_t machine = 0;
};
static_assert(std::is_trivially_copyable_v<DrainedRecord>);

// Per-machine ring. Single-threaded (the simulation is), fixed capacity,
// overwrites oldest; `dropped()` counts overwritten records so a postmortem
// states what it lost. Every append is also a fault point for the hook
// attached to `sinks` (the owning cluster's; none outside a cluster).
class Recorder {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  explicit Recorder(uint32_t machine, size_t capacity = kDefaultCapacity,
                    const obs::Sinks& sinks = obs::kNoSinks);

  uint32_t Append(const Record& r);  // returns the hook's effect mask

  uint32_t machine() const { return machine_; }
  size_t capacity() const { return ring_.size(); }
  uint64_t appended() const { return appended_; }
  uint64_t dropped() const {
    return appended_ > ring_.size() ? appended_ - ring_.size() : 0;
  }

  // Retained records, oldest to newest, each with its append seq (seq of the
  // i-th ever appended record is i, so seqs stay continuous across wrap).
  std::vector<DrainedRecord> Drain() const;

 private:
  uint32_t machine_;
  const obs::Sinks& sinks_;
  uint64_t appended_ = 0;
  std::vector<Record> ring_;
};

// One line per record:
//   t=<ns> m=<machine> seq=<n> <event> <arg> tx=<c>,<m>,<t>,<l> d=<detail>
// with `tx=-` when the record carries no transaction and the arg rendered
// symbolically (phase / abort-reason / recovery-step name) where the kind
// defines one.
std::string FormatRecord(const DrainedRecord& r);
// Inverse of FormatRecord; returns false on any line that is not a record
// (headers, blank lines, garbage).
bool ParseRecordLine(const std::string& line, DrainedRecord* out);

// Causally merged postmortem of a set of rings: a `farm-flight-postmortem
// v1` header, one `ring ...` summary line per machine (appended/dropped
// counts), then every retained record sorted by (time, machine, seq). Pure
// function of ring contents, so same-seed failing runs produce
// byte-identical postmortems.
std::string BuildPostmortem(const std::vector<const Recorder*>& rings);

// Appends `postmortem` under a `==== flight: <section> ====` header to the
// file at `path`. A Cluster calls this at teardown when
// ClusterOptions::flight_out is set (the bench --flight-out flag).
void AppendDump(const std::string& path, const std::string& postmortem,
                const std::string& section);

}  // namespace flight
}  // namespace farm

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
