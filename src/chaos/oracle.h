// Invariant oracle for the chaos harness's bank-transfer workload.
//
// The harness records every attempted transfer (committed, aborted, or
// unknown-outcome) with the versions and balances it observed; after the run
// the oracle checks the committed history against the final stored state:
//
//   1. at-most-once commit per TxId;
//   2. money conservation (transfers move balance, never create it);
//   3. per-account version chains: the final stored sequence number S means
//      exactly S writes took effect, every committed write must occupy its
//      claimed slot, and gaps are explainable only by unknown-outcome
//      transfers whose reads link into the chain (an unknown op may have
//      been committed by recovery);
//   4. strict serializability: the per-account chain orders plus real-time
//      precedence (op A committed before op B began => A serializes first)
//      must form an acyclic graph.
//
// Check 3 is what catches torn commit protocols: a coordinator that reports
// commit before its backups are durable produces a committed op whose write
// is missing from the final chain (or two committed ops claiming one slot)
// once a crash forces recovery to the surviving replicas.
#ifndef SRC_CHAOS_ORACLE_H_
#define SRC_CHAOS_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/sim/time.h"

namespace farm {
namespace chaos {

enum class OpOutcome : uint8_t {
  kCommitted = 0,  // Commit() returned OK
  kAborted = 1,    // clean abort (kAborted): took no effect
  kUnknown = 2,    // failure mid-commit: recovery decided the outcome
};

// One account touched by a transfer: the (sequence, balance) observed at
// read time and the balance the transfer wrote. A committed transfer claims
// chain slot seq_read + 1 on this account.
struct AccountAccess {
  int account = 0;
  uint64_t seq_read = 0;
  int64_t bal_read = 0;
  int64_t bal_written = 0;
};

struct TransferOp {
  uint64_t uid = 0;  // harness-assigned, for failure messages
  TxId tx;
  OpOutcome outcome = OpOutcome::kAborted;
  SimTime begin = 0;             // taken before Begin()
  SimTime end = kSimTimeNever;   // taken after Commit() returned OK
  std::vector<AccountAccess> accesses;
};

// Final (sequence, balance) stored at an account, read from the surviving
// primary replica after the run settles.
struct FinalAccount {
  uint64_t seq = 0;
  int64_t balance = 0;
};

// Culprit transactions behind a Check failure. The harness resolves these
// against the flight recorders to append each machine's record-seq window
// for the offending transactions to the failure message.
struct CheckDetail {
  std::vector<TxId> txs;
};

class BankOracle {
 public:
  BankOracle(int accounts, int64_t initial_balance)
      : accounts_(accounts), initial_balance_(initial_balance) {}

  // Records an attempted transfer and returns its index. The harness records
  // ops as kUnknown BEFORE awaiting Commit() -- a coordinator killed
  // mid-commit parks its coroutine forever, and the op must still be in the
  // history for recovery-decided outcomes to be explainable.
  size_t Record(TransferOp op) {
    ops_.push_back(std::move(op));
    return ops_.size() - 1;
  }
  // The TxId is assigned by the coordinator at commit start, so it is only
  // known once Commit() returns; parked ops keep an invalid id (uniqueness
  // is only checked for committed ops).
  void Resolve(size_t index, OpOutcome outcome, SimTime end, const TxId& tx) {
    ops_[index].outcome = outcome;
    ops_[index].end = end;
    ops_[index].tx = tx;
  }

  // Runs all checks; returns false and fills `failure` on the first
  // violation. `final_state` must have one entry per account. `detail`,
  // when non-null, receives the offending TxIds.
  bool Check(const std::vector<FinalAccount>& final_state, std::string* failure,
             CheckDetail* detail = nullptr) const;

  const std::vector<TransferOp>& ops() const { return ops_; }

 private:
  int accounts_;
  int64_t initial_balance_;
  std::vector<TransferOp> ops_;
};

}  // namespace chaos
}  // namespace farm

#endif  // SRC_CHAOS_ORACLE_H_
