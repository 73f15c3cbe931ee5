// Single-machine main-memory OCC engine (Silo/Hekaton stand-in).
//
// The paper compares FaRM against published Hekaton and Silo numbers
// (sections 6.3, 7). To compare shapes under one cost model, this baseline
// implements a Silo-style engine -- per-record versions, read-set
// validation, write locks, and batched logging to local SSD -- running on a
// single simulated machine with the same per-operation CPU costs as FaRM's
// local paths. There is no replication: a failure loses availability, and
// recovery would mean replaying the SSD log (section 7's comparison).
#ifndef SRC_BASELINE_LOCAL_OCC_H_
#define SRC_BASELINE_LOCAL_OCC_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/sim/machine.h"
#include "src/sim/task.h"

namespace farm {

class LocalOccEngine {
 public:
  struct Options {
    int threads = 4;
    bool logging = true;                      // Silo-with-logging vs without
  };
  static constexpr SimDuration kLogFlushInterval = 50 * kMicrosecond;  // group commit epoch
  static constexpr SimDuration kSsdFlushLatency = 100 * kMicrosecond;  // one batched fsync

  LocalOccEngine(Simulator& sim, Machine& machine, Options options);

  // A transaction: read `reads`, then update `writes` (subset semantics are
  // the caller's business; keys identify records). Returns commit success.
  Task<bool> RunTx(int thread, const std::vector<uint64_t>& reads,
                   const std::vector<uint64_t>& writes, uint32_t value_bytes);

  // Pre-populates a record.
  void Seed(uint64_t key, uint32_t value_bytes);

  uint64_t committed() const { return committed_; }
  uint64_t aborted() const { return aborted_; }

 private:
  struct Record {
    uint64_t version = 0;
    bool locked = false;
    std::vector<uint8_t> value;
  };

  // Group commit: transactions wait for the epoch's log flush.
  Future<Unit> JoinLogBatch();
  void FlushBatch();

  Simulator& sim_;
  Machine& machine_;
  Options options_;
  // farmlint: allow(unordered-decl): accessed only via find/insert with keys
  // ordered by the caller's (seeded) access pattern; never iterated.
  std::unordered_map<uint64_t, Record> store_;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  std::vector<Future<Unit>> batch_waiters_;
  bool flush_scheduled_ = false;
};

}  // namespace farm

#endif  // SRC_BASELINE_LOCAL_OCC_H_
