// Key-value lookup workload (section 6.3 "read performance"): uniform
// random lookups of small values served by lock-free reads.
#ifndef SRC_WORKLOAD_KV_H_
#define SRC_WORKLOAD_KV_H_

#include "src/ds/hashtable.h"
#include "src/workload/driver.h"

namespace farm {

struct KvOptions {
  uint64_t keys = 100000;
};

class KvDb {
 public:
  static Task<StatusOr<KvDb>> Create(Cluster& cluster, KvOptions options);

  // Uniform lock-free lookups.
  WorkloadFn MakeWorkload() const;

  const HashTable& table() const { return table_; }
  const KvOptions& options() const { return options_; }

 private:
  KvOptions options_;
  HashTable table_;
};

}  // namespace farm

#endif  // SRC_WORKLOAD_KV_H_
