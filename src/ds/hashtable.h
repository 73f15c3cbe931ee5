// FaRM hash table (section 6.2; design from the NSDI'14 paper).
//
// A fixed array of multi-slot buckets laid out over app-managed regions
// (fixed object stride), probed with bounded linear probing. Single-row
// lookups use lock-free reads and usually complete with one one-sided RDMA
// read; updates run inside the caller's transaction so they get the full
// commit protocol.
//
// Bucket object payload: kSlotsPerBucket x [key u64 | value bytes].
// key 0 = empty slot (never probe past a bucket with an empty slot),
// key 2^64-1 = tombstone (reusable by inserts, skipped by lookups).
#ifndef SRC_DS_HASHTABLE_H_
#define SRC_DS_HASHTABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/node.h"
#include "src/core/tx.h"

namespace farm {

class HashTable {
 public:
  struct Options {
    uint64_t buckets = 1024;
    uint32_t value_size = 32;
    RegionId colocate_with = kInvalidRegion;  // locality hint for placement
  };

  // Allocates the bucket regions (via the CM) and returns the table handle.
  // The handle is a plain value: share it with every machine that uses the
  // table (applications exchange it out of band).
  static Task<StatusOr<HashTable>> Create(Node& node, Options options, int thread);

  HashTable() = default;

  // --- transactional operations (run inside the caller's transaction) ---
  Task<StatusOr<std::optional<std::vector<uint8_t>>>> Get(Transaction& tx, uint64_t key) const {
    return Lookup(&tx, *tx.node(), tx.thread(), key);
  }
  Task<Status> Put(Transaction& tx, uint64_t key, std::vector<uint8_t> value) const;
  // kNotFound if absent.
  Task<Status> Remove(Transaction& tx, uint64_t key) const;

  // --- optimized single-row lookup (lock-free read, section 3) ---
  Task<StatusOr<std::optional<std::vector<uint8_t>>>> LockFreeGet(Node& node, uint64_t key,
                                                                  int thread) const {
    return Lookup(nullptr, node, thread, key);
  }

  const Options& options() const { return options_; }
  const std::vector<RegionId>& regions() const { return regions_; }
  uint32_t bucket_stride() const { return kObjectHeaderBytes + BucketPayload(); }
  // Address of a key's home bucket (e.g. to find its primary machine for
  // function shipping).
  GlobalAddr KeyBucketAddr(uint64_t key) const { return BucketAddr(HomeBucket(key)); }

  // Each bucket holds kSlotsPerBucket keys; a key lives in one of the
  // kMaxProbe buckets from its home bucket on.
  static constexpr int kSlotsPerBucket = 4;
  static constexpr int kMaxProbe = 8;

  // Keys must avoid the two sentinels.
  static constexpr uint64_t kEmptyKey = 0;
  static constexpr uint64_t kTombstoneKey = UINT64_MAX;

 private:
  // One bucket's slots as seen by a probe for `key`.
  struct BucketScan {
    int match = -1;          // slot holding the key
    int free = -1;           // first empty or tombstone slot
    bool has_empty = false;  // probing stops at this bucket
  };
  BucketScan ScanBucket(const std::vector<uint8_t>& bucket, uint64_t key) const;

  // The probe behind Get (through tx->Read) and LockFreeGet (tx == nullptr,
  // through node.LockFreeRead).
  Task<StatusOr<std::optional<std::vector<uint8_t>>>> Lookup(Transaction* tx, Node& node,
                                                             int thread, uint64_t key) const;

  uint32_t SlotBytes() const { return 8 + options_.value_size; }
  uint32_t BucketPayload() const {
    return static_cast<uint32_t>(kSlotsPerBucket) * SlotBytes();
  }
  GlobalAddr BucketAddr(uint64_t bucket_index) const;
  // Address of the `probe`-th bucket on the probe path from `home`.
  GlobalAddr ProbeAddr(uint64_t home, int probe) const {
    return BucketAddr((home + static_cast<uint64_t>(probe)) % options_.buckets);
  }
  uint64_t HomeBucket(uint64_t key) const { return Mix64(key) % options_.buckets; }

  Options options_;
  std::vector<RegionId> regions_;
  uint64_t buckets_per_region_ = 0;
};

}  // namespace farm

#endif  // SRC_DS_HASHTABLE_H_
