#include "src/ds/hashtable.h"

#include <cstring>

namespace farm {

namespace {

uint64_t SlotKey(const std::vector<uint8_t>& bucket, uint32_t slot_bytes, int slot) {
  uint64_t k;
  std::memcpy(&k, bucket.data() + static_cast<size_t>(slot) * slot_bytes, 8);
  return k;
}

std::vector<uint8_t> SlotValue(const std::vector<uint8_t>& bucket, uint32_t slot_bytes,
                               int slot, uint32_t value_size) {
  const uint8_t* p = bucket.data() + static_cast<size_t>(slot) * slot_bytes + 8;
  return std::vector<uint8_t>(p, p + value_size);
}

void SetSlot(std::vector<uint8_t>* bucket, uint32_t slot_bytes, int slot, uint64_t key,
             const std::vector<uint8_t>& value, uint32_t value_size) {
  uint8_t* p = bucket->data() + static_cast<size_t>(slot) * slot_bytes;
  std::memcpy(p, &key, 8);
  std::memset(p + 8, 0, value_size);
  if (!value.empty()) {  // empty vector's data() may be null: UB to memcpy
    std::memcpy(p + 8, value.data(), std::min<size_t>(value.size(), value_size));
  }
}

}  // namespace

Task<StatusOr<HashTable>> HashTable::Create(Node& node, Options options, int thread) {
  HashTable table;
  table.options_ = options;
  uint32_t stride = kObjectHeaderBytes + table.BucketPayload();
  uint32_t region_size = node.options().region_size;
  table.buckets_per_region_ = region_size / stride;
  FARM_CHECK(table.buckets_per_region_ > 0);
  uint64_t nregions =
      (options.buckets + table.buckets_per_region_ - 1) / table.buckets_per_region_;
  // Without an explicit locality hint the table's regions spread over the
  // cluster (the CM balances placement) so load fans out across primaries;
  // TATP relies on this (the paper runs it unpartitioned). Partitioned
  // workloads like TPC-C pass colocate_with to keep a partition together.
  for (uint64_t i = 0; i < nregions; i++) {
    auto rid = co_await node.CreateRegion(region_size, stride, options.colocate_with, thread);
    if (!rid.ok()) {
      co_return rid.status();
    }
    table.regions_.push_back(*rid);
  }
  co_return table;
}

GlobalAddr HashTable::BucketAddr(uint64_t bucket_index) const {
  uint64_t region_idx = bucket_index / buckets_per_region_;
  uint64_t within = bucket_index % buckets_per_region_;
  return GlobalAddr{regions_[region_idx],
                    static_cast<uint32_t>(within * bucket_stride())};
}

HashTable::BucketScan HashTable::ScanBucket(const std::vector<uint8_t>& bucket,
                                            uint64_t key) const {
  BucketScan scan;
  for (int s = 0; s < kSlotsPerBucket; s++) {
    uint64_t k = SlotKey(bucket, SlotBytes(), s);
    if (k == key) {
      scan.match = s;
      break;
    }
    if ((k == kEmptyKey || k == kTombstoneKey) && scan.free < 0) {
      scan.free = s;
    }
    if (k == kEmptyKey) {
      scan.has_empty = true;
    }
  }
  return scan;
}

Task<StatusOr<std::optional<std::vector<uint8_t>>>> HashTable::Lookup(Transaction* tx,
                                                                      Node& node, int thread,
                                                                      uint64_t key) const {
  uint64_t home = HomeBucket(key);
  for (int probe = 0; probe < kMaxProbe; probe++) {
    GlobalAddr addr = ProbeAddr(home, probe);
    // An if/else, not `?:`: see the await-in-conditional rule (DESIGN.md).
    StatusOr<std::vector<uint8_t>> bucket = std::vector<uint8_t>();
    if (tx != nullptr) {
      bucket = co_await tx->Read(addr, BucketPayload());
    } else {
      bucket = co_await node.LockFreeRead(addr, BucketPayload(), thread);
    }
    if (!bucket.ok()) {
      co_return bucket.status();
    }
    BucketScan scan = ScanBucket(*bucket, key);
    if (scan.match >= 0) {
      co_return std::optional<std::vector<uint8_t>>(
          SlotValue(*bucket, SlotBytes(), scan.match, options_.value_size));
    }
    if (scan.has_empty) {
      break;  // the key cannot exist beyond a bucket with an empty slot
    }
  }
  co_return std::optional<std::vector<uint8_t>>(std::nullopt);
}

Task<Status> HashTable::Put(Transaction& tx, uint64_t key, std::vector<uint8_t> value) const {
  FARM_CHECK(key != kEmptyKey && key != kTombstoneKey) << "reserved key";
  uint64_t home = HomeBucket(key);
  // Update in place if present; otherwise insert at the first free slot
  // (empty or tombstone) along the probe path.
  GlobalAddr insert_addr;
  int insert_slot = -1;
  std::vector<uint8_t> insert_bucket;
  for (int probe = 0; probe < kMaxProbe; probe++) {
    GlobalAddr addr = ProbeAddr(home, probe);
    auto bucket = co_await tx.Read(addr, BucketPayload());
    if (!bucket.ok()) {
      co_return bucket.status();
    }
    BucketScan scan = ScanBucket(*bucket, key);
    if (scan.match >= 0) {
      SetSlot(&*bucket, SlotBytes(), scan.match, key, value, options_.value_size);
      co_return tx.Write(addr, std::move(*bucket));
    }
    if (scan.free >= 0 && insert_slot < 0) {
      insert_addr = addr;
      insert_slot = scan.free;
      insert_bucket = std::move(*bucket);
    }
    if (scan.has_empty) {
      break;
    }
  }
  if (insert_slot < 0) {
    co_return Status(StatusCode::kResourceExhausted, "hash table probe chain full");
  }
  SetSlot(&insert_bucket, SlotBytes(), insert_slot, key, value, options_.value_size);
  co_return tx.Write(insert_addr, std::move(insert_bucket));
}

Task<Status> HashTable::Remove(Transaction& tx, uint64_t key) const {
  uint64_t home = HomeBucket(key);
  for (int probe = 0; probe < kMaxProbe; probe++) {
    GlobalAddr addr = ProbeAddr(home, probe);
    auto bucket = co_await tx.Read(addr, BucketPayload());
    if (!bucket.ok()) {
      co_return bucket.status();
    }
    BucketScan scan = ScanBucket(*bucket, key);
    if (scan.match >= 0) {
      SetSlot(&*bucket, SlotBytes(), scan.match, kTombstoneKey, {}, options_.value_size);
      co_return tx.Write(addr, std::move(*bucket));
    }
    if (scan.has_empty) {
      break;
    }
  }
  co_return NotFoundStatus("key not in table");
}

}  // namespace farm
