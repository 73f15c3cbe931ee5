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

Task<StatusOr<std::optional<std::vector<uint8_t>>>> HashTable::Get(Transaction& tx,
                                                                   uint64_t key) const {
  uint32_t slot_bytes = SlotBytes();
  uint64_t home = HomeBucket(key);
  for (int probe = 0; probe < kMaxProbe; probe++) {
    GlobalAddr addr = BucketAddr((home + static_cast<uint64_t>(probe)) % options_.buckets);
    auto bucket = co_await tx.Read(addr, BucketPayload());
    if (!bucket.ok()) {
      co_return bucket.status();
    }
    bool has_empty = false;
    for (int s = 0; s < kSlotsPerBucket; s++) {
      uint64_t k = SlotKey(*bucket, slot_bytes, s);
      if (k == key) {
        co_return std::optional<std::vector<uint8_t>>(
            SlotValue(*bucket, slot_bytes, s, options_.value_size));
      }
      if (k == kEmptyKey) {
        has_empty = true;
      }
    }
    if (has_empty) {
      co_return std::optional<std::vector<uint8_t>>(std::nullopt);
    }
  }
  co_return std::optional<std::vector<uint8_t>>(std::nullopt);
}

Task<Status> HashTable::Put(Transaction& tx, uint64_t key, std::vector<uint8_t> value) const {
  FARM_CHECK(key != kEmptyKey && key != kTombstoneKey) << "reserved key";
  uint32_t slot_bytes = SlotBytes();
  uint64_t home = HomeBucket(key);
  // First pass: update in place if present; remember the first insertable
  // slot (empty or tombstone) along the probe path.
  GlobalAddr insert_addr;
  int insert_slot = -1;
  std::vector<uint8_t> insert_bucket;
  for (int probe = 0; probe < kMaxProbe; probe++) {
    GlobalAddr addr = BucketAddr((home + static_cast<uint64_t>(probe)) % options_.buckets);
    auto bucket = co_await tx.Read(addr, BucketPayload());
    if (!bucket.ok()) {
      co_return bucket.status();
    }
    bool has_empty = false;
    for (int s = 0; s < kSlotsPerBucket; s++) {
      uint64_t k = SlotKey(*bucket, slot_bytes, s);
      if (k == key) {
        // Update in place.
        std::vector<uint8_t> updated = *bucket;
        SetSlot(&updated, slot_bytes, s, key, value, options_.value_size);
        co_return tx.Write(addr, std::move(updated));
      }
      if ((k == kEmptyKey || k == kTombstoneKey) && insert_slot < 0) {
        insert_addr = addr;
        insert_slot = s;
        insert_bucket = *bucket;
      }
      if (k == kEmptyKey) {
        has_empty = true;
      }
    }
    if (has_empty) {
      break;  // the key cannot exist beyond a bucket with an empty slot
    }
  }
  if (insert_slot < 0) {
    co_return Status(StatusCode::kResourceExhausted, "hash table probe chain full");
  }
  SetSlot(&insert_bucket, slot_bytes, insert_slot, key, value, options_.value_size);
  co_return tx.Write(insert_addr, std::move(insert_bucket));
}

Task<Status> HashTable::Remove(Transaction& tx, uint64_t key) const {
  uint32_t slot_bytes = SlotBytes();
  uint64_t home = HomeBucket(key);
  for (int probe = 0; probe < kMaxProbe; probe++) {
    GlobalAddr addr = BucketAddr((home + static_cast<uint64_t>(probe)) % options_.buckets);
    auto bucket = co_await tx.Read(addr, BucketPayload());
    if (!bucket.ok()) {
      co_return bucket.status();
    }
    bool has_empty = false;
    for (int s = 0; s < kSlotsPerBucket; s++) {
      uint64_t k = SlotKey(*bucket, slot_bytes, s);
      if (k == key) {
        std::vector<uint8_t> updated = *bucket;
        SetSlot(&updated, slot_bytes, s, kTombstoneKey, {}, options_.value_size);
        co_return tx.Write(addr, std::move(updated));
      }
      if (k == kEmptyKey) {
        has_empty = true;
      }
    }
    if (has_empty) {
      break;
    }
  }
  co_return NotFoundStatus("key not in table");
}

Task<StatusOr<std::optional<std::vector<uint8_t>>>> HashTable::LockFreeGet(Node& node,
                                                                           uint64_t key,
                                                                           int thread) const {
  uint32_t slot_bytes = SlotBytes();
  uint64_t home = HomeBucket(key);
  for (int probe = 0; probe < kMaxProbe; probe++) {
    GlobalAddr addr = BucketAddr((home + static_cast<uint64_t>(probe)) % options_.buckets);
    auto bucket = co_await node.LockFreeRead(addr, BucketPayload(), thread);
    if (!bucket.ok()) {
      co_return bucket.status();
    }
    bool has_empty = false;
    for (int s = 0; s < kSlotsPerBucket; s++) {
      uint64_t k = SlotKey(*bucket, slot_bytes, s);
      if (k == key) {
        co_return std::optional<std::vector<uint8_t>>(
            SlotValue(*bucket, slot_bytes, s, options_.value_size));
      }
      if (k == kEmptyKey) {
        has_empty = true;
      }
    }
    if (has_empty) {
      co_return std::optional<std::vector<uint8_t>>(std::nullopt);
    }
  }
  co_return std::optional<std::vector<uint8_t>>(std::nullopt);
}

}  // namespace farm
