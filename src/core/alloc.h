// Slab allocator for objects inside a region (sections 3 and 5.5).
//
// Regions are split into blocks used as slabs for one object size class.
// Block headers (the object size of each block) are replicated to backups
// when a block is first formatted; slab free lists live only at the primary
// and are rebuilt after a failure by scanning the alloc bits of object
// headers (paced, 100 objects at a time).
#ifndef SRC_CORE_ALLOC_H_
#define SRC_CORE_ALLOC_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/core/region.h"
#include "src/core/types.h"

namespace farm {

class RegionAllocator {
 public:
  struct Slot {
    GlobalAddr addr;
    uint64_t header_word = 0;  // current (unallocated) header, for the CAS
    template <class F> void Fields(F&& f) { f(addr, header_word); }
  };

  struct BlockHeader {
    uint32_t block_index = 0;
    uint32_t slot_payload = 0;  // object payload capacity of this block's slots
    template <class F> void Fields(F&& f) { f(block_index, slot_payload); }
  };

  RegionAllocator(RegionReplica* region, uint32_t block_size);

  // Reserves a free slot able to hold `payload_size` bytes. The slot leaves
  // the free list immediately; the allocation becomes durable when the
  // transaction commits (alloc bit set via the write). Release() undoes a
  // reservation for an aborted transaction.
  StatusOr<Slot> Reserve(uint32_t payload_size);
  void Release(GlobalAddr addr);

  // A committed free: the alloc bit was cleared; the slot becomes reusable.
  // While free lists are being recovered, frees are queued (section 5.5).
  void OnFreeCommitted(GlobalAddr addr);

  // Block header replication: Reserve() may format a new block; the caller
  // (the primary node) ships pending headers to backups.
  std::vector<BlockHeader> TakePendingBlockHeaders();
  // Installs a replicated header (at backups, and at a promoted primary).
  void InstallBlockHeader(const BlockHeader& h);
  const std::vector<uint32_t>& block_slot_payloads() const { return block_payload_; }

  // Object payload size at addr (0 if the block is unformatted).
  uint32_t PayloadSizeAt(uint32_t offset) const;

  // --- free-list recovery (after promotion to primary) ---
  // Drops free lists and enters recovering mode: Reserve() fails with
  // kResourceExhausted for unscanned blocks and frees are queued.
  void StartFreeListRecovery();
  bool recovering() const { return recovering_; }
  // Scans up to `max_objects` object headers, rebuilding free lists; returns
  // the number scanned (0 when the scan is complete, which also drains the
  // queued frees and leaves recovering mode).
  int RecoveryScanStep(int max_objects);

  uint32_t block_size() const { return block_size_; }
  size_t FreeSlots() const;

 private:
  static constexpr uint32_t kMinPayload = 16;
  static constexpr uint32_t kMaxPayload = 8192;

  static uint32_t ClassPayload(uint32_t payload_size);
  uint32_t SlotBytes(uint32_t class_payload) const { return class_payload + kObjectHeaderBytes; }
  int ClassIndex(uint32_t class_payload) const;

  // Formats the next unused block for the given class; returns false if the
  // region is full.
  bool FormatBlock(uint32_t class_payload);

  RegionReplica* region_;
  uint32_t block_size_;
  uint32_t num_blocks_;
  std::vector<uint32_t> block_payload_;          // 0 = unformatted
  std::vector<std::vector<GlobalAddr>> free_;    // per class
  std::vector<BlockHeader> pending_headers_;
  uint32_t next_unformatted_ = 0;

  bool recovering_ = false;
  uint32_t scan_block_ = 0;
  uint32_t scan_slot_ = 0;
  std::deque<GlobalAddr> queued_frees_;
};

}  // namespace farm

#endif  // SRC_CORE_ALLOC_H_
