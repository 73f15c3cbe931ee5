// A local replica of a region: a contiguous range of NVRAM holding objects.
//
// Every object starts with an 8-byte header word (lock bit | alloc bit |
// version) followed by its payload. Remote machines read objects with
// one-sided RDMA reads of [header | payload] from the primary and lock them
// with CAS on the header word (section 4).
#ifndef SRC_CORE_REGION_H_
#define SRC_CORE_REGION_H_

#include <cstdint>
#include <cstring>

#include "src/common/logging.h"
#include "src/core/types.h"
#include "src/nvram/nvram.h"

namespace farm {

class RegionReplica {
 public:
  RegionReplica(RegionId id, uint32_t size, uint32_t object_stride, NvramStore* store)
      : id_(id), size_(size), object_stride_(object_stride) {
    base_ = store->Allocate(size);
    data_ = store->Data(base_, size);  // NVRAM segments never move
  }

  RegionId id() const { return id_; }
  uint32_t size() const { return size_; }
  // App-managed regions have a fixed object stride (header + payload);
  // 0 means slab-managed (block headers define object sizes).
  uint32_t object_stride() const { return object_stride_; }
  // NVRAM base address: what remote machines target with one-sided verbs.
  uint64_t base() const { return base_; }

  uint8_t* Ptr(uint32_t offset, uint32_t len) {
    FARM_CHECK(static_cast<uint64_t>(offset) + len <= size_);
    return data_ + offset;
  }
  const uint8_t* Ptr(uint32_t offset, uint32_t len) const {
    return const_cast<RegionReplica*>(this)->Ptr(offset, len);
  }

  uint64_t ReadHeader(uint32_t offset) const {
    uint64_t w;
    std::memcpy(&w, Ptr(offset, 8), 8);
    return w;
  }
  void WriteHeader(uint32_t offset, uint64_t word) { std::memcpy(Ptr(offset, 8), &word, 8); }

  // Local CAS on the header (what LOCK-record processing does).
  bool CasHeader(uint32_t offset, uint64_t expected, uint64_t desired) {
    FARM_CHECK(offset % 8 == 0) << "unaligned header";
    if (ReadHeader(offset) != expected) {
      return false;
    }
    WriteHeader(offset, desired);
    return true;
  }

  void WriteData(uint32_t offset, const uint8_t* data, uint32_t len) {
    if (len > 0) {
      std::memcpy(Ptr(offset + kObjectHeaderBytes, len), data, len);
    }
  }

  // Whether the region is serving (false while lock recovery runs after a
  // primary change; section 5.3 step 1).
  bool active() const { return active_; }
  void set_active(bool a) { active_ = a; }

 private:
  RegionId id_;
  uint32_t size_;
  uint32_t object_stride_;
  uint64_t base_ = 0;
  uint8_t* data_ = nullptr;
  bool active_ = true;
};

}  // namespace farm

#endif  // SRC_CORE_REGION_H_
