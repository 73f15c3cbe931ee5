#include "src/nvram/nvram.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/logging.h"

namespace farm {

NvramStore::~NvramStore() {
  for (const Segment& seg : segments_) {
    munmap(seg.data, seg.size);
  }
}

uint64_t NvramStore::Allocate(size_t len) {
  FARM_CHECK(len > 0);
  // Not calloc: once a free has raised glibc's mmap threshold, large
  // callocs come from the heap and are memset, which makes every page
  // resident.
  void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  FARM_CHECK(p != MAP_FAILED) << "mapping " << len << " bytes of NVRAM: " << std::strerror(errno);
  // Fault in 4 KiB at a time whatever the transparent-huge-page setting; a
  // huge page would make a touched byte cost 2 MiB. Advisory only.
  (void)madvise(p, len, MADV_NOHUGEPAGE);
  uint64_t base = next_addr_;
  segments_.push_back(Segment{base, len, static_cast<uint8_t*>(p)});
  uint64_t advance = (len + kAlign - 1) / kAlign * kAlign;
  next_addr_ = base + advance;
  return base;
}

const NvramStore::Segment* NvramStore::Find(uint64_t addr, size_t len) const {
  if (len == 0) {
    return nullptr;
  }
  auto it = std::upper_bound(segments_.begin(), segments_.end(), addr,
                             [](uint64_t a, const Segment& seg) { return a < seg.base; });
  if (it == segments_.begin()) {
    return nullptr;
  }
  --it;
  uint64_t off = addr - it->base;
  if (off >= it->size || len > it->size - off) {
    return nullptr;
  }
  return &*it;
}

uint8_t* NvramStore::Data(uint64_t addr, size_t len) {
  const Segment* seg = Find(addr, len);
  return seg == nullptr ? nullptr : seg->data + (addr - seg->base);
}

const uint8_t* NvramStore::Data(uint64_t addr, size_t len) const {
  return const_cast<NvramStore*>(this)->Data(addr, len);
}

bool NvramStore::RdmaRead(uint64_t addr, size_t len, uint8_t* out) {
  uint8_t* p = Data(addr, len);
  if (p == nullptr) {
    return false;
  }
  std::memcpy(out, p, len);
  return true;
}

bool NvramStore::RdmaWrite(uint64_t addr, const uint8_t* data, size_t len) {
  uint8_t* p = Data(addr, len);
  if (p == nullptr) {
    return false;
  }
  if (torn_armed_) {
    torn_armed_ = false;
    torn_writes_++;
    std::memcpy(p, data, torn_keep_ < len ? torn_keep_ : len);
    return true;
  }
  std::memcpy(p, data, len);
  return true;
}

bool NvramStore::RdmaCas(uint64_t addr, uint64_t expected, uint64_t desired, uint64_t* observed) {
  uint8_t* p = Data(addr, 8);
  if (p == nullptr || (addr & 7) != 0) {
    return false;
  }
  uint64_t current;
  std::memcpy(&current, p, 8);
  *observed = current;
  if (current == expected) {
    std::memcpy(p, &desired, 8);
  }
  return true;
}

}  // namespace farm
