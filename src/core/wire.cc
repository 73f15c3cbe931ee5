#include "src/core/wire.h"

namespace farm {

void WireReader::GetLeaf(SharedBytes& b) {
  const uint32_t len = r_.Get<uint32_t>();
  const size_t off = r_.Skip(len);
  if (owner_ != nullptr) {
    shared_ = SharedBytes(std::move(*owner_));
    owner_ = nullptr;
  }
  b = shared_.Sub(off, len);
}

void WireReader::GetLeaf(WireWrite& w) {
  uint8_t flags = 0;
  (*this)(w.addr, w.expected_version, flags, w.value);
  w.set_alloc = (flags & 1) != 0;
  w.clear_alloc = (flags & 2) != 0;
  w.expected_alloc = (flags & 4) != 0;
}

void WireReader::GetLeaf(Configuration& c) {
  uint32_t members = 0;
  (*this)(c.id, members);
  for (uint32_t i = 0; i < members; i++) {
    MachineId m = 0;
    uint32_t domain = 0;
    (*this)(m, domain);
    c.machines.push_back(m);
    c.failure_domains[m] = static_cast<int>(domain);
  }
  uint32_t regions = 0;
  (*this)(c.cm, c.next_region_id, regions);
  for (uint32_t i = 0; i < regions; i++) {
    RegionId rid = 0;
    (*this)(rid);
    (*this)(c.regions[rid]);
  }
}

}  // namespace farm
