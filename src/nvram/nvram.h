// Non-volatile DRAM store.
//
// Each machine owns one NvramStore holding all its RDMA-registered memory:
// region replicas, transaction logs, and message queues. The store exposes a
// flat 64-bit address space (addresses are what remote machines use in
// one-sided verbs) plus direct pointers for local access.
//
// Memory: each range is its own private anonymous mapping, so it reads as
// zero and is backed by the kernel's shared zero page until written; only
// the 4 KiB pages a run writes become resident. Regions and ring logs are
// sized for the worst case and mostly never touched, so a cluster holds
// what it uses, not what it reserves. A range never moves, so pointers from
// Data() stay valid for the store's lifetime.
//
// Bounds: Find() rejects any access that does not lie inside one range
// (Data() returns nullptr and the verbs fail, which is the NIC's protection
// error). Local accesses through cached pointers are checked by their
// owners: RegionReplica::Ptr against the region size and RingReceiver::At
// against the ring capacity. There are no guard pages between ranges.
//
// Non-volatility: the store object is owned by the test/bench harness, not
// by the simulated Machine, so its contents survive Machine::Reboot() --
// modeling the distributed-UPS save/restore path of section 2.1. A Kill()ed
// machine never rejoins, so its NVRAM is simply unreachable.
#ifndef SRC_NVRAM_NVRAM_H_
#define SRC_NVRAM_NVRAM_H_

#include <cstdint>
#include <vector>

#include "src/net/rdma_memory.h"

namespace farm {

class NvramStore : public RdmaMemory {
 public:
  NvramStore() = default;
  ~NvramStore() override;
  NvramStore(const NvramStore&) = delete;
  NvramStore& operator=(const NvramStore&) = delete;

  // Allocates a zeroed, registered range; returns its base address.
  // Ranges are never recycled (region placement changes allocate anew).
  uint64_t Allocate(size_t len);

  // Direct pointer for local CPU access. The range must lie inside one
  // allocation. Returns nullptr if unregistered.
  uint8_t* Data(uint64_t addr, size_t len);
  const uint8_t* Data(uint64_t addr, size_t len) const;

  // RdmaMemory implementation (what the simulated NIC executes).
  bool RdmaRead(uint64_t addr, size_t len, uint8_t* out) override;
  bool RdmaWrite(uint64_t addr, const uint8_t* data, size_t len) override;
  bool RdmaCas(uint64_t addr, uint64_t expected, uint64_t desired, uint64_t* observed) override;

  // ---- torn-write injection (chaos) ----
  // Arms a one-shot torn write: the NEXT RdmaWrite persists only its first
  // min(keep_bytes, len) bytes and then disarms, modeling power loss or a
  // crash cutting a DMA short. The write still reports success -- NVRAM has
  // no idea it is missing the suffix; detecting the tear is the log
  // format's job (per-frame checksums in src/core/ringlog).
  void ArmTornWrite(uint32_t keep_bytes) {
    torn_armed_ = true;
    torn_keep_ = keep_bytes;
  }
  bool torn_armed() const { return torn_armed_; }
  uint64_t torn_writes() const { return torn_writes_; }

 private:
  struct Segment {
    uint64_t base;  // simulated address
    size_t size;
    uint8_t* data;  // the mapping; never moves
  };

  // Finds the segment containing [addr, addr+len), or nullptr.
  const Segment* Find(uint64_t addr, size_t len) const;

  static constexpr uint64_t kBaseAddr = 0x1000;  // 0 stays invalid
  static constexpr uint64_t kAlign = 64;

  uint64_t next_addr_ = kBaseAddr;
  // In increasing base order (Allocate appends); non-overlapping.
  std::vector<Segment> segments_;

  bool torn_armed_ = false;
  uint32_t torn_keep_ = 0;
  uint64_t torn_writes_ = 0;
};

}  // namespace farm

#endif  // SRC_NVRAM_NVRAM_H_
