// Core FaRM identifiers and object layout.
//
// The global address space consists of regions (section 3), each replicated
// on one primary and f backups. Objects live at (region, offset) and carry a
// 64-bit header word combining a lock bit, an allocated bit, and a version
// used for optimistic concurrency control.
#ifndef SRC_CORE_TYPES_H_
#define SRC_CORE_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

#include "src/common/hash.h"
#include "src/sim/machine.h"

namespace farm {

using RegionId = uint32_t;
using ConfigId = uint64_t;

constexpr RegionId kInvalidRegion = UINT32_MAX;

// Address of an object (its header word) within the global address space.
struct GlobalAddr {
  RegionId region = kInvalidRegion;
  uint32_t offset = 0;

  bool valid() const { return region != kInvalidRegion; }
  bool operator==(const GlobalAddr& o) const = default;
  auto operator<=>(const GlobalAddr& o) const = default;
  uint64_t Packed() const { return (static_cast<uint64_t>(region) << 32) | offset; }
  static GlobalAddr FromPacked(uint64_t v) {
    return GlobalAddr{static_cast<RegionId>(v >> 32), static_cast<uint32_t>(v)};
  }
  std::string ToString() const {
    return "r" + std::to_string(region) + "+" + std::to_string(offset);
  }
};

// Transaction identifier <c, m, t, l> (section 5.3): the configuration in
// which the commit started, the coordinator machine and thread, and a
// thread-local sequence number.
struct TxId {
  ConfigId config = 0;
  MachineId machine = kInvalidMachine;
  uint16_t thread = 0;
  uint64_t local = 0;

  bool valid() const { return machine != kInvalidMachine; }
  bool operator==(const TxId& o) const = default;
  // Wire order (src/core/wire.h): u64, u32, u16, u64.
  template <class F> void Fields(F&& f) { f(config, machine, thread, local); }
  auto operator<=>(const TxId& o) const = default;

  uint64_t Hash() const {
    return HashCombine(HashCombine(config, machine), HashCombine(thread, local));
  }
  std::string ToString() const {
    return "tx<" + std::to_string(config) + "," + std::to_string(machine) + "," +
           std::to_string(thread) + "," + std::to_string(local) + ">";
  }
};

// The 64-bit object header word.
//
//   bit 63: write lock (taken by LOCK-record processing via CAS)
//   bit 62: allocated (set by allocation, cleared by free; see section 5.5)
//   bits 0..61: version
struct VersionWord {
  static constexpr uint64_t kLockBit = 1ULL << 63;
  static constexpr uint64_t kAllocBit = 1ULL << 62;
  static constexpr uint64_t kVersionMask = kAllocBit - 1;

  static bool IsLocked(uint64_t w) { return (w & kLockBit) != 0; }
  static bool IsAllocated(uint64_t w) { return (w & kAllocBit) != 0; }
  static uint64_t Version(uint64_t w) { return w & kVersionMask; }
  static uint64_t Pack(uint64_t version, bool allocated, bool locked) {
    return (version & kVersionMask) | (allocated ? kAllocBit : 0) | (locked ? kLockBit : 0);
  }
  static uint64_t WithLock(uint64_t w) { return w | kLockBit; }
  static uint64_t WithoutLock(uint64_t w) { return w & ~kLockBit; }
};

constexpr uint32_t kObjectHeaderBytes = 8;

}  // namespace farm

#endif  // SRC_CORE_TYPES_H_
