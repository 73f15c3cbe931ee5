// FaRM configurations (section 3): <i, S, F, CM> plus region placements.
//
// A configuration is the unit of agreement in Vertical Paxos: the CM stores
// it in the coordination service with an atomic CAS, then pushes it to all
// members in NEW-CONFIG. Region placements carry LastPrimaryChange /
// LastReplicaChange, which transaction-state recovery uses to identify
// recovering transactions (section 5.3, step 3).
#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/serde.h"
#include "src/core/types.h"

namespace farm {

// Placement of one region: primary + f backups.
struct RegionPlacement {
  MachineId primary = kInvalidMachine;
  std::vector<MachineId> backups;
  uint32_t size = 0;
  // Configuration ids of the last primary / any-replica change.
  ConfigId last_primary_change = 0;
  ConfigId last_replica_change = 0;
  // Locality constraint: co-locate with this region (section 3).
  RegionId colocate_with = kInvalidRegion;
  // App-managed fixed object stride (0 = slab-managed); see Node::CreateRegion.
  uint32_t object_stride = 0;

  std::vector<MachineId> Replicas() const {
    std::vector<MachineId> r;
    r.reserve(backups.size() + 1);
    r.push_back(primary);
    for (MachineId b : backups) {
      r.push_back(b);
    }
    return r;
  }

  bool Contains(MachineId m) const {
    if (primary == m) {
      return true;
    }
    for (MachineId b : backups) {
      if (b == m) {
        return true;
      }
    }
    return false;
  }
};

// Wire codec of one placement (NEW-CONFIG, the stored configuration and the
// CM's region-mapping broadcast all carry this field sequence).
void PutPlacement(BufWriter& w, const RegionPlacement& p);
RegionPlacement GetPlacement(BufReader& r);

struct Configuration {
  ConfigId id = 0;
  std::vector<MachineId> machines;            // S, sorted
  std::map<MachineId, int> failure_domains;   // F
  MachineId cm = kInvalidMachine;
  std::map<RegionId, RegionPlacement> regions;
  RegionId next_region_id = 0;

  bool Contains(MachineId m) const {
    for (MachineId x : machines) {
      if (x == m) {
        return true;
      }
    }
    return false;
  }

  const RegionPlacement* Placement(RegionId r) const {
    auto it = regions.find(r);
    return it == regions.end() ? nullptr : &it->second;
  }

  // The failure domain of `m`; a machine with none listed is its own.
  int DomainOf(MachineId m) const {
    auto it = failure_domains.find(m);
    return it == failure_domains.end() ? static_cast<int>(m) : it->second;
  }

  // The number of region replicas each member hosts (0 for an idle member).
  std::map<MachineId, int> ReplicaLoad() const;

  std::vector<uint8_t> Serialize() const;
  static Configuration Parse(BufReader& r);
  static Configuration ParseBytes(const std::vector<uint8_t>& bytes);
};

}  // namespace farm

#endif  // SRC_CORE_CONFIG_H_
