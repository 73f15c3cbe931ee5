#include "src/core/config.h"

namespace farm {

void PutPlacement(BufWriter& w, const RegionPlacement& p) {
  w.PutU32(p.primary);
  w.PutU32(static_cast<uint32_t>(p.backups.size()));
  for (MachineId b : p.backups) {
    w.PutU32(b);
  }
  w.PutU32(p.size);
  w.PutU64(p.last_primary_change);
  w.PutU64(p.last_replica_change);
  w.PutU32(p.colocate_with);
  w.PutU32(p.object_stride);
}

RegionPlacement GetPlacement(BufReader& r) {
  RegionPlacement p;
  p.primary = r.GetU32();
  uint32_t nb = r.GetU32();
  for (uint32_t i = 0; i < nb; i++) {
    p.backups.push_back(r.GetU32());
  }
  p.size = r.GetU32();
  p.last_primary_change = r.GetU64();
  p.last_replica_change = r.GetU64();
  p.colocate_with = r.GetU32();
  p.object_stride = r.GetU32();
  return p;
}

std::map<MachineId, int> Configuration::ReplicaLoad() const {
  std::map<MachineId, int> load;
  for (MachineId m : machines) {
    load[m] = 0;
  }
  for (const auto& [rid, p] : regions) {
    (void)rid;
    for (MachineId m : p.Replicas()) {
      auto it = load.find(m);
      if (it != load.end()) {
        it->second++;
      }
    }
  }
  return load;
}

std::vector<uint8_t> Configuration::Serialize() const {
  BufWriter w;
  w.PutU64(id);
  w.PutU32(static_cast<uint32_t>(machines.size()));
  for (MachineId m : machines) {
    w.PutU32(m);
    auto it = failure_domains.find(m);
    w.PutU32(it == failure_domains.end() ? 0 : static_cast<uint32_t>(it->second));
  }
  w.PutU32(cm);
  w.PutU32(next_region_id);
  w.PutU32(static_cast<uint32_t>(regions.size()));
  for (const auto& [rid, p] : regions) {
    w.PutU32(rid);
    PutPlacement(w, p);
  }
  return w.Take();
}

Configuration Configuration::Parse(BufReader& r) {
  Configuration c;
  c.id = r.GetU64();
  uint32_t nm = r.GetU32();
  for (uint32_t i = 0; i < nm; i++) {
    MachineId m = r.GetU32();
    int fd = static_cast<int>(r.GetU32());
    c.machines.push_back(m);
    c.failure_domains[m] = fd;
  }
  c.cm = r.GetU32();
  c.next_region_id = r.GetU32();
  uint32_t nr = r.GetU32();
  for (uint32_t i = 0; i < nr; i++) {
    RegionId rid = r.GetU32();
    c.regions[rid] = GetPlacement(r);
  }
  return c;
}

Configuration Configuration::ParseBytes(const std::vector<uint8_t>& bytes) {
  BufReader r(bytes);
  return Parse(r);
}

}  // namespace farm
