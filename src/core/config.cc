#include "src/core/config.h"

namespace farm {

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

}  // namespace farm
