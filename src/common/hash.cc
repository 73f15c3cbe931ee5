#include "src/common/hash.h"

#include <algorithm>

#include "src/common/logging.h"

namespace farm {

void ConsistentHashRing::AddNode(uint64_t node_id) {
  if (Contains(node_id)) {
    return;
  }
  for (int v = 0; v < virtual_nodes_; v++) {
    uint64_t pos = Mix64(HashCombine(node_id, static_cast<uint64_t>(v) | 0xabcd0000ULL));
    ring_.push_back(Point{pos, node_id});
  }
  std::sort(ring_.begin(), ring_.end());
  num_nodes_++;
}

bool ConsistentHashRing::Contains(uint64_t node_id) const {
  return std::any_of(ring_.begin(), ring_.end(),
                     [node_id](const Point& p) { return p.node_id == node_id; });
}

uint64_t ConsistentHashRing::Owner(uint64_t key) const {
  FARM_CHECK(!ring_.empty()) << "Owner() on empty ring";
  uint64_t pos = Mix64(key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(), Point{pos, 0});
  if (it == ring_.end()) {
    it = ring_.begin();
  }
  return it->node_id;
}

std::vector<uint64_t> ConsistentHashRing::Successors(uint64_t key, size_t k) const {
  std::vector<uint64_t> out;
  if (ring_.empty()) {
    return out;
  }
  uint64_t pos = Mix64(key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(), Point{pos, 0});
  size_t want = std::min(k, num_nodes_);
  size_t idx = static_cast<size_t>(it - ring_.begin());
  for (size_t scanned = 0; scanned < ring_.size() && out.size() < want; scanned++) {
    const Point& p = ring_[(idx + scanned) % ring_.size()];
    if (std::find(out.begin(), out.end(), p.node_id) == out.end()) {
      out.push_back(p.node_id);
    }
  }
  return out;
}

}  // namespace farm
