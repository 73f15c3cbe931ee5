// Hash functions and a consistent-hashing ring.
//
// FaRM uses consistent hashing in two places: choosing the k backup
// configuration managers (successors of the CM) and assigning recovery
// coordinators for the transactions of a failed coordinator (section 5.3).
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace farm {

// Fibonacci / splitmix-style 64-bit mixer. Good avalanche for integer keys.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

// FNV-1a over arbitrary bytes; used for hashing string-like workload keys.
inline uint64_t Fnv1a(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 14695981039346656037ULL;
  for (size_t i = 0; i < len; i++) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t Fnv1a(std::string_view s) { return Fnv1a(s.data(), s.size()); }

// Consistent-hash ring over integer node ids with virtual nodes.
//
// Provides Successors(key, k): the first k distinct nodes at or after the
// key's position on the ring. Node sets change on reconfiguration.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int virtual_nodes_per_node = 16)
      : virtual_nodes_(virtual_nodes_per_node) {}

  void AddNode(uint64_t node_id);
  void RemoveNode(uint64_t node_id);
  bool Contains(uint64_t node_id) const;

  // First node clockwise from hash(key). Ring must be non-empty.
  uint64_t Owner(uint64_t key) const;

  // First k distinct nodes clockwise from hash(key) (fewer if the ring has
  // fewer than k nodes).
  std::vector<uint64_t> Successors(uint64_t key, size_t k) const;

 private:
  struct Point {
    uint64_t position;
    uint64_t node_id;
    bool operator<(const Point& other) const {
      return position < other.position ||
             (position == other.position && node_id < other.node_id);
    }
  };

  int virtual_nodes_;
  size_t num_nodes_ = 0;
  std::vector<Point> ring_;  // sorted by position
};

}  // namespace farm

#endif  // SRC_COMMON_HASH_H_
