// FlatMap: a sorted-vector map for the small keyed sets built per
// transaction (read and write sets, per-machine record groups).
//
// Entries sit in one contiguous std::vector<std::pair<K, V>> kept sorted by
// K's operator<, so iteration visits keys in exactly std::map's order and
// lookups are binary searches. An insert shifts the entries after it: every
// insert (try_emplace, insert_or_assign) may move every entry, so no
// iterator, pointer or reference into the map survives one. Lookups never
// move entries. There is deliberately no operator[], whose hidden insert
// would make that rule easy to miss.
#ifndef SRC_COMMON_FLAT_MAP_H_
#define SRC_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

namespace farm {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  iterator find(const K& key) {
    auto it = LowerBound(key);
    return it != entries_.end() && !(key < it->first) ? it : entries_.end();
  }
  const_iterator find(const K& key) const {
    auto it = LowerBound(key);
    return it != entries_.end() && !(key < it->first) ? it : entries_.end();
  }
  size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }

  // Inserts {key, V(args...)} unless `key` is present; returns the entry
  // for `key` and whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    auto it = LowerBound(key);
    if (it != entries_.end() && !(key < it->first)) {
      return {it, false};
    }
    it = entries_.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  // Inserts {key, value}, or assigns `value` to the present entry.
  template <typename M>
  std::pair<iterator, bool> insert_or_assign(const K& key, M&& value) {
    auto it = LowerBound(key);
    if (it != entries_.end() && !(key < it->first)) {
      it->second = std::forward<M>(value);
      return {it, false};
    }
    it = entries_.emplace(it, key, std::forward<M>(value));
    return {it, true};
  }

 private:
  iterator LowerBound(const K& key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator LowerBound(const K& key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace farm

#endif  // SRC_COMMON_FLAT_MAP_H_
