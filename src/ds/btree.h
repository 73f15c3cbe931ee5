// FaRM B-tree (section 6.2): a distributed B+tree over FaRM objects with
// per-machine caching of internal nodes and fence keys for traversal
// consistency (as in Minuet).
//
// Traversal reads internal nodes from a local cache (filled with lock-free
// reads) WITHOUT adding them to the transaction's read set; only the leaf is
// read transactionally. Every node carries fence keys [low, high); if the
// reached leaf's fence range does not contain the key, a cached node was
// stale: the path is invalidated and the traversal retried. Lookups
// therefore need a single RDMA read (the leaf) in the common case.
//
// Inserts split full nodes by re-reading the path transactionally inside
// the caller's transaction (splits are rare); deletes leave nodes sparse
// (no rebalancing -- matching the write-optimized B-tree lineage).
#ifndef SRC_DS_BTREE_H_
#define SRC_DS_BTREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/node.h"
#include "src/core/tx.h"

namespace farm {

class BTree {
 public:
  struct Options {
    RegionId colocate_with = kInvalidRegion;  // locality hint
  };

  // Creates the tree (meta region + first leaf). Each machine should hold
  // its own handle (the handle owns that machine's internal-node cache).
  static Task<StatusOr<BTree>> Create(Node& node, Options options, int thread);
  // A handle for an existing tree on another machine.
  BTree Clone() const;

  BTree() = default;

  Task<StatusOr<std::optional<uint64_t>>> Get(Transaction& tx, uint64_t key) const;
  // Upsert.
  Task<Status> Insert(Transaction& tx, uint64_t key, uint64_t value) const;
  // kNotFound if absent.
  Task<Status> Remove(Transaction& tx, uint64_t key) const;
  // Entries with lo <= key < hi, at most `max` of them, in key order.
  Task<StatusOr<std::vector<std::pair<uint64_t, uint64_t>>>> Scan(Transaction& tx, uint64_t lo,
                                                                  uint64_t hi,
                                                                  size_t max) const;

  const Options& options() const { return options_; }
  RegionId node_region() const { return node_region_; }

 private:
  friend class BTreeTestPeer;

  struct NodeData {
    bool leaf = true;
    uint64_t fence_low = 0;
    uint64_t fence_high = UINT64_MAX;
    GlobalAddr next;       // leaf chain
    GlobalAddr child_low;  // internal: child for keys < entries[0].first
    std::vector<std::pair<uint64_t, uint64_t>> entries;  // key -> value/child

    std::vector<uint8_t> Pack() const;
    static NodeData Unpack(const std::vector<uint8_t>& bytes);
  };

  struct Meta {
    GlobalAddr root;
    uint32_t height = 1;  // 1 = root is a leaf
  };

  Task<StatusOr<Meta>> ReadMeta(Node& node, int thread) const;
  Task<StatusOr<Meta>> ReadMetaTx(Transaction& tx) const;
  Task<Status> WriteMeta(Transaction& tx, const Meta& m) const;

  // Cached / lock-free read of an internal node (not in the tx read set).
  // Cached nodes are immutable and shared with the cache.
  Task<StatusOr<std::shared_ptr<const NodeData>>> ReadCached(Node& node, GlobalAddr addr,
                                                             int thread) const;
  void Invalidate(GlobalAddr addr) const;

  // Descends via the cache; returns the leaf address for `key` plus the
  // internal path (for invalidation on fence mismatch).
  Task<StatusOr<GlobalAddr>> TraverseToLeaf(Node& node, uint64_t key, int thread,
                                            std::vector<GlobalAddr>* path) const;

  // Transactional descent used by structure-modifying operations.
  Task<StatusOr<std::vector<std::pair<GlobalAddr, NodeData>>>> TraverseTx(Transaction& tx,
                                                                          uint64_t key) const;
  // Finds the leaf for `key`: cached traversal on early attempts, falling
  // back to a transactional descent. The fallback is what makes a
  // transaction's own (buffered, uncommitted) splits visible to its later
  // operations -- the cache only ever sees committed state.
  Task<StatusOr<GlobalAddr>> FindLeaf(Transaction& tx, uint64_t key, int attempt,
                                      std::vector<GlobalAddr>* path) const;
  Task<Status> InsertWithSplit(Transaction& tx, uint64_t key, uint64_t value) const;

  Options options_;
  RegionId meta_region_ = kInvalidRegion;
  RegionId node_region_ = kInvalidRegion;

  struct Cache {
    // farmlint: allow(unordered-decl): keyed lookup/erase only, never
    // iterated, so hash order cannot reach reads or the fabric.
    std::unordered_map<uint64_t, std::shared_ptr<const NodeData>> nodes;  // by packed address
  };
  std::shared_ptr<Cache> cache_;
};

}  // namespace farm

#endif  // SRC_DS_BTREE_H_
