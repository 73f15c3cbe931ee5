#include "src/ds/btree.h"

#include <algorithm>
#include <cstring>

namespace farm {

namespace {

constexpr uint32_t kMetaStride = kObjectHeaderBytes + 24;
constexpr int kTraverseRetries = 6;

}  // namespace

// ---------------------------------------------------------------------------
// Node packing
// ---------------------------------------------------------------------------

std::vector<uint8_t> BTree::NodeData::Pack(uint32_t payload_size) const {
  std::vector<uint8_t> out(payload_size, 0);
  BufWriter w;
  w.PutU8(leaf ? 1 : 0);
  w.PutU16(static_cast<uint16_t>(entries.size()));
  w.PutU64(fence_low);
  w.PutU64(fence_high);
  w.PutU64(next.Packed());
  w.PutU64(child_low.Packed());
  for (const auto& [k, v] : entries) {
    w.PutU64(k);
    w.PutU64(v);
  }
  FARM_CHECK(w.size() <= payload_size) << "btree node overflow";
  std::memcpy(out.data(), w.bytes().data(), w.size());
  return out;
}

BTree::NodeData BTree::NodeData::Unpack(const std::vector<uint8_t>& bytes) {
  BufReader r(bytes.data(), bytes.size());
  NodeData n;
  n.leaf = r.GetU8() != 0;
  uint16_t count = r.GetU16();
  n.fence_low = r.GetU64();
  n.fence_high = r.GetU64();
  n.next = GlobalAddr::FromPacked(r.GetU64());
  n.child_low = GlobalAddr::FromPacked(r.GetU64());
  n.entries.reserve(count);
  for (uint16_t i = 0; i < count; i++) {
    uint64_t k = r.GetU64();
    uint64_t v = r.GetU64();
    n.entries.push_back({k, v});
  }
  return n;
}

// ---------------------------------------------------------------------------
// Creation / meta
// ---------------------------------------------------------------------------

Task<StatusOr<BTree>> BTree::Create(Node& node, Options options, int thread) {
  BTree tree;
  tree.options_ = options;
  tree.cache_ = std::make_shared<Cache>();

  auto meta_rid =
      co_await node.CreateRegion(node.options().region_size, kMetaStride,
                                 options.colocate_with, thread);
  if (!meta_rid.ok()) {
    co_return meta_rid.status();
  }
  tree.meta_region_ = *meta_rid;
  auto node_rid =
      co_await node.CreateRegion(node.options().region_size, 0, tree.meta_region_, thread);
  if (!node_rid.ok()) {
    co_return node_rid.status();
  }
  tree.node_region_ = *node_rid;

  // Root leaf + meta object, committed atomically.
  for (int attempt = 0; attempt < 4; attempt++) {
    auto tx = node.Begin(thread);
    auto root = co_await tx->Alloc(tree.node_region_, options.node_payload);
    if (!root.ok()) {
      co_return root.status();
    }
    NodeData leaf;
    leaf.leaf = true;
    (void)tx->Write(*root, leaf.Pack(options.node_payload));
    auto meta_obj = co_await tx->Read(GlobalAddr{tree.meta_region_, 0}, 24);
    if (!meta_obj.ok()) {
      co_return meta_obj.status();
    }
    BufWriter w;
    w.PutU64(root->Packed());
    w.PutU32(1);
    std::vector<uint8_t> mb = w.Take();
    mb.resize(24, 0);
    (void)tx->Write(GlobalAddr{tree.meta_region_, 0}, std::move(mb));
    Status s = co_await tx->Commit();
    if (s.ok()) {
      co_return tree;
    }
  }
  co_return AbortedStatus("btree creation kept aborting");
}

BTree BTree::Clone() const {
  BTree t = *this;
  t.cache_ = std::make_shared<Cache>();  // per-machine cache
  return t;
}

Task<StatusOr<BTree::Meta>> BTree::ReadMeta(Node& node, int thread) const {
  auto bytes = co_await node.LockFreeRead(GlobalAddr{meta_region_, 0}, 24, thread);
  if (!bytes.ok()) {
    co_return bytes.status();
  }
  BufReader r(bytes->data(), bytes->size());
  Meta m;
  m.root = GlobalAddr::FromPacked(r.GetU64());
  m.height = r.GetU32();
  co_return m;
}

Task<StatusOr<BTree::Meta>> BTree::ReadMetaTx(Transaction& tx) const {
  auto bytes = co_await tx.Read(GlobalAddr{meta_region_, 0}, 24);
  if (!bytes.ok()) {
    co_return bytes.status();
  }
  BufReader r(bytes->data(), bytes->size());
  Meta m;
  m.root = GlobalAddr::FromPacked(r.GetU64());
  m.height = r.GetU32();
  co_return m;
}

Task<Status> BTree::WriteMeta(Transaction& tx, const Meta& m) const {
  BufWriter w;
  w.PutU64(m.root.Packed());
  w.PutU32(m.height);
  std::vector<uint8_t> mb = w.Take();
  mb.resize(24, 0);
  co_return tx.Write(GlobalAddr{meta_region_, 0}, std::move(mb));
}

// ---------------------------------------------------------------------------
// Cached traversal
// ---------------------------------------------------------------------------

Task<StatusOr<std::shared_ptr<const BTree::NodeData>>> BTree::ReadCached(Node& node,
                                                                         GlobalAddr addr,
                                                                         int thread) const {
  auto it = cache_->nodes.find(addr.Packed());
  if (it != cache_->nodes.end()) {
    co_return it->second;
  }
  auto bytes = co_await node.LockFreeRead(addr, options_.node_payload, thread);
  if (!bytes.ok()) {
    co_return bytes.status();
  }
  auto n = std::make_shared<const NodeData>(NodeData::Unpack(*bytes));
  if (!n->leaf) {
    if (cache_->nodes.size() >= options_.cache_cap) {
      cache_->nodes.clear();
    }
    cache_->nodes[addr.Packed()] = n;
  }
  co_return n;
}

void BTree::Invalidate(GlobalAddr addr) const { cache_->nodes.erase(addr.Packed()); }

Task<StatusOr<GlobalAddr>> BTree::TraverseToLeaf(Node& node, uint64_t key, int thread,
                                                 std::vector<GlobalAddr>* path) const {
  auto meta = co_await ReadMeta(node, thread);
  if (!meta.ok()) {
    co_return meta.status();
  }
  GlobalAddr cur = meta->root;
  for (uint32_t depth = 1; depth < meta->height; depth++) {
    path->push_back(cur);
    auto cached = co_await ReadCached(node, cur, thread);
    if (!cached.ok()) {
      co_return cached.status();
    }
    const NodeData* n = cached->get();
    if (n->leaf || key < n->fence_low || key >= n->fence_high) {
      co_return AbortedStatus("stale btree cache");
    }
    // Child for `key`: child_low if key < first separator, else the child
    // of the greatest separator <= key.
    GlobalAddr child = n->child_low;
    for (const auto& [k, v] : n->entries) {
      if (key >= k) {
        child = GlobalAddr::FromPacked(v);
      } else {
        break;
      }
    }
    cur = child;
  }
  co_return cur;
}

Task<StatusOr<GlobalAddr>> BTree::FindLeaf(Transaction& tx, uint64_t key, int attempt,
                                           std::vector<GlobalAddr>* path) const {
  if (attempt < 2) {
    co_return co_await TraverseToLeaf(*tx.node(), key, tx.thread(), path);
  }
  auto tx_path = co_await TraverseTx(tx, key);
  if (!tx_path.ok()) {
    co_return tx_path.status();
  }
  co_return tx_path->back().first;
}

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

Task<StatusOr<std::optional<uint64_t>>> BTree::Get(Transaction& tx, uint64_t key) const {
  for (int attempt = 0; attempt < kTraverseRetries; attempt++) {
    std::vector<GlobalAddr> path;
    auto leaf_addr = co_await FindLeaf(tx, key, attempt, &path);
    if (!leaf_addr.ok()) {
      for (GlobalAddr a : path) {
        Invalidate(a);
      }
      continue;
    }
    auto bytes = co_await tx.Read(*leaf_addr, options_.node_payload);
    if (!bytes.ok()) {
      co_return bytes.status();
    }
    NodeData leaf = NodeData::Unpack(*bytes);
    if (!leaf.leaf || key < leaf.fence_low || key >= leaf.fence_high) {
      for (GlobalAddr a : path) {
        Invalidate(a);
      }
      continue;  // fence keys caught a stale cached path
    }
    for (const auto& [k, v] : leaf.entries) {
      if (k == key) {
        co_return std::optional<uint64_t>(v);
      }
    }
    co_return std::optional<uint64_t>(std::nullopt);
  }
  co_return AbortedStatus("btree traversal kept hitting stale caches");
}

Task<Status> BTree::Insert(Transaction& tx, uint64_t key, uint64_t value) const {
  for (int attempt = 0; attempt < kTraverseRetries; attempt++) {
    std::vector<GlobalAddr> path;
    auto leaf_addr = co_await FindLeaf(tx, key, attempt, &path);
    if (!leaf_addr.ok()) {
      for (GlobalAddr a : path) {
        Invalidate(a);
      }
      continue;
    }
    auto bytes = co_await tx.Read(*leaf_addr, options_.node_payload);
    if (!bytes.ok()) {
      co_return bytes.status();
    }
    NodeData leaf = NodeData::Unpack(*bytes);
    if (!leaf.leaf || key < leaf.fence_low || key >= leaf.fence_high) {
      for (GlobalAddr a : path) {
        Invalidate(a);
      }
      continue;
    }
    auto pos = std::lower_bound(leaf.entries.begin(), leaf.entries.end(),
                                std::make_pair(key, uint64_t{0}));
    if (pos != leaf.entries.end() && pos->first == key) {
      pos->second = value;  // update in place
      co_return tx.Write(*leaf_addr, leaf.Pack(options_.node_payload));
    }
    if (leaf.entries.size() < MaxEntries()) {
      leaf.entries.insert(pos, {key, value});
      co_return tx.Write(*leaf_addr, leaf.Pack(options_.node_payload));
    }
    // Leaf full: structural change via the transactional slow path.
    co_return co_await InsertWithSplit(tx, key, value);
  }
  co_return AbortedStatus("btree traversal kept hitting stale caches");
}

Task<Status> BTree::Remove(Transaction& tx, uint64_t key) const {
  for (int attempt = 0; attempt < kTraverseRetries; attempt++) {
    std::vector<GlobalAddr> path;
    auto leaf_addr = co_await FindLeaf(tx, key, attempt, &path);
    if (!leaf_addr.ok()) {
      for (GlobalAddr a : path) {
        Invalidate(a);
      }
      continue;
    }
    auto bytes = co_await tx.Read(*leaf_addr, options_.node_payload);
    if (!bytes.ok()) {
      co_return bytes.status();
    }
    NodeData leaf = NodeData::Unpack(*bytes);
    if (!leaf.leaf || key < leaf.fence_low || key >= leaf.fence_high) {
      for (GlobalAddr a : path) {
        Invalidate(a);
      }
      continue;
    }
    for (auto it = leaf.entries.begin(); it != leaf.entries.end(); ++it) {
      if (it->first == key) {
        leaf.entries.erase(it);
        // Nodes are left sparse; no rebalancing (write-optimized B-trees).
        co_return tx.Write(*leaf_addr, leaf.Pack(options_.node_payload));
      }
    }
    co_return NotFoundStatus("key not in btree");
  }
  co_return AbortedStatus("btree traversal kept hitting stale caches");
}

Task<StatusOr<std::vector<std::pair<uint64_t, uint64_t>>>> BTree::Scan(Transaction& tx,
                                                                       uint64_t lo, uint64_t hi,
                                                                       size_t max) const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (int attempt = 0; attempt < kTraverseRetries; attempt++) {
    out.clear();
    std::vector<GlobalAddr> path;
    auto leaf_addr = co_await FindLeaf(tx, lo, attempt, &path);
    if (!leaf_addr.ok()) {
      for (GlobalAddr a : path) {
        Invalidate(a);
      }
      continue;
    }
    GlobalAddr cur = *leaf_addr;
    bool first = true;
    bool stale = false;
    while (cur.valid() && out.size() < max) {
      auto bytes = co_await tx.Read(cur, options_.node_payload);
      if (!bytes.ok()) {
        co_return bytes.status();
      }
      NodeData leaf = NodeData::Unpack(*bytes);
      if (first && (!leaf.leaf || lo < leaf.fence_low || lo >= leaf.fence_high)) {
        for (GlobalAddr a : path) {
          Invalidate(a);
        }
        stale = true;
        break;
      }
      first = false;
      for (const auto& [k, v] : leaf.entries) {
        if (k >= lo && k < hi && out.size() < max) {
          out.push_back({k, v});
        }
      }
      if (leaf.fence_high >= hi) {
        break;
      }
      cur = leaf.next;
    }
    if (!stale) {
      co_return out;
    }
  }
  co_return AbortedStatus("btree traversal kept hitting stale caches");
}

// ---------------------------------------------------------------------------
// Structural changes
// ---------------------------------------------------------------------------

Task<StatusOr<std::vector<std::pair<GlobalAddr, BTree::NodeData>>>> BTree::TraverseTx(
    Transaction& tx, uint64_t key) const {
  auto meta = co_await ReadMetaTx(tx);
  if (!meta.ok()) {
    co_return meta.status();
  }
  std::vector<std::pair<GlobalAddr, NodeData>> path;
  GlobalAddr cur = meta->root;
  for (;;) {
    auto bytes = co_await tx.Read(cur, options_.node_payload);
    if (!bytes.ok()) {
      co_return bytes.status();
    }
    NodeData n = NodeData::Unpack(*bytes);
    path.push_back({cur, n});
    if (n.leaf) {
      co_return path;
    }
    GlobalAddr child = n.child_low;
    for (const auto& [k, v] : n.entries) {
      if (key >= k) {
        child = GlobalAddr::FromPacked(v);
      } else {
        break;
      }
    }
    cur = child;
  }
}

Task<Status> BTree::InsertWithSplit(Transaction& tx, uint64_t key, uint64_t value) const {
  auto path_or = co_await TraverseTx(tx, key);
  if (!path_or.ok()) {
    co_return path_or.status();
  }
  auto path = std::move(*path_or);  // root..leaf
  auto meta = co_await ReadMetaTx(tx);
  if (!meta.ok()) {
    co_return meta.status();
  }

  // Insert into the leaf (update-in-place if present after re-read).
  {
    NodeData& leaf = path.back().second;
    auto pos = std::lower_bound(leaf.entries.begin(), leaf.entries.end(),
                                std::make_pair(key, uint64_t{0}));
    if (pos != leaf.entries.end() && pos->first == key) {
      pos->second = value;
      co_return tx.Write(path.back().first, leaf.Pack(options_.node_payload));
    }
    leaf.entries.insert(pos, {key, value});
  }

  // Split bottom-up while nodes overflow.
  uint64_t up_key = 0;
  GlobalAddr up_child;
  bool have_carry = false;
  for (size_t level = path.size(); level-- > 0;) {
    GlobalAddr addr = path[level].first;
    NodeData& n = path[level].second;
    if (have_carry) {
      auto pos = std::lower_bound(n.entries.begin(), n.entries.end(),
                                  std::make_pair(up_key, uint64_t{0}));
      n.entries.insert(pos, {up_key, up_child.Packed()});
      have_carry = false;
    }
    if (n.entries.size() <= MaxEntries()) {
      Status ws = tx.Write(addr, n.Pack(options_.node_payload));
      if (!ws.ok()) {
        co_return ws;
      }
      Invalidate(addr);
      co_return OkStatus();
    }
    // Overflow: split into left (n) and right (fresh node).
    auto right_addr = co_await tx.Alloc(node_region_, options_.node_payload);
    if (!right_addr.ok()) {
      co_return right_addr.status();
    }
    NodeData right;
    size_t mid = n.entries.size() / 2;
    uint64_t sep;
    if (n.leaf) {
      sep = n.entries[mid].first;
      right.leaf = true;
      right.entries.assign(n.entries.begin() + static_cast<long>(mid), n.entries.end());
      n.entries.resize(mid);
      right.next = n.next;
      n.next = *right_addr;
    } else {
      sep = n.entries[mid].first;
      right.leaf = false;
      right.child_low = GlobalAddr::FromPacked(n.entries[mid].second);
      right.entries.assign(n.entries.begin() + static_cast<long>(mid) + 1, n.entries.end());
      n.entries.resize(mid);
    }
    right.fence_low = sep;
    right.fence_high = n.fence_high;
    n.fence_high = sep;
    Status w1 = tx.Write(addr, n.Pack(options_.node_payload));
    Status w2 = tx.Write(*right_addr, right.Pack(options_.node_payload));
    if (!w1.ok() || !w2.ok()) {
      co_return w1.ok() ? w2 : w1;
    }
    Invalidate(addr);
    up_key = sep;
    up_child = *right_addr;
    have_carry = true;
  }

  if (have_carry) {
    // The root split: grow the tree.
    auto new_root = co_await tx.Alloc(node_region_, options_.node_payload);
    if (!new_root.ok()) {
      co_return new_root.status();
    }
    NodeData root;
    root.leaf = false;
    root.child_low = path[0].first;
    root.entries = {{up_key, up_child.Packed()}};
    Status ws = tx.Write(*new_root, root.Pack(options_.node_payload));
    if (!ws.ok()) {
      co_return ws;
    }
    Meta m = *meta;
    m.root = *new_root;
    m.height++;
    co_return co_await WriteMeta(tx, m);
  }
  co_return OkStatus();
}

}  // namespace farm
