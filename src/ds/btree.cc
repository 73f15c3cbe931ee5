#include "src/ds/btree.h"

#include <algorithm>
#include <cstring>

namespace farm {

namespace {

constexpr uint32_t kMetaStride = kObjectHeaderBytes + 24;
constexpr int kTraverseRetries = 6;
constexpr uint32_t kNodePayload = 512;  // bytes per tree node object
constexpr size_t kMaxEntries = (kNodePayload - 51) / 16;
constexpr size_t kCacheCap = 8192;  // cached internal nodes per handle

}  // namespace

// ---------------------------------------------------------------------------
// Node packing
// ---------------------------------------------------------------------------

std::vector<uint8_t> BTree::NodeData::Pack() const {
  std::vector<uint8_t> out(kNodePayload, 0);
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
  FARM_CHECK(w.size() <= kNodePayload) << "btree node overflow";
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

GlobalAddr BTree::NodeData::ChildFor(uint64_t key) const {
  GlobalAddr child = child_low;
  for (const auto& [k, v] : entries) {
    if (key < k) {
      break;
    }
    child = GlobalAddr::FromPacked(v);
  }
  return child;
}

bool BTree::NodeData::Upsert(uint64_t key, uint64_t value) {
  auto pos = std::lower_bound(entries.begin(), entries.end(), std::make_pair(key, uint64_t{0}));
  if (pos != entries.end() && pos->first == key) {
    pos->second = value;
    return true;
  }
  entries.insert(pos, {key, value});
  return false;
}

std::vector<uint8_t> BTree::Meta::Pack() const {
  BufWriter w;
  w.PutU64(root.Packed());
  w.PutU32(height);
  std::vector<uint8_t> mb = w.Take();
  mb.resize(24, 0);
  return mb;
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
    auto root = co_await tx->Alloc(tree.node_region_, kNodePayload);
    if (!root.ok()) {
      co_return root.status();
    }
    NodeData leaf;
    leaf.leaf = true;
    (void)tx->Write(*root, leaf.Pack());
    auto meta_obj = co_await tx->Read(GlobalAddr{tree.meta_region_, 0}, 24);
    if (!meta_obj.ok()) {
      co_return meta_obj.status();
    }
    (void)tx->Write(GlobalAddr{tree.meta_region_, 0}, Meta{*root, 1}.Pack());
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

Task<StatusOr<BTree::Meta>> BTree::ReadMeta(Transaction* tx, Node& node, int thread) const {
  // An if/else, not `?:`: see the await-in-conditional rule (DESIGN.md).
  StatusOr<std::vector<uint8_t>> bytes = std::vector<uint8_t>();
  if (tx != nullptr) {
    bytes = co_await tx->Read(GlobalAddr{meta_region_, 0}, 24);
  } else {
    bytes = co_await node.LockFreeRead(GlobalAddr{meta_region_, 0}, 24, thread);
  }
  if (!bytes.ok()) {
    co_return bytes.status();
  }
  BufReader r(bytes->data(), bytes->size());
  Meta m;
  m.root = GlobalAddr::FromPacked(r.GetU64());
  m.height = r.GetU32();
  co_return m;
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
  auto bytes = co_await node.LockFreeRead(addr, kNodePayload, thread);
  if (!bytes.ok()) {
    co_return bytes.status();
  }
  auto n = std::make_shared<const NodeData>(NodeData::Unpack(*bytes));
  if (!n->leaf) {
    if (cache_->nodes.size() >= kCacheCap) {
      cache_->nodes.clear();
    }
    cache_->nodes[addr.Packed()] = n;
  }
  co_return n;
}

void BTree::Invalidate(GlobalAddr addr) const { cache_->nodes.erase(addr.Packed()); }

Task<StatusOr<GlobalAddr>> BTree::TraverseToLeaf(Node& node, uint64_t key, int thread,
                                                 std::vector<GlobalAddr>* path) const {
  auto meta = co_await ReadMeta(nullptr, node, thread);
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
    cur = n->ChildFor(key);
  }
  co_return cur;
}

Task<StatusOr<std::optional<BTree::Leaf>>> BTree::ReadLeaf(Transaction& tx, uint64_t key,
                                                           int attempt) const {
  std::vector<GlobalAddr> path;  // cached internal nodes to drop on a miss
  std::optional<GlobalAddr> addr;
  if (attempt < 2) {
    auto cached = co_await TraverseToLeaf(*tx.node(), key, tx.thread(), &path);
    if (cached.ok()) {
      addr = *cached;
    }
  } else {
    auto tx_path = co_await TraverseTx(tx, key);
    if (tx_path.ok()) {
      addr = tx_path->back().first;
    }
  }
  if (addr.has_value()) {
    auto bytes = co_await tx.Read(*addr, kNodePayload);
    if (!bytes.ok()) {
      co_return bytes.status();
    }
    NodeData n = NodeData::Unpack(*bytes);
    if (n.leaf && key >= n.fence_low && key < n.fence_high) {
      co_return std::optional<Leaf>(Leaf{*addr, std::move(n)});
    }
  }
  for (GlobalAddr a : path) {
    Invalidate(a);  // the descent failed or the fences missed: stale cache
  }
  co_return std::optional<Leaf>();
}

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

Task<StatusOr<std::optional<uint64_t>>> BTree::Get(Transaction& tx, uint64_t key) const {
  for (int attempt = 0; attempt < kTraverseRetries; attempt++) {
    auto leaf = co_await ReadLeaf(tx, key, attempt);
    if (!leaf.ok()) {
      co_return leaf.status();
    }
    if (!leaf->has_value()) {
      continue;
    }
    for (const auto& [k, v] : (*leaf)->node.entries) {
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
    auto leaf = co_await ReadLeaf(tx, key, attempt);
    if (!leaf.ok()) {
      co_return leaf.status();
    }
    if (!leaf->has_value()) {
      continue;
    }
    NodeData& n = (*leaf)->node;
    n.Upsert(key, value);
    if (n.entries.size() > kMaxEntries) {
      // Leaf full: structural change via the transactional slow path.
      co_return co_await InsertWithSplit(tx, key, value);
    }
    co_return tx.Write((*leaf)->addr, n.Pack());
  }
  co_return AbortedStatus("btree traversal kept hitting stale caches");
}

Task<Status> BTree::Remove(Transaction& tx, uint64_t key) const {
  for (int attempt = 0; attempt < kTraverseRetries; attempt++) {
    auto leaf = co_await ReadLeaf(tx, key, attempt);
    if (!leaf.ok()) {
      co_return leaf.status();
    }
    if (!leaf->has_value()) {
      continue;
    }
    NodeData& n = (*leaf)->node;
    auto it = std::find_if(n.entries.begin(), n.entries.end(),
                           [key](const auto& e) { return e.first == key; });
    if (it == n.entries.end()) {
      co_return NotFoundStatus("key not in btree");
    }
    n.entries.erase(it);
    // Nodes are left sparse; no rebalancing (write-optimized B-trees).
    co_return tx.Write((*leaf)->addr, n.Pack());
  }
  co_return AbortedStatus("btree traversal kept hitting stale caches");
}

Task<StatusOr<std::vector<std::pair<uint64_t, uint64_t>>>> BTree::Scan(Transaction& tx,
                                                                       uint64_t lo, uint64_t hi,
                                                                       size_t max) const {
  for (int attempt = 0; attempt < kTraverseRetries; attempt++) {
    auto first = co_await ReadLeaf(tx, lo, attempt);
    if (!first.ok()) {
      co_return first.status();
    }
    if (!first->has_value()) {
      continue;
    }
    NodeData leaf = std::move((*first)->node);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (;;) {
      for (const auto& [k, v] : leaf.entries) {
        if (k >= lo && k < hi && out.size() < max) {
          out.push_back({k, v});
        }
      }
      if (leaf.fence_high >= hi || out.size() >= max || !leaf.next.valid()) {
        co_return out;
      }
      auto bytes = co_await tx.Read(leaf.next, kNodePayload);
      if (!bytes.ok()) {
        co_return bytes.status();
      }
      leaf = NodeData::Unpack(*bytes);
    }
  }
  co_return AbortedStatus("btree traversal kept hitting stale caches");
}

// ---------------------------------------------------------------------------
// Structural changes
// ---------------------------------------------------------------------------

Task<StatusOr<std::vector<std::pair<GlobalAddr, BTree::NodeData>>>> BTree::TraverseTx(
    Transaction& tx, uint64_t key) const {
  auto meta = co_await ReadMeta(&tx, *tx.node(), tx.thread());
  if (!meta.ok()) {
    co_return meta.status();
  }
  std::vector<std::pair<GlobalAddr, NodeData>> path;
  GlobalAddr cur = meta->root;
  for (;;) {
    auto bytes = co_await tx.Read(cur, kNodePayload);
    if (!bytes.ok()) {
      co_return bytes.status();
    }
    NodeData n = NodeData::Unpack(*bytes);
    path.push_back({cur, n});
    if (n.leaf) {
      co_return path;
    }
    cur = n.ChildFor(key);
  }
}

Task<Status> BTree::InsertWithSplit(Transaction& tx, uint64_t key, uint64_t value) const {
  auto path_or = co_await TraverseTx(tx, key);
  if (!path_or.ok()) {
    co_return path_or.status();
  }
  auto path = std::move(*path_or);  // root..leaf
  auto meta = co_await ReadMeta(&tx, *tx.node(), tx.thread());
  if (!meta.ok()) {
    co_return meta.status();
  }

  // Insert into the leaf (update-in-place if present after re-read).
  if (path.back().second.Upsert(key, value)) {
    co_return tx.Write(path.back().first, path.back().second.Pack());
  }

  // Split bottom-up while nodes overflow.
  uint64_t up_key = 0;
  GlobalAddr up_child;
  bool have_carry = false;
  for (size_t level = path.size(); level-- > 0;) {
    GlobalAddr addr = path[level].first;
    NodeData& n = path[level].second;
    if (have_carry) {
      n.Upsert(up_key, up_child.Packed());
      have_carry = false;
    }
    if (n.entries.size() <= kMaxEntries) {
      Status ws = tx.Write(addr, n.Pack());
      if (!ws.ok()) {
        co_return ws;
      }
      Invalidate(addr);
      co_return OkStatus();
    }
    // Overflow: split into left (n) and right (fresh node).
    auto right_addr = co_await tx.Alloc(node_region_, kNodePayload);
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
    Status w1 = tx.Write(addr, n.Pack());
    Status w2 = tx.Write(*right_addr, right.Pack());
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
    auto new_root = co_await tx.Alloc(node_region_, kNodePayload);
    if (!new_root.ok()) {
      co_return new_root.status();
    }
    NodeData root;
    root.leaf = false;
    root.child_low = path[0].first;
    root.entries = {{up_key, up_child.Packed()}};
    Status ws = tx.Write(*new_root, root.Pack());
    if (!ws.ok()) {
      co_return ws;
    }
    co_return tx.Write(GlobalAddr{meta_region_, 0}, Meta{*new_root, meta->height + 1}.Pack());
  }
  co_return OkStatus();
}

}  // namespace farm
