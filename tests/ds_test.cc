// Tests for the distributed data structures: hash table and B-tree.
#include <gtest/gtest.h>

#include "src/ds/btree.h"
#include "src/ds/hashtable.h"
#include "tests/test_util.h"

namespace farm {
namespace {

class DsTest : public ::testing::Test {
 protected:
  void Boot(int machines = 4, uint64_t seed = 1) {
    ClusterOptions opts = SmallClusterOptions(machines, seed);
    opts.node.region_size = 512 << 10;
    cluster_ = MakeStartedCluster(opts);
  }

  HashTable MakeTable(uint64_t buckets = 256, uint32_t value_size = 16) {
    HashTable::Options o;
    o.buckets = buckets;
    o.value_size = value_size;
    auto create = [](Cluster* c, HashTable::Options opt) -> Task<StatusOr<HashTable>> {
      co_return co_await HashTable::Create(c->node(0), opt, 0);
    };
    auto t = RunTask(*cluster_, create(cluster_.get(), o));
    FARM_CHECK(t.has_value() && t->ok());
    return t->value();
  }

  BTree MakeTree() {
    auto create = [](Cluster* c) -> Task<StatusOr<BTree>> {
      co_return co_await BTree::Create(c->node(0), BTree::Options{}, 0);
    };
    auto t = RunTask(*cluster_, create(cluster_.get()));
    FARM_CHECK(t.has_value() && t->ok()) << (t.has_value() ? t->status().ToString() : "timeout");
    return t->value();
  }

  // One-shot transactional helpers (retry on conflict).
  Task<Status> HtPut(const HashTable& ht, MachineId node, uint64_t key,
                     std::vector<uint8_t> value) {
    for (int i = 0; i < 10; i++) {
      auto tx = cluster_->node(node).Begin(0);
      Status s = co_await ht.Put(*tx, key, value);
      if (!s.ok()) {
        co_return s;
      }
      s = co_await tx->Commit();
      if (s.code() != StatusCode::kAborted) {
        co_return s;
      }
    }
    co_return AbortedStatus("persistent conflict");
  }

  Task<StatusOr<std::optional<std::vector<uint8_t>>>> HtGet(const HashTable& ht, MachineId node,
                                                            uint64_t key) {
    auto tx = cluster_->node(node).Begin(0);
    auto v = co_await ht.Get(*tx, key);
    if (!v.ok()) {
      co_return v.status();
    }
    Status s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
    co_return *v;
  }

  Task<Status> BtInsert(const BTree& bt, MachineId node, uint64_t key, uint64_t value) {
    for (int i = 0; i < 10; i++) {
      auto tx = cluster_->node(node).Begin(0);
      Status s = co_await bt.Insert(*tx, key, value);
      if (!s.ok()) {
        co_return s;
      }
      s = co_await tx->Commit();
      if (s.code() != StatusCode::kAborted) {
        co_return s;
      }
    }
    co_return AbortedStatus("persistent conflict");
  }

  Task<StatusOr<std::optional<uint64_t>>> BtGet(const BTree& bt, MachineId node, uint64_t key) {
    auto tx = cluster_->node(node).Begin(0);
    auto v = co_await bt.Get(*tx, key);
    if (!v.ok()) {
      co_return v.status();
    }
    Status s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
    co_return *v;
  }

  std::unique_ptr<Cluster> cluster_;
};

std::vector<uint8_t> Val(uint64_t v) {
  std::vector<uint8_t> b(16, 0);
  std::memcpy(b.data(), &v, 8);
  return b;
}

TEST_F(DsTest, HashTablePutGet) {
  Boot();
  HashTable ht = MakeTable();
  ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 0, 42, Val(100)))->ok());
  auto v = RunTask(*cluster_, HtGet(ht, 1, 42));
  ASSERT_TRUE(v.has_value() && v->ok());
  ASSERT_TRUE(v->value().has_value());
  EXPECT_EQ((*v->value())[0], 100);
}

TEST_F(DsTest, HashTableMissingKey) {
  Boot();
  HashTable ht = MakeTable();
  auto v = RunTask(*cluster_, HtGet(ht, 0, 777));
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_FALSE(v->value().has_value());
}

TEST_F(DsTest, HashTableUpdateInPlace) {
  Boot();
  HashTable ht = MakeTable();
  ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 0, 5, Val(1)))->ok());
  ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 1, 5, Val(2)))->ok());
  auto v = RunTask(*cluster_, HtGet(ht, 2, 5));
  ASSERT_TRUE(v.has_value() && v->ok() && v->value().has_value());
  EXPECT_EQ((*v->value())[0], 2);
}

TEST_F(DsTest, HashTableRemoveAndReinsert) {
  Boot();
  HashTable ht = MakeTable();
  ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 0, 9, Val(1)))->ok());

  auto remove = [this, &ht]() -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    Status s = co_await ht.Remove(*tx, 9);
    if (!s.ok()) {
      co_return s;
    }
    co_return co_await tx->Commit();
  };
  ASSERT_TRUE(RunTask(*cluster_, remove())->ok());
  auto v = RunTask(*cluster_, HtGet(ht, 2, 9));
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_FALSE(v->value().has_value());
  // Tombstone slot is reusable.
  ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 0, 9, Val(3)))->ok());
  v = RunTask(*cluster_, HtGet(ht, 3, 9));
  ASSERT_TRUE(v.has_value() && v->ok() && v->value().has_value());
  EXPECT_EQ((*v->value())[0], 3);
}

TEST_F(DsTest, HashTableManyKeys) {
  Boot();
  HashTable ht = MakeTable(512);
  for (uint64_t k = 1; k <= 300; k++) {
    ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, static_cast<MachineId>(k % 4), k, Val(k * 10)))->ok())
        << "key " << k;
  }
  for (uint64_t k = 1; k <= 300; k++) {
    auto v = RunTask(*cluster_, HtGet(ht, static_cast<MachineId>((k + 1) % 4), k));
    ASSERT_TRUE(v.has_value() && v->ok() && v->value().has_value()) << "key " << k;
    uint64_t got = 0;
    std::memcpy(&got, v->value()->data(), 8);
    EXPECT_EQ(got, k * 10);
  }
}

TEST_F(DsTest, HashTableLockFreeGet) {
  Boot();
  HashTable ht = MakeTable();
  ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 0, 1234, Val(77)))->ok());
  auto lf = [this, &ht]() -> Task<StatusOr<std::optional<std::vector<uint8_t>>>> {
    co_return co_await ht.LockFreeGet(cluster_->node(3), 1234, 0);
  };
  auto v = RunTask(*cluster_, lf());
  ASSERT_TRUE(v.has_value() && v->ok() && v->value().has_value());
  EXPECT_EQ((*v->value())[0], 77);
}

// A table of kMaxProbe buckets is one probe chain for every key: once its
// kMaxProbe x kSlotsPerBucket slots hold keys, a new key has nowhere to go.
TEST_F(DsTest, HashTableFullProbeChain) {
  Boot();
  HashTable ht = MakeTable(static_cast<uint64_t>(HashTable::kMaxProbe));
  const uint64_t capacity =
      static_cast<uint64_t>(HashTable::kMaxProbe * HashTable::kSlotsPerBucket);
  for (uint64_t k = 1; k <= capacity; k++) {
    ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 0, k, Val(k * 10)))->ok()) << "key " << k;
  }
  const uint64_t rejected = capacity + 1;
  auto put_rejected = [this, &ht, rejected]() -> Task<std::pair<Status, Status>> {
    auto tx = cluster_->node(1).Begin(0);
    Status put = co_await ht.Put(*tx, rejected, Val(1));
    Status commit = co_await tx->Commit();
    co_return std::make_pair(put, commit);
  };
  auto rejected_put = RunTask(*cluster_, put_rejected());
  ASSERT_TRUE(rejected_put.has_value());
  EXPECT_EQ(rejected_put->first.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(rejected_put->second.ok()) << rejected_put->second.ToString();

  // The failed Put wrote nothing: every stored key is intact through both
  // read paths, and the rejected key is absent through both.
  auto lock_free = [this, &ht](uint64_t key)
      -> Task<StatusOr<std::optional<std::vector<uint8_t>>>> {
    co_return co_await ht.LockFreeGet(cluster_->node(3), key, 0);
  };
  for (uint64_t k = 1; k <= capacity; k++) {
    for (auto& v : {RunTask(*cluster_, HtGet(ht, 2, k)), RunTask(*cluster_, lock_free(k))}) {
      ASSERT_TRUE(v.has_value() && v->ok() && v->value().has_value()) << "key " << k;
      uint64_t got = 0;
      std::memcpy(&got, v->value()->data(), 8);
      EXPECT_EQ(got, k * 10) << "key " << k;
    }
  }
  for (auto& v : {RunTask(*cluster_, HtGet(ht, 2, rejected)),
                  RunTask(*cluster_, lock_free(rejected))}) {
    ASSERT_TRUE(v.has_value() && v->ok());
    EXPECT_FALSE(v->value().has_value());
  }

  // Removing one key leaves a tombstone the rejected key can take.
  auto remove = [this, &ht]() -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    Status s = co_await ht.Remove(*tx, 7);
    if (!s.ok()) {
      co_return s;
    }
    co_return co_await tx->Commit();
  };
  ASSERT_TRUE(RunTask(*cluster_, remove())->ok());
  ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 0, rejected, Val(5)))->ok());
  auto v = RunTask(*cluster_, HtGet(ht, 2, rejected));
  ASSERT_TRUE(v.has_value() && v->ok() && v->value().has_value());
  EXPECT_EQ((*v->value())[0], 5);
  v = RunTask(*cluster_, HtGet(ht, 2, 7));
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_FALSE(v->value().has_value());
}

TEST_F(DsTest, HashTableCrossKeyAtomicity) {
  // A transaction updating two keys is all-or-nothing under contention.
  Boot(4, 5);
  HashTable ht = MakeTable();
  ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 0, 100, Val(50)))->ok());
  ASSERT_TRUE(RunTask(*cluster_, HtPut(ht, 0, 200, Val(50)))->ok());

  auto move_units = [this, &ht](MachineId node, uint64_t from, uint64_t to) -> Task<void> {
    for (int i = 0; i < 20; i++) {
      auto tx = cluster_->node(node).Begin(0);
      auto vf = co_await ht.Get(*tx, from);
      auto vt = co_await ht.Get(*tx, to);
      if (!vf.ok() || !vt.ok() || !vf->has_value() || !vt->has_value()) {
        continue;
      }
      uint64_t bf = 0;
      uint64_t bt = 0;
      std::memcpy(&bf, (*vf)->data(), 8);
      std::memcpy(&bt, (*vt)->data(), 8);
      if (bf == 0) {
        continue;
      }
      (void)co_await ht.Put(*tx, from, Val(bf - 1));
      (void)co_await ht.Put(*tx, to, Val(bt + 1));
      (void)co_await tx->Commit();
    }
  };
  auto done = std::make_shared<int>(0);
  auto wrap = [&](MachineId n, uint64_t f, uint64_t t) -> Task<void> {
    co_await move_units(n, f, t);
    (*done)++;
  };
  Spawn(wrap(0, 100, 200));
  Spawn(wrap(1, 200, 100));
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return *done == 2; }, 10 * kSecond));

  auto v1 = RunTask(*cluster_, HtGet(ht, 2, 100));
  auto v2 = RunTask(*cluster_, HtGet(ht, 2, 200));
  uint64_t b1 = 0;
  uint64_t b2 = 0;
  std::memcpy(&b1, v1->value()->data(), 8);
  std::memcpy(&b2, v2->value()->data(), 8);
  EXPECT_EQ(b1 + b2, 100u);
}

TEST_F(DsTest, BTreeInsertGet) {
  Boot();
  BTree bt = MakeTree();
  ASSERT_TRUE(RunTask(*cluster_, BtInsert(bt, 0, 10, 1000))->ok());
  ASSERT_TRUE(RunTask(*cluster_, BtInsert(bt, 1, 20, 2000))->ok());
  auto v = RunTask(*cluster_, BtGet(bt, 2, 10));
  ASSERT_TRUE(v.has_value() && v->ok());
  ASSERT_TRUE(v->value().has_value());
  EXPECT_EQ(*v->value(), 1000u);
  auto missing = RunTask(*cluster_, BtGet(bt, 2, 15));
  ASSERT_TRUE(missing.has_value() && missing->ok());
  EXPECT_FALSE(missing->value().has_value());
}

TEST_F(DsTest, BTreeSplitsAndStaysSorted) {
  Boot();
  BTree bt = MakeTree();
  // Enough keys to force multiple leaf splits and at least one root split.
  const uint64_t kKeys = 300;
  for (uint64_t k = 1; k <= kKeys; k++) {
    uint64_t shuffled = (k * 7919) % 1000 + 1;  // pseudo-random order
    ASSERT_TRUE(RunTask(*cluster_, BtInsert(bt, 0, shuffled, shuffled * 2))->ok())
        << "key " << shuffled;
  }
  for (uint64_t k = 1; k <= kKeys; k++) {
    uint64_t key = (k * 7919) % 1000 + 1;
    auto v = RunTask(*cluster_, BtGet(bt, 1, key));
    ASSERT_TRUE(v.has_value() && v->ok() && v->value().has_value()) << "key " << key;
    EXPECT_EQ(*v->value(), key * 2);
  }
}

TEST_F(DsTest, BTreeRangeScan) {
  Boot();
  BTree bt = MakeTree();
  for (uint64_t k = 1; k <= 100; k++) {
    ASSERT_TRUE(RunTask(*cluster_, BtInsert(bt, 0, k * 3, k))->ok());
  }
  auto scan = [this, &bt](uint64_t lo, uint64_t hi) -> Task<StatusOr<std::vector<std::pair<uint64_t, uint64_t>>>> {
    auto tx = cluster_->node(2).Begin(0);
    auto r = co_await bt.Scan(*tx, lo, hi, 1000);
    if (!r.ok()) {
      co_return r.status();
    }
    Status s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
    co_return *r;
  };
  auto r = RunTask(*cluster_, scan(30, 90));
  ASSERT_TRUE(r.has_value() && r->ok());
  // keys 30,33,...,87: 20 keys.
  ASSERT_EQ(r->value().size(), 20u);
  EXPECT_EQ(r->value().front().first, 30u);
  EXPECT_EQ(r->value().back().first, 87u);
  for (size_t i = 1; i < r->value().size(); i++) {
    EXPECT_LT(r->value()[i - 1].first, r->value()[i].first);
  }
}

TEST_F(DsTest, BTreeRemove) {
  Boot();
  BTree bt = MakeTree();
  for (uint64_t k = 1; k <= 50; k++) {
    ASSERT_TRUE(RunTask(*cluster_, BtInsert(bt, 0, k, k))->ok());
  }
  auto remove = [this, &bt](uint64_t key) -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    Status s = co_await bt.Remove(*tx, key);
    if (!s.ok()) {
      co_return s;
    }
    co_return co_await tx->Commit();
  };
  ASSERT_TRUE(RunTask(*cluster_, remove(25))->ok());
  auto v = RunTask(*cluster_, BtGet(bt, 2, 25));
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_FALSE(v->value().has_value());
  // Neighbors unaffected.
  EXPECT_TRUE(RunTask(*cluster_, BtGet(bt, 2, 24))->value().has_value());
  EXPECT_TRUE(RunTask(*cluster_, BtGet(bt, 2, 26))->value().has_value());
}

TEST_F(DsTest, BTreeStaleCacheHealsViaFenceKeys) {
  Boot();
  BTree bt = MakeTree();
  BTree other = bt.Clone();  // second machine's handle with its own cache

  // Warm machine 1's cache with a small tree.
  for (uint64_t k = 1; k <= 20; k++) {
    ASSERT_TRUE(RunTask(*cluster_, BtInsert(bt, 0, k, k))->ok());
  }
  auto warm = [this, &other](uint64_t key) -> Task<StatusOr<std::optional<uint64_t>>> {
    auto tx = cluster_->node(1).Begin(0);
    auto v = co_await other.Get(*tx, key);
    if (!v.ok()) {
      co_return v.status();
    }
    (void)co_await tx->Commit();
    co_return *v;
  };
  ASSERT_TRUE(RunTask(*cluster_, warm(5))->ok());

  // Grow the tree from machine 0 until it splits several times.
  for (uint64_t k = 21; k <= 400; k++) {
    ASSERT_TRUE(RunTask(*cluster_, BtInsert(bt, 0, k, k))->ok()) << "key " << k;
  }
  // Machine 1 reads keys in the newly-split area through its stale cache;
  // fence keys must detect and heal.
  for (uint64_t k = 380; k <= 400; k++) {
    auto v = RunTask(*cluster_, warm(k));
    ASSERT_TRUE(v.has_value() && v->ok()) << "key " << k;
    ASSERT_TRUE(v->value().has_value()) << "key " << k;
    EXPECT_EQ(*v->value(), k);
  }
}

TEST_F(DsTest, PropertyBTreeMatchesStdMap) {
  Boot(4, 33);
  BTree bt = MakeTree();
  std::map<uint64_t, uint64_t> model;
  Pcg32 rng(99);
  for (int op = 0; op < 400; op++) {
    uint64_t key = rng.Uniform(200) + 1;
    int kind = static_cast<int>(rng.Uniform(3));
    if (kind == 0 || model.count(key) == 0) {
      uint64_t val = rng.Next64() | 1;
      ASSERT_TRUE(RunTask(*cluster_, BtInsert(bt, 0, key, val))->ok());
      model[key] = val;
    } else if (kind == 1) {
      auto remove = [this, &bt, key]() -> Task<Status> {
        auto tx = cluster_->node(0).Begin(0);
        Status s = co_await bt.Remove(*tx, key);
        if (!s.ok()) {
          co_return s;
        }
        co_return co_await tx->Commit();
      };
      ASSERT_TRUE(RunTask(*cluster_, remove())->ok());
      model.erase(key);
    } else {
      auto v = RunTask(*cluster_, BtGet(bt, 0, key));
      ASSERT_TRUE(v.has_value() && v->ok());
      if (model.count(key) != 0) {
        ASSERT_TRUE(v->value().has_value()) << "key " << key;
        EXPECT_EQ(*v->value(), model[key]);
      } else {
        EXPECT_FALSE(v->value().has_value()) << "key " << key;
      }
    }
  }
  // Final sweep.
  for (const auto& [k, v] : model) {
    auto got = RunTask(*cluster_, BtGet(bt, 1, k));
    ASSERT_TRUE(got.has_value() && got->ok());
    ASSERT_TRUE(got->value().has_value()) << "key " << k;
    EXPECT_EQ(*got->value(), v);
  }
}

}  // namespace
}  // namespace farm
