#include "src/workload/kv.h"

#include <cstring>

namespace farm {

namespace {

constexpr uint32_t kValueSize = 32;  // paper: 16-byte keys, 32-byte values
constexpr uint64_t kLoadSeed = 3;

}  // namespace

Task<StatusOr<KvDb>> KvDb::Create(Cluster& cluster, KvOptions options) {
  KvDb db;
  db.options_ = options;
  Node& node = cluster.node(0);
  HashTable::Options ht;
  ht.buckets = std::max<uint64_t>(64, options.keys);  // load factor ~0.25
  ht.value_size = kValueSize;
  auto table = co_await HashTable::Create(node, ht, 0);
  if (!table.ok()) {
    co_return table.status();
  }
  db.table_ = *table;

  Pcg32 rng(kLoadSeed);
  for (uint64_t k = 1; k <= options.keys; k += 16) {
    for (int attempt = 0; attempt < 5; attempt++) {
      auto tx = node.Begin(0);
      bool ok = true;
      for (uint64_t j = k; j < k + 16 && j <= options.keys && ok; j++) {
        std::vector<uint8_t> value(kValueSize);
        for (auto& b : value) {
          b = static_cast<uint8_t>(rng.Next());
        }
        ok = (co_await db.table_.Put(*tx, j, std::move(value))).ok();
      }
      Status s(StatusCode::kInternal, "load");
      if (ok) {
        s = co_await tx->Commit();
      }
      if (s.ok()) {
        break;
      }
      if (s.code() != StatusCode::kAborted) {
        co_return s;
      }
    }
  }
  co_return db;
}

WorkloadFn KvDb::MakeWorkload() const {
  KvDb db = *this;
  return [db](Node& node, int thread, Pcg32& rng) -> Task<bool> {
    uint64_t key = rng.Uniform64(db.options_.keys) + 1;
    auto v = co_await db.table_.LockFreeGet(node, key, thread);
    co_return v.ok() && v->has_value();
  };
}

}  // namespace farm
