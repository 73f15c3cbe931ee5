#include "src/baseline/local_occ.h"

#include "src/net/cost_model.h"

namespace farm {

LocalOccEngine::LocalOccEngine(Simulator& sim, Machine& machine, Options options)
    : sim_(sim), machine_(machine), options_(options) {}

void LocalOccEngine::Seed(uint64_t key, uint32_t value_bytes) {
  Record rec;
  rec.value.assign(value_bytes, 0);
  store_[key] = std::move(rec);
}

Future<Unit> LocalOccEngine::JoinLogBatch() {
  Future<Unit> f;
  batch_waiters_.push_back(f);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    sim_.After(kLogFlushInterval, [this]() { FlushBatch(); });
  }
  return f;
}

void LocalOccEngine::FlushBatch() {
  // One batched SSD write serves the whole epoch (group commit).
  auto waiters = std::exchange(batch_waiters_, {});
  flush_scheduled_ = false;
  sim_.After(kSsdFlushLatency, [waiters = std::move(waiters)]() {
    for (const auto& w : waiters) {
      w.Set(Unit{});
    }
  });
}

Task<bool> LocalOccEngine::RunTx(int thread, const std::vector<uint64_t>& reads,
                                 const std::vector<uint64_t>& writes, uint32_t value_bytes) {
  HwThread& cpu = machine_.thread(thread);
  // Execution: read versions and data.
  // farmlint: allow(unordered-decl): per-transaction scratch map; validation
  // walks the caller-ordered `reads` vector, never this map.
  std::unordered_map<uint64_t, uint64_t> read_versions;
  for (uint64_t key : reads) {
    co_await cpu.Execute(kCost.cpu_tx_read_local);
    auto it = store_.find(key);
    if (it == store_.end()) {
      Seed(key, value_bytes);
      it = store_.find(key);
    }
    read_versions[key] = it->second.version;
  }
  co_await cpu.Execute(kCost.cpu_tx_commit_setup);

  // Commit: lock writes, validate reads, apply, log, unlock (Silo protocol).
  std::vector<Record*> locked;
  bool ok = true;
  for (uint64_t key : writes) {
    co_await cpu.Execute(kCost.cpu_lock_per_object);
    auto it = store_.find(key);
    if (it == store_.end()) {
      Seed(key, value_bytes);
      it = store_.find(key);
    }
    Record& rec = it->second;
    if (rec.locked) {
      ok = false;
      break;
    }
    auto rv = read_versions.find(key);
    if (rv != read_versions.end() && rv->second != rec.version) {
      ok = false;
      break;
    }
    rec.locked = true;
    locked.push_back(&rec);
  }
  if (ok) {
    for (uint64_t key : reads) {
      auto it = store_.find(key);
      if (it->second.version != read_versions[key] ||
          (it->second.locked &&
           std::find(writes.begin(), writes.end(), key) == writes.end())) {
        ok = false;
        break;
      }
    }
  }
  if (!ok) {
    for (Record* rec : locked) {
      rec->locked = false;
    }
    aborted_++;
    co_return false;
  }
  for (Record* rec : locked) {
    co_await cpu.Execute(kCost.CpuBytes(value_bytes) + kCost.cpu_tx_write_buffer);
    rec->version++;
    rec->locked = false;
  }
  if (options_.logging && !writes.empty()) {
    // Durability: wait for the group-commit flush of this epoch.
    co_await JoinLogBatch();
  }
  committed_++;
  co_return true;
}

}  // namespace farm
