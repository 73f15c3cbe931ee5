// Data recovery (section 5.4) and allocator state recovery (section 5.5).
//
// After ALL-REGIONS-ACTIVE, new backups re-replicate regions by reading
// paced blocks from the primary with one-sided RDMA and applying recovered
// objects under a version check; promoted primaries rebuild slab free lists
// with a paced scan of the alloc bits.
#include <algorithm>

#include "src/core/cluster.h"
#include "src/core/node.h"
#include "src/obs/trace.h"

namespace farm {

namespace {

// Allocator recovery pacing: objects scanned per step, and the gap between
// steps.
constexpr int kAllocScanObjects = 100;
constexpr SimDuration kAllocScanInterval = 100 * kMicrosecond;

}  // namespace

void Node::OnAllRegionsActive() {
  if (!new_backup_regions_.empty()) {
    cluster_->NoteMilestone("data-rec-start");
  }
  // Start paced re-replication of freshly-assigned backup regions.
  for (RegionId rid : new_backup_regions_) {
    const RegionPlacement* p = config_.Placement(rid);
    if (p == nullptr || !IsBackupOf(rid)) {
      continue;
    }
    ReplicateRegionFrom(rid, p->primary);
  }
  new_backup_regions_.clear();

  // Allocator recovery at promoted primaries (delayed until now to keep it
  // off the lock-recovery critical path; section 5.5).
  for (RegionId rid : promoted_regions_) {
    RegionAllocator* alloc = allocator(rid);
    if (alloc != nullptr && IsPrimaryOf(rid)) {
      alloc->StartFreeListRecovery();
      RunAllocatorRecovery(rid);
    }
  }
  promoted_regions_.clear();
}

Detached Node::ReplicateRegionFrom(RegionId region, MachineId primary) {
  trace::SpanGuard rerep_span(emit_.tracer(), static_cast<uint32_t>(id()), 0, "recovery",
                              "re-replication", emit_.SpanId("r", region));
  RegionReplica* rep = replica(region);
  const RegionPlacement* placement = config_.Placement(region);
  if (rep == nullptr || placement == nullptr) {
    co_return;
  }
  ConfigId cfg_at_start = config_.id;

  auto ref = co_await ResolveRef(region, 0);
  if (!ref.ok() || ref->primary != primary) {
    co_return;
  }

  // Build the fetch schedule: ranges that never split an object. Each
  // worker (thread) pulls the next range, reads it with a one-sided RDMA
  // read, applies it, and paces the next read at a random point within the
  // fetch interval (section 5.4).
  uint32_t target_bytes = options_.recovery_block_bytes;
  std::vector<std::pair<uint32_t, uint32_t>> ranges;  // (offset, len)
  uint32_t stride = rep->object_stride();
  if (stride != 0) {
    uint32_t per = std::max<uint32_t>(1, target_bytes / stride);
    for (uint32_t off = 0; off < rep->size();) {
      uint32_t n = std::min<uint64_t>(per, (rep->size() - off) / stride);
      if (n == 0) {
        break;
      }
      ranges.push_back({off, n * stride});
      off += n * stride;
    }
  } else {
    RegionAllocator* alloc = allocator(region);
    uint32_t block = options_.block_size;
    for (uint32_t b = 0; b * block < rep->size(); b++) {
      uint32_t payload = alloc != nullptr ? alloc->PayloadSizeAt(b * block) : 0;
      if (payload == 0) {
        continue;  // unformatted block: nothing allocated, nothing to copy
      }
      uint32_t slot = payload + kObjectHeaderBytes;
      uint32_t per = std::max<uint32_t>(1, target_bytes / slot);
      uint32_t slots_in_block = block / slot;
      for (uint32_t s = 0; s < slots_in_block;) {
        uint32_t n = std::min(per, slots_in_block - s);
        ranges.push_back({b * block + s * slot, n * slot});
        s += n;
      }
    }
  }

  auto next_range = std::make_shared<size_t>(0);
  int fetchers = std::max(1, options_.recovery_concurrent_fetches);
  WaitGroup wg;
  for (int f = 0; f < fetchers; f++) {
    wg.Add();
    auto worker_loop = [](Node* node, RegionId rid, MachineId prim, uint64_t base,
                          std::shared_ptr<size_t> next,
                          std::vector<std::pair<uint32_t, uint32_t>> all, WaitGroup done,
                          ConfigId cfg) -> Task<void> {
      Pcg32 rng(node->cluster().rng().Next64());
      while (node->machine().alive() && node->config().id == cfg) {
        size_t i = (*next)++;
        if (i >= all.size()) {
          break;
        }
        auto [off, len] = all[i];
        // Pace: start at a random point within the interval window.
        SimDuration wait = rng.Uniform64(node->options().recovery_fetch_interval) + 1;
        co_await SleepFor(node->sim(), wait);
        NetResult r = co_await node->fabric().Read(node->id(), prim, base + off, len,
                                                   &node->worker(0));
        if (!r.status.ok()) {
          break;  // primary failed; the next reconfiguration reassigns
        }
        node->ApplyRecoveredBlock(rid, off, r.data);
      }
      done.Done();
    };
    Spawn(worker_loop(this, region, primary, ref->base, next_range, ranges, wg,
                      cfg_at_start));
  }
  co_await wg.Wait();
  if (*next_range >= ranges.size() && machine_->alive()) {
    stats_.regions_rereplicated++;
    cluster_->NoteRegionRereplicated(region);
  }
}

void Node::ApplyRecoveredBlock(RegionId region, uint32_t offset,
                               const std::vector<uint8_t>& bytes) {
  RegionReplica* rep = replica(region);
  if (rep == nullptr) {
    return;
  }
  uint32_t stride = rep->object_stride();
  uint32_t slot = stride;
  if (slot == 0) {
    RegionAllocator* alloc = allocator(region);
    uint32_t payload = alloc != nullptr ? alloc->PayloadSizeAt(offset) : 0;
    if (payload == 0) {
      return;
    }
    slot = payload + kObjectHeaderBytes;
  }
  for (uint32_t o = 0; o + slot <= bytes.size(); o += slot) {
    uint64_t recovered_word;
    std::memcpy(&recovered_word, bytes.data() + o, 8);
    uint32_t obj_off = offset + o;
    uint64_t local_word = rep->ReadHeader(obj_off);
    // Apply only if the recovered version is newer than the local one and
    // the local object is not locked by a recovering transaction.
    if (VersionWord::Version(recovered_word) <= VersionWord::Version(local_word) ||
        VersionWord::IsLocked(local_word)) {
      continue;
    }
    rep->WriteData(obj_off, bytes.data() + o + kObjectHeaderBytes, slot - kObjectHeaderBytes);
    rep->WriteHeader(obj_off, VersionWord::WithoutLock(recovered_word));
  }
}

Detached Node::RunAllocatorRecovery(RegionId region) {
  trace::SpanGuard alloc_rec_span(emit_.tracer(), static_cast<uint32_t>(id()), 0, "recovery",
                                  "allocator-recovery", emit_.SpanId("r", region));
  RegionAllocator* alloc = allocator(region);
  if (alloc == nullptr) {
    co_return;
  }
  ConfigId cfg = config_.id;
  while (machine_->alive() && config_.id == cfg && alloc->recovering()) {
    int scanned = alloc->RecoveryScanStep(kAllocScanObjects);
    worker(0).InjectBusy(static_cast<SimDuration>(scanned) * 30);
    if (!alloc->recovering()) {
      break;
    }
    co_await SleepFor(sim(), kAllocScanInterval);
  }
}

}  // namespace farm
