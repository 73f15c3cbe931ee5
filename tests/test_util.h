// Shared test helpers for cluster-level tests.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <memory>
#include <optional>

#include "src/core/cluster.h"

namespace farm {

// Runs a coroutine to completion against the cluster's simulator. Lease
// timers keep the event queue non-empty forever, so we step with a simulated
// deadline instead of draining the queue. Returns nullopt on timeout.
template <typename T>
std::optional<T> RunTask(Cluster& cluster, Task<T> task, SimDuration timeout = 2 * kSecond) {
  auto result = std::make_shared<std::optional<T>>();
  auto wrapper = [](Task<T> inner, std::shared_ptr<std::optional<T>> out) -> Task<void> {
    out->emplace(co_await std::move(inner));
  };
  Spawn(wrapper(std::move(task), result));
  SimTime deadline = cluster.sim().Now() + timeout;
  while (!result->has_value() && cluster.sim().Now() < deadline) {
    if (!cluster.sim().Step()) {
      break;
    }
  }
  return *result;
}

// Steps the simulator until pred() holds or the timeout elapses.
template <typename Pred>
bool RunUntil(Cluster& cluster, Pred pred, SimDuration timeout) {
  SimTime deadline = cluster.sim().Now() + timeout;
  while (!pred() && cluster.sim().Now() < deadline) {
    if (!cluster.sim().Step()) {
      break;
    }
  }
  return pred();
}

// Frames `payload` for RingSender::Append the way the messenger frames a
// record.
inline std::vector<uint8_t> FramePayload(const std::vector<uint8_t>& payload) {
  BufWriter w = StartFrame(static_cast<uint32_t>(payload.size()));
  w.Append(payload.data(), payload.size());
  return FinishFrame(w);
}

inline ClusterOptions SmallClusterOptions(int machines = 4, uint64_t seed = 1) {
  ClusterOptions opts;
  opts.machines = machines;
  opts.zk_replicas = 3;
  opts.seed = seed;
  opts.node.worker_threads = 2;
  opts.node.region_size = 256 << 10;
  opts.node.block_size = 16 << 10;
  opts.node.replication_factor = 3;
  opts.node.lease.duration = 10 * kMillisecond;
  return opts;
}

// Creates a cluster, starts it, and lets bootstrap traffic settle.
inline std::unique_ptr<Cluster> MakeStartedCluster(ClusterOptions opts) {
  auto cluster = std::make_unique<Cluster>(opts);
  cluster->Start();
  cluster->RunFor(5 * kMillisecond);
  return cluster;
}

// Creates a region from the given node and returns its id.
inline RegionId MustCreateRegion(Cluster& cluster, uint32_t size, uint32_t stride,
                                 RegionId colocate = kInvalidRegion, MachineId from = 0) {
  auto create = [](Cluster* c, uint32_t sz, uint32_t st, RegionId co,
                   MachineId node) -> Task<StatusOr<RegionId>> {
    co_return co_await c->node(node).CreateRegion(sz, st, co, 0);
  };
  auto r = RunTask(cluster, create(&cluster, size, stride, colocate, from));
  FARM_CHECK(r.has_value() && r->ok()) << "region creation failed: "
                                       << (r.has_value() ? r->status().ToString() : "timeout");
  return r->value();
}

}  // namespace farm

#endif  // TESTS_TEST_UTIL_H_
