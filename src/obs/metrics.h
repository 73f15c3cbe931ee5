// Named, labeled metrics: counters and histograms in a registry.
//
// A Registry owns metric cells keyed by (name, sorted labels). Handles
// (Counter / HistogramMetric) are cheap references to a cell:
//
//   metrics::Counter aborts = reg.GetCounter("tx_abort_reason", {{"reason", "lock_conflict"}});
//   aborts.Inc();
//
// Copying a Counter shares its cell. Assigning one HistogramMetric to
// another copies the histogram into the target's cell, so assigning a
// default-constructed one clears a registered histogram in place.
//
// There is no process-wide registry: each simulated Cluster owns its own,
// so clusters in one process do not bleed counts into each other. Plain
// stats structs (NodeStats, FabricStats) are not registry cells; the
// Cluster writes them into its registry just before the teardown dump.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"

namespace farm {
namespace metrics {

// Label set; order does not matter (keys are sorted for the cell key).
using Labels = std::vector<std::pair<std::string, std::string>>;

// Canonical cell key: name{k1="v1",k2="v2"} with labels sorted by key.
std::string CellKey(const std::string& name, Labels labels);

// Monotonically increasing counter.
class Counter {
 public:
  // A detached cell (not in any registry).
  Counter() : cell_(std::make_shared<uint64_t>(0)) {}

  void Inc(uint64_t delta = 1) { *cell_ += delta; }
  uint64_t value() const { return *cell_; }
  operator uint64_t() const { return *cell_; }
  Counter& operator++() {
    ++*cell_;
    return *this;
  }
  uint64_t operator++(int) { return (*cell_)++; }
  Counter& operator+=(uint64_t delta) {
    *cell_ += delta;
    return *this;
  }

 private:
  friend class Registry;
  explicit Counter(std::shared_ptr<uint64_t> cell) : cell_(std::move(cell)) {}
  std::shared_ptr<uint64_t> cell_;
};

// Handle to a registry-owned farm::Histogram.
class HistogramMetric {
 public:
  // A detached, empty histogram.
  HistogramMetric() : cell_(std::make_shared<Histogram>()) {}

  HistogramMetric(const HistogramMetric& other)
      : cell_(std::make_shared<Histogram>(*other.cell_)) {}
  HistogramMetric& operator=(const HistogramMetric& other) {
    *cell_ = *other.cell_;
    return *this;
  }
  HistogramMetric(HistogramMetric&&) = default;
  HistogramMetric& operator=(HistogramMetric&&) = default;

  void Record(uint64_t value) { cell_->Record(value); }
  const Histogram& histogram() const { return *cell_; }

 private:
  friend class Registry;
  explicit HistogramMetric(std::shared_ptr<Histogram> cell) : cell_(std::move(cell)) {}
  std::shared_ptr<Histogram> cell_;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Returns a handle bound to the (name, labels) cell, creating it if
  // needed. Repeated lookups with the same name and label set (in any label
  // order) return handles to the same cell.
  Counter GetCounter(const std::string& name, Labels labels = {});
  HistogramMetric GetHistogram(const std::string& name, Labels labels = {});

  // One line per cell: `key value`, sorted by key. Histograms dump
  // `key n=... p50=... p99=... max=...`.
  std::string ToText() const;
  // {"counters":{...},"histograms":{key:{"count":..,...}}}
  std::string ToJson() const;

 private:
  std::map<std::string, std::shared_ptr<uint64_t>> counters_;
  std::map<std::string, std::shared_ptr<Histogram>> histograms_;
};

// Appends `reg`'s dump under a `section` header to the file at `path` (JSON
// if the path ends in ".json", text otherwise). A Cluster calls this at
// teardown when ClusterOptions::metrics_out is set (the bench --metrics-out
// flag).
void AppendDump(const std::string& path, const Registry& reg, const std::string& section);

}  // namespace metrics
}  // namespace farm

#endif  // SRC_OBS_METRICS_H_
