// Named, labeled metrics: counters, gauges, and histograms in a registry.
//
// A Registry owns metric cells keyed by (name, sorted labels). Handles
// (Counter / Gauge / HistogramMetric) are cheap references to a cell:
//
//   metrics::Counter committed(reg, "tx_committed", {{"node", "m3"}});
//   committed.Inc();
//
// Handle semantics are chosen so existing plain-struct stats code keeps
// working after migrating onto the registry:
//   - default construction creates a private detached cell (not in any
//     registry), so aggregate structs like `NodeStats total;` still work;
//   - COPYING a handle snapshots the current value into a new detached cell
//     (value semantics: `FabricStats before = fabric.stats();` stays a
//     point-in-time snapshot);
//   - MOVING a handle transfers the binding (registry lookups return by
//     value via move, so `auto c = reg.GetCounter(...)` stays bound).
//
// Registries support snapshot/diff and text + JSON dumps. There is no
// process-wide registry: each simulated Cluster owns its own, so clusters
// in one process do not bleed counts into each other.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
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

namespace internal {
struct CounterCell {
  uint64_t value = 0;
};
struct GaugeCell {
  int64_t value = 0;
};
using HistogramCell = ::farm::Histogram;
}  // namespace internal

class Registry;

// Monotonically increasing counter. Supports the operators the migrated
// plain-uint64 stats structs relied on (++, +=, implicit read).
class Counter {
 public:
  Counter() : cell_(std::make_shared<internal::CounterCell>()) {}
  // Binds to the cell in `reg` (creating it if needed).
  Counter(Registry& reg, const std::string& name, Labels labels = {});

  Counter(const Counter& other)
      : cell_(std::make_shared<internal::CounterCell>(*other.cell_)) {}
  Counter& operator=(const Counter& other) {
    cell_->value = other.cell_->value;
    return *this;
  }
  Counter(Counter&&) = default;
  Counter& operator=(Counter&&) = default;

  void Inc(uint64_t delta = 1) { cell_->value += delta; }
  // Zeroes the cell in place (keeps the registry binding, unlike assigning
  // a fresh default-constructed handle, which would rebind).
  void Reset() { cell_->value = 0; }
  uint64_t value() const { return cell_->value; }
  operator uint64_t() const { return cell_->value; }
  Counter& operator++() {
    cell_->value++;
    return *this;
  }
  uint64_t operator++(int) { return cell_->value++; }
  Counter& operator+=(uint64_t delta) {
    cell_->value += delta;
    return *this;
  }

  friend std::ostream& operator<<(std::ostream& os, const Counter& c) {
    return os << c.value();
  }

 private:
  friend class Registry;
  explicit Counter(std::shared_ptr<internal::CounterCell> cell) : cell_(std::move(cell)) {}
  std::shared_ptr<internal::CounterCell> cell_;
};

// A settable signed value.
class Gauge {
 public:
  Gauge() : cell_(std::make_shared<internal::GaugeCell>()) {}
  Gauge(Registry& reg, const std::string& name, Labels labels = {});

  Gauge(const Gauge& other) : cell_(std::make_shared<internal::GaugeCell>(*other.cell_)) {}
  Gauge& operator=(const Gauge& other) {
    cell_->value = other.cell_->value;
    return *this;
  }
  Gauge(Gauge&&) = default;
  Gauge& operator=(Gauge&&) = default;

  void Set(int64_t v) { cell_->value = v; }
  void Add(int64_t delta) { cell_->value += delta; }
  int64_t value() const { return cell_->value; }
  operator int64_t() const { return cell_->value; }

  friend std::ostream& operator<<(std::ostream& os, const Gauge& g) {
    return os << g.value();
  }

 private:
  friend class Registry;
  explicit Gauge(std::shared_ptr<internal::GaugeCell> cell) : cell_(std::move(cell)) {}
  std::shared_ptr<internal::GaugeCell> cell_;
};

// Handle to a registry-owned farm::Histogram.
class HistogramMetric {
 public:
  HistogramMetric() : cell_(std::make_shared<internal::HistogramCell>()) {}
  HistogramMetric(Registry& reg, const std::string& name, Labels labels = {});

  HistogramMetric(const HistogramMetric& other)
      : cell_(std::make_shared<internal::HistogramCell>(*other.cell_)) {}
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
  explicit HistogramMetric(std::shared_ptr<internal::HistogramCell> cell)
      : cell_(std::move(cell)) {}
  std::shared_ptr<internal::HistogramCell> cell_;
};

// Point-in-time view of every cell in a registry, keyed by CellKey.
// Histograms are summarized as count/sum-like scalars (count, p50, p99, max).
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, uint64_t> histogram_counts;

  // after - before, per key. Keys absent from `before` count from zero;
  // keys absent from `after` are dropped. Gauges diff signed.
  static Snapshot Diff(const Snapshot& after, const Snapshot& before);
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
  Gauge GetGauge(const std::string& name, Labels labels = {});
  HistogramMetric GetHistogram(const std::string& name, Labels labels = {});

  size_t CellCount() const;
  Snapshot TakeSnapshot() const;
  void Reset();  // zeroes every cell (keeps registrations)

  // One line per cell: `key value`, sorted by key. Histograms dump
  // `key n=... p50=... p99=... max=...`.
  std::string ToText() const;
  // {"counters":{...},"gauges":{...},"histograms":{key:{"count":..,...}}}
  std::string ToJson() const;

 private:
  std::map<std::string, std::shared_ptr<internal::CounterCell>> counters_;
  std::map<std::string, std::shared_ptr<internal::GaugeCell>> gauges_;
  std::map<std::string, std::shared_ptr<internal::HistogramCell>> histograms_;
};

// Appends `reg`'s dump under a `section` header to the file at `path` (JSON
// if the path ends in ".json", text otherwise). A Cluster calls this at
// teardown when ClusterOptions::metrics_out is set (the bench --metrics-out
// flag).
void AppendDump(const std::string& path, const Registry& reg, const std::string& section);

}  // namespace metrics
}  // namespace farm

#endif  // SRC_OBS_METRICS_H_
