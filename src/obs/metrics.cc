#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace farm {
namespace metrics {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void AppendToFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

}  // namespace

std::string CellKey(const std::string& name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) {
        key += ',';
      }
      first = false;
      key += k;
      key += "=\"";
      key += v;
      key += '"';
    }
    key += '}';
  }
  return key;
}

Counter::Counter(Registry& reg, const std::string& name, Labels labels)
    : Counter(reg.GetCounter(name, std::move(labels))) {}

Gauge::Gauge(Registry& reg, const std::string& name, Labels labels)
    : Gauge(reg.GetGauge(name, std::move(labels))) {}

HistogramMetric::HistogramMetric(Registry& reg, const std::string& name, Labels labels)
    : HistogramMetric(reg.GetHistogram(name, std::move(labels))) {}

Snapshot Snapshot::Diff(const Snapshot& after, const Snapshot& before) {
  Snapshot d;
  for (const auto& [k, v] : after.counters) {
    auto it = before.counters.find(k);
    d.counters[k] = v - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [k, v] : after.gauges) {
    auto it = before.gauges.find(k);
    d.gauges[k] = v - (it == before.gauges.end() ? 0 : it->second);
  }
  for (const auto& [k, v] : after.histogram_counts) {
    auto it = before.histogram_counts.find(k);
    d.histogram_counts[k] = v - (it == before.histogram_counts.end() ? 0 : it->second);
  }
  return d;
}

Counter Registry::GetCounter(const std::string& name, Labels labels) {
  auto& cell = counters_[CellKey(name, std::move(labels))];
  if (cell == nullptr) {
    cell = std::make_shared<internal::CounterCell>();
  }
  return Counter(cell);
}

Gauge Registry::GetGauge(const std::string& name, Labels labels) {
  auto& cell = gauges_[CellKey(name, std::move(labels))];
  if (cell == nullptr) {
    cell = std::make_shared<internal::GaugeCell>();
  }
  return Gauge(cell);
}

HistogramMetric Registry::GetHistogram(const std::string& name, Labels labels) {
  auto& cell = histograms_[CellKey(name, std::move(labels))];
  if (cell == nullptr) {
    cell = std::make_shared<internal::HistogramCell>();
  }
  return HistogramMetric(cell);
}

size_t Registry::CellCount() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

Snapshot Registry::TakeSnapshot() const {
  Snapshot s;
  for (const auto& [k, cell] : counters_) {
    s.counters[k] = cell->value;
  }
  for (const auto& [k, cell] : gauges_) {
    s.gauges[k] = cell->value;
  }
  for (const auto& [k, cell] : histograms_) {
    s.histogram_counts[k] = cell->count();
  }
  return s;
}

void Registry::Reset() {
  for (auto& [k, cell] : counters_) {
    (void)k;
    cell->value = 0;
  }
  for (auto& [k, cell] : gauges_) {
    (void)k;
    cell->value = 0;
  }
  for (auto& [k, cell] : histograms_) {
    (void)k;
    cell->Reset();
  }
}

std::string Registry::ToText() const {
  std::ostringstream out;
  for (const auto& [k, cell] : counters_) {
    out << k << ' ' << cell->value << '\n';
  }
  for (const auto& [k, cell] : gauges_) {
    out << k << ' ' << cell->value << '\n';
  }
  for (const auto& [k, cell] : histograms_) {
    out << k << ' ' << cell->Summary() << '\n';
  }
  return out.str();
}

std::string Registry::ToJson() const {
  std::ostringstream out;
  auto emit_map = [&out](const char* kind, const auto& cells, auto value_fn, bool first) {
    if (!first) {
      out << ',';
    }
    out << '"' << kind << "\":{";
    bool f = true;
    for (const auto& [k, cell] : cells) {
      if (!f) {
        out << ',';
      }
      f = false;
      out << '"' << JsonEscape(k) << "\":";
      value_fn(*cell);
    }
    out << '}';
  };
  out << '{';
  emit_map("counters", counters_,
           [&out](const internal::CounterCell& c) { out << c.value; }, true);
  emit_map("gauges", gauges_, [&out](const internal::GaugeCell& g) { out << g.value; },
           false);
  emit_map("histograms", histograms_,
           [&out](const internal::HistogramCell& h) {
             out << "{\"count\":" << h.count() << ",\"min\":" << h.min()
                 << ",\"max\":" << h.max() << ",\"p50\":" << h.Percentile(50)
                 << ",\"p99\":" << h.Percentile(99) << '}';
           },
           false);
  out << '}';
  return out.str();
}

void AppendDump(const std::string& path, const Registry& reg, const std::string& section) {
  bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::string content;
  if (json) {
    content = "{\"section\":\"" + JsonEscape(section) + "\",\"metrics\":" + reg.ToJson() + "}\n";
  } else {
    content = "# " + section + "\n" + reg.ToText();
  }
  AppendToFile(path, content);
}

}  // namespace metrics
}  // namespace farm
