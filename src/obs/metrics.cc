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

Counter Registry::GetCounter(const std::string& name, Labels labels) {
  auto& cell = counters_[CellKey(name, std::move(labels))];
  if (cell == nullptr) {
    cell = std::make_shared<uint64_t>(0);
  }
  return Counter(cell);
}

HistogramMetric Registry::GetHistogram(const std::string& name, Labels labels) {
  auto& cell = histograms_[CellKey(name, std::move(labels))];
  if (cell == nullptr) {
    cell = std::make_shared<Histogram>();
  }
  return HistogramMetric(cell);
}

std::string Registry::ToText() const {
  std::ostringstream out;
  for (const auto& [k, cell] : counters_) {
    out << k << ' ' << *cell << '\n';
  }
  for (const auto& [k, cell] : histograms_) {
    out << k << ' ' << cell->Summary() << '\n';
  }
  return out.str();
}

std::string Registry::ToJson() const {
  std::ostringstream out;
  auto emit_map = [&out](const char* kind, const auto& cells, auto value_fn) {
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
  emit_map("counters", counters_, [&out](uint64_t c) { out << c; });
  out << ',';
  emit_map("histograms", histograms_, [&out](const Histogram& h) {
    out << "{\"count\":" << h.count() << ",\"min\":" << h.min() << ",\"max\":" << h.max()
        << ",\"p50\":" << h.Percentile(50) << ",\"p99\":" << h.Percentile(99) << '}';
  });
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
