#include "src/obs/trace.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/logging.h"

namespace farm {
namespace trace {

namespace {

// ts/dur are microseconds in the trace-event format; simulated time is
// nanoseconds. Emit "<us>.<ns remainder>" with fixed width so output is
// deterministic and loses no precision.
void AppendMicros(std::string& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000, ns % 1000);
  out += buf;
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
}

}  // namespace

Tracer::Tracer() : Tracer(Options{}) {}

Tracer::Tracer(Options options) : options_(options) {}

void Tracer::NameProcess(uint32_t pid, const std::string& name) {
  Event ev;
  ev.phase = 'M';
  ev.pid = pid;
  ev.name = "process_name";
  ev.id = name;
  metadata_.push_back(std::move(ev));
}

void Tracer::NameThread(uint32_t pid, uint32_t tid, const std::string& name) {
  Event ev;
  ev.phase = 'M';
  ev.pid = pid;
  ev.tid = tid;
  ev.name = "thread_name";
  ev.id = name;
  metadata_.push_back(std::move(ev));
}

void Tracer::BeginSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                       const std::string& id) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  Push(Event{'b', pid, tid, sim_->Now(), 0, cat, name, id, 0});
}

void Tracer::EndSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                     const std::string& id) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  Push(Event{'e', pid, tid, sim_->Now(), 0, cat, name, id, 0});
}

void Tracer::CompleteSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                          SimTime start) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  SimTime now = sim_->Now();
  Push(Event{'X', pid, tid, start, now - start, cat, name, {}, 0});
}

void Tracer::Instant(uint32_t pid, uint32_t tid, const char* cat, const char* name) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  Push(Event{'i', pid, tid, sim_->Now(), 0, cat, name, {}, 0});
}

void Tracer::CounterValue(uint32_t pid, const char* name, uint64_t value) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  Push(Event{'C', pid, 0, sim_->Now(), 0, nullptr, name, {}, value});
}

void Tracer::AppendEvent(std::string& out, const Event& ev) {
  char buf[96];
  if (ev.phase == 'M') {
    std::snprintf(buf, sizeof(buf), "{\"ph\":\"M\",\"pid\":%u,\"tid\":%u,\"ts\":0,\"name\":\"%s\"",
                  ev.pid, ev.tid, ev.name);
    out += buf;
    out += ",\"args\":{\"name\":\"";
    AppendEscaped(out, ev.id);
    out += "\"}}";
    return;
  }
  std::snprintf(buf, sizeof(buf), "{\"ph\":\"%c\",\"pid\":%u,\"tid\":%u,\"ts\":", ev.phase,
                ev.pid, ev.tid);
  out += buf;
  AppendMicros(out, ev.ts);
  if (ev.cat != nullptr) {
    out += ",\"cat\":\"";
    out += ev.cat;
    out += '"';
  }
  out += ",\"name\":\"";
  out += ev.name;
  out += '"';
  switch (ev.phase) {
    case 'X':
      out += ",\"dur\":";
      AppendMicros(out, ev.dur);
      break;
    case 'b':
    case 'e':
      out += ",\"id\":\"";
      AppendEscaped(out, ev.id);
      out += '"';
      break;
    case 'i':
      out += ",\"s\":\"t\"";
      break;
    case 'C': {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%" PRIu64 "}", ev.value);
      out += buf;
      break;
    }
    default:
      break;
  }
  out += '}';
}

std::string Tracer::ToJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Event& ev : metadata_) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    AppendEvent(out, ev);
  }
  for (const Event& ev : events_) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    AppendEvent(out, ev);
  }
  out += "\n]}\n";
  return out;
}

Status Tracer::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status(StatusCode::kInternal, "cannot open trace file: " + path);
  }
  std::string json = ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status(StatusCode::kInternal, "short write to trace file: " + path);
  }
  return OkStatus();
}

}  // namespace trace
}  // namespace farm
