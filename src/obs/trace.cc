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
  metadata_.push_back(Event{'M', pid, 0, 0, 0, nullptr, "process_name", name, 0});
}

void Tracer::NameThread(uint32_t pid, uint32_t tid, const std::string& name) {
  metadata_.push_back(Event{'M', pid, tid, 0, 0, nullptr, "thread_name", name, 0});
}

SimTime Tracer::Stamp() const {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  return sim_->Now();
}

void Tracer::BeginSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                       const std::string& id) {
  Push(Event{'b', pid, tid, Stamp(), 0, cat, name, id, 0});
}

void Tracer::EndSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                     const std::string& id) {
  Push(Event{'e', pid, tid, Stamp(), 0, cat, name, id, 0});
}

void Tracer::CompleteSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                          SimTime start) {
  Push(Event{'X', pid, tid, start, Stamp() - start, cat, name, {}, 0});
}

void Tracer::Instant(uint32_t pid, uint32_t tid, const char* cat, const char* name) {
  Push(Event{'i', pid, tid, Stamp(), 0, cat, name, {}, 0});
}

void Tracer::CounterValue(uint32_t pid, const char* name, uint64_t value) {
  Push(Event{'C', pid, 0, Stamp(), 0, nullptr, name, {}, value});
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
  const char* sep = "";
  for (const std::vector<Event>* list : {&metadata_, &events_}) {
    for (const Event& ev : *list) {
      out += sep;
      sep = ",\n";
      AppendEvent(out, ev);
    }
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
