// Deterministic span tracer keyed on simulated time, exporting Chrome
// trace-event JSON loadable in Perfetto / chrome://tracing.
//
// Mapping from simulation to trace concepts:
//   pid = simulated machine id (named via NameProcess, e.g. "machine 3")
//   tid = hardware-thread index on that machine ("worker 0", "lease")
//   ts  = simulated nanoseconds, emitted as fractional microseconds
//
// Three event shapes are used:
//   - nestable async spans ("b"/"e" keyed by category + id) for work that
//     interleaves on one thread, like concurrent transaction commits and
//     multi-step recovery flows;
//   - complete spans ("X") for contiguous stretches of one logical
//     activity, like a transaction read or a reconfiguration step;
//   - instants ("i") and counters ("C") for point events such as fabric
//     operations, milestones, and cumulative byte counts.
//
// A tracer is attached to one Cluster (ClusterOptions::tracer) and reached
// through that cluster's obs::Sinks, so tracing costs one null check when
// off and two clusters never share a tracer. All event fields derive from
// simulated state, so two runs with the same seed produce byte-identical
// trace files (pinned by tests/obs_test.cc).
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace farm {
namespace trace {

class Tracer {
 public:
  struct Options {
    // Record per-operation fabric instants and byte counters (cat "net").
    // High-volume; disable for long runs where only tx/recovery spans matter.
    bool capture_net = true;
  };

  Tracer();
  explicit Tracer(Options options);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Events are stamped with clock->Now(). The clock must be attached before
  // any recording; a cluster attaches its simulator at construction. The
  // tracer does not own the simulator and must not record after it dies.
  void AttachClock(const Simulator* sim) { sim_ = sim; }
  bool capture_net() const { return options_.capture_net; }

  // Track naming (metadata events, ts 0).
  void NameProcess(uint32_t pid, const std::string& name);
  void NameThread(uint32_t pid, uint32_t tid, const std::string& name);

  // Nestable async span; begin/end pairs match on (cat, id). Spans with the
  // same id nest in Perfetto, so a transaction and its phases share one id.
  void BeginSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                 const std::string& id);
  void EndSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
               const std::string& id);

  // Complete span from `start` to now on the (pid, tid) track.
  void CompleteSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                    SimTime start);

  void Instant(uint32_t pid, uint32_t tid, const char* cat, const char* name);
  void CounterValue(uint32_t pid, const char* name, uint64_t value);

  size_t event_count() const { return events_.size() + metadata_.size(); }

  // Chrome trace-event JSON ({"traceEvents":[...]}). Deterministic: event
  // order is insertion order (the simulator is single-threaded) and all
  // numbers are formatted with fixed precision.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  struct Event {
    char phase;  // 'b','e','X','i','C','M'
    uint32_t pid = 0;
    uint32_t tid = 0;
    SimTime ts = 0;
    SimDuration dur = 0;       // X only
    const char* cat = nullptr;  // static strings at call sites
    const char* name = nullptr;
    std::string id;      // async spans; also thread/process names for M
    uint64_t value = 0;  // C only
  };

  // Now on the attached clock (checked: recording needs one).
  SimTime Stamp() const;
  void Push(Event ev) { events_.push_back(std::move(ev)); }
  static void AppendEvent(std::string& out, const Event& ev);

  Options options_;
  const Simulator* sim_ = nullptr;
  std::vector<Event> metadata_;
  std::vector<Event> events_;
};

}  // namespace trace
}  // namespace farm

#endif  // SRC_OBS_TRACE_H_
