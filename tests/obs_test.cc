// Tests for the observability subsystem (src/obs): metrics registry
// semantics and trace determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/hash.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace farm {
namespace {

TEST(CellKeyTest, SortsLabelsAndFormats) {
  EXPECT_EQ(metrics::CellKey("tx_committed", {}), "tx_committed");
  EXPECT_EQ(metrics::CellKey("tx_committed", {{"node", "m3"}}),
            "tx_committed{node=\"m3\"}");
  // Label order does not matter: keys are sorted.
  EXPECT_EQ(metrics::CellKey("x", {{"b", "2"}, {"a", "1"}}),
            metrics::CellKey("x", {{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(metrics::CellKey("x", {{"b", "2"}, {"a", "1"}}), "x{a=\"1\",b=\"2\"}");
}

TEST(RegistryTest, LookupSharesCellAcrossLabelOrder) {
  metrics::Registry reg;
  metrics::Counter a = reg.GetCounter("ops", {{"node", "m0"}, {"kind", "read"}});
  metrics::Counter b = reg.GetCounter("ops", {{"kind", "read"}, {"node", "m0"}});
  a.Inc(5);
  EXPECT_EQ(b.value(), 5u);  // same cell, despite different label order
  EXPECT_EQ(reg.ToText(), "ops{kind=\"read\",node=\"m0\"} 5\n");

  metrics::Counter c = reg.GetCounter("ops", {{"kind", "write"}, {"node", "m0"}});
  c.Inc();
  EXPECT_EQ(a.value(), 5u);  // different label set, different cell
  EXPECT_EQ(reg.ToText(), "ops{kind=\"read\",node=\"m0\"} 5\nops{kind=\"write\",node=\"m0\"} 1\n");
}

TEST(RegistryTest, CounterOperators) {
  metrics::Registry reg;
  metrics::Counter c = reg.GetCounter("c");
  ++c;
  c++;
  c += 10;
  uint64_t v = c;  // implicit conversion
  EXPECT_EQ(v, 12u);
  EXPECT_EQ(reg.GetCounter("c").value(), 12u);
}

TEST(RegistryTest, HistogramClearsByAssignment) {
  metrics::Registry reg;
  metrics::HistogramMetric h = reg.GetHistogram("latency");
  h.Record(100);
  h.Record(200);
  EXPECT_EQ(reg.GetHistogram("latency").histogram().count(), 2u);

  // Assigning a default histogram clears the registered cell in place.
  metrics::HistogramMetric empty;
  h = empty;
  EXPECT_EQ(reg.GetHistogram("latency").histogram().count(), 0u);
  h.Record(7);
  EXPECT_EQ(reg.GetHistogram("latency").histogram().count(), 1u);
}

TEST(RegistryTest, DumpsContainCells) {
  metrics::Registry reg;
  reg.GetCounter("hits", {{"node", "m1"}}).Inc(3);
  std::string text = reg.ToText();
  EXPECT_NE(text.find("hits{node=\"m1\"} 3"), std::string::npos);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"hits{node=\\\"m1\\\"}\":3"), std::string::npos);
}

TEST(RegistryTest, EmptyHistogramDumpsZeroMin) {
  // A registered-but-never-recorded histogram must dump min 0, not the
  // UINT64_MAX sentinel the live cell uses internally. Bench JSON consumers
  // read these dumps and a sentinel min wrecks axis autoscaling.
  metrics::Registry reg;
  reg.GetHistogram("latency_empty");
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"latency_empty\":{\"count\":0,\"min\":0,\"max\":0,\"p50\":0,\"p99\":0}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("18446744073709551615"), std::string::npos) << json;
  // And recording afterwards reports the true minimum.
  reg.GetHistogram("latency_empty").Record(9);
  std::string json2 = reg.ToJson();
  EXPECT_NE(json2.find("\"latency_empty\":{\"count\":1,\"min\":9"), std::string::npos) << json2;
}

// The teardown dump (ClusterOptions::metrics_out) writes the plain node and
// fabric stats as registry cells, one `key value` line each.
TEST(RegistryTest, TeardownDumpCarriesNodeAndFabricStats) {
  const std::string path = ::testing::TempDir() + "obs_test_teardown_dump.txt";
  std::remove(path.c_str());
  ClusterOptions opts = SmallClusterOptions(4, 5);
  opts.metrics_out = path;
  auto cluster = MakeStartedCluster(opts);
  RegionId rid = MustCreateRegion(*cluster, 64 << 10, 16);
  auto work = [](Cluster* c, RegionId r) -> Task<int> {
    int committed = 0;
    for (int i = 0; i < 8; i++) {
      auto tx = c->node(i % 4).Begin(0);
      GlobalAddr addr{r, static_cast<uint32_t>((i % 4) * 16)};
      if (!(co_await tx->Read(addr, 8)).ok()) {
        continue;
      }
      (void)tx->Write(addr, std::vector<uint8_t>(8, static_cast<uint8_t>(i + 1)));
      committed += (co_await tx->Commit()).ok() ? 1 : 0;
    }
    co_return committed;
  };
  auto committed = RunTask(*cluster, work(cluster.get(), rid));
  ASSERT_TRUE(committed.has_value());
  EXPECT_GT(*committed, 0);

  std::map<std::string, uint64_t> want;
  for (int m = 0; m < 4; m++) {
    want["tx_committed{node=\"m" + std::to_string(m) + "\"}"] =
        cluster->node(static_cast<MachineId>(m)).stats().tx_committed;
  }
  want["fabric_rdma_reads"] = cluster->fabric().stats().rdma_reads;
  EXPECT_GT(want["fabric_rdma_reads"], 0u);
  cluster.reset();

  std::ifstream in(path);
  std::map<std::string, std::string> dumped;
  for (std::string line; std::getline(in, line);) {
    size_t sp = line.rfind(' ');
    if (sp != std::string::npos) {
      dumped[line.substr(0, sp)] = line.substr(sp + 1);
    }
  }
  for (const auto& [key, value] : want) {
    ASSERT_EQ(dumped.count(key), 1u) << key;
    EXPECT_EQ(dumped[key], std::to_string(value)) << key;
  }
  std::remove(path.c_str());
}

// Without a tracer attached, every trace path of a cluster is a no-op: a
// committed transaction runs and nothing needs a tracer.
TEST(TraceTest, NullSafeWithoutTracer) {
  { trace::SpanGuard guard(nullptr, 0, 0, "tx", "noop", "id"); }
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, 3));
  ASSERT_EQ(cluster->sinks().tracer, nullptr);
  RegionId rid = MustCreateRegion(*cluster, 64 << 10, 16);
  auto work = [](Cluster* c, RegionId r) -> Task<Status> {
    auto tx = c->node(1).Begin(0);
    GlobalAddr addr{r, 0};
    auto rd = co_await tx->Read(addr, 8);
    if (!rd.ok()) {
      co_return rd.status();
    }
    (void)tx->Write(addr, std::vector<uint8_t>(8, 1));
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster, work(cluster.get(), rid));
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
}

// Runs a fixed workload on a seeded cluster with a tracer attached and
// returns the serialized trace.
std::string TracedRunJson(uint64_t seed) {
  trace::Tracer tracer;
  {
    ClusterOptions opts = SmallClusterOptions(4, seed);
    opts.tracer = &tracer;
    auto cluster = MakeStartedCluster(opts);
    RegionId rid = MustCreateRegion(*cluster, 64 << 10, 16);
    auto work = [](Cluster* c, RegionId r) -> Task<int> {
      int committed = 0;
      for (int i = 0; i < 8; i++) {
        auto tx = c->node(i % 4).Begin(0);
        GlobalAddr addr{r, static_cast<uint32_t>((i % 4) * 16)};
        auto rd = co_await tx->Read(addr, 8);
        if (!rd.ok()) {
          continue;
        }
        std::vector<uint8_t> bytes(8, static_cast<uint8_t>(i + 1));
        (void)tx->Write(addr, bytes);
        Status s = co_await tx->Commit();
        if (s.ok()) {
          committed++;
        }
      }
      co_return committed;
    };
    auto committed = RunTask(*cluster, work(cluster.get(), rid));
    EXPECT_TRUE(committed.has_value());
    EXPECT_GT(*committed, 0);
  }
  return tracer.ToJson();
}

TEST(TraceTest, RecordsTxPhasesOnMachineTracks) {
  std::string json = TracedRunJson(1);
  // Track metadata names the simulated machines and threads.
  EXPECT_NE(json.find("\"machine 0\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"lease\""), std::string::npos);
  // Transaction lifecycle spans are present.
  for (const char* name : {"\"commit\"", "\"lock\"", "\"validate\"",
                           "\"commit-backup\"", "\"commit-primary\"", "\"read\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << "missing span " << name;
  }
  // Nestable async begin/end pairs balance.
  size_t begins = 0;
  size_t ends = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\":\"b\"", pos)) != std::string::npos; pos++) {
    begins++;
  }
  for (size_t pos = 0; (pos = json.find("\"ph\":\"e\"", pos)) != std::string::npos; pos++) {
    ends++;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
}

TEST(TraceTest, ByteIdenticalAcrossSameSeedRuns) {
  std::string first = TracedRunJson(7);
  std::string second = TracedRunJson(7);
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, second);
}

// Determinism gate for the event-queue and fabric hot paths at bench scale:
// a 32-machine cluster run twice from the same seed must serialize the
// byte-identical trace AND the byte-identical flight-recorder postmortem
// (the recorder is always on, so this also proves it observes without
// perturbing the schedule). This is what licenses the 4-ary heap's layout
// freedom and the pooled fabric records -- (time, seq) is a total order, so
// none of it may be observable.
struct Run32Output {
  std::string trace_json;
  std::string postmortem;
  int committed = 0;
};

Run32Output TracedRun32(uint64_t seed) {
  Run32Output out;
  trace::Tracer tracer;
  {
    ClusterOptions opts = SmallClusterOptions(32, seed);
    opts.tracer = &tracer;
    auto cluster = MakeStartedCluster(opts);
    RegionId rid = MustCreateRegion(*cluster, 64 << 10, 16);
    auto work = [](Cluster* c, RegionId r) -> Task<int> {
      int committed = 0;
      for (int i = 0; i < 48; i++) {
        auto tx = c->node(i % 32).Begin(0);
        GlobalAddr addr{r, static_cast<uint32_t>((i % 16) * 16)};
        auto rd = co_await tx->Read(addr, 8);
        if (!rd.ok()) {
          continue;
        }
        std::vector<uint8_t> bytes(8, static_cast<uint8_t>(i + 1));
        (void)tx->Write(addr, bytes);
        Status s = co_await tx->Commit();
        if (s.ok()) {
          committed++;
        }
      }
      co_return committed;
    };
    auto committed = RunTask(*cluster, work(cluster.get(), rid));
    EXPECT_TRUE(committed.has_value());
    EXPECT_GT(committed.value_or(0), 0);
    out.committed = committed.value_or(0);
    out.postmortem = cluster->FlightPostmortem();
  }
  out.trace_json = tracer.ToJson();
  return out;
}

TEST(TraceTest, ByteIdenticalAt32Machines) {
  Run32Output first = TracedRun32(11);
  Run32Output second = TracedRun32(11);
  EXPECT_GT(first.trace_json.size(), 0u);
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_GT(first.postmortem.size(), 0u);
  EXPECT_EQ(first.postmortem, second.postmortem);
  // Cross-commit pin: the same run must also match the fingerprints of the
  // commit that introduced them. A change meant to leave simulated behaviour
  // unchanged must leave these values alone; one that changes the schedule
  // on purpose re-measures them and says why.
  EXPECT_EQ(Fnv1a(first.trace_json), 0xe8c10044481d46f1ULL);
  EXPECT_EQ(Fnv1a(first.postmortem), 0xce6bb38fe044798eULL);
  EXPECT_EQ(first.committed, 48);
}

// Clusters own their sinks and per-simulation state is per thread, so two
// independent clusters, each with its own tracer, can run at once on
// separate threads. Each must reproduce the pinned single-threaded
// fingerprints of ByteIdenticalAt32Machines exactly.
TEST(TraceTest, ConcurrentClustersAt32Machines) {
  Run32Output outs[2];
  std::thread a([&outs] { outs[0] = TracedRun32(11); });
  std::thread b([&outs] { outs[1] = TracedRun32(11); });
  a.join();
  b.join();
  for (const Run32Output& out : outs) {
    EXPECT_EQ(Fnv1a(out.trace_json), 0xe8c10044481d46f1ULL);
    EXPECT_EQ(Fnv1a(out.postmortem), 0xce6bb38fe044798eULL);
    EXPECT_EQ(out.committed, 48);
  }
}

}  // namespace
}  // namespace farm
