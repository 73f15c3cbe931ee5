// Property-based sweeps: serializability under randomized failures,
// model-checked hash table, ring stress with random record sizes, racing
// coordination-service CAS, and simulation determinism.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/ds/hashtable.h"
#include "tests/test_util.h"

namespace farm {
namespace {

std::vector<uint8_t> U64Bytes(uint64_t v) {
  std::vector<uint8_t> b(8);
  std::memcpy(b.data(), &v, 8);
  return b;
}

uint64_t BytesU64(const std::vector<uint8_t>& b) {
  uint64_t v = 0;
  std::memcpy(&v, b.data(), std::min<size_t>(8, b.size()));
  return v;
}

// ---------------------------------------------------------------------------
// Bank invariant under randomized failure scenarios (seed-parameterized).
// ---------------------------------------------------------------------------

struct FailureScenario {
  uint64_t seed;
  int victim_kind;  // 0 = backup, 1 = primary, 2 = CM, 3 = idle machine
};

// Prints the fields, not the struct's bytes (its padding would make the
// listed test names differ between builds).
void PrintTo(const FailureScenario& s, std::ostream* os) {
  *os << "{" << s.seed << ", " << s.victim_kind << "}";
}

class BankInvariantSweep : public ::testing::TestWithParam<FailureScenario> {};

TEST_P(BankInvariantSweep, TotalConservedThroughFailure) {
  const FailureScenario scenario = GetParam();
  auto cluster = MakeStartedCluster(SmallClusterOptions(6, scenario.seed));
  RegionId rid = MustCreateRegion(*cluster, 64 << 10, 16);
  constexpr int kAccounts = 8;
  constexpr uint64_t kInitial = 500;

  auto write_value = [](Cluster* c, MachineId node, GlobalAddr addr,
                        uint64_t value) -> Task<Status> {
    auto tx = c->node(node).Begin(0);
    auto r = co_await tx->Read(addr, 8);
    if (!r.ok()) {
      co_return r.status();
    }
    (void)tx->Write(addr, U64Bytes(value));
    co_return co_await tx->Commit();
  };
  for (uint32_t a = 0; a < kAccounts; a++) {
    auto s = RunTask(*cluster, write_value(cluster.get(), 0, GlobalAddr{rid, a * 16}, kInitial));
    ASSERT_TRUE(s.has_value() && s->ok());
  }

  auto finished = std::make_shared<int>(0);
  auto transfer = [](Cluster* c, RegionId r, uint64_t seed, int widx,
                     std::shared_ptr<int> fin) -> Task<void> {
    Pcg32 rng(HashCombine(seed, static_cast<uint64_t>(widx)));
    for (int i = 0; i < 40; i++) {
      MachineId node = kInvalidMachine;
      for (int probe = 0; probe < c->num_machines(); probe++) {
        MachineId cand = static_cast<MachineId>((widx + probe) % c->num_machines());
        if (c->machine(cand).alive()) {
          node = cand;
          break;
        }
      }
      uint32_t from = rng.Uniform(kAccounts);
      uint32_t to = rng.Uniform(kAccounts);
      if (from == to) {
        continue;
      }
      auto tx = c->node(node).Begin(widx % 2);
      auto vf = co_await tx->Read(GlobalAddr{r, from * 16}, 8);
      auto vt = co_await tx->Read(GlobalAddr{r, to * 16}, 8);
      if (!vf.ok() || !vt.ok()) {
        continue;
      }
      uint64_t bf = BytesU64(*vf);
      uint64_t bt = BytesU64(*vt);
      uint64_t amount = rng.Uniform(25) + 1;
      if (bf < amount) {
        continue;
      }
      (void)tx->Write(GlobalAddr{r, from * 16}, U64Bytes(bf - amount));
      (void)tx->Write(GlobalAddr{r, to * 16}, U64Bytes(bt + amount));
      (void)co_await tx->Commit();
    }
    (*fin)++;
  };
  constexpr int kWorkers = 5;
  for (int w = 0; w < kWorkers; w++) {
    Spawn(transfer(cluster.get(), rid, scenario.seed, w, finished));
  }
  cluster->RunFor(2 * kMillisecond);

  // Pick the victim by scenario kind.
  const RegionPlacement placement = *cluster->node(5).config().Placement(rid);
  MachineId victim = kInvalidMachine;
  switch (scenario.victim_kind) {
    case 0:
      victim = placement.backups[scenario.seed % placement.backups.size()];
      break;
    case 1:
      victim = placement.primary;
      break;
    case 2:
      victim = cluster->node(5).config().cm;
      break;
    default:
      for (int m = 0; m < cluster->num_machines(); m++) {
        if (!placement.Contains(static_cast<MachineId>(m))) {
          victim = static_cast<MachineId>(m);
          break;
        }
      }
  }
  ASSERT_NE(victim, kInvalidMachine);
  cluster->Kill(victim);

  ASSERT_TRUE(RunUntil(*cluster, [&]() { return *finished == kWorkers; }, 20 * kSecond));
  cluster->RunFor(300 * kMillisecond);

  MachineId reader = 0;
  while (reader == victim) {
    reader++;
  }
  auto read_value = [](Cluster* c, MachineId node, GlobalAddr addr) -> Task<StatusOr<uint64_t>> {
    auto tx = c->node(node).Begin(0);
    auto r = co_await tx->Read(addr, 8);
    if (!r.ok()) {
      co_return r.status();
    }
    Status s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
    co_return BytesU64(*r);
  };
  uint64_t total = 0;
  for (uint32_t a = 0; a < kAccounts; a++) {
    auto v = RunTask(*cluster, read_value(cluster.get(), reader, GlobalAddr{rid, a * 16}),
                     5 * kSecond);
    ASSERT_TRUE(v.has_value() && v->ok()) << "account " << a;
    total += v->value();
  }
  EXPECT_EQ(total, kAccounts * kInitial)
      << "seed " << scenario.seed << " victim_kind " << scenario.victim_kind;
  EXPECT_FALSE(cluster->AnyRegionLost());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, BankInvariantSweep,
    ::testing::Values(FailureScenario{101, 0}, FailureScenario{202, 0},
                      FailureScenario{303, 1}, FailureScenario{404, 1},
                      FailureScenario{505, 2}, FailureScenario{606, 3},
                      FailureScenario{707, 1}, FailureScenario{808, 2}),
    [](const ::testing::TestParamInfo<FailureScenario>& scenario) {
      return "seed" + std::to_string(scenario.param.seed) + "_victim" +
             std::to_string(scenario.param.victim_kind);
    });

// ---------------------------------------------------------------------------
// Hash table model check against std::unordered_map.
// ---------------------------------------------------------------------------

TEST(HashTableModelCheck, RandomOpsMatchModel) {
  auto cluster = MakeStartedCluster(SmallClusterOptions(4, 77));
  HashTable::Options o;
  o.buckets = 256;
  o.value_size = 16;
  auto created = RunTask(*cluster, [](Cluster* c, HashTable::Options opt) -> Task<StatusOr<HashTable>> {
                           co_return co_await HashTable::Create(c->node(0), opt, 0);
                         }(cluster.get(), o));
  ASSERT_TRUE(created.has_value() && created->ok());
  HashTable table = created->value();

  std::unordered_map<uint64_t, uint64_t> model;
  Pcg32 rng(55);
  auto one_op = [](Cluster* c, HashTable t, int kind, uint64_t key,
                   uint64_t val) -> Task<StatusOr<std::optional<uint64_t>>> {
    for (int attempt = 0; attempt < 8; attempt++) {
      auto tx = c->node(static_cast<MachineId>(key % 4)).Begin(0);
      if (kind == 0) {  // put
        std::vector<uint8_t> row(16, 0);
        std::memcpy(row.data(), &val, 8);
        Status s = co_await t.Put(*tx, key, std::move(row));
        if (!s.ok()) {
          co_return s;
        }
        s = co_await tx->Commit();
        if (s.ok()) {
          co_return std::optional<uint64_t>(val);
        }
        if (s.code() != StatusCode::kAborted) {
          co_return s;
        }
      } else if (kind == 1) {  // remove
        Status s = co_await t.Remove(*tx, key);
        if (s.code() == StatusCode::kNotFound) {
          co_return std::optional<uint64_t>(std::nullopt);
        }
        if (!s.ok()) {
          co_return s;
        }
        s = co_await tx->Commit();
        if (s.ok()) {
          co_return std::optional<uint64_t>(std::nullopt);
        }
        if (s.code() != StatusCode::kAborted) {
          co_return s;
        }
      } else {  // get
        auto v = co_await t.Get(*tx, key);
        if (!v.ok()) {
          co_return v.status();
        }
        Status s = co_await tx->Commit();
        if (s.ok()) {
          if (!v->has_value()) {
            co_return std::optional<uint64_t>(std::nullopt);
          }
          uint64_t got = 0;
          std::memcpy(&got, (*v)->data(), 8);
          co_return std::optional<uint64_t>(got);
        }
        if (s.code() != StatusCode::kAborted) {
          co_return s;
        }
      }
    }
    co_return AbortedStatus("persistent conflict");
  };

  for (int op = 0; op < 300; op++) {
    uint64_t key = rng.Uniform(60) + 1;
    int kind = static_cast<int>(rng.Uniform(3));
    uint64_t val = rng.Next64() | 1;
    auto r = RunTask(*cluster, one_op(cluster.get(), table, kind, key, val));
    ASSERT_TRUE(r.has_value() && r->ok()) << "op " << op;
    if (kind == 0) {
      model[key] = val;
    } else if (kind == 1) {
      model.erase(key);
    } else {
      if (model.count(key) != 0) {
        ASSERT_TRUE(r->value().has_value()) << "op " << op << " key " << key;
        EXPECT_EQ(*r->value(), model[key]);
      } else {
        EXPECT_FALSE(r->value().has_value()) << "op " << op << " key " << key;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ring stress: random record sizes across many wraps.
// ---------------------------------------------------------------------------

TEST(RingProperty, RandomSizesSurviveWraps) {
  Simulator sim;
  Fabric fabric(sim);
  Machine m0(sim, 0, 2, 0);
  Machine m1(sim, 1, 2, 1);
  NvramStore s0;
  NvramStore s1;
  fabric.AddMachine(&m0, &s0);
  fabric.AddMachine(&m1, &s1);

  const uint32_t kCap = 1024;
  RingReceiver rx(&s1, kCap);
  uint64_t fb = s0.Allocate(8);
  RingSender tx(&fabric, 0, 1, rx.data_base(), kCap, fb, &s0, nullptr, []() {});

  Pcg32 rng(13);
  uint64_t sent_crc = 0;
  uint64_t recv_crc = 0;
  int received = 0;
  for (int i = 0; i < 500; i++) {
    uint32_t len = rng.Uniform(120) + 1;
    std::vector<uint8_t> payload(len);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    sent_crc = HashCombine(sent_crc, Fnv1a(payload.data(), payload.size()));
    ASSERT_TRUE(tx.Reserve(len)) << "iteration " << i;
    (void)tx.Append(FramePayload(payload), len, nullptr);
    sim.Run();
    rx.Drain([&](uint64_t seq, const uint8_t* p, uint32_t n) {
      recv_crc = HashCombine(recv_crc, Fnv1a(p, n));
      received++;
      rx.MarkFreeable(seq);
    });
    uint64_t head = rx.head();
    std::memcpy(s0.Data(fb, 8), &head, 8);
  }
  EXPECT_EQ(received, 500);
  EXPECT_EQ(sent_crc, recv_crc);
}

// ---------------------------------------------------------------------------
// Every tear of an append -- any prefix of its frame from the length word up
// to all but the last byte -- either loses a nonzero byte and never surfaces
// (counted once as a torn frame), or loses only zeros (padding, or a payload
// that ends in zeros), leaving the whole frame in NVRAM, which then surfaces
// intact. Payloads of 1-300 bytes cover partial and whole tail words.
// ---------------------------------------------------------------------------

TEST(RingProperty, TornAtEveryOffsetNeverSurfaces) {
  Simulator sim;
  Fabric fabric(sim);
  Machine m0(sim, 0, 2, 0);
  Machine m1(sim, 1, 2, 1);
  NvramStore s0;
  NvramStore s1;
  fabric.AddMachine(&m0, &s0);
  fabric.AddMachine(&m1, &s1);

  Pcg32 rng(29);
  std::vector<uint32_t> lens = {1, 7, 8, 9, 16, 24, 63, 64, 65, 255, 256, 300};
  for (int i = 0; i < 8; i++) {
    lens.push_back(rng.Uniform(300) + 1);
  }
  int torn = 0;
  int whole = 0;
  for (size_t li = 0; li < lens.size(); li++) {
    uint32_t len = lens[li];
    std::vector<uint8_t> payload(len);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Uniform(255) + 1);
    }
    if (li % 2 == 1) {
      // An all-zero tail: tears inside it lose nothing.
      std::fill(payload.end() - rng.Uniform(len + 1), payload.end(), 0);
    }
    // The frame exactly as Append writes it.
    std::vector<uint8_t> frame = FramePayload(payload);
    uint32_t check = FrameCheck(payload.data(), len);
    std::memcpy(frame.data() + 4, &check, 4);
    const uint32_t framed = static_cast<uint32_t>(frame.size());

    for (uint32_t keep = 4; keep < framed; keep++) {
      SCOPED_TRACE(testing::Message() << "len " << len << " keep " << keep);
      RingReceiver rx(&s1, 1024);
      uint64_t fb = s0.Allocate(8);
      RingSender tx(&fabric, 0, 1, rx.data_base(), 1024, fb, &s0, nullptr, []() {});
      // A whole record first, so tears land at varying ring offsets.
      std::vector<uint8_t> lead(keep % 40 + 1, 0x3C);
      ASSERT_TRUE(tx.Reserve(static_cast<uint32_t>(lead.size())));
      (void)tx.Append(FramePayload(lead), static_cast<uint32_t>(lead.size()), nullptr);
      sim.Run();
      ASSERT_EQ(rx.Drain([](uint64_t, const uint8_t*, uint32_t) {}), 1);

      ASSERT_TRUE(tx.Reserve(len));
      s1.ArmTornWrite(keep);
      (void)tx.Append(FramePayload(payload), len, nullptr);
      sim.Run();
      std::vector<std::vector<uint8_t>> got;
      auto collect = [&](uint64_t, const uint8_t* p, uint32_t n) { got.emplace_back(p, p + n); };
      rx.Drain(collect);
      rx.Drain(collect);  // re-polling the same tear neither surfaces nor recounts it
      if (std::any_of(frame.begin() + keep, frame.end(), [](uint8_t b) { return b != 0; })) {
        EXPECT_TRUE(got.empty());
        EXPECT_EQ(rx.torn_frames(), 1u);
        torn++;
      } else {
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0], payload);
        EXPECT_EQ(rx.torn_frames(), 0u);
        whole++;
      }
    }
  }
  EXPECT_GT(torn, 0);
  EXPECT_GT(whole, 0);
}

// Every single-bit flip of the payload, and every change of the length,
// changes the frame check, for payloads of every length from 1 to 97 bytes
// (lane blocks, the zero-padded tail and both together).
TEST(RingProperty, FrameCheckSeesEveryBitFlipAndLength) {
  Pcg32 rng(0xc4ec);
  for (uint32_t len = 1; len <= 97; len++) {
    std::vector<uint8_t> payload(len + 1);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Uniform(256));
    }
    const uint32_t check = FrameCheck(payload.data(), len);
    EXPECT_EQ(check & 1u, 1u);
    for (uint32_t bit = 0; bit < len * 8; bit++) {
      payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_NE(FrameCheck(payload.data(), len), check) << "len " << len << " bit " << bit;
      payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    ASSERT_NE(FrameCheck(payload.data(), len - 1), check) << "len " << len;
    ASSERT_NE(FrameCheck(payload.data(), len + 1), check) << "len " << len;
    // A trailing zero byte is padding to the word loop; the length still
    // tells the two frames apart.
    payload[len] = 0;
    ASSERT_NE(FrameCheck(payload.data(), len + 1), check) << "len " << len;
  }
}

// ---------------------------------------------------------------------------
// Wire records: WireSize() must track Encode() and the framed form
// exactly (log-space reservations are computed from it), over randomized
// record shapes; the parse of those bytes gives back the same record.
// ---------------------------------------------------------------------------

TEST(WireProperty, SerializedSizeMatchesSerialize) {
  Pcg32 rng(71);
  const LogRecordType kTypes[] = {LogRecordType::kLock, LogRecordType::kCommitBackup,
                                  LogRecordType::kCommitPrimary, LogRecordType::kAbort,
                                  LogRecordType::kTruncate};
  for (int iter = 0; iter < 300; iter++) {
    TxLogRecord rec;
    rec.type = kTypes[rng.Uniform(5)];
    rec.tx = TxId{rng.Next() % 7, static_cast<MachineId>(rng.Uniform(32)),
                  static_cast<uint16_t>(rng.Uniform(4)), rng.Next64()};
    uint32_t regions = rng.Uniform(4);
    for (uint32_t i = 0; i < regions; i++) {
      rec.written_regions.push_back(rng.Next() % 16);
    }
    uint32_t writes = rng.Uniform(6);  // may be zero
    for (uint32_t i = 0; i < writes; i++) {
      WireWrite w;
      w.addr = GlobalAddr{rng.Next() % 16, rng.Next() % 4096};
      w.expected_version = rng.Next64();
      w.expected_alloc = rng.Bernoulli(0.5);
      w.set_alloc = rng.Bernoulli(0.25);
      std::vector<uint8_t> value(rng.Uniform(101));  // includes zero-length values
      for (auto& b : value) {
        b = static_cast<uint8_t>(rng.Next());
      }
      w.value = SharedBytes(std::move(value));
      rec.writes.push_back(std::move(w));
    }
    // Past kMaxPiggyback on purpose: the size formula must match for
    // oversize id lists too.
    uint32_t truncs = rng.Uniform(13);
    for (uint32_t i = 0; i < truncs; i++) {
      rec.truncate_ids.push_back(TxId{1, static_cast<MachineId>(i), 0, rng.Next64()});
    }

    auto bytes = Encode(rec);
    ASSERT_EQ(bytes.size(), WireSize(rec)) << "iteration " << iter;
    // The framed form the messenger appends: header, the same bytes, zero
    // padding, in one buffer of exactly FramedLen bytes.
    const uint32_t len = static_cast<uint32_t>(WireSize(rec));
    BufWriter fw = StartFrame(len);
    WireWriter<BufWriter> write(fw);
    write(rec);
    std::vector<uint8_t> frame = FinishFrame(fw);
    ASSERT_EQ(frame.size(), FramedLen(len)) << "iteration " << iter;
    uint32_t header_len;
    std::memcpy(&header_len, frame.data(), 4);
    EXPECT_EQ(header_len, len);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), frame.begin() + kFrameHeaderBytes));
    EXPECT_TRUE(std::all_of(frame.begin() + kFrameHeaderBytes + len, frame.end(),
                            [](uint8_t b) { return b == 0; }));

    auto parsed = Decode<TxLogRecord>(SharedBytes(bytes));
    EXPECT_EQ(parsed.tx, rec.tx);
    ASSERT_EQ(parsed.writes.size(), rec.writes.size());
    for (size_t i = 0; i < rec.writes.size(); i++) {
      EXPECT_EQ(parsed.writes[i].value, rec.writes[i].value) << "iteration " << iter;
    }
    EXPECT_EQ(parsed.truncate_ids.size(), rec.truncate_ids.size());
    EXPECT_EQ(Encode(parsed), bytes);
  }
}

// ---------------------------------------------------------------------------
// Parsed records own their bytes: after their frames are truncated (zeroed)
// and the ring wraps over that space with new records, the copies a receiver
// keeps -- the record a node keeps until truncation and a primary's PendingTx
// copy of a LOCK record -- still hold exactly the bytes that were sent.
// ---------------------------------------------------------------------------

TEST(WireProperty, StoredRecordsOutliveRingSpace) {
  Simulator sim;
  Fabric fabric(sim);
  Machine m0(sim, 0, 2, 0);
  Machine m1(sim, 1, 2, 1);
  NvramStore s0;
  NvramStore s1;
  fabric.AddMachine(&m0, &s0);
  fabric.AddMachine(&m1, &s1);
  Messenger::Options opts;
  opts.txlog_capacity = 4 << 10;
  opts.msgq_capacity = 4 << 10;
  Messenger a(fabric, m0, s0, opts, 2);
  Messenger b(fabric, m1, s1, opts, 2);
  Messenger::Connect(a, b);

  std::map<uint64_t, TxLogRecord> kept;     // seq -> record until truncated, as a node keeps
  std::map<uint64_t, TxLogRecord> pending;  // seq -> copy, as PendingTx keeps
  uint64_t surfaced = 0;
  b.SetHandlers(
      [&](MachineId, uint64_t seq, TxLogRecord rec) {
        EXPECT_EQ(seq, surfaced++);
        if (rec.type == LogRecordType::kLock) {
          pending[seq] = rec;
        }
        kept.emplace(seq, std::move(rec));
      },
      [](MachineId, MsgType, std::vector<uint8_t>) {});

  Pcg32 rng(37);
  std::vector<std::vector<uint8_t>> sent;  // by seq: one sender, ring order
  std::vector<uint64_t> live;              // seqs not yet truncated
  for (int round = 0; round < 40; round++) {
    for (int k = 0; k < 3; k++) {
      TxLogRecord rec;
      rec.type = rng.Bernoulli(0.5) ? LogRecordType::kLock : LogRecordType::kCommitBackup;
      rec.tx = TxId{1, 0, 0, sent.size()};
      rec.written_regions = {rng.Next() % 4};
      uint32_t writes = rng.Uniform(3) + 1;
      for (uint32_t i = 0; i < writes; i++) {
        WireWrite w;
        w.addr = GlobalAddr{rec.written_regions[0], rng.Next() % 4096};
        w.expected_version = rng.Next64();
        std::vector<uint8_t> value(rng.Uniform(64) + 1);
        for (auto& v : value) {
          v = static_cast<uint8_t>(rng.Next());
        }
        w.value = SharedBytes(std::move(value));
        rec.writes.push_back(std::move(w));
      }
      uint32_t len = static_cast<uint32_t>(WireSize(rec));
      ASSERT_TRUE(a.ReserveLog(1, len)) << "round " << round;
      (void)a.AppendLog(1, rec, len, 0);
      live.push_back(sent.size());
      sent.push_back(Encode(rec));
    }
    sim.Run();
    ASSERT_EQ(surfaced, sent.size());
    // Truncate all but the newest record: their frames are zeroed, and the
    // next rounds' appends wrap over the freed space.
    while (live.size() > 1) {
      b.TruncateLogRecord(0, live.front());
      ASSERT_EQ(kept.erase(live.front()), 1u);
      live.erase(live.begin());
    }
    sim.Run();
    ASSERT_EQ(kept.size(), 1u);
    ASSERT_EQ(kept.begin()->first, live.front());
    EXPECT_EQ(Encode(kept.begin()->second), sent[live.front()]) << "round " << round;
    for (const auto& [seq, rec] : pending) {
      ASSERT_EQ(Encode(rec), sent[seq]) << "round " << round << " seq " << seq;
    }
  }
  // The ring wrapped over freed space more than once.
  EXPECT_GT(a.log_bytes_sent(), 2u * opts.txlog_capacity);
  EXPECT_FALSE(pending.empty());
}

// ---------------------------------------------------------------------------
// Coordination service: many racers, one winner per version step.
// ---------------------------------------------------------------------------

TEST(ZkProperty, RacingCasAlwaysSingleWinner) {
  Simulator sim;
  Fabric fabric(sim);
  std::vector<std::unique_ptr<Machine>> machines;
  std::vector<std::unique_ptr<NvramStore>> stores;
  const int kClients = 6;
  for (MachineId i = 0; i < 3 + kClients; i++) {
    machines.push_back(std::make_unique<Machine>(sim, i, 2, static_cast<int>(i)));
    stores.push_back(std::make_unique<NvramStore>());
    fabric.AddMachine(machines.back().get(), stores.back().get());
  }
  CoordinationService zk(fabric, {0, 1, 2});

  auto wins = std::make_shared<std::vector<int>>(10, 0);
  auto racer = [](CoordinationService* svc, MachineId client, uint64_t round,
                  std::shared_ptr<std::vector<int>> w) -> Task<void> {
    std::vector<uint8_t> blob = {static_cast<uint8_t>(client)};
    auto r = co_await svc->CompareAndSwap(client, round, blob);
    if (r.ok()) {
      (*w)[static_cast<size_t>(round)]++;
    }
  };
  for (uint64_t round = 0; round < 10; round++) {
    for (int c = 0; c < kClients; c++) {
      Spawn(racer(&zk, static_cast<MachineId>(3 + c), round, wins));
    }
    sim.RunFor(20 * kMillisecond);
  }
  for (size_t round = 0; round < 10; round++) {
    EXPECT_EQ((*wins)[round], 1) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Determinism: identical seeds give identical results.
// ---------------------------------------------------------------------------

TEST(DeterminismTest, SameSeedSameOutcome) {
  auto run_once = [](uint64_t seed) {
    auto cluster = MakeStartedCluster(SmallClusterOptions(4, seed));
    RegionId rid = MustCreateRegion(*cluster, 64 << 10, 16);
    auto work = [](Cluster* c, RegionId r) -> Task<uint64_t> {
      Pcg32 rng(9);
      uint64_t committed = 0;
      for (int i = 0; i < 60; i++) {
        auto tx = c->node(static_cast<MachineId>(i % 4)).Begin(0);
        GlobalAddr addr{r, (rng.Uniform(8)) * 16};
        auto v = co_await tx->Read(addr, 8);
        if (!v.ok()) {
          continue;
        }
        std::vector<uint8_t> b(8, static_cast<uint8_t>(i));
        (void)tx->Write(addr, b);
        if ((co_await tx->Commit()).ok()) {
          committed++;
        }
      }
      co_return committed;
    };
    auto committed = RunTask(*cluster, work(cluster.get(), rid));
    return std::make_pair(*committed, cluster->sim().Now());
  };
  auto a = run_once(42);
  auto b = run_once(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  auto c = run_once(43);
  (void)c;  // different seed may differ; just must not crash
}

}  // namespace
}  // namespace farm
