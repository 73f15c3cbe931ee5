// Tests for ring-buffer logs, the messenger, the slab allocator, and wire
// serialization.
#include <gtest/gtest.h>

#include "src/core/alloc.h"
#include "src/core/msgr.h"
#include "src/core/region.h"
#include "src/core/ringlog.h"
#include "src/core/wire.h"
#include "src/nvram/nvram.h"
#include "tests/test_util.h"

namespace farm {
namespace {

TEST(WireTest, TxLogRecordRoundTrip) {
  TxLogRecord rec;
  rec.type = LogRecordType::kLock;
  rec.tx = TxId{3, 7, 2, 99};
  rec.written_regions = {1, 5};
  WireWrite w1;
  w1.addr = GlobalAddr{1, 128};
  w1.expected_version = 42;
  w1.expected_alloc = true;
  w1.value = SharedBytes({9, 8, 7});
  rec.writes.push_back(w1);
  WireWrite w2;
  w2.addr = GlobalAddr{5, 64};
  w2.set_alloc = true;
  w2.value = SharedBytes({1});
  rec.writes.push_back(w2);
  rec.truncate_ids.push_back(TxId{2, 3, 1, 50});

  auto bytes = rec.Serialize();
  EXPECT_EQ(bytes.size(), rec.SerializedSize());
  TxLogRecord parsed = TxLogRecord::Parse(SharedBytes(bytes));
  EXPECT_EQ(parsed.type, LogRecordType::kLock);
  EXPECT_EQ(parsed.tx, rec.tx);
  EXPECT_EQ(parsed.written_regions, rec.written_regions);
  ASSERT_EQ(parsed.writes.size(), 2u);
  EXPECT_EQ(parsed.writes[0].addr, w1.addr);
  EXPECT_EQ(parsed.writes[0].expected_version, 42u);
  EXPECT_TRUE(parsed.writes[0].expected_alloc);
  EXPECT_EQ(parsed.writes[0].value, w1.value);
  EXPECT_TRUE(parsed.writes[1].set_alloc);
  ASSERT_EQ(parsed.truncate_ids.size(), 1u);
  EXPECT_EQ(parsed.truncate_ids[0], rec.truncate_ids[0]);
}

TEST(WireTest, ExpectedWordMatchesVersionWord) {
  WireWrite w;
  w.expected_version = 77;
  w.expected_alloc = true;
  EXPECT_EQ(w.ExpectedWord(), VersionWord::Pack(77, true, false));
  w.expected_alloc = false;
  EXPECT_EQ(w.ExpectedWord(), VersionWord::Pack(77, false, false));
}

TEST(VersionWordTest, PackUnpack) {
  uint64_t w = VersionWord::Pack(123456, true, true);
  EXPECT_TRUE(VersionWord::IsLocked(w));
  EXPECT_TRUE(VersionWord::IsAllocated(w));
  EXPECT_EQ(VersionWord::Version(w), 123456u);
  EXPECT_FALSE(VersionWord::IsLocked(VersionWord::WithoutLock(w)));
}

class RingTest : public ::testing::Test {
 protected:
  RingTest() : fabric_(sim_) {
    for (MachineId i = 0; i < 2; i++) {
      machines_.push_back(std::make_unique<Machine>(sim_, i, 2, static_cast<int>(i)));
      stores_.push_back(std::make_unique<NvramStore>());
      fabric_.AddMachine(machines_.back().get(), stores_.back().get());
    }
  }

  Simulator sim_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::unique_ptr<NvramStore>> stores_;
};

TEST_F(RingTest, AppendDrainTruncate) {
  RingReceiver rx(stores_[1].get(), 4096);
  uint64_t fb = stores_[0]->Allocate(8);
  int pokes = 0;
  RingSender tx(&fabric_, 0, 1, rx.data_base(), 4096, fb, stores_[0].get(), nullptr,
                [&]() { pokes++; });

  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(tx.Reserve(5));
  (void)tx.Append(FramePayload(payload), 5, nullptr);
  sim_.Run();
  EXPECT_EQ(pokes, 1);

  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> got;
  rx.Drain([&](uint64_t seq, const uint8_t* p, uint32_t n) {
    got.push_back({seq, std::vector<uint8_t>(p, p + n)});
  });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, payload);
  EXPECT_EQ(rx.head(), 0u);
  rx.MarkFreeable(got[0].first);
  EXPECT_GT(rx.head(), 0u);
}

TEST_F(RingTest, WrapAround) {
  const uint32_t kCap = 256;
  RingReceiver rx(stores_[1].get(), kCap);
  uint64_t fb = stores_[0]->Allocate(8);
  RingSender tx(&fabric_, 0, 1, rx.data_base(), kCap, fb, stores_[0].get(), nullptr, []() {});

  // Send enough records to wrap several times, freeing as we go.
  int received = 0;
  for (int i = 0; i < 40; i++) {
    std::vector<uint8_t> payload(20, static_cast<uint8_t>(i));
    ASSERT_TRUE(tx.Reserve(20)) << "iteration " << i;
    (void)tx.Append(FramePayload(payload), 20, nullptr);
    sim_.Run();
    rx.Drain([&](uint64_t seq, const uint8_t* p, uint32_t n) {
      EXPECT_EQ(n, 20u);
      EXPECT_EQ(p[0], static_cast<uint8_t>(received));
      received++;
      rx.MarkFreeable(seq);
    });
    // Propagate head feedback manually (normally the messenger does this).
    uint64_t head = rx.head();
    std::memcpy(stores_[0]->Data(fb, 8), &head, 8);
  }
  EXPECT_EQ(received, 40);
}

TEST_F(RingTest, ReservationBlocksWhenFull) {
  const uint32_t kCap = 256;
  RingReceiver rx(stores_[1].get(), kCap);
  uint64_t fb = stores_[0]->Allocate(8);
  RingSender tx(&fabric_, 0, 1, rx.data_base(), kCap, fb, stores_[0].get(), nullptr, []() {});

  int granted = 0;
  while (tx.Reserve(24)) {
    granted++;
    if (granted > 100) {
      break;
    }
  }
  // 24-byte payload => 32 framed => 64 with slack; 256/64 = 4 reservations.
  EXPECT_EQ(granted, 4);
}

TEST_F(RingTest, TruncateOutOfOrderStillFreesPrefix) {
  RingReceiver rx(stores_[1].get(), 4096);
  uint64_t fb = stores_[0]->Allocate(8);
  RingSender tx(&fabric_, 0, 1, rx.data_base(), 4096, fb, stores_[0].get(), nullptr, []() {});

  for (int i = 0; i < 3; i++) {
    std::vector<uint8_t> p(16, static_cast<uint8_t>(i));
    ASSERT_TRUE(tx.Reserve(16));
    (void)tx.Append(FramePayload(p), 16, nullptr);
  }
  sim_.Run();
  std::vector<uint64_t> seqs;
  rx.Drain([&](uint64_t seq, const uint8_t*, uint32_t) { seqs.push_back(seq); });
  ASSERT_EQ(seqs.size(), 3u);
  // Free the middle record: the head must not move (record 0 not freeable).
  rx.MarkFreeable(seqs[1]);
  EXPECT_EQ(rx.head(), 0u);
  rx.MarkFreeable(seqs[0]);
  // Now records 0 and 1 free together.
  EXPECT_EQ(rx.head(), 2 * 24u);
}

TEST_F(RingTest, RebuildFromNvramReparsesUntruncated) {
  RingReceiver rx(stores_[1].get(), 4096);
  uint64_t fb = stores_[0]->Allocate(8);
  RingSender tx(&fabric_, 0, 1, rx.data_base(), 4096, fb, stores_[0].get(), nullptr, []() {});
  for (int i = 0; i < 3; i++) {
    std::vector<uint8_t> p(16, static_cast<uint8_t>(i + 1));
    ASSERT_TRUE(tx.Reserve(16));
    (void)tx.Append(FramePayload(p), 16, nullptr);
  }
  sim_.Run();
  std::vector<uint64_t> seqs;
  rx.Drain([&](uint64_t seq, const uint8_t*, uint32_t) { seqs.push_back(seq); });
  rx.MarkFreeable(seqs[0]);  // truncate the first record only

  rx.RebuildFromNvram();  // power failure: volatile state lost
  std::vector<std::vector<uint8_t>> again;
  rx.Drain([&](uint64_t, const uint8_t* p, uint32_t n) { again.emplace_back(p, p + n); });
  ASSERT_EQ(again.size(), 2u);  // the truncated record does not reappear
  EXPECT_EQ(again[0][0], 2);
  EXPECT_EQ(again[1][0], 3);
}

TEST(NvramTornWriteTest, ArmedTearKeepsOnlyPrefix) {
  NvramStore store;
  uint64_t addr = store.Allocate(16);
  uint8_t before[8] = {0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA};
  ASSERT_TRUE(store.RdmaWrite(addr, before, 8));

  uint8_t next[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  store.ArmTornWrite(3);
  EXPECT_TRUE(store.torn_armed());
  // The torn write still reports success; NVRAM cannot know it is short.
  ASSERT_TRUE(store.RdmaWrite(addr, next, 8));
  EXPECT_FALSE(store.torn_armed());
  EXPECT_EQ(store.torn_writes(), 1u);
  const uint8_t* got = store.Data(addr, 8);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 2);
  EXPECT_EQ(got[2], 3);
  for (int i = 3; i < 8; i++) {
    EXPECT_EQ(got[i], 0xAA) << "byte " << i << " past the tear changed";
  }
  // One-shot: the next write lands whole.
  ASSERT_TRUE(store.RdmaWrite(addr, next, 8));
  EXPECT_EQ(store.Data(addr, 8)[7], 8);
  EXPECT_EQ(store.torn_writes(), 1u);
}

TEST_F(RingTest, TornAppendDetectedAndDrainStopsCleanly) {
  RingReceiver rx(stores_[1].get(), 4096);
  uint64_t fb = stores_[0]->Allocate(8);
  RingSender tx(&fabric_, 0, 1, rx.data_base(), 4096, fb, stores_[0].get(), nullptr, []() {});

  std::vector<uint8_t> good(16, 0x5A);
  ASSERT_TRUE(tx.Reserve(16));
  (void)tx.Append(FramePayload(good), 16, nullptr);
  sim_.Run();
  int surfaced = rx.Drain([&](uint64_t, const uint8_t* p, uint32_t n) {
    EXPECT_EQ(std::vector<uint8_t>(p, p + n), good);
  });
  EXPECT_EQ(surfaced, 1);
  EXPECT_EQ(rx.torn_frames(), 0u);

  // Tear the next append mid-frame: only the header reaches NVRAM, so the
  // checksum cannot match the (absent) payload.
  std::vector<uint8_t> torn(16, 0x77);
  ASSERT_TRUE(tx.Reserve(16));
  stores_[1]->ArmTornWrite(kFrameHeaderBytes);
  (void)tx.Append(FramePayload(torn), 16, nullptr);
  sim_.Run();

  surfaced =
      rx.Drain([&](uint64_t, const uint8_t*, uint32_t) { FAIL() << "torn record surfaced"; });
  EXPECT_EQ(surfaced, 0);
  EXPECT_EQ(rx.torn_frames(), 1u);
  // Re-polling the same tear does not recount it.
  rx.Drain([&](uint64_t, const uint8_t*, uint32_t) {});
  EXPECT_EQ(rx.torn_frames(), 1u);
}

TEST_F(RingTest, RebuildFromNvramStopsAtTear) {
  RingReceiver rx(stores_[1].get(), 4096);
  uint64_t fb = stores_[0]->Allocate(8);
  RingSender tx(&fabric_, 0, 1, rx.data_base(), 4096, fb, stores_[0].get(), nullptr, []() {});

  std::vector<uint8_t> first(16, 0x11);
  ASSERT_TRUE(tx.Reserve(16));
  (void)tx.Append(FramePayload(first), 16, nullptr);
  sim_.Run();
  std::vector<uint8_t> second(16, 0x22);
  ASSERT_TRUE(tx.Reserve(16));
  stores_[1]->ArmTornWrite(kFrameHeaderBytes + 4);  // header + part of payload
  (void)tx.Append(FramePayload(second), 16, nullptr);
  sim_.Run();

  // Power failure before the receiver ever polled: recovery re-parses from
  // the persisted head, surfaces the intact record, and stops at the tear.
  rx.RebuildFromNvram();
  std::vector<std::vector<uint8_t>> got;
  rx.Drain([&](uint64_t, const uint8_t* p, uint32_t n) { got.emplace_back(p, p + n); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], first);
  EXPECT_EQ(rx.torn_frames(), 1u);
}

TEST_F(RingTest, MessengerLogRoundTrip) {
  Messenger::Options opts;
  opts.txlog_capacity = 64 << 10;
  opts.msgq_capacity = 32 << 10;
  Messenger a(fabric_, *machines_[0], *stores_[0], opts, 2);
  Messenger b(fabric_, *machines_[1], *stores_[1], opts, 2);
  Messenger::Connect(a, b);

  std::vector<TxLogRecord> received;
  std::vector<std::pair<MsgType, std::vector<uint8_t>>> messages;
  b.SetHandlers(
      [&](MachineId from, uint64_t seq, TxLogRecord rec) {
        EXPECT_EQ(from, 0u);
        (void)seq;
        received.push_back(std::move(rec));
      },
      [&](MachineId, MsgType t, std::vector<uint8_t> p) { messages.push_back({t, std::move(p)}); });

  TxLogRecord rec;
  rec.type = LogRecordType::kLock;
  rec.tx = TxId{1, 0, 0, 1};
  rec.written_regions = {0};
  uint32_t len = static_cast<uint32_t>(rec.SerializedSize());
  ASSERT_TRUE(a.ReserveLog(1, len));
  bool acked = false;
  a.AppendLog(1, rec, len, 0).OnReady([&](NetResult& r) {
    EXPECT_TRUE(r.status.ok());
    acked = true;
  });
  a.SendMessage(1, MsgType::kLockReply, {0xaa}, 0);
  sim_.Run();

  EXPECT_TRUE(acked);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].tx, rec.tx);
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].first, MsgType::kLockReply);
  EXPECT_EQ(messages[0].second, (std::vector<uint8_t>{0xaa}));
}

TEST_F(RingTest, MessengerSelfRings) {
  Messenger a(fabric_, *machines_[0], *stores_[0], Messenger::Options{}, 2);
  Messenger::Connect(a, a);

  int got = 0;
  a.SetHandlers([&](MachineId, uint64_t, TxLogRecord) {},
                [&](MachineId from, MsgType, std::vector<uint8_t>) {
                  EXPECT_EQ(from, 0u);
                  got++;
                });
  a.SendMessage(0, MsgType::kLockReply, {1}, 0);
  sim_.Run();
  EXPECT_EQ(got, 1);
}

TEST(WireTest, SmallRecordReservationMatchesSerializedSize) {
  // COMMIT-PRIMARY / ABORT / TRUNCATE records carry no writes; with a full
  // piggyback they are exactly kSmallRecordReservation bytes.
  for (LogRecordType type :
       {LogRecordType::kCommitPrimary, LogRecordType::kAbort, LogRecordType::kTruncate}) {
    TxLogRecord rec;
    rec.type = type;
    rec.tx = TxId{4, 2, 1, 77};
    rec.truncate_ids.assign(kMaxPiggyback, TxId{3, 1, 0, 9});
    EXPECT_EQ(kSmallRecordReservation, rec.SerializedSize());
    EXPECT_EQ(kSmallRecordReservation, rec.Serialize().size());
  }
}

TEST(AllocatorTest, ReserveFormatsBlocksAndReturnsSlots) {
  NvramStore store;
  RegionReplica region(0, 64 << 10, 0, &store);
  RegionAllocator alloc(&region, 16 << 10);

  auto s1 = alloc.Reserve(40);  // class 64
  ASSERT_TRUE(s1.ok());
  auto s2 = alloc.Reserve(40);
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(s1->addr, s2->addr);
  auto headers = alloc.TakePendingBlockHeaders();
  ASSERT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers[0].slot_payload, 64u);
  EXPECT_EQ(alloc.PayloadSizeAt(s1->addr.offset), 64u);
}

TEST(AllocatorTest, ReleaseReturnsSlot) {
  NvramStore store;
  RegionReplica region(0, 64 << 10, 0, &store);
  RegionAllocator alloc(&region, 16 << 10);
  auto s = alloc.Reserve(16);
  ASSERT_TRUE(s.ok());
  size_t before = alloc.FreeSlots();
  alloc.Release(s->addr);
  EXPECT_EQ(alloc.FreeSlots(), before + 1);
}

TEST(AllocatorTest, DistinctSizeClassesUseDistinctBlocks) {
  NvramStore store;
  RegionReplica region(0, 64 << 10, 0, &store);
  RegionAllocator alloc(&region, 16 << 10);
  auto a = alloc.Reserve(16);
  auto b = alloc.Reserve(1000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->addr.offset / (16 << 10), b->addr.offset / (16 << 10));
  EXPECT_EQ(alloc.PayloadSizeAt(b->addr.offset), 1024u);
}

TEST(AllocatorTest, RegionFull) {
  NvramStore store;
  RegionReplica region(0, 32 << 10, 0, &store);
  RegionAllocator alloc(&region, 16 << 10);
  // Two blocks of 16 KB, slots of 8192+8 bytes: one slot per block.
  int got = 0;
  for (int i = 0; i < 10; i++) {
    auto s = alloc.Reserve(8192);
    if (!s.ok()) {
      EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    got++;
  }
  EXPECT_EQ(got, 2);
}

TEST(AllocatorTest, ObjectTooLargeRejected) {
  NvramStore store;
  RegionReplica region(0, 64 << 10, 0, &store);
  RegionAllocator alloc(&region, 16 << 10);
  auto s = alloc.Reserve(100000);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST(AllocatorTest, FreeListRecoveryRebuildsFromAllocBits) {
  NvramStore store;
  RegionReplica region(0, 64 << 10, 0, &store);
  RegionAllocator alloc(&region, 16 << 10);

  // Allocate three slots; mark two as committed-allocated in the headers.
  auto s1 = alloc.Reserve(64);
  auto s2 = alloc.Reserve(64);
  auto s3 = alloc.Reserve(64);
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  region.WriteHeader(s1->addr.offset, VersionWord::Pack(1, true, false));
  region.WriteHeader(s2->addr.offset, VersionWord::Pack(1, true, false));
  // s3 was reserved but never committed: header still unallocated.

  alloc.StartFreeListRecovery();
  EXPECT_TRUE(alloc.recovering());
  // During recovery, frees are queued.
  alloc.OnFreeCommitted(s1->addr);
  while (alloc.RecoveryScanStep(64) > 0) {
  }
  EXPECT_FALSE(alloc.recovering());

  // All non-allocated slots are back (including s3), plus the queued free.
  size_t slots_per_block = (16 << 10) / (64 + 8);
  EXPECT_EQ(alloc.FreeSlots(), slots_per_block - 2 + 1);
}

}  // namespace
}  // namespace farm
