#include "src/workload/tatp.h"

#include <cstring>

namespace farm {

namespace {

constexpr uint16_t kTatpRpcService = 201;

std::vector<uint8_t> SubscriberRow(Pcg32& rng, uint32_t vlr_location) {
  std::vector<uint8_t> row(TatpDb::kSubscriberBytes, 0);
  for (size_t i = 0; i < 32; i++) {
    row[i] = static_cast<uint8_t>(rng.Next());
  }
  std::memcpy(row.data() + 32, &vlr_location, 4);
  return row;
}

std::vector<uint8_t> SmallRow(Pcg32& rng, uint32_t size, bool active_flag = true) {
  std::vector<uint8_t> row(size, 0);
  row[0] = active_flag ? 1 : 0;
  for (uint32_t i = 1; i < size; i++) {
    row[i] = static_cast<uint8_t>(rng.Next());
  }
  return row;
}

}  // namespace

Task<StatusOr<TatpDb>> TatpDb::Create(Cluster& cluster, TatpOptions options) {
  TatpDb db;
  db.options_ = options;
  Node& node = cluster.node(0);

  HashTable::Options ht;
  ht.buckets = std::max<uint64_t>(64, options.subscribers);  // load factor ~0.25
  ht.value_size = kSubscriberBytes;
  auto sub = co_await HashTable::Create(node, ht, 0);
  if (!sub.ok()) {
    co_return sub.status();
  }
  db.subscriber_ = *sub;

  // 1-4 access-info/special-facility rows and up to 12 call-forwarding rows
  // per subscriber: size buckets for a comfortable load factor.
  ht.buckets = std::max<uint64_t>(64, options.subscribers * 2);
  ht.value_size = kAccessInfoBytes;
  auto ai = co_await HashTable::Create(node, ht, 0);
  if (!ai.ok()) {
    co_return ai.status();
  }
  db.access_info_ = *ai;

  ht.value_size = kSpecialFacilityBytes;
  auto sf = co_await HashTable::Create(node, ht, 0);
  if (!sf.ok()) {
    co_return sf.status();
  }
  db.special_facility_ = *sf;

  ht.buckets = std::max<uint64_t>(64, options.subscribers * 3);
  ht.value_size = kCallForwardingBytes;
  auto cf = co_await HashTable::Create(node, ht, 0);
  if (!cf.ok()) {
    co_return cf.status();
  }
  db.call_forwarding_ = *cf;

  // Load: each subscriber has 1-4 access-info rows, 1-4 special-facility
  // rows, and 0-3 call-forwarding rows per special facility (TATP spec).
  // Rows are batched a few per transaction to speed up population.
  uint64_t s = 1;
  while (s <= options.subscribers) {
    Status batch_status = OkStatus();
    uint64_t end = std::min(options.subscribers, s + 3);
    for (int attempt = 0; attempt < 5; attempt++) {
      auto tx = node.Begin(0);
      Pcg32 batch_rng(HashCombine(options.load_seed, s));
      Status build_status = OkStatus();
      for (uint64_t sid = s; sid <= end && build_status.ok(); sid++) {
        build_status = co_await db.LoadSubscriber(*tx, sid, batch_rng);
      }
      if (!build_status.ok()) {
        batch_status = build_status;
        break;
      }
      batch_status = co_await tx->Commit();
      if (batch_status.ok() || batch_status.code() != StatusCode::kAborted) {
        break;
      }
    }
    if (!batch_status.ok()) {
      co_return batch_status;
    }
    s = end + 1;
  }
  co_return db;
}

Task<Status> TatpDb::LoadSubscriber(Transaction& tx, uint64_t sid, Pcg32& rng) const {
  Status s = co_await subscriber_.Put(tx, SubKey(sid), SubscriberRow(rng, rng.Next()));
  if (!s.ok()) {
    co_return s;
  }
  uint32_t nai = rng.Uniform(4) + 1;
  for (uint32_t t = 1; t <= nai; t++) {
    s = co_await access_info_.Put(tx, AiKey(sid, t), SmallRow(rng, kAccessInfoBytes));
    if (!s.ok()) {
      co_return s;
    }
  }
  uint32_t nsf = rng.Uniform(4) + 1;
  for (uint32_t t = 1; t <= nsf; t++) {
    s = co_await special_facility_.Put(
        tx, SfKey(sid, t), SmallRow(rng, kSpecialFacilityBytes, rng.Bernoulli(0.85)));
    if (!s.ok()) {
      co_return s;
    }
    uint32_t ncf = rng.Uniform(4);  // 0-3
    for (uint32_t c = 0; c < ncf; c++) {
      s = co_await call_forwarding_.Put(tx, CfKey(sid, t, c * 8),
                                        SmallRow(rng, kCallForwardingBytes));
      if (!s.ok()) {
        co_return s;
      }
    }
  }
  co_return OkStatus();
}

void TatpDb::RegisterServices(Cluster& cluster) const {
  if (!options_.function_ship_updates) {
    return;
  }
  // UPDATE_LOCATION is function-shipped: the subscriber row's primary runs
  // the whole (now entirely local) transaction.
  for (int i = 0; i < cluster.num_machines(); i++) {
    MachineId m = static_cast<MachineId>(i);
    Node* node = &cluster.node(m);
    HashTable table = subscriber_;
    int hi = node->options().worker_threads - 1;
    auto next_thread = std::make_shared<int>(0);
    cluster.fabric().RegisterRpcService(
        m, kTatpRpcService, 0, hi,
        [node, table, next_thread](MachineId from, std::vector<uint8_t> req,
                                   Fabric::ReplyFn reply) {
          (void)from;
          int thread = (*next_thread)++ % node->options().worker_threads;
          auto run = [](Node* n, HashTable t, int th, std::vector<uint8_t> r,
                        Fabric::ReplyFn rep) -> Task<void> {
            BufReader br(r);
            uint64_t sid = br.GetU64();
            uint32_t location = br.GetU32();
            bool ok = false;
            for (int attempt = 0; attempt < 4 && !ok; attempt++) {
              auto tx = n->Begin(th);
              auto row = co_await t.Get(*tx, TatpDb::SubKey(sid));
              if (!row.ok() || !row->has_value()) {
                break;
              }
              std::vector<uint8_t> updated = **row;
              std::memcpy(updated.data() + 32, &location, 4);
              (void)co_await t.Put(*tx, TatpDb::SubKey(sid), std::move(updated));
              Status s = co_await tx->Commit();
              ok = s.ok();
              if (!s.ok() && s.code() != StatusCode::kAborted) {
                break;
              }
            }
            rep({static_cast<uint8_t>(ok ? 1 : 0)});
          };
          Spawn(run(node, table, thread, std::move(req), std::move(reply)));
        });
  }
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Task<bool> TatpDb::GetSubscriberData(Node& node, int thread, Pcg32& rng) const {
  stats_->get_subscriber++;
  uint64_t s = RandomSubscriber(rng);
  auto v = co_await subscriber_.LockFreeGet(node, SubKey(s), thread);
  co_return v.ok() && v->has_value();
}

Task<bool> TatpDb::GetAccessData(Node& node, int thread, Pcg32& rng) const {
  stats_->get_access++;
  uint64_t s = RandomSubscriber(rng);
  uint32_t ai = rng.Uniform(4) + 1;
  auto v = co_await access_info_.LockFreeGet(node, AiKey(s, ai), thread);
  co_return v.ok();  // a miss is a valid (business-failed) lookup
}

Task<bool> TatpDb::GetNewDestination(Node& node, int thread, Pcg32& rng) const {
  stats_->get_new_destination++;
  uint64_t s = RandomSubscriber(rng);
  uint32_t sf = rng.Uniform(4) + 1;
  auto tx = node.Begin(thread);
  auto sfv = co_await special_facility_.Get(*tx, SfKey(s, sf));
  if (!sfv.ok()) {
    co_return false;
  }
  // Read the 2-4 rows the paper describes: the special facility plus the
  // call-forwarding rows for its start times.
  for (uint32_t st = 0; st < 24; st += 8) {
    auto cfv = co_await call_forwarding_.Get(*tx, CfKey(s, sf, st));
    if (!cfv.ok()) {
      co_return false;
    }
  }
  Status st = co_await tx->Commit();
  co_return st.ok();
}

Task<bool> TatpDb::UpdateSubscriberData(Node& node, int thread, Pcg32& rng) const {
  stats_->update_subscriber++;
  uint64_t s = RandomSubscriber(rng);
  uint32_t sf = rng.Uniform(4) + 1;
  uint8_t bit = static_cast<uint8_t>(rng.Uniform(2));
  uint8_t data_a = static_cast<uint8_t>(rng.Next());
  auto attempt_fn = [&]() -> Task<Status> {
    auto tx = node.Begin(thread);
    auto row = co_await subscriber_.Get(*tx, SubKey(s));
    if (!row.ok() || !row->has_value()) {
      co_return NotFoundStatus("");
    }
    std::vector<uint8_t> updated = **row;
    updated[0] = bit;
    Status st = co_await subscriber_.Put(*tx, SubKey(s), std::move(updated));
    if (!st.ok()) {
      co_return st;
    }
    auto sfrow = co_await special_facility_.Get(*tx, SfKey(s, sf));
    if (sfrow.ok() && sfrow->has_value()) {
      std::vector<uint8_t> u2 = **sfrow;
      u2[2] = data_a;
      st = co_await special_facility_.Put(*tx, SfKey(s, sf), std::move(u2));
      if (!st.ok()) {
        co_return st;
      }
    }
    co_return co_await tx->Commit();
  };
  co_return co_await WithRetries(attempt_fn);
}

Task<bool> TatpDb::UpdateLocation(Node& node, int thread, Pcg32& rng) const {
  stats_->update_location++;
  uint64_t s = RandomSubscriber(rng);
  uint32_t location = rng.Next();
  if (options_.function_ship_updates) {
    // Ship the single-field update to the subscriber row's primary.
    GlobalAddr bucket = subscriber_.KeyBucketAddr(SubKey(s));
    auto ref = co_await node.ResolveRef(bucket.region, thread);
    MachineId target = ref.ok() ? ref->primary : node.id();
    BufWriter w;
    w.PutU64(s);
    w.PutU32(location);
    NetResult r = co_await node.fabric().Call(node.id(), target, kTatpRpcService, w.Take(),
                                              &node.worker(thread), 50 * kMillisecond);
    co_return r.status.ok() && !r.data.empty() && r.data[0] == 1;
  }
  auto attempt_fn = [&]() -> Task<Status> {
    auto tx = node.Begin(thread);
    auto row = co_await subscriber_.Get(*tx, SubKey(s));
    if (!row.ok() || !row->has_value()) {
      co_return NotFoundStatus("");
    }
    std::vector<uint8_t> updated = **row;
    std::memcpy(updated.data() + 32, &location, 4);
    Status st = co_await subscriber_.Put(*tx, SubKey(s), std::move(updated));
    if (!st.ok()) {
      co_return st;
    }
    co_return co_await tx->Commit();
  };
  co_return co_await WithRetries(attempt_fn);
}

Task<bool> TatpDb::InsertCallForwarding(Node& node, int thread, Pcg32& rng) const {
  stats_->insert_cf++;
  uint64_t s = RandomSubscriber(rng);
  uint32_t sf = rng.Uniform(4) + 1;
  uint32_t st_time = rng.Uniform(3) * 8;
  std::vector<uint8_t> row(kCallForwardingBytes, 0);
  row[0] = static_cast<uint8_t>(st_time + 8);
  for (uint32_t i = 1; i < kCallForwardingBytes; i++) {
    row[i] = static_cast<uint8_t>(rng.Next());
  }
  auto attempt_fn = [&]() -> Task<Status> {
    auto tx = node.Begin(thread);
    auto sfrow = co_await special_facility_.Get(*tx, SfKey(s, sf));
    if (!sfrow.ok() || !sfrow->has_value()) {
      co_return NotFoundStatus("");
    }
    Status st = co_await call_forwarding_.Put(*tx, CfKey(s, sf, st_time), row);
    if (!st.ok()) {
      co_return st;
    }
    co_return co_await tx->Commit();
  };
  co_return co_await WithRetries(attempt_fn);
}

Task<bool> TatpDb::DeleteCallForwarding(Node& node, int thread, Pcg32& rng) const {
  stats_->delete_cf++;
  uint64_t s = RandomSubscriber(rng);
  uint32_t sf = rng.Uniform(4) + 1;
  uint32_t st_time = rng.Uniform(3) * 8;
  auto attempt_fn = [&]() -> Task<Status> {
    auto tx = node.Begin(thread);
    Status st = co_await call_forwarding_.Remove(*tx, CfKey(s, sf, st_time));
    if (!st.ok()) {
      co_return st;
    }
    co_return co_await tx->Commit();
  };
  co_return co_await WithRetries(attempt_fn);
}

WorkloadFn TatpDb::MakeWorkload() const {
  TatpDb db = *this;
  return [db](Node& node, int thread, Pcg32& rng) -> Task<bool> {
    uint32_t dice = rng.Uniform(100);
    if (dice < 35) {
      co_return co_await db.GetSubscriberData(node, thread, rng);
    } else if (dice < 45) {
      co_return co_await db.GetNewDestination(node, thread, rng);
    } else if (dice < 80) {
      co_return co_await db.GetAccessData(node, thread, rng);
    } else if (dice < 82) {
      co_return co_await db.UpdateSubscriberData(node, thread, rng);
    } else if (dice < 96) {
      co_return co_await db.UpdateLocation(node, thread, rng);
    } else if (dice < 98) {
      co_return co_await db.InsertCallForwarding(node, thread, rng);
    } else {
      co_return co_await db.DeleteCallForwarding(node, thread, rng);
    }
  };
}

}  // namespace farm
