#include "src/workload/tpcc.h"

#include <cstring>

namespace farm {

namespace {

// The TPC-C spec's mix fractions.
constexpr double kRemoteItemFraction = 0.01;      // ~1% of order lines
constexpr double kRemoteCustomerFraction = 0.15;  // 15% of payments
constexpr double kRollbackFraction = 0.01;        // 1% of new-orders roll back

void PutU32At(std::vector<uint8_t>* row, size_t off, uint32_t v) {
  std::memcpy(row->data() + off, &v, 4);
}
void PutU64At(std::vector<uint8_t>* row, size_t off, uint64_t v) {
  std::memcpy(row->data() + off, &v, 8);
}
uint32_t U32At(const std::vector<uint8_t>& row, size_t off) {
  uint32_t v;
  std::memcpy(&v, row.data() + off, 4);
  return v;
}
uint64_t U64At(const std::vector<uint8_t>& row, size_t off) {
  uint64_t v;
  std::memcpy(&v, row.data() + off, 8);
  return v;
}

uint64_t PackOrderLine(uint32_t item, uint32_t qty, uint32_t amount) {
  return (static_cast<uint64_t>(item) << 32) | (static_cast<uint64_t>(qty & 0xff) << 24) |
         (amount & 0xffffff);
}

}  // namespace

// ---------------------------------------------------------------------------
// Creation and loading
// ---------------------------------------------------------------------------

Task<StatusOr<TpccDb>> TpccDb::Create(Cluster& cluster, TpccOptions options) {
  TpccDb db;
  db.options_ = options;
  Node& node = cluster.node(0);

  // Global item table.
  HashTable::Options ht;
  ht.buckets = std::max<uint64_t>(64, static_cast<uint64_t>(options.items));
  ht.value_size = kItemBytes;
  auto items = co_await HashTable::Create(node, ht, 0);
  if (!items.ok()) {
    co_return items.status();
  }
  db.item_ = *items;

  // Per-warehouse co-partitioned indexes (12 hash tables + 4 B-trees in the
  // paper; here 6 hash tables + 2 B-trees per warehouse cover the schema).
  for (int w = 1; w <= options.warehouses; w++) {
    Partition part;
    auto mk = [&](uint64_t buckets, uint32_t vsize,
                  RegionId colocate) -> Task<StatusOr<HashTable>> {
      HashTable::Options o;
      o.buckets = buckets;
      o.value_size = vsize;
      o.colocate_with = colocate;
      co_return co_await HashTable::Create(node, o, 0);
    };
    auto wt = co_await mk(16, kWarehouseBytes, kInvalidRegion);
    if (!wt.ok()) {
      co_return wt.status();
    }
    part.warehouse = *wt;
    part.anchor = part.warehouse.regions()[0];

    auto dt = co_await mk(32, kDistrictBytes, part.anchor);
    if (!dt.ok()) {
      co_return dt.status();
    }
    part.district = *dt;
    auto ct = co_await mk(
        static_cast<uint64_t>(options.districts) * options.customers, kCustomerBytes,
        part.anchor);
    if (!ct.ok()) {
      co_return ct.status();
    }
    part.customer = *ct;
    auto st = co_await mk(static_cast<uint64_t>(options.items), kStockBytes, part.anchor);
    if (!st.ok()) {
      co_return st.status();
    }
    part.stock = *st;
    auto ot = co_await mk(
        static_cast<uint64_t>(options.districts) * (options.init_orders + 4096),
        kOrderBytes, part.anchor);
    if (!ot.ok()) {
      co_return ot.status();
    }
    part.order = *ot;
    auto hist = co_await mk(4096, kHistoryBytes, part.anchor);
    if (!hist.ok()) {
      co_return hist.status();
    }
    part.history = *hist;

    BTree::Options bto;
    bto.colocate_with = part.anchor;
    auto no = co_await BTree::Create(node, bto, 0);
    if (!no.ok()) {
      co_return no.status();
    }
    part.new_order = *no;
    auto ol = co_await BTree::Create(node, bto, 0);
    if (!ol.ok()) {
      co_return ol.status();
    }
    part.order_line = *ol;

    db.parts_->push_back(part);
    const RegionPlacement* placement = node.config().Placement(part.anchor);
    db.homes_->push_back(placement != nullptr ? placement->primary : 0);
  }

  // Load items.
  Pcg32 rng(options.load_seed);
  for (int i = 1; i <= options.items; i += 8) {
    for (int attempt = 0; attempt < 5; attempt++) {
      auto tx = node.Begin(0);
      bool ok = true;
      for (int j = i; j < i + 8 && j <= options.items && ok; j++) {
        std::vector<uint8_t> row(kItemBytes, 0);
        PutU32At(&row, 0, rng.Uniform(9900) + 100);  // price in cents
        ok = (co_await db.item_.Put(*tx, StockKey(static_cast<uint64_t>(j)), std::move(row)))
                 .ok();
      }
      Status s(StatusCode::kInternal, "load");
      if (ok) {
        s = co_await tx->Commit();
      }
      if (s.ok()) {
        break;
      }
      if (s.code() != StatusCode::kAborted) {
        co_return s;
      }
    }
  }

  for (int w = 1; w <= options.warehouses; w++) {
    Status s = co_await db.LoadWarehouse(cluster, static_cast<uint64_t>(w));
    if (!s.ok()) {
      co_return s;
    }
  }
  co_return db;
}

Task<Status> TpccDb::LoadWarehouse(Cluster& cluster, uint64_t w) {
  Node& node = cluster.node(0);
  const Partition& part = Part(w);
  Pcg32 rng(HashCombine(options_.load_seed, w));

  // Warehouse + districts.
  {
    auto tx = node.Begin(0);
    std::vector<uint8_t> wrow(kWarehouseBytes, 0);
    PutU32At(&wrow, 8, rng.Uniform(2000));  // tax
    Status s = co_await part.warehouse.Put(*tx, w, std::move(wrow));
    if (!s.ok()) {
      co_return s;
    }
    for (int d = 1; d <= options_.districts; d++) {
      std::vector<uint8_t> drow(kDistrictBytes, 0);
      PutU32At(&drow, 0, static_cast<uint32_t>(options_.init_orders + 1));  // next_o_id
      s = co_await part.district.Put(*tx, Wd(w, static_cast<uint64_t>(d)), std::move(drow));
      if (!s.ok()) {
        co_return s;
      }
    }
    s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
  }

  // Customers (batched).
  for (int d = 1; d <= options_.districts; d++) {
    for (int c = 1; c <= options_.customers; c += 8) {
      auto tx = node.Begin(0);
      for (int j = c; j < c + 8 && j <= options_.customers; j++) {
        std::vector<uint8_t> crow(kCustomerBytes, 0);
        PutU64At(&crow, 0, static_cast<uint64_t>(-1000));  // balance -10.00 (spec)
        Status s = co_await part.customer.Put(
            *tx, CustKey(w, static_cast<uint64_t>(d), static_cast<uint64_t>(j)),
            std::move(crow));
        if (!s.ok()) {
          co_return s;
        }
      }
      Status s = co_await tx->Commit();
      if (!s.ok()) {
        co_return s;
      }
    }
  }

  // Stock (batched).
  for (int i = 1; i <= options_.items; i += 8) {
    auto tx = node.Begin(0);
    for (int j = i; j < i + 8 && j <= options_.items; j++) {
      std::vector<uint8_t> srow(kStockBytes, 0);
      PutU32At(&srow, 0, rng.Uniform(90) + 10);  // quantity 10-99
      Status s =
          co_await part.stock.Put(*tx, StockKey(static_cast<uint64_t>(j)), std::move(srow));
      if (!s.ok()) {
        co_return s;
      }
    }
    Status s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
  }

  // Initial orders with order lines and the new-order queue.
  for (int d = 1; d <= options_.districts; d++) {
    for (int o = 1; o <= options_.init_orders; o += 4) {
      auto tx = node.Begin(0);
      for (int j = o; j < o + 4 && j <= options_.init_orders; j++) {
        uint64_t ow = w;
        uint64_t od = static_cast<uint64_t>(d);
        uint64_t oo = static_cast<uint64_t>(j);
        uint32_t c_id = rng.Uniform(static_cast<uint32_t>(options_.customers)) + 1;
        uint32_t lines = rng.Uniform(6) + 5;
        std::vector<uint8_t> orow(kOrderBytes, 0);
        PutU32At(&orow, 0, c_id);
        PutU32At(&orow, 20, j > options_.init_orders * 7 / 10 ? 0 : 1);  // carrier
        PutU32At(&orow, 24, lines);
        Status s = co_await part.order.Put(*tx, OrderKey(ow, od, oo), std::move(orow));
        if (!s.ok()) {
          co_return s;
        }
        for (uint32_t l = 1; l <= lines; l++) {
          uint32_t item = rng.Uniform(static_cast<uint32_t>(options_.items)) + 1;
          s = co_await part.order_line.Insert(*tx, OlKey(ow, od, oo, l),
                                              PackOrderLine(item, 5, 500));
          if (!s.ok()) {
            co_return s;
          }
        }
        // The most recent 30% are undelivered: they sit in the new-order queue.
        if (j > options_.init_orders * 7 / 10) {
          s = co_await part.new_order.Insert(*tx, OrderKey(ow, od, oo), oo);
          if (!s.ok()) {
            co_return s;
          }
        }
      }
      Status s = co_await tx->Commit();
      if (!s.ok()) {
        co_return s;
      }
    }
  }
  co_return OkStatus();
}

std::vector<MachineId> TpccDb::ClientMachines(Cluster& cluster) const {
  (void)cluster;
  std::vector<MachineId> out = *homes_;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

uint64_t TpccDb::HomeWarehouse(Node& node, Pcg32& rng) const {
  std::vector<uint64_t> mine;
  for (size_t i = 0; i < homes_->size(); i++) {
    if ((*homes_)[i] == node.id()) {
      mine.push_back(i + 1);
    }
  }
  if (mine.empty()) {
    return rng.Uniform64(homes_->size()) + 1;
  }
  return mine[rng.Uniform64(mine.size())];
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Task<bool> TpccDb::NewOrder(Node& node, int thread, Pcg32& rng) const {
  uint64_t w = HomeWarehouse(node, rng);
  uint64_t d = rng.Uniform(static_cast<uint32_t>(options_.districts)) + 1;
  uint64_t c = rng.Uniform(static_cast<uint32_t>(options_.customers)) + 1;
  uint32_t lines = rng.Uniform(11) + 5;  // 5-15 order lines
  if (rng.Bernoulli(kRollbackFraction)) {
    stats_->rollbacks++;  // spec: ~1% of new-orders roll back (invalid item)
    co_return false;
  }
  struct Line {
    uint32_t item;
    uint64_t supply_w;
    uint32_t qty;
  };
  std::vector<Line> order_lines;
  for (uint32_t l = 0; l < lines; l++) {
    Line line;
    line.item = rng.Uniform(static_cast<uint32_t>(options_.items)) + 1;
    line.supply_w = w;
    if (options_.warehouses > 1 && rng.Bernoulli(kRemoteItemFraction)) {
      do {
        line.supply_w = rng.Uniform64(static_cast<uint64_t>(options_.warehouses)) + 1;
      } while (line.supply_w == w);
    }
    line.qty = rng.Uniform(10) + 1;
    order_lines.push_back(line);
  }

  auto attempt_fn = [&]() -> Task<Status> {
    const Partition& part = Part(w);
    auto tx = node.Begin(thread);
    auto wrow = co_await part.warehouse.Get(*tx, w);
    if (!wrow.ok() || !wrow->has_value()) {
      co_return NotFoundStatus("warehouse");
    }
    auto drow = co_await part.district.Get(*tx, Wd(w, d));
    if (!drow.ok() || !drow->has_value()) {
      co_return NotFoundStatus("district");
    }
    std::vector<uint8_t> dnew = **drow;
    uint32_t o_id = U32At(dnew, 0);
    PutU32At(&dnew, 0, o_id + 1);
    Status s = co_await part.district.Put(*tx, Wd(w, d), std::move(dnew));
    if (!s.ok()) {
      co_return s;
    }
    auto crow = co_await part.customer.Get(*tx, CustKey(w, d, c));
    if (!crow.ok() || !crow->has_value()) {
      co_return NotFoundStatus("customer");
    }
    // Record the customer's latest order for ORDER-STATUS.
    std::vector<uint8_t> cnew = **crow;
    PutU32At(&cnew, 28, o_id);
    s = co_await part.customer.Put(*tx, CustKey(w, d, c), std::move(cnew));
    if (!s.ok()) {
      co_return s;
    }

    uint32_t total = 0;
    for (const Line& line : order_lines) {
      auto irow = co_await item_.Get(*tx, StockKey(line.item));
      if (!irow.ok() || !irow->has_value()) {
        co_return NotFoundStatus("item");
      }
      uint32_t price = U32At(**irow, 0);
      const Partition& spart = Part(line.supply_w);
      auto srow = co_await spart.stock.Get(*tx, StockKey(line.item));
      if (!srow.ok() || !srow->has_value()) {
        co_return NotFoundStatus("stock");
      }
      std::vector<uint8_t> snew = **srow;
      uint32_t qty = U32At(snew, 0);
      qty = qty >= line.qty + 10 ? qty - line.qty : qty + 91 - line.qty;
      PutU32At(&snew, 0, qty);
      PutU64At(&snew, 8, U64At(snew, 8) + line.qty);
      PutU32At(&snew, 16, U32At(snew, 16) + 1);
      if (line.supply_w != w) {
        PutU32At(&snew, 20, U32At(snew, 20) + 1);
      }
      s = co_await spart.stock.Put(*tx, StockKey(line.item), std::move(snew));
      if (!s.ok()) {
        co_return s;
      }
      total += price * line.qty;
    }

    std::vector<uint8_t> orow(kOrderBytes, 0);
    PutU32At(&orow, 0, static_cast<uint32_t>(c));
    PutU32At(&orow, 24, lines);
    s = co_await part.order.Put(*tx, OrderKey(w, d, o_id), std::move(orow));
    if (!s.ok()) {
      co_return s;
    }
    s = co_await part.new_order.Insert(*tx, OrderKey(w, d, o_id), o_id);
    if (!s.ok()) {
      co_return s;
    }
    uint32_t ol_no = 1;
    for (const Line& line : order_lines) {
      s = co_await part.order_line.Insert(*tx, OlKey(w, d, o_id, ol_no++),
                                          PackOrderLine(line.item, line.qty, total));
      if (!s.ok()) {
        co_return s;
      }
    }
    co_return co_await tx->Commit();
  };
  bool ok = co_await WithRetries(attempt_fn);
  if (ok) {
    stats_->new_order_committed++;
  }
  co_return ok;
}

Task<bool> TpccDb::Payment(Node& node, int thread, Pcg32& rng) const {
  uint64_t w = HomeWarehouse(node, rng);
  uint64_t d = rng.Uniform(static_cast<uint32_t>(options_.districts)) + 1;
  uint64_t cw = w;
  uint64_t cd = d;
  if (options_.warehouses > 1 && rng.Bernoulli(kRemoteCustomerFraction)) {
    do {
      cw = rng.Uniform64(static_cast<uint64_t>(options_.warehouses)) + 1;
    } while (cw == w);
    cd = rng.Uniform(static_cast<uint32_t>(options_.districts)) + 1;
  }
  uint64_t c = rng.Uniform(static_cast<uint32_t>(options_.customers)) + 1;
  uint64_t amount = rng.Uniform(5000) + 100;
  uint64_t hkey = Mix64(HashCombine((*history_seq_)++, node.id())) | 1;
  if (hkey == HashTable::kTombstoneKey) {
    hkey = 2;
  }

  auto attempt_fn = [&]() -> Task<Status> {
    const Partition& part = Part(w);
    const Partition& cpart = Part(cw);
    auto tx = node.Begin(thread);
    auto wrow = co_await part.warehouse.Get(*tx, w);
    if (!wrow.ok() || !wrow->has_value()) {
      co_return NotFoundStatus("warehouse");
    }
    std::vector<uint8_t> wnew = **wrow;
    PutU64At(&wnew, 0, U64At(wnew, 0) + amount);  // ytd
    Status s = co_await part.warehouse.Put(*tx, w, std::move(wnew));
    if (!s.ok()) {
      co_return s;
    }
    auto drow = co_await part.district.Get(*tx, Wd(w, d));
    if (!drow.ok() || !drow->has_value()) {
      co_return NotFoundStatus("district");
    }
    std::vector<uint8_t> dnew = **drow;
    PutU64At(&dnew, 8, U64At(dnew, 8) + amount);
    s = co_await part.district.Put(*tx, Wd(w, d), std::move(dnew));
    if (!s.ok()) {
      co_return s;
    }
    auto crow = co_await cpart.customer.Get(*tx, CustKey(cw, cd, c));
    if (!crow.ok() || !crow->has_value()) {
      co_return NotFoundStatus("customer");
    }
    std::vector<uint8_t> cnew = **crow;
    PutU64At(&cnew, 0, U64At(cnew, 0) - amount);            // balance
    PutU64At(&cnew, 8, U64At(cnew, 8) + amount);            // ytd payment
    PutU32At(&cnew, 16, U32At(cnew, 16) + 1);               // payment count
    s = co_await cpart.customer.Put(*tx, CustKey(cw, cd, c), std::move(cnew));
    if (!s.ok()) {
      co_return s;
    }
    std::vector<uint8_t> hrow(kHistoryBytes, 0);
    PutU64At(&hrow, 0, amount);
    s = co_await part.history.Put(*tx, hkey, std::move(hrow));
    if (!s.ok()) {
      co_return s;
    }
    co_return co_await tx->Commit();
  };
  bool ok = co_await WithRetries(attempt_fn);
  if (ok) {
    stats_->payment++;
  }
  co_return ok;
}

Task<bool> TpccDb::OrderStatus(Node& node, int thread, Pcg32& rng) const {
  uint64_t w = HomeWarehouse(node, rng);
  uint64_t d = rng.Uniform(static_cast<uint32_t>(options_.districts)) + 1;
  uint64_t c = rng.Uniform(static_cast<uint32_t>(options_.customers)) + 1;
  const Partition& part = Part(w);

  auto tx = node.Begin(thread);
  auto crow = co_await part.customer.Get(*tx, CustKey(w, d, c));
  if (!crow.ok() || !crow->has_value()) {
    co_return false;
  }
  uint32_t last_order = U32At(**crow, 28);
  if (last_order != 0) {
    auto orow = co_await part.order.Get(*tx, OrderKey(w, d, last_order));
    if (!orow.ok()) {
      co_return false;
    }
    auto ols = co_await part.order_line.Scan(*tx, OlKey(w, d, last_order, 0),
                                             OlKey(w, d, last_order + 1, 0), 20);
    if (!ols.ok()) {
      co_return false;
    }
  }
  Status s = co_await tx->Commit();
  if (s.ok()) {
    stats_->order_status++;
  }
  co_return s.ok();
}

Task<bool> TpccDb::Delivery(Node& node, int thread, Pcg32& rng) const {
  uint64_t w = HomeWarehouse(node, rng);
  const Partition& part = Part(w);
  int delivered = 0;
  // One transaction per district, as the spec permits.
  for (uint64_t d = 1; d <= static_cast<uint64_t>(options_.districts); d++) {
    auto attempt_fn = [&, d]() -> Task<Status> {
          auto tx = node.Begin(thread);
          auto oldest = co_await part.new_order.Scan(*tx, OrderKey(w, d, 0),
                                                     OrderKey(w, d + 1, 0), 1);
          if (!oldest.ok()) {
            co_return oldest.status();
          }
          if (oldest->empty()) {
            co_return NotFoundStatus("no undelivered order");
          }
          uint64_t okey = (*oldest)[0].first;
          uint64_t o = (*oldest)[0].second;
          Status s = co_await part.new_order.Remove(*tx, okey);
          if (!s.ok()) {
            co_return s;
          }
          auto orow = co_await part.order.Get(*tx, okey);
          if (!orow.ok() || !orow->has_value()) {
            co_return NotFoundStatus("order row");
          }
          std::vector<uint8_t> onew = **orow;
          uint32_t c = U32At(onew, 0);
          PutU32At(&onew, 20, 7);  // carrier id
          s = co_await part.order.Put(*tx, okey, std::move(onew));
          if (!s.ok()) {
            co_return s;
          }
          auto ols =
              co_await part.order_line.Scan(*tx, OlKey(w, d, o, 0), OlKey(w, d, o + 1, 0), 20);
          if (!ols.ok()) {
            co_return ols.status();
          }
          uint64_t total = 0;
          for (const auto& [k, v] : *ols) {
            (void)k;
            total += v & 0xffffff;
          }
          auto crow = co_await part.customer.Get(*tx, CustKey(w, d, c));
          if (!crow.ok() || !crow->has_value()) {
            co_return NotFoundStatus("customer");
          }
          std::vector<uint8_t> cnew = **crow;
          PutU64At(&cnew, 0, U64At(cnew, 0) + total);  // balance
          PutU32At(&cnew, 20, U32At(cnew, 20) + 1);    // delivery count
          s = co_await part.customer.Put(*tx, CustKey(w, d, c), std::move(cnew));
          if (!s.ok()) {
            co_return s;
          }
          co_return co_await tx->Commit();
    };
    bool ok = co_await WithRetries(attempt_fn, 4);
    if (ok) {
      delivered++;
    }
  }
  if (delivered > 0) {
    stats_->delivery++;
  }
  co_return delivered > 0;
}

Task<bool> TpccDb::StockLevel(Node& node, int thread, Pcg32& rng) const {
  uint64_t w = HomeWarehouse(node, rng);
  uint64_t d = rng.Uniform(static_cast<uint32_t>(options_.districts)) + 1;
  uint32_t threshold = rng.Uniform(11) + 10;
  const Partition& part = Part(w);

  auto tx = node.Begin(thread);
  auto drow = co_await part.district.Get(*tx, Wd(w, d));
  if (!drow.ok() || !drow->has_value()) {
    co_return false;
  }
  uint32_t next_o = U32At(**drow, 0);
  uint64_t lo_order = next_o > 20 ? next_o - 20 : 1;
  auto ols = co_await part.order_line.Scan(*tx, OlKey(w, d, lo_order, 0),
                                           OlKey(w, d, next_o, 0), 60);
  if (!ols.ok()) {
    co_return false;
  }
  std::set<uint32_t> seen;
  int low_stock = 0;
  for (const auto& [k, v] : *ols) {
    (void)k;
    uint32_t item = static_cast<uint32_t>(v >> 32);
    if (!seen.insert(item).second || seen.size() > 24) {
      continue;
    }
    auto srow = co_await part.stock.Get(*tx, StockKey(item));
    if (srow.ok() && srow->has_value() && U32At(**srow, 0) < threshold) {
      low_stock++;
    }
  }
  Status s = co_await tx->Commit();
  if (s.ok()) {
    stats_->stock_level++;
  }
  co_return s.ok();
}

Task<StatusOr<uint32_t>> TpccDb::DistrictRowForTest(Transaction& tx, uint64_t w,
                                                    uint64_t d) const {
  auto drow = co_await Part(w).district.Get(tx, Wd(w, d));
  if (!drow.ok()) {
    co_return drow.status();
  }
  if (!drow->has_value()) {
    co_return NotFoundStatus("district");
  }
  co_return U32At(**drow, 0);
}

Task<StatusOr<std::vector<std::pair<uint64_t, uint64_t>>>> TpccDb::OrderLineScanForTest(
    Transaction& tx, uint64_t w, uint64_t d) const {
  co_return co_await Part(w).order_line.Scan(tx, OlKey(w, d, 0, 0), OlKey(w, d + 1, 0, 0),
                                             100000);
}

WorkloadFn TpccDb::MakeWorkload() const {
  TpccDb db = *this;
  return [db](Node& node, int thread, Pcg32& rng) -> Task<bool> {
    uint32_t dice = rng.Uniform(100);
    if (dice < 45) {
      co_return co_await db.NewOrder(node, thread, rng);
    } else if (dice < 88) {
      co_return co_await db.Payment(node, thread, rng);
    } else if (dice < 92) {
      co_return co_await db.OrderStatus(node, thread, rng);
    } else if (dice < 96) {
      co_return co_await db.Delivery(node, thread, rng);
    } else {
      co_return co_await db.StockLevel(node, thread, rng);
    }
  };
}

}  // namespace farm
