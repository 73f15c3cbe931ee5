// TPC-C benchmark against the FaRM API (section 6.2).
//
// The schema is co-partitioned by warehouse as in the paper: each warehouse
// gets its own set of hash-table and B-tree indexes whose regions are
// co-located (locality hints), and the warehouse's clients run on the
// machine hosting its primary. Point indexes are FaRM hash tables; the
// new-order queue and order-line indexes -- which need range queries -- are
// FaRM B-trees. The full transaction mix runs (new-order 45%, payment 43%,
// order-status 4%, delivery 4%, stock-level 4%); results report committed
// "new order" transactions as the paper does.
//
// Documented simplifications: customer lookup is always by id (the spec's
// 60% by-last-name lookups would add one more index); the history table is
// insert-only with a synthetic key; items are valid (the spec's 1% rollback
// is modeled as an explicit abort without the invalid-item plumbing).
#ifndef SRC_WORKLOAD_TPCC_H_
#define SRC_WORKLOAD_TPCC_H_

#include <memory>

#include "src/ds/btree.h"
#include "src/ds/hashtable.h"
#include "src/workload/driver.h"

namespace farm {

struct TpccOptions {
  int warehouses = 4;
  int districts = 10;            // per warehouse (spec)
  int customers = 96;            // per district (scaled from 3000)
  int items = 1000;              // global (scaled from 100000)
  int init_orders = 20;          // per district (scaled from 3000)
  uint64_t load_seed = 11;
};

struct TpccStats {
  uint64_t new_order_committed = 0;
  uint64_t payment = 0;
  uint64_t order_status = 0;
  uint64_t delivery = 0;
  uint64_t stock_level = 0;
  uint64_t rollbacks = 0;
};

class TpccDb {
 public:
  static Task<StatusOr<TpccDb>> Create(Cluster& cluster, TpccOptions options);

  WorkloadFn MakeWorkload() const;
  // The machines hosting each warehouse's primary (clients run there).
  std::vector<MachineId> ClientMachines(Cluster& cluster) const;

  std::shared_ptr<TpccStats> stats() const { return stats_; }
  const TpccOptions& options() const { return options_; }

  Task<bool> NewOrder(Node& node, int thread, Pcg32& rng) const;
  Task<bool> Payment(Node& node, int thread, Pcg32& rng) const;
  Task<bool> OrderStatus(Node& node, int thread, Pcg32& rng) const;
  Task<bool> Delivery(Node& node, int thread, Pcg32& rng) const;
  Task<bool> StockLevel(Node& node, int thread, Pcg32& rng) const;

  // Test-only accessors for consistency checks.
  Task<StatusOr<uint32_t>> DistrictRowForTest(Transaction& tx, uint64_t w, uint64_t d) const;
  Task<StatusOr<std::vector<std::pair<uint64_t, uint64_t>>>> OrderLineScanForTest(
      Transaction& tx, uint64_t w, uint64_t d) const;

  // --- composite keys (w and d are 1-based) ---
  static uint64_t Wd(uint64_t w, uint64_t d) { return w * 16 + d; }
  static uint64_t CustKey(uint64_t w, uint64_t d, uint64_t c) { return (Wd(w, d) << 16) | c; }
  static uint64_t StockKey(uint64_t i) { return i; }  // per-warehouse table
  static uint64_t OrderKey(uint64_t w, uint64_t d, uint64_t o) { return (Wd(w, d) << 32) | o; }
  static uint64_t OlKey(uint64_t w, uint64_t d, uint64_t o, uint64_t ol) {
    return (Wd(w, d) << 40) | (o << 8) | ol;
  }

  // --- row sizes ---
  static constexpr uint32_t kWarehouseBytes = 16;  // [ytd u64][tax u32][pad]
  static constexpr uint32_t kDistrictBytes = 24;   // [next_o_id u32][ytd u64][tax u32]
  static constexpr uint32_t kCustomerBytes = 48;   // [balance i64][ytd u64][paymts u32]
                                                   // [deliveries u32][last_order u32]
  static constexpr uint32_t kItemBytes = 24;       // [price u32][name...]
  static constexpr uint32_t kStockBytes = 32;      // [qty u32][ytd u64][orders u32][remote u32]
  static constexpr uint32_t kOrderBytes = 32;      // [c u32][entry u64][carrier u32][lines u32]
  static constexpr uint32_t kHistoryBytes = 24;

 private:
  struct Partition {
    HashTable warehouse;   // 1 row
    HashTable district;    // districts rows
    HashTable customer;
    HashTable stock;
    HashTable order;
    HashTable history;
    BTree new_order;       // OrderKey -> o (range: oldest undelivered)
    BTree order_line;      // OlKey -> packed(item, qty, amount)
    RegionId anchor = kInvalidRegion;
  };

  // Picks the warehouse whose clients run on this node (uniform fallback).
  uint64_t HomeWarehouse(Node& node, Pcg32& rng) const;
  const Partition& Part(uint64_t w) const { return (*parts_)[w - 1]; }
  Task<Status> LoadWarehouse(Cluster& cluster, uint64_t w);

  TpccOptions options_;
  std::shared_ptr<std::vector<Partition>> parts_ = std::make_shared<std::vector<Partition>>();
  std::shared_ptr<std::vector<MachineId>> homes_ = std::make_shared<std::vector<MachineId>>();
  HashTable item_;  // global, read-mostly
  std::shared_ptr<TpccStats> stats_ = std::make_shared<TpccStats>();
  std::shared_ptr<uint64_t> history_seq_ = std::make_shared<uint64_t>(1);
};

}  // namespace farm

#endif  // SRC_WORKLOAD_TPCC_H_
