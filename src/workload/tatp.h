// TATP (Telecommunication Application Transaction Processing) benchmark
// implemented against the FaRM API (section 6.2).
//
// Tables are FaRM hash tables. The standard mix is read dominated: 70%
// single-row lookups served by lock-free reads (usually one RDMA read, no
// commit phase), 10% small multi-row reads validated at commit, and 20%
// updates running the full commit protocol. Single-field subscriber updates
// (UPDATE_LOCATION) are function-shipped to the primary as in the paper.
#ifndef SRC_WORKLOAD_TATP_H_
#define SRC_WORKLOAD_TATP_H_

#include <memory>

#include "src/ds/hashtable.h"
#include "src/workload/driver.h"

namespace farm {

struct TatpOptions {
  uint64_t subscribers = 10000;
  bool function_ship_updates = true;  // ship single-field updates to the primary
  uint64_t load_seed = 7;
};

struct TatpStats {
  uint64_t get_subscriber = 0;
  uint64_t get_new_destination = 0;
  uint64_t get_access = 0;
  uint64_t update_subscriber = 0;
  uint64_t update_location = 0;
  uint64_t insert_cf = 0;
  uint64_t delete_cf = 0;
};

class TatpDb {
 public:
  // Creates the four tables and loads `subscribers` rows (plus access-info,
  // special-facility, and call-forwarding rows per the TATP spec).
  static Task<StatusOr<TatpDb>> Create(Cluster& cluster, TatpOptions options);

  // Registers the function-shipping RPC service on every machine. Call once.
  void RegisterServices(Cluster& cluster) const;

  // The standard TATP transaction mix as a driver workload.
  WorkloadFn MakeWorkload() const;

  std::shared_ptr<TatpStats> stats() const { return stats_; }
  const TatpOptions& options() const { return options_; }

  // Individual transactions (also used by tests).
  Task<bool> GetSubscriberData(Node& node, int thread, Pcg32& rng) const;
  Task<bool> GetNewDestination(Node& node, int thread, Pcg32& rng) const;
  Task<bool> GetAccessData(Node& node, int thread, Pcg32& rng) const;
  Task<bool> UpdateSubscriberData(Node& node, int thread, Pcg32& rng) const;
  Task<bool> UpdateLocation(Node& node, int thread, Pcg32& rng) const;
  Task<bool> InsertCallForwarding(Node& node, int thread, Pcg32& rng) const;
  Task<bool> DeleteCallForwarding(Node& node, int thread, Pcg32& rng) const;

  // Table handles (tests and the loader use these).
  const HashTable& SubscriberTable() const { return subscriber_; }

  // Value sizes (bytes).
  static constexpr uint32_t kSubscriberBytes = 40;
  static constexpr uint32_t kAccessInfoBytes = 16;
  static constexpr uint32_t kSpecialFacilityBytes = 16;
  static constexpr uint32_t kCallForwardingBytes = 16;

  // Composite keys.
  static uint64_t SubKey(uint64_t s) { return s; }
  static uint64_t AiKey(uint64_t s, uint32_t ai_type) { return s * 8 + ai_type; }
  static uint64_t SfKey(uint64_t s, uint32_t sf_type) { return s * 8 + sf_type; }
  static uint64_t CfKey(uint64_t s, uint32_t sf_type, uint32_t start_time) {
    return s * 64 + static_cast<uint64_t>(sf_type) * 8 + start_time / 8;
  }

 private:
  uint64_t RandomSubscriber(Pcg32& rng) const { return rng.Uniform64(options_.subscribers) + 1; }
  Task<Status> LoadSubscriber(Transaction& tx, uint64_t sid, Pcg32& rng) const;

  TatpOptions options_;
  HashTable subscriber_;
  HashTable access_info_;
  HashTable special_facility_;
  HashTable call_forwarding_;
  std::shared_ptr<TatpStats> stats_ = std::make_shared<TatpStats>();
};

}  // namespace farm

#endif  // SRC_WORKLOAD_TATP_H_
