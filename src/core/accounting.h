// Usage accounting for Distributed Containers (Section VII).
//
// The paper observes that the Distributed Container abstraction is a natural
// unit for billing in serverless and multi-tenant systems: instead of
// charging for static reservations (what a pod *might* use) or opaque
// invocation counts, a provider can meter the aggregate resources a tenant's
// containers actually hold — which Escra keeps close to what they actually
// use.
//
// UsageAccountant samples tracked containers once per interval and
// integrates, per tenant:
//   * reserved core-seconds / GiB-seconds (the limit curve), and
//   * used core-seconds / GiB-seconds (the usage curve).
// The gap between the two integrals is exactly the slack the paper's
// cost-efficiency results are about, expressed in billable units.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/container.h"
#include "core/container_index.h"
#include "sim/event_queue.h"

namespace escra::core {

// One tenant's metered totals.
struct UsageBill {
  double cpu_core_seconds_used = 0.0;
  double cpu_core_seconds_reserved = 0.0;
  double mem_gib_seconds_used = 0.0;
  double mem_gib_seconds_reserved = 0.0;
  std::uint64_t samples = 0;

  // Cost under reservation billing (pay for limits, the IaaS model).
  double cost_reserved(double per_core_second, double per_gib_second) const {
    return cpu_core_seconds_reserved * per_core_second +
           mem_gib_seconds_reserved * per_gib_second;
  }
  // Cost under usage billing (pay for consumption, the serverless model).
  double cost_used(double per_core_second, double per_gib_second) const {
    return cpu_core_seconds_used * per_core_second +
           mem_gib_seconds_used * per_gib_second;
  }
  // Fraction of the reservation that was actually used (CPU).
  double cpu_utilization() const {
    return cpu_core_seconds_reserved > 0.0
               ? cpu_core_seconds_used / cpu_core_seconds_reserved
               : 0.0;
  }
  double mem_utilization() const {
    return mem_gib_seconds_reserved > 0.0
               ? mem_gib_seconds_used / mem_gib_seconds_reserved
               : 0.0;
  }
};

class UsageAccountant {
 public:
  explicit UsageAccountant(sim::Simulation& sim,
                           sim::Duration interval = sim::kSecond);
  ~UsageAccountant();

  UsageAccountant(const UsageAccountant&) = delete;
  UsageAccountant& operator=(const UsageAccountant&) = delete;

  // Meters a container under `tenant` from now on. A container that is
  // removed must be untracked first (or use `final_charge` on reap).
  void track(cluster::Container& container, const std::string& tenant);

  // Stops metering; the usage up to the last sample stays on the bill.
  void untrack(cluster::ContainerId id);

  bool tracking(cluster::ContainerId id) const {
    return index_.contains(id);
  }

  // The accumulated bill for a tenant (zero-valued if unknown).
  const UsageBill& bill(const std::string& tenant) const;
  std::vector<std::string> tenants() const;

 private:
  // Hot per-sample state (container pointer, CPU-time cursor) is
  // slot-indexed SoA walked densely each interval; the tenant string is
  // cold metadata and lives in a side table keyed by the same slot.
  struct Tracked {
    cluster::Container* container = nullptr;
    sim::Duration prev_consumed = 0;
  };
  void on_sample();

  sim::Simulation& sim_;
  sim::Duration interval_;
  ContainerIndex index_;
  std::vector<Tracked> tracked_;
  std::vector<std::string> tenant_of_;  // cold side table, slot-indexed
  std::unordered_map<std::string, UsageBill> bills_;
  sim::EventHandle loop_;
};

}  // namespace escra::core
