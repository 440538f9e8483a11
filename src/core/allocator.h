// The Resource Allocator (Figure 3; Section IV-D): the lightweight
// decision-making component. It keeps the Distributed Container's global
// CPU/memory pools, consumes per-period CPU telemetry through two sliding
// windowed statistics per container (throttle occurrences and unused
// runtime), and decides when to scale each container up or down. It also
// decides how to satisfy out-of-memory events from the globally unallocated
// memory, falling back to reclamation when the pool is dry.
//
// The allocator is deliberately passive: it returns decisions; the
// Controller carries them out (Section IV-C: "The Controller is not
// responsible for making those ... decisions").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bw/shaper.h"
#include "core/config.h"
#include "core/container_index.h"
#include "core/credit_ledger.h"
#include "core/distributed_container.h"
#include "core/messages.h"
#include "obs/observer.h"
#include "sim/stats.h"

namespace escra::core {

class ResourceAllocator {
 public:
  ResourceAllocator(const EscraConfig& config, DistributedContainer& app);

  // --- membership ---
  void register_container(std::uint32_t id, double cores, memcg::Bytes mem);
  void deregister_container(std::uint32_t id);
  bool knows(std::uint32_t id) const { return index_.contains(id); }
  // Drops every registration (Controller crash: shadow state dies with the
  // process). Pool commitments return to unallocated; windows are cleared.
  void reset();

  // --- CPU (Section IV-D1) ---

  // Consumes one per-period statistic. If a limit change is warranted the
  // new shadow limit (already committed against the global pool) is
  // returned for the Controller to push to the Agent.
  std::optional<double> on_cpu_stats(const CpuStatsMsg& stats);

  // --- memory (Section IV-D2) ---

  enum class MemAction {
    kGrant,             // new_limit committed; apply it and retry the charge
    kReclaimThenRetry,  // pool dry: run reclamation, then call again
    kDeny,              // nothing to give even after reclamation: let it die
  };
  struct MemDecision {
    MemAction action = MemAction::kDeny;
    memcg::Bytes new_limit = 0;
  };

  // Handles a pre-OOM event. `post_reclaim` marks the retry after a
  // reclamation pass, so the allocator denies instead of looping.
  MemDecision on_oom_event(const OomEventMsg& event, bool post_reclaim = false);

  // --- bandwidth (third managed resource; mirrors the CPU arm with rates
  //     in bytes/s) ---

  // Consumes one per-period bandwidth sample from the node shapers. If a
  // rate change is warranted the new shadow rate (committed against the
  // global bandwidth pool — the node-NIC clamp is the Controller's job) is
  // returned for the Controller to push to the Agent. Unshaped containers
  // (member bw of 0) are ignored.
  std::optional<double> on_bw_stats(const bw::BwSample& sample);

  // Syncs shadow state after an Agent reclamation pass; ψ flows back into
  // the pool implicitly (allocated sum drops).
  void on_reclaimed(std::uint32_t container, memcg::Bytes new_limit);

  // --- real-time floors (mixed-criticality class) ---
  // An admitted RT container's reservation floor: no allocator decision —
  // κ scale-down, credit decay, anything — may push its shadow CPU limit
  // below `cores` (or its bandwidth rate below `bw_bps`). Set by the
  // Controller at admission, cleared at eviction/deregistration. RT
  // containers also bypass the credit Υ-gate: their priority was paid for
  // at admission, not borrowed from the Karma ledger.
  void set_rt_floor(std::uint32_t id, double cores, double bw_bps);
  void clear_rt_floor(std::uint32_t id);
  double rt_floor(std::uint32_t id) const;

  // --- credit defense (Karma-style, see credit_ledger.h) ---
  // Read-only Υ-gate on the grant paths: with a ledger attached, a member
  // whose balance is non-positive is never lifted above its static fair
  // share (CPU) and gets shortfall-only OOM grants once above its fair
  // memory share. Null detaches (defense off, the default).
  void set_credit_ledger(const CreditLedger* ledger) { credits_ = ledger; }

  // --- observability ---
  // Mirrors decision counters into the observer's registry and keeps the
  // Distributed Container's pool gauges live. Null detaches. The allocator
  // stays decision-only: trace events for its decisions are recorded by the
  // Controller, which owns the clock and the node topology.
  void set_observer(obs::Observer* observer);

  // --- introspection ---
  DistributedContainer& app() { return app_; }
  const EscraConfig& config() const { return config_; }
  std::uint64_t cpu_scale_ups() const { return cpu_.ups; }
  std::uint64_t cpu_scale_downs() const { return cpu_.downs; }
  std::uint64_t mem_grants() const { return mem_grants_; }
  std::uint64_t mem_denies() const { return mem_denies_; }
  std::uint64_t bw_scale_ups() const { return bw_.ups; }
  std::uint64_t bw_scale_downs() const { return bw_.downs; }

 private:
  // Per-container sliding statistics; `unused` is in the arm's unit (cores
  // for CPU, bytes/s for bandwidth).
  struct Windows {
    sim::SlidingWindow throttles;
    sim::SlidingWindow unused;
    explicit Windows(std::size_t n) : throttles(n), unused(n) {}
  };
  // One windowed scale arm (Section IV-D1's rule, shared by CPU and
  // bandwidth): its tunables, pool setter, per-slot windows and RT floors,
  // decision counters, and observer handles. A new windowed resource is one
  // more of these.
  struct Arm {
    double upsilon = 0.0;
    double gamma = 0.0;
    double kappa = 0.0;
    double min = 0.0;  // global floor of one member's limit
    double eps = 0.0;  // smallest change worth an RPC
    double (DistributedContainer::*set)(std::uint32_t, double) = nullptr;
    obs::Counter* obs::Observer::Handles::*grants = nullptr;
    obs::Counter* obs::Observer::Handles::*shrinks = nullptr;
    std::vector<Windows> windows{};
    std::vector<double> rt_floor{};  // 0 = best-effort
    std::uint64_t ups = 0;
    std::uint64_t downs = 0;
  };

  // Feeds one period's sample into `arm` at `slot` and returns the new
  // shadow limit (already committed against the pool), if any. `unused` and
  // `used_last` are in the arm's unit; a grant never lifts the limit past
  // `ceiling`.
  std::optional<double> scale(Arm& arm, std::uint32_t slot, std::uint32_t id,
                              double current, bool throttled, double unused,
                              double used_last, double unallocated,
                              double ceiling);

  EscraConfig config_;
  DistributedContainer& app_;
  obs::Observer* obs_ = nullptr;
  const CreditLedger* credits_ = nullptr;
  // Registered containers interned to dense slots; every arm's rows are
  // indexed by the same slot.
  ContainerIndex index_;
  Arm cpu_;
  Arm bw_;
  std::uint64_t mem_grants_ = 0;
  std::uint64_t mem_denies_ = 0;
};

}  // namespace escra::core
