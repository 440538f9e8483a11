// Adversarial tenant models: workloads that game the κ/Υ control loop.
//
// Escra's loop trusts what the kernel hook reports. A tenant that controls
// its own node image (or just its cgroup's exported stats) can forge that
// stream: report zero unused runtime and a throttle flag every period and
// the allocator funds an ever-growing CPU limit; fabricate pre-OOM events
// and the memory arm hands over grant blocks; burst briefly to win an
// allocation and then lie idle to keep it. These models implement exactly
// those strategies against the real control plane — the *internal*
// scheduling accounting stays truthful (the node cannot run fake cycles),
// only the telemetry wire and the event channel are forged — so the
// fairness experiments (exp::FairnessReport, bench/adv_fairness) measure
// what a lying tenant actually extracts, and what the Karma-style credit
// defense (core/credit_ledger.h) claws back.
//
// Everything is driven off one forked sim::Rng, so an adversarial run is
// byte-identically replayable like every other workload in this repo.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/container.h"
#include "core/controller.h"
#include "memcg/mem_cgroup.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace escra::workload {

enum class GreedyStrategy : std::uint8_t {
  // Forge every CFS period report: zero unused runtime + throttle flag,
  // timed to the report period by construction (the mutator runs at each
  // period boundary). The scale-up arm funds an ever-growing limit.
  kInflatedUsage,
  // Fabricate pre-OOM events on a timer: phantom memcg pressure with a
  // fake shortfall farms the fixed OOM grant block without using a byte.
  kPhantomOom,
  // Burst real work to win an allocation, then lie idle (unused = 0) so
  // the κ scale-down never fires: pool hoarding.
  kBurstIdleHoard,
  // Multi-container collusion: the tenant rotates one "active liar" among
  // its containers while the rest idle honestly below fair share earning
  // credits — an attempt to launder per-container budgets through a pool
  // of accomplices.
  kColluding,
};

struct GreedyProfile {
  GreedyStrategy strategy = GreedyStrategy::kInflatedUsage;
  // Fraction of report periods the tenant forges (1.0 = every period).
  // Forging a fraction models a cautious attacker dodging anomaly alarms.
  double lie_fraction = 1.0;
  // Fraction of forged reports that are *physically impossible* (usage
  // beyond node capacity, unused > quota): a crude attacker, or a probe of
  // the Controller's ingestion hardening. Exercises the telemetry clamp.
  double impossible_fraction = 0.0;
  // kPhantomOom: fabricated event cadence and claimed shortfall.
  sim::Duration phantom_interval = sim::milliseconds(400);
  memcg::Bytes phantom_shortfall = 8 * memcg::kMiB;
  // kBurstIdleHoard: real-work burst length, idle (lying) gap, and the
  // CPU cost submitted per period while bursting.
  sim::Duration burst_on = sim::milliseconds(500);
  sim::Duration burst_off = sim::seconds(3);
  sim::Duration burst_cpu_per_period = sim::milliseconds(400);
  // kColluding: how often the active-liar role rotates.
  sim::Duration rotate_interval = sim::seconds(1);
};

// One adversarial tenant: a set of containers it controls plus the forging
// machinery. attach() the containers, then start(); stop() (or
// destruction) removes every forged hook and timer, restoring truthful
// telemetry.
class GreedyTenant {
 public:
  GreedyTenant(sim::Simulation& sim, core::Controller& controller,
               GreedyProfile profile, sim::Rng rng);
  ~GreedyTenant();

  GreedyTenant(const GreedyTenant&) = delete;
  GreedyTenant& operator=(const GreedyTenant&) = delete;

  // Adds a container to the tenant's control. All strategies accept any
  // number of containers; kColluding is pointless with fewer than two.
  void attach(cluster::Container& container);

  void start(sim::TimePoint at);
  void stop();

  const GreedyProfile& profile() const { return profile_; }
  const std::vector<cluster::Container*>& containers() const {
    return containers_;
  }

  // --- attack telemetry (for experiments and the fuzzer's non-vacuity
  //     checks: a sweep where no lies were told proves nothing) ---
  std::uint64_t lies_told() const { return lies_told_; }
  std::uint64_t phantom_ooms() const { return phantom_ooms_; }
  std::uint64_t phantom_grants() const { return phantom_grants_; }

 private:
  void remove_mutators();
  void forge(cluster::Container& container, cfs::PeriodStats& stats);
  void fire_phantom_oom();
  void rotate_liar();
  void burst_tick();

  sim::Simulation& sim_;
  core::Controller& controller_;
  GreedyProfile profile_;
  sim::Rng rng_;
  std::vector<cluster::Container*> containers_;
  bool running_ = false;
  bool bursting_ = false;
  std::size_t active_liar_ = 0;  // kColluding rotation cursor
  sim::EventHandle phantom_timer_;
  sim::EventHandle rotate_timer_;
  sim::EventHandle burst_timer_;
  sim::EventHandle start_timer_;
  std::uint64_t lies_told_ = 0;
  std::uint64_t phantom_ooms_ = 0;
  std::uint64_t phantom_grants_ = 0;
};

}  // namespace escra::workload
