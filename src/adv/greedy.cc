#include "adv/greedy.h"

#include <algorithm>

namespace escra::workload {

GreedyTenant::GreedyTenant(sim::Simulation& sim, core::Controller& controller,
                           GreedyProfile profile, sim::Rng rng)
    : sim_(sim), controller_(controller), profile_(profile), rng_(rng) {}

GreedyTenant::~GreedyTenant() { stop(); }

void GreedyTenant::attach(cluster::Container& container) {
  containers_.push_back(&container);
  // The mutator is installed immediately but forges nothing until start():
  // forge() gates on running_, so pre-attack telemetry stays truthful.
  cluster::Container* c = &container;
  container.cpu_cgroup().set_stats_mutator(
      [this, c](cfs::PeriodStats& stats) { forge(*c, stats); });
}

void GreedyTenant::start(sim::TimePoint at) {
  start_timer_ = sim_.schedule_at(at, [this] {
    running_ = true;
    switch (profile_.strategy) {
      case GreedyStrategy::kPhantomOom:
        phantom_timer_ = sim_.schedule_every(
            sim_.now() + profile_.phantom_interval, profile_.phantom_interval,
            [this] { fire_phantom_oom(); });
        break;
      case GreedyStrategy::kColluding:
        rotate_timer_ = sim_.schedule_every(
            sim_.now() + profile_.rotate_interval, profile_.rotate_interval,
            [this] { rotate_liar(); });
        break;
      case GreedyStrategy::kBurstIdleHoard:
        burst_tick();
        break;
      case GreedyStrategy::kInflatedUsage:
        break;  // the mutator alone carries the attack
    }
  });
}

void GreedyTenant::stop() {
  running_ = false;
  bursting_ = false;
  sim_.cancel(start_timer_);
  sim_.cancel(phantom_timer_);
  sim_.cancel(rotate_timer_);
  sim_.cancel(burst_timer_);
  remove_mutators();
}

void GreedyTenant::remove_mutators() {
  for (cluster::Container* c : containers_) {
    c->cpu_cgroup().set_stats_mutator(nullptr);
  }
}

void GreedyTenant::forge(cluster::Container& container,
                         cfs::PeriodStats& stats) {
  if (!running_) return;
  switch (profile_.strategy) {
    case GreedyStrategy::kPhantomOom:
      return;  // telemetry stays truthful; the event channel is the attack
    case GreedyStrategy::kInflatedUsage: {
      if (!rng_.chance(profile_.lie_fraction)) return;
      if (profile_.impossible_fraction > 0.0 &&
          rng_.chance(profile_.impossible_fraction)) {
        // A crude forgery no real cgroup could emit, probing the
        // Controller's ingestion hardening: either unused runtime beyond
        // the quota, or a claimed quota (and usage) beyond any node.
        if (rng_.chance(0.5)) {
          stats.unused = stats.quota + stats.quota + 1;
        } else {
          stats.quota = 100 * container.cpu_cgroup().period();  // 100 cores
          stats.unused = 0;
          stats.throttled = true;
        }
        ++lies_told_;
        return;
      }
      // The plausible forgery: "I used everything and wanted more" — the
      // exact report the scale-up arm rewards, every report period.
      stats.unused = 0;
      stats.throttled = true;
      ++lies_told_;
      return;
    }
    case GreedyStrategy::kBurstIdleHoard: {
      if (bursting_) return;  // the burst is real work, reported truthfully
      if (!rng_.chance(profile_.lie_fraction)) return;
      // Idle phase: hide all slack so κ never reclaims the burst's win.
      // No throttle flag — the point is holding, not growing, so the lie
      // stays small and hard to spot.
      stats.unused = 0;
      stats.throttled = false;
      ++lies_told_;
      return;
    }
    case GreedyStrategy::kColluding: {
      if (containers_.empty()) return;
      if (&container != containers_[active_liar_ % containers_.size()]) {
        return;  // accomplices report truthfully (idle, earning credits)
      }
      if (!rng_.chance(profile_.lie_fraction)) return;
      stats.unused = 0;
      stats.throttled = true;
      ++lies_told_;
      return;
    }
  }
}

void GreedyTenant::fire_phantom_oom() {
  if (!running_ || containers_.empty()) return;
  cluster::Container* c =
      containers_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(containers_.size()) - 1))];
  if (!c->running()) return;
  ++phantom_ooms_;
  // The forged kernel event: claims a charge of `phantom_shortfall` is
  // about to fail. No real charge exists — a grant just parks pool memory
  // under this tenant's limit.
  if (controller_.handle_oom(*c, profile_.phantom_shortfall,
                             profile_.phantom_shortfall)) {
    ++phantom_grants_;
  }
}

void GreedyTenant::rotate_liar() {
  if (!running_ || containers_.empty()) return;
  active_liar_ = (active_liar_ + 1) % containers_.size();
}

void GreedyTenant::burst_tick() {
  if (!running_) return;
  if (!bursting_) {
    bursting_ = true;
    for (cluster::Container* c : containers_) {
      if (!c->running()) continue;
      // Real core-time demand for the whole burst window, submitted up
      // front: the scheduler drains it at whatever limit the loop grants.
      const std::int64_t periods = std::max<std::int64_t>(
          1, profile_.burst_on / std::max<sim::Duration>(1, c->cpu_cgroup().period()));
      c->submit(periods * profile_.burst_cpu_per_period, memcg::kMiB,
                [](bool) {});
    }
    burst_timer_ = sim_.schedule_after(profile_.burst_on, [this] { burst_tick(); });
  } else {
    bursting_ = false;
    burst_timer_ =
        sim_.schedule_after(profile_.burst_off, [this] { burst_tick(); });
  }
}

}  // namespace escra::workload
