#include "core/allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace escra::core {

namespace {
// Minimum CPU-limit change worth an RPC, in cores.
constexpr double kCpuEpsilon = 1e-3;
// Minimum bandwidth-rate change worth an RPC, in bytes/s (8 KB/s).
constexpr double kBwEpsilon = 8e3;
constexpr double kUnbounded = std::numeric_limits<double>::infinity();
}  // namespace

ResourceAllocator::ResourceAllocator(const EscraConfig& config,
                                     DistributedContainer& app)
    : config_(config),
      app_(app),
      cpu_{.upsilon = config.upsilon,
           .gamma = config.gamma,
           .kappa = config.kappa,
           .min = config.min_cores,
           .eps = kCpuEpsilon,
           .set = &DistributedContainer::set_member_cores,
           .grants = &obs::Observer::Handles::cpu_grants,
           .shrinks = &obs::Observer::Handles::cpu_shrinks},
      bw_{.upsilon = config.bw_upsilon,
          .gamma = config.bw_gamma,
          .kappa = config.bw_kappa,
          .min = kBwMinRate,
          .eps = kBwEpsilon,
          .set = &DistributedContainer::set_member_bw,
          .grants = &obs::Observer::Handles::bw_grants,
          .shrinks = &obs::Observer::Handles::bw_shrinks} {}

void ResourceAllocator::set_observer(obs::Observer* observer) {
  obs_ = observer;
  app_.set_observer(observer);
}

void ResourceAllocator::register_container(std::uint32_t id, double cores,
                                           memcg::Bytes mem) {
  app_.add_member(id, cores, mem);
  const std::uint32_t slot = index_.intern(id);
  for (Arm* arm : {&cpu_, &bw_}) {
    if (slot >= arm->windows.size()) {
      arm->windows.resize(index_.capacity(), Windows(config_.window_periods));
      arm->rt_floor.resize(index_.capacity(), 0.0);
    } else {
      // Slot reuse after a deregister: fresh statistics for the new tenant.
      arm->windows[slot] = Windows(config_.window_periods);
    }
    arm->rt_floor[slot] = 0.0;
  }
}

void ResourceAllocator::deregister_container(std::uint32_t id) {
  const std::uint32_t slot = index_.release(id);
  if (slot == ContainerIndex::kInvalid) return;
  cpu_.rt_floor[slot] = 0.0;
  bw_.rt_floor[slot] = 0.0;
  app_.remove_member(id);
}

void ResourceAllocator::set_rt_floor(std::uint32_t id, double cores,
                                     double bw_bps) {
  const std::uint32_t slot = index_.find(id);
  if (slot == ContainerIndex::kInvalid) return;
  cpu_.rt_floor[slot] = std::max(0.0, cores);
  bw_.rt_floor[slot] = std::max(0.0, bw_bps);
}

void ResourceAllocator::clear_rt_floor(std::uint32_t id) {
  set_rt_floor(id, 0.0, 0.0);
}

double ResourceAllocator::rt_floor(std::uint32_t id) const {
  const std::uint32_t slot = index_.find(id);
  return slot == ContainerIndex::kInvalid ? 0.0 : cpu_.rt_floor[slot];
}

void ResourceAllocator::reset() {
  std::vector<std::uint32_t> ids;
  ids.reserve(index_.size());
  index_.for_each([&ids](std::uint32_t, std::uint32_t id) { ids.push_back(id); });
  for (const std::uint32_t id : ids) deregister_container(id);
}

std::optional<double> ResourceAllocator::on_cpu_stats(const CpuStatsMsg& stats) {
  const std::uint32_t slot = index_.find(stats.cgroup);
  if (slot == ContainerIndex::kInvalid) {
    return std::nullopt;  // stale/unknown container
  }
  const double period = static_cast<double>(config_.cfs_period);
  const double unused_cores = static_cast<double>(stats.unused) / period;
  const double used_last =
      static_cast<double>(stats.quota - stats.unused) / period;
  const double current = app_.member_cores(stats.cgroup);
  // Credit Υ-gate (Karma defense): lifting above the static fair share
  // spends credits; an exhausted balance caps the grant at the fair share.
  // Honest bursty members with positive balances are untouched. An RT
  // reservation raises the cap to its floor — the gate may never keep an
  // admitted container from reaching the floor it was promised — but grants
  // no headroom past it: an exhausted RT container burning credits competes
  // above its floor like everyone else, so a reservation cannot be laundered
  // into unbounded grant priority.
  double ceiling = kUnbounded;
  if (stats.throttled && credits_ != nullptr && app_.member_count() > 0 &&
      credits_->balance_micro(stats.cgroup) <= 0) {
    const double fair =
        app_.cpu_limit() / static_cast<double>(app_.member_count());
    ceiling = std::max(fair, cpu_.rt_floor[slot]);
  }
  return scale(cpu_, slot, stats.cgroup, current, stats.throttled,
               unused_cores, used_last, app_.cpu_unallocated(), ceiling);
}

std::optional<double> ResourceAllocator::on_bw_stats(
    const bw::BwSample& sample) {
  const std::uint32_t slot = index_.find(sample.container);
  if (slot == ContainerIndex::kInvalid) return std::nullopt;
  const double current = app_.member_bw(sample.container);
  if (current <= 0.0) return std::nullopt;  // unshaped container
  // Bandwidth grants are not credit-gated: the ceiling is unbounded.
  return scale(bw_, slot, sample.container, current, sample.throttled,
               std::max(0.0, current - sample.used_bps), sample.used_bps,
               std::max(0.0, app_.bw_unallocated()), kUnbounded);
}

std::optional<double> ResourceAllocator::scale(Arm& arm, std::uint32_t slot,
                                               std::uint32_t id,
                                               double current, bool throttled,
                                               double unused, double used_last,
                                               double unallocated,
                                               double ceiling) {
  Windows& win = arm.windows[slot];
  win.throttles.add(throttled ? 1.0 : 0.0);
  win.unused.add(unused);

  if (throttled) {
    // Scale up (Section IV-D1): the windowed throttle mean gates how much of
    // the application's unallocated pool this container receives, paced by
    // Υ (see config.h for the Υ-scaling interpretation). Section IV-D1
    // equation with two stabilizing clamps (the paper's Y values make the
    // raw product exceed the free pool after a couple of consecutive
    // throttles): the grant never exceeds (a) the unallocated pool and (b)
    // the container's own current allocation — a persistently throttled
    // container doubles per period, which reaches any demand within a few
    // 100 ms periods, bounds the overshoot past true demand to 2x, and keeps
    // one container from draining the pool other throttled containers are
    // drawing from in the same period.
    const double rate = std::min(win.throttles.mean() * arm.upsilon, 1.0);
    // Y also paces the per-period grant: at the paper's default Y=20 a
    // fully-throttled container doubles per period; Y=35 (the serverless
    // setting) grows ~2.75x; small Y ramps gently.
    const double cap =
        std::max(current * (arm.upsilon / 20.0), 8.0 * arm.min);
    const double increase = std::min(rate * std::min(unallocated, cap),
                                     std::max(0.0, ceiling - current));
    if (increase > arm.eps) {
      const double applied = (app_.*arm.set)(id, current + increase);
      if (std::abs(applied - current) > arm.eps) {
        ++arm.ups;
        if (obs_ != nullptr) (obs_->h.*arm.grants)->inc();
        return applied;
      }
    }
    return std::nullopt;
  }

  if (unused > arm.gamma) {
    // Scale down: remove κ of the windowed mean unused. Floors: the global
    // minimum, and — so that a burst of unused capacity lingering in the
    // window cannot drag the limit below what the container is consuming
    // right now — last period's usage plus the γ headroom. Without the
    // second floor a container that just cleared a backlog oscillates:
    // big-unused samples crash its limit, the queue rebuilds, it throttles,
    // doubles back up, and repeats. The headroom fades out for mostly-idle
    // containers (capped by the usage itself) so they can release their
    // allocation all the way down to the global floor and refill the pool.
    const double headroom = std::min(used_last, arm.gamma);
    // κ of the windowed mean, but never slower than κ of the last period:
    // after a scale-up overshoot the mean lags for n periods while the
    // floor below already guarantees we cannot undercut live usage, so the
    // larger of the two trims overshoot within one period.
    const double decrease = std::max(win.unused.mean(), unused) * arm.kappa;
    // RT reservation floor: an admitted real-time container's shadow limit
    // never drops below its admission floor, no matter how idle its window
    // looks (the reservation is a latency contract, not a usage forecast).
    const double target = std::max(
        {arm.min, arm.rt_floor[slot], used_last + headroom, current - decrease});
    if (current - target > arm.eps) {
      const double applied = (app_.*arm.set)(id, target);
      ++arm.downs;
      if (obs_ != nullptr) (obs_->h.*arm.shrinks)->inc();
      return applied;
    }
  }
  return std::nullopt;
}

ResourceAllocator::MemDecision ResourceAllocator::on_oom_event(
    const OomEventMsg& event, bool post_reclaim) {
  MemDecision decision;
  if (!index_.contains(event.container)) {
    decision.action = MemAction::kDeny;
    return decision;
  }
  const memcg::Bytes current = app_.member_mem(event.container);
  // Round the shortfall up to whole pages and add the fixed grant block so
  // the container is not back here on the very next charge.
  const memcg::Bytes pages =
      ((event.shortfall + memcg::kPageSize - 1) / memcg::kPageSize) *
      memcg::kPageSize;
  memcg::Bytes want = pages + config_.oom_grant;
  // Credit gate for memory: a credit-exhausted member already at or above
  // its fair memory share gets the shortfall only — the fixed bonus block
  // is what a phantom-OOM attack farms, so it is reserved for members in
  // good standing.
  if (credits_ != nullptr && app_.member_count() > 0 &&
      credits_->balance_micro(event.container) <= 0) {
    const memcg::Bytes fair_mem = static_cast<memcg::Bytes>(
        app_.mem_limit() / static_cast<memcg::Bytes>(app_.member_count()));
    if (current >= fair_mem) want = pages;
  }
  const memcg::Bytes unallocated = app_.mem_unallocated();

  if (unallocated >= want) {
    decision.action = MemAction::kGrant;
    decision.new_limit = app_.set_member_mem(event.container, current + want);
    ++mem_grants_;
    if (obs_ != nullptr) obs_->h.mem_grants->inc();
    return decision;
  }
  if (unallocated >= pages) {
    // Pool can cover the shortfall but not the full block: grant what exists.
    decision.action = MemAction::kGrant;
    decision.new_limit =
        app_.set_member_mem(event.container, current + unallocated);
    ++mem_grants_;
    if (obs_ != nullptr) obs_->h.mem_grants->inc();
    return decision;
  }
  if (!post_reclaim) {
    decision.action = MemAction::kReclaimThenRetry;
    return decision;
  }
  decision.action = MemAction::kDeny;
  ++mem_denies_;
  if (obs_ != nullptr) obs_->h.mem_denies->inc();
  return decision;
}

void ResourceAllocator::on_reclaimed(std::uint32_t container,
                                     memcg::Bytes new_limit) {
  if (!index_.contains(container)) return;
  app_.set_member_mem(container, new_limit);
}

}  // namespace escra::core
