#include "baselines/firm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace escra::baselines {

namespace {
constexpr sim::Duration kInterval = sim::seconds(1);  // feedback loop period
constexpr double kHighWatermark = 0.85;  // utilization above: wants more CPU
constexpr double kLowWatermark = 0.50;   // below: capacity can be harvested
static_assert(kLowWatermark < kHighWatermark, "firm: watermarks inverted");
// Fraction of a donor's excess (limit - usage/target) harvested per cycle.
constexpr double kHarvestRate = 0.5;
constexpr double kMinCores = 0.1;
}  // namespace

FirmPolicy::FirmPolicy(sim::Simulation& sim,
                       std::vector<cluster::Container*> containers)
    : sim_(sim) {
  if (containers.empty()) throw std::invalid_argument("firm: no containers");
  states_.reserve(containers.size());
  for (cluster::Container* c : containers) {
    State st;
    st.container = c;
    st.prev_consumed = c->cpu_cgroup().total_consumed();
    states_.push_back(st);
  }
}

FirmPolicy::~FirmPolicy() { stop(); }

void FirmPolicy::start() {
  if (running_) return;
  running_ = true;
  budget_ = 0.0;
  for (const State& st : states_) {
    budget_ += st.container->cpu_cgroup().limit_cores();
  }
  loop_ = sim_.schedule_every(sim_.now() + kInterval, kInterval,
                              [this] { on_cycle(); });
}

void FirmPolicy::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(loop_);
}

void FirmPolicy::on_cycle() {
  // 1. Sample per-container utilization over the last interval.
  double harvestable = 0.0;
  double wanted = 0.0;
  std::vector<double> deficit(states_.size(), 0.0);
  std::vector<double> surplus(states_.size(), 0.0);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& st = states_[i];
    const sim::Duration consumed = st.container->cpu_cgroup().total_consumed();
    st.used_cores = static_cast<double>(consumed - st.prev_consumed) /
                    static_cast<double>(kInterval);
    st.prev_consumed = consumed;
    if (!st.container->running()) continue;
    const double limit = st.container->cpu_cgroup().limit_cores();
    const double util = limit > 0.0 ? st.used_cores / limit : 1.0;
    if (util >= kHighWatermark) {
      // The critical path: ask for enough to bring utilization to the
      // midpoint of the band.
      const double target_util = (kHighWatermark + kLowWatermark) / 2.0;
      deficit[i] = st.used_cores / target_util - limit;
      wanted += std::max(0.0, deficit[i]);
    } else if (util < kLowWatermark) {
      // A donor: part of its headroom can move to the critical path.
      const double excess = limit - std::max(st.used_cores / 0.7, kMinCores);
      surplus[i] = std::max(0.0, excess * kHarvestRate);
      harvestable += surplus[i];
    }
  }
  if (wanted <= 1e-9 || harvestable <= 1e-9) return;

  // 2. Move capacity: donors shrink, critical containers grow, the budget
  //    stays fixed (Firm multiplexes; it does not grow the application).
  const double moved = std::min(wanted, harvestable);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    cluster::Container* c = states_[i].container;
    if (surplus[i] > 0.0) {
      const double share = surplus[i] / harvestable * moved;
      c->cpu_cgroup().set_limit_cores(
          std::max(kMinCores, c->cpu_cgroup().limit_cores() - share));
    } else if (deficit[i] > 0.0) {
      const double share = deficit[i] / wanted * moved;
      c->cpu_cgroup().set_limit_cores(c->cpu_cgroup().limit_cores() + share);
    }
  }
  ++reallocations_;
}

}  // namespace escra::baselines
