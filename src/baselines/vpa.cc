#include "baselines/vpa.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace escra::baselines {

namespace {
constexpr double kTargetUtilization = 0.5;  // resize so usage/limit == target
constexpr double kUpperBound = 0.75;  // scale up when usage/limit exceeds this
constexpr double kLowerBound = 0.25;  // scale down when below this
static_assert(kLowerBound < kUpperBound, "vpa: bounds inverted");
constexpr double kMinCores = 0.1;
constexpr memcg::Bytes kMinMem = 64 * memcg::kMiB;
}  // namespace

VpaPolicy::VpaPolicy(sim::Simulation& sim,
                     std::vector<cluster::Container*> containers)
    : sim_(sim) {
  if (containers.empty()) throw std::invalid_argument("vpa: no containers");
  states_.reserve(containers.size());
  for (cluster::Container* c : containers) {
    State st;
    st.container = c;
    st.prev_consumed = c->cpu_cgroup().total_consumed();
    st.last_resize = -kVpaCooldown;  // allow an immediate first resize
    states_.push_back(st);
  }
}

VpaPolicy::~VpaPolicy() { stop(); }

void VpaPolicy::start() {
  if (running_) return;
  running_ = true;
  loop_ = sim_.schedule_every(sim_.now() + kVpaCheckInterval,
                              kVpaCheckInterval, [this] { on_check(); });
}

void VpaPolicy::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(loop_);
}

void VpaPolicy::on_check() {
  const sim::TimePoint now = sim_.now();
  for (State& st : states_) {
    cluster::Container& c = *st.container;
    const sim::Duration consumed = c.cpu_cgroup().total_consumed();
    st.cpu_used_cores = static_cast<double>(consumed - st.prev_consumed) /
                        static_cast<double>(kVpaCheckInterval);
    st.prev_consumed = consumed;
    if (!c.running()) continue;
    if (now - st.last_resize < kVpaCooldown) continue;

    const double cpu_limit = c.cpu_cgroup().limit_cores();
    const double cpu_util =
        cpu_limit > 0.0 ? st.cpu_used_cores / cpu_limit : 1.0;
    const auto mem_usage = static_cast<double>(c.mem_cgroup().usage());
    const auto mem_limit_d = static_cast<double>(c.mem_cgroup().limit());
    const double mem_util = mem_limit_d > 0.0 ? mem_usage / mem_limit_d : 1.0;

    const bool out_of_band = cpu_util > kUpperBound || cpu_util < kLowerBound ||
                             mem_util > kUpperBound || mem_util < kLowerBound;
    if (!out_of_band) continue;

    // Resize both resources toward the target. This is a pod restart:
    // in-flight work is dropped and the container cold-starts.
    const double new_cores =
        std::max(kMinCores, st.cpu_used_cores / kTargetUtilization);
    const auto new_mem = std::max<memcg::Bytes>(
        kMinMem, static_cast<memcg::Bytes>(
                     std::llround(mem_usage / kTargetUtilization)));
    c.evict_restart(new_cores, new_mem);
    st.last_resize = now;
    ++restarts_;
  }
}

}  // namespace escra::baselines
