// Kubernetes Vertical Pod Autoscaler model (Section II).
//
// VPA sets a target utilization with upper/lower bounds around it. When a
// container's usage crosses a bound, VPA resizes toward the target — but a
// resize requires a pod restart (dropping in-flight work), so VPA resizes a
// container at most once per cool-down (a minute in practice). These two
// properties — restart-to-resize and infrequent scaling — are the
// limitations the paper motivates Escra with.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/policy.h"
#include "cluster/container.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace escra::baselines {

// How often VPA checks usage against its bounds, and the cool-down between
// two resizes of one container ("at most once per minute").
inline constexpr sim::Duration kVpaCheckInterval = sim::seconds(30);
inline constexpr sim::Duration kVpaCooldown = sim::kMinute;

class VpaPolicy final : public Policy {
 public:
  VpaPolicy(sim::Simulation& sim, std::vector<cluster::Container*> containers);
  ~VpaPolicy() override;

  void start() override;
  void stop() override;
  std::string name() const override { return "vpa"; }

  std::uint64_t restarts() const { return restarts_; }

 private:
  struct State {
    cluster::Container* container = nullptr;
    sim::Duration prev_consumed = 0;
    sim::TimePoint last_resize = 0;
    double cpu_used_cores = 0.0;
  };
  void on_check();

  sim::Simulation& sim_;
  std::vector<State> states_;
  sim::EventHandle loop_;
  bool running_ = false;
  std::uint64_t restarts_ = 0;
};

}  // namespace escra::baselines
