// Firm-inspired baseline (Qiu et al., OSDI'20; paper Section II).
//
// Firm reduces SLO violations by intelligently *multiplexing* CPU between
// the containers of an application: resources move from underutilized
// containers to the ones on the critical path, without pod restarts. Like
// Autopilot it runs a coarse-grained feedback loop, and it "does not
// implement seamless or automatic memory scaling, requiring users to set
// static [memory] limits".
//
// This recreation implements Firm's resource-multiplexing mechanism without
// the reinforcement-learning policy on top: every interval it ranks
// containers by CPU utilization, harvests capacity from those below the low
// watermark, and grants it to those above the high watermark — the
// aggregate CPU budget fixed at its starting value. Memory limits are never
// touched.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/policy.h"
#include "cluster/container.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace escra::baselines {

class FirmPolicy final : public Policy {
 public:
  FirmPolicy(sim::Simulation& sim, std::vector<cluster::Container*> containers);
  ~FirmPolicy() override;

  void start() override;
  void stop() override;
  std::string name() const override { return "firm"; }

  // Aggregate CPU budget (fixed at the sum of limits when start() ran).
  double budget_cores() const { return budget_; }
  std::uint64_t reallocations() const { return reallocations_; }

 private:
  struct State {
    cluster::Container* container = nullptr;
    sim::Duration prev_consumed = 0;
    double used_cores = 0.0;
  };
  void on_cycle();

  sim::Simulation& sim_;
  std::vector<State> states_;
  double budget_ = 0.0;
  sim::EventHandle loop_;
  bool running_ = false;
  std::uint64_t reallocations_ = 0;
};

}  // namespace escra::baselines
