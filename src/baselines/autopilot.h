// Recreation of Google's Autopilot workload autoscaler (Rzadca et al.,
// EuroSys'20), as the paper does for its comparison (Section VI-A:
// "Autopilot is not open-source so we implemented a recreation of the
// Autopilot ML recommender").
//
// Per container and per resource, Autopilot maintains exponentially-
// decaying histograms of usage samples. A set of candidate *models* (arms
// of a multi-armed bandit) each propose a limit — a percentile of a decayed
// histogram times a safety margin. Every sample, each model is charged a
// cost: w_o when usage overruns the limit the model would have set, plus
// w_u times the unused headroom (slack). At each update period the arm with
// the lowest decayed cost wins and its proposal is applied. As in the
// paper's comparison, the update period is configurable; 1 s is Autopilot's
// best case (5 min is its default), and resizes are applied without a
// container restart.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "baselines/decaying_histogram.h"
#include "baselines/policy.h"
#include "cluster/container.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace escra::baselines {

struct AutopilotModel {
  double half_life_s = 120.0;  // histogram decay half-life
  double percentile = 95.0;    // limit percentile
  double margin = 1.15;        // safety margin
};

// Candidate CPU arms: the EuroSys paper's grid of decay half-lives x
// percentiles x margins.
inline constexpr std::array<AutopilotModel, 8> kAutopilotCpuModels = {{
    {30.0, 90.0, 1.10},  {30.0, 95.0, 1.15},  {30.0, 98.0, 1.30},
    {120.0, 90.0, 1.10}, {120.0, 95.0, 1.15}, {120.0, 98.0, 1.30},
    {480.0, 95.0, 1.15}, {480.0, 98.0, 1.30},
}};

class AutopilotPolicy final : public Policy {
 public:
  // `update_interval` is how often the winning arm's proposal is applied.
  AutopilotPolicy(sim::Simulation& sim,
                  std::vector<cluster::Container*> containers,
                  sim::Duration update_interval);
  ~AutopilotPolicy() override;

  void start() override;
  void stop() override;
  std::string name() const override { return "autopilot"; }

  // Index of the currently winning CPU arm for a container (for tests).
  std::size_t best_cpu_model(std::size_t container_index) const;

  std::uint64_t cpu_resizes() const { return cpu_resizes_; }
  std::uint64_t mem_resizes() const { return mem_resizes_; }

 private:
  struct ResourceState {
    std::vector<DecayingHistogram> histograms;  // one per distinct half-life
    std::vector<std::size_t> model_hist;        // model -> histogram index
    std::vector<double> model_cost;             // decayed bandit cost
    double cost_decay_factor = 1.0;             // per-sample decay multiplier
    double last_usage = 0.0;
  };
  struct ContainerState {
    cluster::Container* container = nullptr;
    sim::Duration prev_consumed = 0;
    std::size_t samples = 0;  // only counted while the container is running
    ResourceState cpu;
    ResourceState mem;
  };

  static ResourceState make_resource_state(
      std::span<const AutopilotModel> models, double max_value,
      std::size_t buckets);
  void on_sample();
  void on_update();
  static double model_proposal(std::span<const AutopilotModel> models,
                               const ResourceState& rs, std::size_t model);
  static std::size_t argmin_cost(const ResourceState& rs);

  sim::Simulation& sim_;
  sim::Duration update_interval_;
  std::vector<ContainerState> states_;
  sim::EventHandle sample_loop_;
  sim::EventHandle update_loop_;
  bool running_ = false;
  std::uint64_t cpu_resizes_ = 0;
  std::uint64_t mem_resizes_ = 0;
};

}  // namespace escra::baselines
