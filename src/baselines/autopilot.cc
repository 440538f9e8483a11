#include "baselines/autopilot.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace escra::baselines {

namespace {
constexpr sim::Duration kSampleInterval = sim::seconds(1);
// Bandit cost weights: overrun (demand above proposed limit) vs underrun
// (slack). "Some parameters used in the Autopilot algorithm are manually
// tuned by their engineers (w_o, w_u, etc.)" — these values were tuned for
// best performance on our benchmarks, as the paper did.
constexpr double kWOverrun = 8.0;
constexpr double kWUnderrun = 1.0;
constexpr double kCostHalfLifeS = 120.0;
// Memory arms. Autopilot's memory recommenders are peak-oriented (an OOM
// costs a restart, so the default recommender tracks the decayed window
// maximum rather than a mid percentile); arms differ in how fast the peak
// is forgotten and in the safety margin.
constexpr std::array<AutopilotModel, 5> kMemModels = {{
    {60.0, 100.0, 1.10},  {60.0, 100.0, 1.25},
    {240.0, 100.0, 1.10}, {240.0, 100.0, 1.25},
    {960.0, 100.0, 1.40},
}};
static_assert(!kAutopilotCpuModels.empty() && !kMemModels.empty(),
              "autopilot: no models");
// Histogram geometry.
constexpr double kCpuMaxCores = 16.0;
constexpr std::size_t kCpuBuckets = 128;
constexpr double kMemMaxBytes = 4.0 * 1024 * 1024 * 1024;
constexpr std::size_t kMemBuckets = 128;
// Number of usage samples required before the recommender overrides the
// deployed limits (Autopilot does not act without data).
constexpr std::size_t kWarmupSamples = 5;
// Floors so a freshly idle container is not scaled to zero.
constexpr double kMinCores = 0.05;
constexpr memcg::Bytes kMinMem = 32 * memcg::kMiB;
}  // namespace

AutopilotPolicy::AutopilotPolicy(sim::Simulation& sim,
                                 std::vector<cluster::Container*> containers,
                                 sim::Duration update_interval)
    : sim_(sim), update_interval_(update_interval) {
  if (containers.empty()) throw std::invalid_argument("autopilot: no containers");
  states_.reserve(containers.size());
  for (cluster::Container* c : containers) {
    ContainerState st;
    st.container = c;
    st.prev_consumed = c->cpu_cgroup().total_consumed();
    st.cpu =
        make_resource_state(kAutopilotCpuModels, kCpuMaxCores, kCpuBuckets);
    st.mem = make_resource_state(kMemModels, kMemMaxBytes, kMemBuckets);
    states_.push_back(std::move(st));
  }
}

AutopilotPolicy::~AutopilotPolicy() { stop(); }

AutopilotPolicy::ResourceState AutopilotPolicy::make_resource_state(
    std::span<const AutopilotModel> models, double max_value,
    std::size_t buckets) {
  ResourceState rs;
  // Share one histogram among models with the same half-life.
  std::vector<double> half_lives;
  rs.model_hist.reserve(models.size());
  for (const AutopilotModel& m : models) {
    const auto it =
        std::find(half_lives.begin(), half_lives.end(), m.half_life_s);
    if (it == half_lives.end()) {
      half_lives.push_back(m.half_life_s);
      rs.histograms.emplace_back(max_value, buckets, m.half_life_s);
      rs.model_hist.push_back(half_lives.size() - 1);
    } else {
      rs.model_hist.push_back(
          static_cast<std::size_t>(it - half_lives.begin()));
    }
  }
  rs.model_cost.assign(models.size(), 0.0);
  rs.cost_decay_factor =
      std::exp2(-sim::to_seconds(kSampleInterval) / kCostHalfLifeS);
  return rs;
}

void AutopilotPolicy::start() {
  if (running_) return;
  running_ = true;
  sample_loop_ = sim_.schedule_every(sim_.now() + kSampleInterval,
                                    kSampleInterval, [this] { on_sample(); });
  update_loop_ = sim_.schedule_every(sim_.now() + update_interval_,
                                    update_interval_, [this] { on_update(); });
}

void AutopilotPolicy::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(sample_loop_);
  sim_.cancel(update_loop_);
}

double AutopilotPolicy::model_proposal(std::span<const AutopilotModel> models,
                                       const ResourceState& rs,
                                       std::size_t model) {
  const AutopilotModel& m = models[model];
  return rs.histograms[rs.model_hist[model]].percentile(m.percentile) *
         m.margin;
}

std::size_t AutopilotPolicy::argmin_cost(const ResourceState& rs) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < rs.model_cost.size(); ++i) {
    if (rs.model_cost[i] < rs.model_cost[best]) best = i;
  }
  return best;
}

void AutopilotPolicy::on_sample() {
  const double t = sim::to_seconds(sim_.now());
  for (ContainerState& st : states_) {
    // CPU usage over the last sample interval, in cores — the 1-second
    // aggregation a cAdvisor-style exporter provides.
    const sim::Duration consumed = st.container->cpu_cgroup().total_consumed();
    const double cpu_used =
        static_cast<double>(consumed - st.prev_consumed) /
        static_cast<double>(kSampleInterval);
    st.prev_consumed = consumed;
    const double mem_used =
        static_cast<double>(st.container->mem_cgroup().usage());
    // A restarting pod exports no usage; feeding zeros into the histograms
    // would poison the recommendation the moment it comes back.
    if (!st.container->running()) continue;
    ++st.samples;

    for (ResourceState* rs : {&st.cpu, &st.mem}) {
      const bool is_cpu = rs == &st.cpu;
      const double usage = is_cpu ? cpu_used : mem_used;
      const std::span<const AutopilotModel> models =
          is_cpu ? std::span<const AutopilotModel>(kAutopilotCpuModels)
                 : std::span<const AutopilotModel>(kMemModels);
      // Charge each arm for the limit it *would* have set before seeing
      // this sample: overrun costs w_o, slack costs w_u (normalized by the
      // proposal so CPU and memory costs are comparable).
      for (std::size_t m = 0; m < models.size(); ++m) {
        const double proposal = model_proposal(models, *rs, m);
        double penalty = 0.0;
        if (usage > proposal) {
          penalty = kWOverrun;
        } else if (proposal > 0.0) {
          penalty = kWUnderrun * (proposal - usage) / proposal;
        }
        rs->model_cost[m] = rs->model_cost[m] * rs->cost_decay_factor + penalty;
      }
      for (DecayingHistogram& h : rs->histograms) h.add(t, usage);
      rs->last_usage = usage;
    }
  }
}

void AutopilotPolicy::on_update() {
  for (ContainerState& st : states_) {
    if (st.samples < kWarmupSamples) continue;  // not enough data yet
    const std::size_t cpu_arm = argmin_cost(st.cpu);
    const double cpu_limit = std::max(
        kMinCores, model_proposal(kAutopilotCpuModels, st.cpu, cpu_arm));
    if (cpu_limit > 0.0 &&
        std::abs(st.container->cpu_cgroup().limit_cores() - cpu_limit) > 1e-3) {
      st.container->cpu_cgroup().set_limit_cores(cpu_limit);
      ++cpu_resizes_;
    }

    const std::size_t mem_arm = argmin_cost(st.mem);
    // Never set a memory limit below what the container is using right now:
    // the recommender can see current usage, and a limit below it is a
    // guaranteed OOM on the very next charge. Growth *between* updates can
    // still outrun the limit, which is where Autopilot's OOMs come from.
    const double floor_now =
        static_cast<double>(st.container->mem_cgroup().usage()) * 1.02;
    const auto mem_limit = static_cast<memcg::Bytes>(std::llround(
        std::max({static_cast<double>(kMinMem), floor_now,
                  model_proposal(kMemModels, st.mem, mem_arm)})));
    if (mem_limit > 0 && mem_limit != st.container->mem_cgroup().limit()) {
      st.container->mem_cgroup().set_limit(mem_limit);
      ++mem_resizes_;
    }
  }
}

std::size_t AutopilotPolicy::best_cpu_model(std::size_t container_index) const {
  return argmin_cost(states_.at(container_index).cpu);
}

}  // namespace escra::baselines
