#include "exp/serverless.h"

#include <algorithm>
#include <memory>

#include "cluster/cluster.h"
#include "core/escra.h"
#include "net/network.h"
#include "serverless/apps.h"
#include "serverless/openwhisk.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace escra::exp {

const char* serverless_mode_name(ServerlessMode mode) {
  switch (mode) {
    case ServerlessMode::kOpenWhisk: return "openwhisk";
    case ServerlessMode::kEscra: return "escra-openwhisk";
    case ServerlessMode::kEscraReduced: return "escra-openwhisk-80pct";
  }
  return "unknown";
}

namespace {

// Worker nodes: 2x 8-core E5-2650v2 and 64 GiB each.
constexpr double kNodeCores = 16.0;
constexpr memcg::Bytes kNodeMem = 64LL * memcg::kGiB;

// ImageProcess.
constexpr int kImageIterations = 4;  // paper: 4 x 10 min
constexpr sim::Duration kImageIterationLength = sim::seconds(600);
constexpr sim::Duration kImageRequestGap = sim::milliseconds(800);  // 1 / 0.8 s
constexpr std::size_t kImageMaxPods = 16;
constexpr int kImageWorkerNodes = 3;  // plus infra nodes the model omits
constexpr double kImageUpsilon = 35.0;  // Section VI-F: Y = 35 for ImageProcess
constexpr std::uint64_t kImageSeed = 7;

// GridSearch.
constexpr std::size_t kGridTasks = 960;
constexpr std::size_t kGridMaxPods = 115;
constexpr int kGridWorkerNodes = 4;
constexpr double kGridUpsilon = 20.0;  // Section VI-F: Y = 20 for GridSearch
constexpr double kGridReducedFraction = 0.8;  // the "80% fewer cores/MiB" case
constexpr std::uint64_t kGridSeed = 11;

// Shared per-run context: cluster + platform + optional Escra.
struct ServerlessRig {
  sim::Simulation simulation;
  net::Network network{simulation};
  cluster::Cluster k8s{simulation};
  std::unique_ptr<serverless::OpenWhisk> openwhisk;
  std::unique_ptr<core::EscraSystem> escra;

  ServerlessRig(int nodes, std::size_t max_pods, ServerlessMode mode,
                double upsilon, double reduced_fraction, sim::Rng rng) {
    for (int i = 0; i < nodes; ++i) {
      k8s.add_node(cluster::NodeConfig{.cores = kNodeCores,
                                       .memory_capacity = kNodeMem});
    }
    if (mode != ServerlessMode::kOpenWhisk) {
      // Escra treats the openwhisk namespace as one application: the global
      // memory limit is the invoker containerPool budget, and CPU scales
      // linearly with it (Section IV-E).
      const double frac =
          mode == ServerlessMode::kEscraReduced ? reduced_fraction : 1.0;
      const double global_cpu =
          serverless::kPodCpu * static_cast<double>(max_pods) * frac;
      const auto global_mem = static_cast<memcg::Bytes>(
          static_cast<double>(serverless::kPodMem) *
          static_cast<double>(max_pods) * frac);
      core::EscraConfig ec;
      ec.upsilon = upsilon;
      ec.late_join_cores = serverless::kPodCpu;
      ec.late_join_mem = serverless::kPodMem;
      escra = std::make_unique<core::EscraSystem>(simulation, network, k8s,
                                                  global_cpu, global_mem, ec);
      escra->watch();  // adopt pods as the invoker creates them
      escra->start();
    }
    openwhisk =
        std::make_unique<serverless::OpenWhisk>(simulation, k8s, max_pods, rng);
    if (escra) {
      openwhisk->set_pod_reap_hook(
          [this](cluster::Container& c) { escra->release(c); });
    }
  }
};

}  // namespace

ImageProcessResult run_image_process(ServerlessMode mode) {
  ImageProcessResult result;
  const auto seconds =
      static_cast<std::size_t>(sim::to_seconds(kImageIterationLength));
  std::vector<double> cpu_sum(seconds, 0.0);
  std::vector<double> mem_sum(seconds, 0.0);

  sim::Rng root(kImageSeed);
  for (int iter = 0; iter < kImageIterations; ++iter) {
    // Each iteration starts with a cold pool (paper: "we ensure there are
    // no ImageProcess pods running").
    ServerlessRig rig(kImageWorkerNodes, kImageMaxPods, mode, kImageUpsilon,
                      /*reduced_fraction=*/1.0, root.fork());
    rig.openwhisk->register_action(serverless::make_image_process_action());

    rig.simulation.schedule_every(0, kImageRequestGap, [&] {
      if (rig.simulation.now() >= kImageIterationLength) return;
      const sim::TimePoint issued = rig.simulation.now();
      rig.openwhisk->invoke("image-process", [&, issued](bool ok) {
        if (ok) {
          result.latency.record(
              std::max<sim::TimePoint>(1, rig.simulation.now() - issued));
          ++result.completed;
        } else {
          ++result.failed;
        }
      });
    });

    rig.simulation.schedule_every(sim::kSecond, sim::kSecond, [&] {
      const auto s =
          static_cast<std::size_t>(sim::to_seconds(rig.simulation.now())) - 1;
      if (s >= seconds) return;
      cpu_sum[s] += rig.openwhisk->aggregate_cpu_limit();
      mem_sum[s] += static_cast<double>(rig.openwhisk->aggregate_mem_limit()) /
                    static_cast<double>(memcg::kMiB);
    });

    rig.simulation.run_until(kImageIterationLength + sim::seconds(20));
    result.cold_starts += rig.openwhisk->cold_starts();
  }

  result.limits.reserve(seconds);
  double cpu_accum = 0.0, mem_accum = 0.0;
  for (std::size_t s = 0; s < seconds; ++s) {
    LimitPoint p;
    p.t_seconds = static_cast<double>(s + 1);
    p.cpu_limit_cores = cpu_sum[s] / kImageIterations;
    p.mem_limit_mib = mem_sum[s] / kImageIterations;
    result.limits.push_back(p);
    cpu_accum += p.cpu_limit_cores;
    mem_accum += p.mem_limit_mib;
  }
  if (seconds > 0) {
    result.mean_cpu_limit_cores = cpu_accum / static_cast<double>(seconds);
    result.mean_mem_limit_mib = mem_accum / static_cast<double>(seconds);
  }
  result.mean_latency_ms = result.latency.mean() / 1000.0;
  return result;
}

GridSearchResult run_grid_search(const GridSearchConfig& config) {
  GridSearchResult result;
  sim::Rng root(kGridSeed);

  for (int run = 0; run < config.runs; ++run) {
    ServerlessRig rig(kGridWorkerNodes, kGridMaxPods, config.mode, kGridUpsilon,
                      kGridReducedFraction, root.fork());
    rig.openwhisk->register_action(serverless::make_grid_task_action());

    bool finished = false;
    sim::Duration makespan = 0;
    serverless::GridSearchJob job(
        rig.simulation, *rig.openwhisk, {.total_tasks = kGridTasks},
        [&](sim::Duration span) {
          finished = true;
          makespan = span;
        });

    const bool record_series = run == 0;
    rig.simulation.schedule_every(sim::kSecond, sim::kSecond, [&] {
      if (!record_series || finished) return;
      LimitPoint p;
      p.t_seconds = sim::to_seconds(rig.simulation.now());
      p.cpu_limit_cores = rig.openwhisk->aggregate_cpu_limit();
      p.mem_limit_mib =
          static_cast<double>(rig.openwhisk->aggregate_mem_limit()) /
          static_cast<double>(memcg::kMiB);
      result.limits.push_back(p);
    });

    job.start();
    // Advance until the job completes (with a generous safety ceiling).
    while (!finished && rig.simulation.now() < sim::seconds(3600)) {
      rig.simulation.run_until(rig.simulation.now() + sim::seconds(5));
    }
    result.tasks_failed += job.tasks_failed();
    if (finished) result.job_latency_s.add(sim::to_seconds(makespan));
  }

  result.mean_latency_s = result.job_latency_s.mean();
  if (!result.limits.empty()) {
    double cpu = 0.0, mem = 0.0;
    for (const LimitPoint& p : result.limits) {
      cpu += p.cpu_limit_cores;
      mem += p.mem_limit_mib;
    }
    result.mean_cpu_limit_cores = cpu / static_cast<double>(result.limits.size());
    result.mean_mem_limit_mib = mem / static_cast<double>(result.limits.size());
  }
  return result;
}

}  // namespace escra::exp
