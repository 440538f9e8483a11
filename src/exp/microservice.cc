#include "exp/microservice.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "baselines/autopilot.h"
#include "baselines/firm.h"
#include "baselines/static_policy.h"
#include "baselines/vpa.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "exp/profile.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "workload/load_generator.h"

namespace escra::exp {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStatic: return "static-1.5x";
    case PolicyKind::kAutopilot: return "autopilot";
    case PolicyKind::kEscra: return "escra";
    case PolicyKind::kVpa: return "vpa";
    case PolicyKind::kFirm: return "firm";
  }
  return "unknown";
}

RunResult run_microservice(const MicroserviceConfig& config) {
  sim::Simulation simulation;
  net::Network network(simulation);
  cluster::Cluster k8s(simulation);
  for (int i = 0; i < config.worker_nodes; ++i) {
    // The CFS period under test applies to the worker kernels themselves
    // (it is the kernel bandwidth period, not just a reporting interval).
    k8s.add_node(cluster::NodeConfig{
        .cores = config.node_cores,
        .memory_capacity = config.node_mem,
        .scheduler_slice = config.escra.cfs_period / 10,
        .cfs_period = config.escra.cfs_period});
  }

  sim::Rng root(config.seed);
  // Bootstrap limits are placeholders; every policy overwrites them below.
  const app::GraphSpec graph = config.custom_graph
                                   ? *config.custom_graph
                                   : app::make_benchmark(config.benchmark);
  app::Application application(k8s, graph, root.fork(), /*initial_cores=*/2.0,
                               /*initial_mem=*/512 * memcg::kMiB);
  const std::vector<cluster::Container*>& containers = application.containers();

  // Profile under the representative Fixed workload (Section VI-B); all
  // policies share the same profiled envelope.
  const ProfileResult prof_copy =
      config.custom_graph ? profile_graph(graph) : ProfileResult{};
  const ProfileResult& prof =
      config.custom_graph ? prof_copy : profile_benchmark(config.benchmark);
  if (prof.containers.size() != containers.size()) {
    throw std::logic_error("profile/application container count mismatch");
  }

  // --- install the policy under test ---
  std::unique_ptr<baselines::Policy> baseline;
  std::unique_ptr<core::EscraSystem> escra;
  switch (config.policy) {
    case PolicyKind::kStatic: {
      std::vector<baselines::StaticLimits> limits;
      limits.reserve(containers.size());
      for (const ContainerProfile& p : prof.containers) {
        limits.push_back({p.peak_cores, p.peak_mem});
      }
      baseline = std::make_unique<baselines::StaticPolicy>(
          containers, limits, config.static_multiplier);
      if (config.static_cfs_burst_factor > 0.0) {
        for (cluster::Container* c : containers) {
          c->cpu_cgroup().set_burst(static_cast<sim::Duration>(
              config.static_cfs_burst_factor *
              static_cast<double>(c->cpu_cgroup().quota())));
        }
      }
      break;
    }
    case PolicyKind::kAutopilot: {
      // Autopilot initializes at the best-estimate profile (with the mild
      // deployment margin an operator's resource request carries) and adapts.
      for (std::size_t i = 0; i < containers.size(); ++i) {
        containers[i]->cpu_cgroup().set_limit_cores(
            1.15 * prof.containers[i].peak_cores);
        containers[i]->mem_cgroup().set_limit(static_cast<memcg::Bytes>(
            1.25 * static_cast<double>(prof.containers[i].peak_mem)));
      }
      baseline = std::make_unique<baselines::AutopilotPolicy>(
          simulation, containers, config.autopilot_period);
      break;
    }
    case PolicyKind::kVpa: {
      // Same deployment margins an operator's resource requests carry.
      for (std::size_t i = 0; i < containers.size(); ++i) {
        containers[i]->cpu_cgroup().set_limit_cores(
            1.15 * prof.containers[i].peak_cores);
        containers[i]->mem_cgroup().set_limit(static_cast<memcg::Bytes>(
            1.25 * static_cast<double>(prof.containers[i].peak_mem)));
      }
      baseline =
          std::make_unique<baselines::VpaPolicy>(simulation, containers);
      break;
    }
    case PolicyKind::kFirm: {
      // Firm multiplexes within a fixed budget set at deployment; start it
      // from the same margined profile as the other dynamic baselines.
      for (std::size_t i = 0; i < containers.size(); ++i) {
        containers[i]->cpu_cgroup().set_limit_cores(
            1.15 * prof.containers[i].peak_cores);
        containers[i]->mem_cgroup().set_limit(static_cast<memcg::Bytes>(
            1.25 * static_cast<double>(prof.containers[i].peak_mem)));
      }
      baseline =
          std::make_unique<baselines::FirmPolicy>(simulation, containers);
      break;
    }
    case PolicyKind::kEscra: {
      // Each evaluation runs one application on a dedicated cluster
      // (Section VI-A), so the operator's Distributed Container limits are
      // the cluster itself: Escra may shift the application anywhere within
      // the hardware envelope while right-sizing each container inside it.
      const double global_cpu =
          config.node_cores * static_cast<double>(config.worker_nodes);
      const auto global_mem = static_cast<memcg::Bytes>(
          static_cast<double>(config.node_mem) * config.worker_nodes);
      escra = std::make_unique<core::EscraSystem>(
          simulation, network, k8s, global_cpu, global_mem, config.escra);
      escra->manage(containers);
      escra->start();
      break;
    }
  }
  if (baseline) baseline->start();

  // --- load (wrk2-style open loop), against a *ready* application ---
  const sim::TimePoint load_start = config.app_ready_delay;
  const sim::TimePoint measure_start = load_start + config.warmup;
  const sim::TimePoint load_end = measure_start + config.duration;
  const auto duration_s =
      static_cast<std::size_t>(sim::to_seconds(load_end)) + 1;
  workload::LoadGenerator loadgen(
      simulation, workload::make_workload(config.workload, root.fork(), duration_s),
      [&application](workload::LoadGenerator::Done done) {
        application.submit_request(std::move(done));
      },
      config.request_timeout);
  loadgen.run(load_start, load_end);

  // --- slack sampling, once per second after warmup ---
  RunResult result;
  std::vector<sim::Duration> prev_consumed(containers.size(), 0);
  simulation.schedule_every(sim::kSecond, sim::kSecond, [&] {
    const bool measuring = simulation.now() > measure_start;
    for (std::size_t i = 0; i < containers.size(); ++i) {
      const sim::Duration consumed = containers[i]->cpu_cgroup().total_consumed();
      const double used_cores = static_cast<double>(consumed - prev_consumed[i]) /
                                static_cast<double>(sim::kSecond);
      prev_consumed[i] = consumed;
      if (!measuring) continue;
      const double cpu_slack =
          containers[i]->cpu_cgroup().limit_cores() - used_cores;
      const double mem_slack_mib =
          static_cast<double>(containers[i]->mem_cgroup().slack()) /
          static_cast<double>(memcg::kMiB);
      result.cpu_slack_cores.add(std::max(0.0, cpu_slack));
      result.mem_slack_mib.add(std::max(0.0, mem_slack_mib));
    }
  });

  simulation.schedule_at(measure_start, [&] { loadgen.reset_measurements(); });
  simulation.run_until(load_end);
  // Let in-flight requests drain so their latencies are recorded.
  simulation.run_until(load_end + sim::seconds(5));

  // --- collect ---
  result.app_name =
      config.custom_graph ? graph.name : app::benchmark_name(config.benchmark);
  result.workload_name = workload::workload_name(config.workload);
  result.policy_name = policy_name(config.policy);
  result.throughput_rps = loadgen.throughput_rps();
  const sim::Histogram& lat = loadgen.latency();
  result.mean_latency_ms = lat.mean() / 1000.0;
  result.p50_latency_ms = static_cast<double>(lat.percentile(50)) / 1000.0;
  result.p99_latency_ms = static_cast<double>(lat.percentile(99)) / 1000.0;
  result.p999_latency_ms = static_cast<double>(lat.percentile(99.9)) / 1000.0;
  result.succeeded = loadgen.succeeded();
  result.failed = loadgen.failed();
  for (const cluster::Container* c : containers) {
    result.oom_kills += c->oom_kill_count();
    result.evictions += c->eviction_count();
  }
  if (escra) {
    result.oom_rescues = escra->controller().oom_rescues();
    result.limit_updates = escra->controller().limit_updates_sent();
    result.telemetry_msgs =
        network.stats(net::Channel::kCpuTelemetry).messages;
    result.peak_net_mbps = network.peak_mbps();
    result.mean_net_mbps = network.mean_mbps();
    escra->stop();
  }
  if (baseline) baseline->stop();
  return result;
}

}  // namespace escra::exp
