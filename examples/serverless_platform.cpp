// Serverless integration: OpenWhisk + Escra (Section IV-E), built from the
// individual public APIs rather than the experiment harness so the wiring
// is visible:
//
//   1. create a cluster and an EscraSystem whose Distributed Container is
//      the openwhisk namespace (per-pod defaults x pool size);
//   2. enable the Container Watcher so action pods are adopted the moment
//      the invoker creates them, and release pods when they are reaped;
//   3. register an action and drive invocations;
//   4. watch aggregate limits: static 1 vCPU / 256 MiB per pod under
//      OpenWhisk alone vs right-sized limits under Escra.
//
// Run:  build/examples/serverless_platform

#include <cstdio>

#include "cluster/cluster.h"
#include "core/escra.h"
#include "net/network.h"
#include "serverless/apps.h"
#include "serverless/openwhisk.h"
#include "sim/histogram.h"
#include "sim/rng.h"

using namespace escra;

int main() {
  sim::Simulation simulation;
  net::Network network(simulation);
  cluster::Cluster k8s(simulation);
  for (int i = 0; i < 3; ++i) {
    k8s.add_node(cluster::NodeConfig{.cores = 16.0,
                                     .memory_capacity = 64LL * memcg::kGiB});
  }

  // The openwhisk namespace as one Distributed Container: the invoker's
  // containerPool allows 16 pods x (1 vCPU, 256 MiB).
  constexpr std::size_t kMaxPods = 16;
  core::EscraConfig escra_cfg;
  escra_cfg.upsilon = 35.0;  // short-lived actions: scale up faster (VI-F)
  core::EscraSystem escra(
      simulation, network, k8s,
      serverless::kPodCpu * static_cast<double>(kMaxPods),
      serverless::kPodMem * kMaxPods, escra_cfg);
  escra.watch();   // adopt pods as they are created
  escra.start();   // reclamation loop on

  serverless::OpenWhisk openwhisk(simulation, k8s, kMaxPods, sim::Rng(21));
  openwhisk.set_pod_reap_hook(
      [&](cluster::Container& c) { escra.release(c); });
  openwhisk.register_action(serverless::make_image_process_action());

  // One request every 0.8 s (the paper's ImageProcess workload).
  std::uint64_t ok = 0, failed = 0;
  sim::Histogram latency;
  simulation.schedule_every(0, sim::milliseconds(800), [&] {
    if (simulation.now() >= sim::seconds(120)) return;
    const sim::TimePoint issued = simulation.now();
    openwhisk.invoke("image-process", [&, issued](bool o) {
      if (o) {
        ++ok;
        latency.record(std::max<sim::TimePoint>(1, simulation.now() - issued));
      } else {
        ++failed;
      }
    });
  });

  std::printf("%8s %6s %6s %10s %12s %14s\n", "time_s", "pods", "busy",
              "cpu-limit", "mem-limit-MiB", "oom-rescues");
  simulation.schedule_every(sim::seconds(15), sim::seconds(15), [&] {
    std::printf("%8.0f %6zu %6zu %10.2f %12.0f %14llu\n",
                sim::to_seconds(simulation.now()), openwhisk.pod_count(),
                openwhisk.busy_pods(), openwhisk.aggregate_cpu_limit(),
                static_cast<double>(openwhisk.aggregate_mem_limit()) /
                    static_cast<double>(memcg::kMiB),
                static_cast<unsigned long long>(
                    escra.controller().oom_rescues()));
  });

  simulation.run_until(sim::seconds(135));

  std::printf("\ninvocations: %llu ok, %llu failed, %llu cold starts\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(openwhisk.cold_starts()));
  std::printf("latency: mean %.0f ms, p99 %.0f ms\n", latency.mean() / 1000.0,
              static_cast<double>(latency.percentile(99)) / 1000.0);
  std::printf("static OpenWhisk would reserve %zu vCPU / %lld MiB for this "
              "pool;\nEscra's right-sized aggregate is shown above.\n",
              openwhisk.pod_count(),
              static_cast<long long>(openwhisk.pod_count() * 256));
  return 0;
}
