// Control-loop latency under burst load (the instrumented counterpart of
// the paper's sub-second allocation claim and the Section VI-I overhead
// numbers).
//
// Runs the TeaStore graph on 3 nodes under a bursty workload with a full
// obs::Observer attached, then prints:
//   - the per-stage control-loop latency table (fire -> ingest -> decide ->
//     apply), p50/p90/p99 in simulated milliseconds — end-to-end p99 must
//     be well under one second for the paper's claim to hold;
//   - a sample ThrottleObserved -> CpuGrant -> RpcIssued -> RpcApplied
//     causal chain pulled from the decision trace;
//   - control-plane decision counts from the metrics registry.
#include <cstdio>
#include <memory>

#include "app/benchmarks.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/rng.h"
#include "workload/load_generator.h"

using namespace escra;

int main() {
  using memcg::kGiB;

  sim::Simulation simulation;
  net::Network network(simulation);
  cluster::Cluster k8s(simulation);
  for (int i = 0; i < 3; ++i) k8s.add_node({});

  app::Application application(k8s, app::make_teastore(), sim::Rng(7),
                               /*initial_cores=*/1.0,
                               /*initial_mem=*/512 * memcg::kMiB);
  core::EscraSystem escra(simulation, network, k8s, /*global_cpu=*/12.0,
                          /*global_mem=*/8 * kGiB);

  obs::Observer observer;
  escra.attach_observer(observer);
  network.attach_metrics(observer.metrics());

  escra.manage(application.containers());
  escra.start();

  // Bursty load: alternating calm and 600 req/s bursts keep the allocator
  // granting (throttle-driven) and shrinking (slack-driven) all run long.
  workload::LoadGenerator loadgen(
      simulation,
      std::make_unique<workload::BurstArrivals>(sim::Rng(11)),
      [&application](workload::LoadGenerator::Done done) {
        application.submit_request(std::move(done));
      });
  loadgen.run(sim::seconds(5), sim::seconds(65));
  simulation.run_until(sim::seconds(70));

  std::printf("control_loop_trace: TeaStore, 3 nodes, burst workload, 60 s\n");
  std::printf("requests: %llu ok, %llu failed\n\n",
              static_cast<unsigned long long>(loadgen.succeeded()),
              static_cast<unsigned long long>(loadgen.failed()));

  std::printf("per-stage control-loop latency (%llu complete loops):\n%s\n",
              static_cast<unsigned long long>(
                  observer.profiler().loops_completed()),
              observer.profiler().table().c_str());

  const auto& m = observer.metrics();
  std::printf("decisions: %llu grants, %llu shrinks, %llu RPCs applied; "
              "%llu throttled CFS periods\n",
              static_cast<unsigned long long>(
                  m.find_counter("allocator.cpu_grants")->value()),
              static_cast<unsigned long long>(
                  m.find_counter("allocator.cpu_shrinks")->value()),
              static_cast<unsigned long long>(
                  m.find_counter("controller.rpcs_applied")->value()),
              static_cast<unsigned long long>(
                  m.find_counter("cfs.throttled_periods_total")->value()));
  std::printf("trace: %llu events recorded, %llu evicted\n",
              static_cast<unsigned long long>(observer.trace().recorded()),
              static_cast<unsigned long long>(observer.trace().evicted()));

  // Show one complete causal chain: the newest RpcApplied whose chain roots
  // at a ThrottleObserved.
  const obs::TraceBuffer& trace = observer.trace();
  for (std::size_t i = trace.size(); i-- > 0;) {
    const obs::TraceEvent& ev = trace.at(i);
    if (ev.kind != obs::EventKind::kRpcApplied) continue;
    const auto chain = trace.chain(ev.id);
    if (chain.empty() ||
        chain.front().kind != obs::EventKind::kThrottleObserved) {
      continue;
    }
    std::printf("\nsample causal chain (event #%llu):\n",
                static_cast<unsigned long long>(ev.id));
    for (const obs::TraceEvent& hop : chain) {
      std::printf("  %10.6fs  %-18s container=%u node=%u %.3f -> %.3f\n",
                  sim::to_seconds(hop.time), obs::event_kind_name(hop.kind),
                  hop.container, hop.node, hop.before, hop.after);
    }
    std::printf("  end-to-end %.3f ms\n",
                static_cast<double>(chain.back().time - chain.front().time) /
                    1000.0);
    break;
  }
  return 0;
}
