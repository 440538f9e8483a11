// Fan-out bandwidth benchmark: event-driven allocation vs static limits.
//
// The scenario (workload::FanoutWorkload): one frontend fans each request
// out to 4 of 8 backend replicas spread over four 100 Mbps worker nodes and
// waits for all responses; one rotating "hot" backend answers with 8x
// larger responses. Both arms run the identical byte stream through the
// src/bw token-bucket shaper — only who sets the rate limits differs:
//
//   static  each container keeps a fixed equal split of its node's NIC
//           (the best placement-aware static policy: no telemetry, no
//           reallocation), so the hot backend throttles behind its share
//           while its cold neighbour's headroom idles;
//   escra   the full control loop (EscraSystem::enable_bandwidth): shaper
//           telemetry -> allocator bandwidth arm -> sequenced limit
//           updates, reclaiming idle rate and re-granting it to whoever is
//           saturating, sub-second, as the hot seat moves.
//
// Reported: p50/p99 full-request latency per arm, completion counts, and
// the deterministic event counts. The run asserts the paper-level claim
// (escra p99 < static p99), and the escra arm runs under the
// InvariantChecker with the bandwidth rules armed. Both arms are
// deterministic, so under --check BASELINE.json (bench/gate.h) every
// number must match the committed baseline byte for byte.
//
//   fig_bw_fanout [--out FILE] [--check FILE] [--quick]

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bw/shaper.h"
#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "gate.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "workload/fanout.h"

using namespace escra;

namespace {

// One frontend node with a fat uplink plus four constrained worker nodes.
constexpr double kFrontendNicBps = 125.0e6;  // 1 GbE
constexpr double kWorkerNicBps = 12.5e6;     // 100 Mbps
constexpr int kWorkerNodes = 4;
constexpr int kBackendsPerNode = 2;
constexpr double kGlobalBwBps = 50.0e6;
constexpr std::uint64_t kSeed = 0xfa40b7b4ULL;

struct ArmResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  std::uint64_t events = 0;  // determinism anchor
};

// Builds the identical cluster + shaper for both arms. Returns container
// ids: [0] = frontend, rest = backends in placement order.
struct Topology {
  std::vector<cluster::Container*> members;
  std::vector<workload::FanoutWorkload::Backend> backends;
  cluster::Container* frontend = nullptr;
  net::EndpointId frontend_endpoint = 0;
};

Topology build(cluster::Cluster& k8s, bw::ClusterShaper& shaper) {
  Topology topo;
  cluster::Node& front_node =
      k8s.add_node(cluster::NodeConfig{.cores = 8.0, .nic_bps = kFrontendNicBps});
  shaper.add_node(front_node.id(), kFrontendNicBps);
  std::vector<cluster::Node*> workers;
  for (int n = 0; n < kWorkerNodes; ++n) {
    cluster::Node& node =
        k8s.add_node(cluster::NodeConfig{.cores = 8.0, .nic_bps = kWorkerNicBps});
    shaper.add_node(node.id(), kWorkerNicBps);
    workers.push_back(&node);
  }

  const auto spawn = [&](const std::string& name, cluster::Node* pin) {
    cluster::ContainerSpec spec;
    spec.name = name;
    spec.max_parallelism = 2.0;
    spec.base_memory = 32 * memcg::kMiB;
    return &k8s.create_container(spec, 1.0, 128 * memcg::kMiB, pin);
  };

  topo.frontend = spawn("frontend", &front_node);
  topo.frontend_endpoint = static_cast<net::EndpointId>(front_node.id());
  topo.members.push_back(topo.frontend);
  for (int n = 0; n < kWorkerNodes; ++n) {
    for (int b = 0; b < kBackendsPerNode; ++b) {
      cluster::Container* c =
          spawn("backend" + std::to_string(n) + "_" + std::to_string(b),
                workers[static_cast<std::size_t>(n)]);
      topo.members.push_back(c);
      topo.backends.push_back(
          {c->id(), static_cast<net::EndpointId>(
                        workers[static_cast<std::size_t>(n)]->id())});
    }
  }
  return topo;
}

ArmResult run_static(sim::Duration issue_window) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  bw::ClusterShaper shaper(sim);
  Topology topo = build(k8s, shaper);
  network.set_shaper(&shaper);

  // Placement-aware static policy: every container gets an equal share of
  // its own node's NIC, fixed for the whole run.
  shaper.attach(topo.frontend->id(), 0);
  shaper.set_container_rate(topo.frontend->id(), kFrontendNicBps);
  for (const auto& b : topo.backends) {
    shaper.attach(b.container, static_cast<std::uint32_t>(b.endpoint));
    shaper.set_container_rate(b.container, kWorkerNicBps / kBackendsPerNode);
  }

  workload::FanoutWorkload fw(sim, network, topo.frontend->id(),
                              topo.frontend_endpoint, topo.backends,
                              sim::Rng(kSeed));
  fw.run(sim::seconds(1), sim::seconds(1) + issue_window);
  sim.run_until(sim::seconds(1) + issue_window + sim::seconds(8));

  ArmResult r;
  r.issued = fw.issued();
  r.completed = fw.completed();
  r.p50_us = fw.latency().percentile(50.0);
  r.p99_us = fw.latency().percentile(99.0);
  r.events = sim.executed_events();
  return r;
}

ArmResult run_escra(sim::Duration issue_window, std::uint64_t* bw_grants,
                    std::string* checker_report) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  bw::ClusterShaper shaper(sim);
  Topology topo = build(k8s, shaper);
  network.set_shaper(&shaper);

  // A lower reclaim threshold than the datacenter default: on 100 Mbps
  // worker NICs a cold backend's idle headroom is a few MB/s, and that is
  // exactly the capacity the hot backend needs back.
  core::EscraConfig cfg;
  cfg.bw_gamma = 2.0e6;
  core::EscraSystem escra(sim, network, k8s, /*global_cpu_cores=*/16.0,
                          /*global_mem=*/8LL * memcg::kGiB, cfg);
  obs::Observer observer;
  escra.attach_observer(observer);
  network.attach_metrics(observer.metrics());
  shaper.set_observer(&observer);
  escra.enable_bandwidth(shaper, kGlobalBwBps);
  escra.manage(topo.members);
  escra.start();

  check::InvariantChecker checker(escra, network, observer);
  checker.attach_bw(shaper);

  workload::FanoutWorkload fw(sim, network, topo.frontend->id(),
                              topo.frontend_endpoint, topo.backends,
                              sim::Rng(kSeed));
  fw.run(sim::seconds(1), sim::seconds(1) + issue_window);
  sim.run_until(sim::seconds(1) + issue_window + sim::seconds(8));

  *bw_grants = observer.h.bw_grants->value();
  checker.check_now();
  *checker_report = checker.ok() ? "" : checker.report();

  ArmResult r;
  r.issued = fw.issued();
  r.completed = fw.completed();
  r.p50_us = fw.latency().percentile(50.0);
  r.p99_us = fw.latency().percentile(99.0);
  r.events = sim.executed_events();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const gate::Flags flags = gate::parse_flags(argc, argv, "fig_bw_fanout");
  const sim::Duration issue_window =
      flags.quick ? sim::seconds(12) : sim::seconds(30);
  const ArmResult st = run_static(issue_window);
  std::uint64_t bw_grants = 0;
  std::string checker_report;
  const ArmResult es = run_escra(issue_window, &bw_grants, &checker_report);

  int rc = gate::publish(
      "fig_bw_fanout",
      {
          gate::exact("static_p50_us", st.p50_us),
          gate::exact("static_p99_us", st.p99_us),
          gate::exact("static_completed", st.completed),
          gate::exact("static_events", st.events),
          gate::exact("escra_p50_us", es.p50_us),
          gate::exact("escra_p99_us", es.p99_us),
          gate::exact("escra_completed", es.completed),
          gate::exact("escra_events", es.events),
          gate::exact("escra_bw_grants", bw_grants),
          gate::exact("p99_speedup",
                      es.p99_us > 0 ? static_cast<double>(st.p99_us) /
                                          static_cast<double>(es.p99_us)
                                    : 0.0,
                      2),
      },
      flags);

  if (!checker_report.empty()) {
    std::fprintf(stderr, "fig_bw_fanout: invariant violations in escra arm:\n%s",
                 checker_report.c_str());
    rc = 1;
  }
  if (es.completed != es.issued || st.completed != st.issued) {
    std::fprintf(stderr,
                 "fig_bw_fanout: incomplete requests (static %" PRIu64
                 "/%" PRIu64 ", escra %" PRIu64 "/%" PRIu64 ")\n",
                 st.completed, st.issued, es.completed, es.issued);
    rc = 1;
  }
  if (es.p99_us >= st.p99_us) {
    std::fprintf(stderr,
                 "fig_bw_fanout: event-driven allocation did not beat static "
                 "limits (escra p99 %" PRId64 " us >= static %" PRId64
                 " us)\n",
                 es.p99_us, st.p99_us);
    rc = 1;
  }
  return rc;
}
