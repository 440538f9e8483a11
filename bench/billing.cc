// Section VII: Distributed Containers as a billing boundary. Meters the
// GridSearch serverless job under OpenWhisk alone and under OpenWhisk +
// Escra with a UsageAccountant, and prices both under reservation-based
// billing (pay for limits) and usage-based billing (pay for consumption).
// Escra's contribution in money terms: the reservation bill collapses
// toward the usage bill, because limits track usage.

#include <cstdio>

#include "cluster/cluster.h"
#include "core/accounting.h"
#include "core/escra.h"
#include "exp/report.h"
#include "net/network.h"
#include "serverless/apps.h"
#include "serverless/openwhisk.h"
#include "sim/rng.h"

using namespace escra;

namespace {

// Indicative on-demand rates.
constexpr double kPerCoreSecond = 0.04 / 3600.0;   // $0.04 per core-hour
constexpr double kPerGibSecond = 0.005 / 3600.0;   // $0.005 per GiB-hour

core::UsageBill run(bool with_escra) {
  sim::Simulation simulation;
  net::Network network(simulation);
  cluster::Cluster k8s(simulation);
  for (int i = 0; i < 4; ++i) {
    k8s.add_node(cluster::NodeConfig{.cores = 16.0,
                                     .memory_capacity = 64LL * memcg::kGiB});
  }

  constexpr std::size_t kMaxPods = 115;
  std::unique_ptr<core::EscraSystem> escra;
  if (with_escra) {
    core::EscraConfig ec;
    ec.upsilon = 20.0;
    escra = std::make_unique<core::EscraSystem>(
        simulation, network, k8s,
        serverless::kPodCpu * static_cast<double>(kMaxPods),
        serverless::kPodMem * kMaxPods, ec);
    escra->watch();
    escra->start();
  }
  core::UsageAccountant accountant(simulation);
  // Meter every pod the invoker creates under one tenant.
  k8s.set_container_observer([&](cluster::Container& c, cluster::Node& node) {
    if (escra) escra->controller().register_container(c, node, 0.0, 0);
    accountant.track(c, "gridsearch");
  });

  serverless::OpenWhisk openwhisk(simulation, k8s, kMaxPods, sim::Rng(31));
  openwhisk.set_pod_reap_hook([&](cluster::Container& c) {
    accountant.untrack(c.id());
    if (escra) escra->release(c);
  });
  openwhisk.register_action(serverless::make_grid_task_action());

  bool finished = false;
  serverless::GridSearchJob job(simulation, openwhisk, {.total_tasks = 960},
                                [&](sim::Duration) { finished = true; });
  job.start();
  while (!finished && simulation.now() < sim::seconds(3600)) {
    simulation.run_until(simulation.now() + sim::seconds(5));
  }
  return accountant.bill("gridsearch");
}

std::string dollars(double x) { return "$" + exp::fmt(x, 4); }

}  // namespace

int main() {
  exp::print_section("GridSearch billed through the Distributed Container");
  const core::UsageBill ow = run(false);
  const core::UsageBill es = run(true);

  exp::print_table(
      {"config", "reserved core-s", "used core-s", "cpu util",
       "reservation bill", "usage bill"},
      {{"openwhisk", exp::fmt(ow.cpu_core_seconds_reserved, 0),
        exp::fmt(ow.cpu_core_seconds_used, 0),
        exp::fmt(100.0 * ow.cpu_utilization(), 0) + "%",
        dollars(ow.cost_reserved(kPerCoreSecond, kPerGibSecond)),
        dollars(ow.cost_used(kPerCoreSecond, kPerGibSecond))},
       {"escra-openwhisk", exp::fmt(es.cpu_core_seconds_reserved, 0),
        exp::fmt(es.cpu_core_seconds_used, 0),
        exp::fmt(100.0 * es.cpu_utilization(), 0) + "%",
        dollars(es.cost_reserved(kPerCoreSecond, kPerGibSecond)),
        dollars(es.cost_used(kPerCoreSecond, kPerGibSecond))}});

  const double saved =
      exp::pct_decrease(ow.cost_reserved(kPerCoreSecond, kPerGibSecond),
                        es.cost_reserved(kPerCoreSecond, kPerGibSecond));
  std::printf(
      "\nEscra cuts the reservation-billed cost by %.0f%% for identical work\n"
      "(Section VII: the Distributed Container as a billing/accounting unit\n"
      "— a provider can meter aggregate limits instead of invocations).\n",
      saved);
  return 0;
}
