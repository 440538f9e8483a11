#include "iso.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "bw/shaper.h"
#include "cfs/cgroup.h"
#include "cfs/node_scheduler.h"
#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "cluster/container.h"
#include "core/escra.h"
#include "core/messages.h"
#include "ha/wal.h"
#include "memcg/mem_cgroup.h"
#include "net/network.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace escra_bench {
namespace {

using namespace escra;

constexpr int kPasses = 5;

// One untimed warm pass, then the fastest of kPasses timed passes. `pass`
// returns the host seconds of its timed part.
template <typename Pass>
double best_of(Pass&& pass) {
  pass();
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kPasses; ++i) best = std::min(best, pass());
  return best;
}

double per_op_ns(double seconds, std::size_t ops) {
  return seconds * 1e9 / static_cast<double>(ops);
}

// A managed population at the workload's shape, started and settled.
struct Population {
  sim::Simulation sim;
  net::Network network{sim};
  cluster::Cluster k8s{sim};
  std::unique_ptr<obs::Observer> observer;
  std::unique_ptr<core::EscraSystem> escra;
  std::unique_ptr<check::InvariantChecker> checker;
  std::vector<core::CpuStatsMsg> stats;

  Population(const IsoShape& shape, memcg::Bytes mem_per_container,
             bool checked) {
    std::vector<cluster::Node*> nodes;
    for (int n = 0; n < shape.nodes; ++n) {
      nodes.push_back(&k8s.add_node(cluster::NodeConfig{.cores = shape.node_cores}));
    }
    const int total = shape.nodes * shape.per_node;
    escra = std::make_unique<core::EscraSystem>(
        sim, network, k8s, 2.0 * total, mem_per_container * total);
    if (checked) {
      observer = std::make_unique<obs::Observer>();
      escra->attach_observer(*observer);
      network.attach_metrics(observer->metrics());
    }
    std::vector<cluster::Container*> members;
    for (int i = 0; i < total; ++i) {
      cluster::ContainerSpec spec;
      spec.name = "iso" + std::to_string(i);
      members.push_back(&k8s.create_container(
          spec, 1.0, 256 * memcg::kMiB,
          nodes[static_cast<std::size_t>(i % shape.nodes)]));
    }
    escra->manage(members);
    escra->start();
    if (checked) {
      checker = std::make_unique<check::InvariantChecker>(*escra, network,
                                                          *observer);
    }
    sim.run_until(sim.now() + sim::milliseconds(200));
    for (const cluster::Container* c : members) {
      core::CpuStatsMsg m;
      m.cgroup = c->id();
      m.quota = sim::milliseconds(10);
      stats.push_back(m);
    }
  }

  // Telemetry for round `round`: a rotating third of the population
  // reports a throttled period, the rest report slack (as in shard_scale).
  void prepare(int round) {
    for (core::CpuStatsMsg& m : stats) {
      m.period_end = sim.now();
      m.throttled = (m.cgroup + static_cast<std::uint32_t>(round)) % 3 == 0;
      m.unused = m.throttled ? 0 : sim::milliseconds(5);
    }
  }
};

// A CPU consumer that always wants 0.8 cores and does nothing with them:
// isolates the scheduler's own per-slice cost from the containers' work.
class Spinner final : public cfs::CpuConsumer {
 public:
  explicit Spinner(cfs::CgroupId id) : cgroup_(id, sim::milliseconds(100), 1.0) {}
  cfs::CfsCgroup& cpu_cgroup() override { return cgroup_; }
  double cpu_demand(sim::Duration) override { return 0.8; }
  void run_for(sim::Duration, sim::Duration) override {}

 private:
  cfs::CfsCgroup cgroup_;
};

}  // namespace

Iso run_iso(const IsoShape& shape, bool quick) {
  Iso iso;
  const std::size_t n = quick ? 20'000 : 200'000;
  const int population = shape.nodes * shape.per_node;
  // Enough telemetry rounds that one timed pass covers ~20k messages.
  const int rounds = std::max(1, (quick ? 2'000 : 20'000) / population);

  // --- sim ---
  const auto spread = [](std::size_t i) {
    return static_cast<sim::TimePoint>((i * 401) % 26'000'000);
  };
  iso.sim_schedule_ns = per_op_ns(best_of([&] {
    sim::Simulation sim;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) sim.schedule_at(spread(i), [] {});
    return seconds_since(t0);
  }), n);
  iso.sim_cancel_ns = per_op_ns(best_of([&] {
    sim::Simulation sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(sim.schedule_at(spread(i), [] {}));
    }
    const auto t0 = Clock::now();
    for (const sim::EventHandle& h : handles) sim.cancel(h);
    return seconds_since(t0);
  }), n);
  // Dispatch is timed on the pattern that dominates every workload: dense
  // periodic timers (probes, generator ticks, scheduler slices), re-armed
  // in place at each firing.
  constexpr std::size_t kTimers = 4096;
  const std::size_t periods = n / kTimers;
  std::uint64_t fired = 0;
  iso.sim_fire_ns = per_op_ns(best_of([&] {
    sim::Simulation sim;
    for (std::size_t i = 0; i < kTimers; ++i) {
      sim.schedule_every(static_cast<sim::TimePoint>(1 + i % 1000),
                         sim::milliseconds(1), [&fired] { ++fired; });
    }
    const auto t0 = Clock::now();
    sim.run_until(sim::milliseconds(1) * static_cast<sim::Duration>(periods));
    return seconds_since(t0);
  }), kTimers * periods);

  // --- net ---
  iso.net_send_ns = per_op_ns(best_of([&] {
    sim::Simulation sim;
    net::Network network(sim);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      network.send_to(net::Channel::kCpuTelemetry,
                      static_cast<net::EndpointId>(i % 64),
                      net::kControllerEndpoint, core::kCpuStatsWireBytes,
                      [] {});
    }
    const double s = seconds_since(t0);
    sim.run_all();
    return s;
  }), n);
  iso.net_rpc_ns = per_op_ns(best_of([&] {
    sim::Simulation sim;
    net::Network network(sim);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      network.rpc_to(net::kControllerEndpoint,
                     static_cast<net::EndpointId>(i % 64),
                     core::kLimitUpdateRpcBytes, core::kLimitUpdateRespBytes,
                     [] { return true; }, [] {});
    }
    const double s = seconds_since(t0);
    sim.run_all();
    return s;
  }), n);

  // --- cfs / memcg ---
  const int consumers = std::max(1, shape.per_node);
  const int slices = quick ? 200 : 2'000;
  iso.cfs_slice_ns = per_op_ns(best_of([&] {
    sim::Simulation sim;
    cfs::NodeCpuScheduler scheduler(
        sim, cfs::NodeCpuScheduler::Config{.cores = shape.node_cores});
    std::vector<std::unique_ptr<Spinner>> spinners;
    for (int i = 0; i < consumers; ++i) {
      spinners.push_back(std::make_unique<Spinner>(static_cast<cfs::CgroupId>(i + 1)));
      scheduler.attach(spinners.back().get());
    }
    const auto t0 = Clock::now();
    sim.run_until(sim::milliseconds(10) * slices);
    const double s = seconds_since(t0);
    for (const auto& sp : spinners) scheduler.detach(sp.get());
    return s;
  }), static_cast<std::size_t>(consumers) * static_cast<std::size_t>(slices));
  {
    // A busy container's per-slice step as the scheduler drives it: its
    // demand, then execution of the granted core-time (items far longer
    // than the pass, so none completes).
    sim::Simulation sim;
    cluster::ContainerSpec spec;
    spec.max_parallelism = 4.0;
    cluster::Container container(sim, 1, spec, sim::milliseconds(100), 4.0,
                                 memcg::kGiB);
    for (int i = 0; i < 8; ++i) {
      container.submit(sim::seconds(1'000'000), 0, [](bool) {});
    }
    const sim::Duration slice = sim::milliseconds(10);
    iso.cluster_run_ns = per_op_ns(best_of([&] {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        const double cores = container.cpu_demand(slice);
        container.run_for(static_cast<sim::Duration>(cores * static_cast<double>(slice)),
                          slice);
      }
      return seconds_since(t0);
    }), n);
  }
  {
    memcg::MemCgroup cg(1, memcg::kGiB);
    iso.memcg_charge_ns = per_op_ns(best_of([&] {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        cg.try_charge(2 * memcg::kMiB);
        cg.uncharge(2 * memcg::kMiB);
      }
      return seconds_since(t0);
    }), n);
  }

  // --- core: controller ingest and allocator decisions at the workload's
  //     population (a generous memory pool, so OOM grants never run dry) ---
  {
    Population pop(shape, 256 * memcg::kGiB, /*checked=*/false);
    core::Controller& controller = pop.escra->controller();
    core::ResourceAllocator& allocator = pop.escra->allocator();
    int round = 0;
    const std::size_t msgs = pop.stats.size() * static_cast<std::size_t>(rounds);
    iso.controller_ingest_ns = per_op_ns(best_of([&] {
      double s = 0.0;
      for (int r = 0; r < rounds; ++r) {
        pop.prepare(round++);
        const auto t0 = Clock::now();
        for (const core::CpuStatsMsg& m : pop.stats) controller.on_cpu_stats(m);
        s += seconds_since(t0);
        // Limit RPCs land off the timed path.
        pop.sim.run_until(pop.sim.now() + sim::milliseconds(100));
      }
      return s;
    }), msgs);
    iso.allocator_decide_ns = per_op_ns(best_of([&] {
      double s = 0.0;
      for (int r = 0; r < rounds; ++r) {
        pop.prepare(round++);
        const auto t0 = Clock::now();
        for (const core::CpuStatsMsg& m : pop.stats) allocator.on_cpu_stats(m);
        s += seconds_since(t0);
      }
      return s;
    }), msgs);
    iso.allocator_oom_ns = per_op_ns(best_of([&] {
      const auto t0 = Clock::now();
      for (int r = 0; r < rounds; ++r) {
        for (const core::CpuStatsMsg& m : pop.stats) {
          allocator.on_oom_event(
              core::OomEventMsg{m.cgroup, 4 * memcg::kMiB, 4 * memcg::kMiB});
        }
      }
      return seconds_since(t0);
    }), msgs);
  }

  // --- bw: the pass-through shaping decision (rates far above the load) ---
  {
    sim::Simulation sim;
    bw::ClusterShaper shaper(sim);
    shaper.add_node(0, 1e15);
    const std::uint32_t ids = static_cast<std::uint32_t>(std::max(1, population));
    for (std::uint32_t id = 1; id <= ids; ++id) {
      shaper.attach(id, 0);
      shaper.set_container_rate(id, 1e15);
    }
    iso.bw_shape_ns = per_op_ns(best_of([&] {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        shaper.shape_egress(1 + static_cast<std::uint32_t>(i % ids), 20'000,
                            {});
      }
      return seconds_since(t0);
    }), n);
  }

  // --- ha: folding a slot-open / slot-ack record stream into a replica ---
  {
    ha::ReplicaState replica;
    const std::uint32_t ids = static_cast<std::uint32_t>(std::max(1, population));
    for (std::uint32_t id = 1; id <= ids; ++id) {
      ha::WalRecord reg;
      reg.kind = ha::WalKind::kRegister;
      reg.container = id;
      reg.cores = 1.0;
      replica.apply(reg);
    }
    std::vector<ha::WalRecord> records(n);
    for (std::size_t i = 0; i < n; ++i) {
      ha::WalRecord& r = records[i];
      r.kind = i % 2 == 0 ? ha::WalKind::kCpuSlot : ha::WalKind::kAckSlot;
      r.container = 1 + static_cast<std::uint32_t>((i / 2) % ids);
      r.seq = i / 2 + 1;
      r.cores = 1.0 + static_cast<double>(i % 7) * 0.25;
    }
    iso.ha_fold_ns = per_op_ns(best_of([&] {
      const auto t0 = Clock::now();
      for (const ha::WalRecord& r : records) replica.apply(r);
      return seconds_since(t0);
    }), n);
  }

  // --- obs: one decision-trace record into the 64k ring ---
  {
    obs::TraceBuffer ring(1 << 16);
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kCpuGrant;
    ev.container = 7;
    ev.node = 1;
    ev.before = 1.0;
    ev.after = 2.0;
    iso.obs_record_ns = per_op_ns(best_of([&] {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        ev.time = static_cast<sim::TimePoint>(i);
        ring.record(ev);
      }
      return seconds_since(t0);
    }), n);
  }

  // --- check: one full sweep at the workload's population ---
  {
    Population pop(shape, 512 * memcg::kMiB, /*checked=*/true);
    const int sweeps = std::max(1, (quick ? 200 : 2'000) / population);
    iso.check_sweep_us = per_op_ns(best_of([&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < sweeps; ++i) pop.checker->check_now();
      return seconds_since(t0);
    }), static_cast<std::size_t>(sweeps)) * 1e-3;
  }
  return iso;
}

}  // namespace escra_bench
