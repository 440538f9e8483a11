// Event-engine throughput benchmark.
//
// Measures the discrete-event core that every Escra experiment sits on:
//   - schedule_ns / cancel_ns: cost of arming and disarming one-shot timers
//     (the Controller's retransmit path arms one per in-flight RPC),
//   - raw_fire_eps: drain rate for pre-scheduled one-shot events,
//   - churn_ops_per_sec: the retransmit pattern — schedule, then cancel 90%
//     before firing (acks beat the timeout), fire the rest,
//   - periodic_eps: thousands of interleaved 100 ms CFS-style periods,
//   - e2e_*: a canonical 64-node, 256-container Escra cluster under steady
//     load for 5 simulated seconds — the number that bounds every sweep,
//   - e2e_scale_*: the same 64 nodes at 64 containers each (4096 total)
//     with a 1 ms per-container usage probe — the kernel-event firehose the
//     dense slot layout and coalesced per-node limit RPCs exist to absorb.
//
// Prints BENCH_sim_throughput.json-style output (bench/gate.h). Under
// --check BASELINE.json the two e2e event counts must match exactly (the
// scenarios are deterministic, so a changed count means the engine changed
// behaviour, not just speed), the two e2e events/sec rates are floors 25%
// below the baseline, and the rest is reported.
//
//   sim_throughput [--out FILE] [--check FILE] [--quick]

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/escra.h"
#include "gate.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

using namespace escra;

namespace {

double wall_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Results {
  double schedule_ns = 0.0;
  double cancel_ns = 0.0;
  double raw_fire_eps = 0.0;
  double churn_ops_per_sec = 0.0;
  double periodic_eps = 0.0;
  std::uint64_t e2e_events = 0;
  double e2e_wall_s = 0.0;
  double e2e_eps = 0.0;
  std::uint64_t e2e_scale_events = 0;
  double e2e_scale_wall_s = 0.0;
  double e2e_scale_eps = 0.0;
};

// --- micro: schedule / cancel / drain ------------------------------------

void bench_schedule_cancel(std::size_t n, Results& r) {
  {
    sim::Simulation sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(n);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      // Spread over ~26 s of sim time: exercises several wheel levels.
      handles.push_back(sim.schedule_at(
          static_cast<sim::TimePoint>((i * 401) % 26'000'000), [] {}));
    }
    r.schedule_ns = wall_seconds(t0) * 1e9 / static_cast<double>(n);
    const auto t1 = std::chrono::steady_clock::now();
    for (const sim::EventHandle& h : handles) sim.cancel(h);
    r.cancel_ns = wall_seconds(t1) * 1e9 / static_cast<double>(n);
  }
  {
    sim::Simulation sim;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<sim::TimePoint>((i * 401) % 26'000'000),
                      [] {});
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t fired = sim.run_all();
    r.raw_fire_eps = static_cast<double>(fired) / wall_seconds(t0);
  }
}

// --- micro: retransmit-style churn ---------------------------------------

void bench_churn(std::size_t n, Results& r) {
  sim::Simulation sim;
  sim::Rng rng(7);
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t ops = 0;
  std::vector<sim::EventHandle> window;
  for (std::size_t i = 0; i < n; ++i) {
    window.push_back(
        sim.schedule_after(sim::milliseconds(rng.uniform_int(50, 250)), [] {}));
    ++ops;
    if (window.size() == 32) {
      // Acks arrive: cancel ~90%, let the rest fire.
      for (std::size_t k = 0; k < window.size(); ++k) {
        if (k % 10 != 0) {
          sim.cancel(window[k]);
          ++ops;
        }
      }
      window.clear();
      sim.run_until(sim.now() + sim::milliseconds(20));
    }
  }
  sim.run_all();
  r.churn_ops_per_sec = static_cast<double>(ops) / wall_seconds(t0);
}

// --- micro: interleaved periodic timers ----------------------------------

void bench_periodic(std::size_t timers, sim::Duration span, Results& r) {
  sim::Simulation sim;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < timers; ++i) {
    // 100 ms CFS-style periods with staggered phases.
    sim.schedule_every(static_cast<sim::TimePoint>(1 + i * 97 % 100'000),
                       sim::milliseconds(100), [&fired] { ++fired; });
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(span);
  r.periodic_eps = static_cast<double>(fired) / wall_seconds(t0);
}

// --- end to end: canonical 64-node cluster -------------------------------

void bench_e2e(sim::Duration duration, Results& r) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  constexpr int kNodes = 64;
  constexpr int kContainersPerNode = 4;
  for (int n = 0; n < kNodes; ++n) {
    k8s.add_node(cluster::NodeConfig{.cores = 20.0});
  }
  core::EscraSystem escra(sim, network, k8s, /*global_cpu_cores=*/512.0,
                          /*global_mem=*/256LL * memcg::kGiB);
  // Mildly lossy control RPC: exercises the retransmit timers (arm on send,
  // cancel on ack) that dominate the Controller's timer traffic.
  network.set_fault_rng(sim::Rng(0xbe4cfULL));
  network.set_drop_rate(net::Channel::kControlRpc, 0.02);

  sim::Rng root(0xe5c7a64ULL);
  std::vector<cluster::Container*> members;
  for (int c = 0; c < kNodes * kContainersPerNode; ++c) {
    cluster::ContainerSpec spec;
    spec.name = "c" + std::to_string(c);
    spec.max_parallelism = 4.0;
    spec.base_memory = 64 * memcg::kMiB;
    members.push_back(&k8s.create_container(spec, 1.0, 256 * memcg::kMiB));
  }
  escra.manage(members);
  escra.start();

  // Oscillating per-container request streams: 500 ms on / 500 ms off duty
  // cycles, phase-offset per container. Demand keeps moving, so the
  // allocator issues limit updates every CFS period — the steady-state
  // control traffic (telemetry, updates, retransmit timers) the engine must
  // sustain at cluster scale.
  struct Stream {
    cluster::Container* container;
    int phase;
    sim::Rng rng;
  };
  std::vector<Stream> streams;
  streams.reserve(members.size());
  int idx = 0;
  for (cluster::Container* c : members) streams.push_back({c, idx++, root.fork()});
  for (Stream& s : streams) {
    sim::Simulation* simp = &sim;
    sim.schedule_every(
        sim::milliseconds(1 + s.rng.uniform_int(0, 19)), sim::milliseconds(20),
        [&s, simp] {
          const bool on =
              ((simp->now() / sim::milliseconds(500)) + s.phase) % 2 == 0;
          const int batch = on ? 3 : 0;
          for (int b = 0; b < batch; ++b) {
            const double cost_ms = s.rng.lognormal(std::log(4.0), 0.8);
            s.container->submit(
                std::max<sim::Duration>(
                    1, static_cast<sim::Duration>(cost_ms * 1000.0)),
                2 * memcg::kMiB, [](bool) {});
          }
        });
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(duration);
  r.e2e_wall_s = wall_seconds(t0);
  r.e2e_events = sim.executed_events();
  r.e2e_eps = static_cast<double>(r.e2e_events) / r.e2e_wall_s;
}

// --- end to end at density: 64 nodes, 4096 containers --------------------

// The paper's premise is that the kernel generates resource events at
// sub-second granularity and the control plane keeps up. This phase scales
// the canonical cluster to 64 containers per node and arms a 1 ms usage
// probe per container — the in-kernel event source — on top of the full
// Escra control loop (telemetry every CFS period, allocator decisions,
// coalesced limit pushes, retransmit timers under 2% RPC loss). The event
// mix is what a dense production node actually presents: a firehose of
// cheap per-container events punctuated by control-plane work, all of which
// lands on the interned-slot hot state rather than per-event map probes.
void bench_e2e_scale(sim::Duration duration, int containers_per_node,
                     Results& r) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  constexpr int kNodes = 64;
  for (int n = 0; n < kNodes; ++n) {
    k8s.add_node(cluster::NodeConfig{.cores = 80.0});
  }
  core::EscraSystem escra(sim, network, k8s, /*global_cpu_cores=*/8192.0,
                          /*global_mem=*/2048LL * memcg::kGiB);
  network.set_fault_rng(sim::Rng(0xbe4cfULL));
  network.set_drop_rate(net::Channel::kControlRpc, 0.02);

  sim::Rng root(0xe5c7a64ULL);
  std::vector<cluster::Container*> members;
  const int total = kNodes * containers_per_node;
  members.reserve(total);
  for (int c = 0; c < total; ++c) {
    cluster::ContainerSpec spec;
    spec.name = "d" + std::to_string(c);
    spec.max_parallelism = 4.0;
    spec.base_memory = 64 * memcg::kMiB;
    members.push_back(&k8s.create_container(spec, 1.0, 256 * memcg::kMiB));
  }
  escra.manage(members);
  escra.start();

  // One 1 ms probe per container: almost every fire is a cheap counter
  // bump; every 20th submits real work so demand keeps moving and the
  // allocator issues limit updates each period.
  struct Probe {
    cluster::Container* container;
    std::uint32_t ticks = 0;
    sim::Rng rng;
  };
  std::vector<Probe> probes;
  probes.reserve(members.size());
  for (cluster::Container* c : members) probes.push_back({c, 0, root.fork()});
  std::uint64_t probe_fires = 0;
  for (Probe& p : probes) {
    sim.schedule_every(
        static_cast<sim::TimePoint>(1 + p.rng.uniform_int(0, 999)),
        sim::milliseconds(1), [&p, &probe_fires] {
          ++probe_fires;
          if (++p.ticks % 32 == 0) {
            const double cost_ms = p.rng.lognormal(std::log(4.0), 0.8);
            p.container->submit(
                std::max<sim::Duration>(
                    1, static_cast<sim::Duration>(cost_ms * 1000.0)),
                2 * memcg::kMiB, [](bool) {});
          }
        });
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(duration);
  r.e2e_scale_wall_s = wall_seconds(t0);
  r.e2e_scale_events = sim.executed_events();
  r.e2e_scale_eps =
      static_cast<double>(r.e2e_scale_events) / r.e2e_scale_wall_s;
  (void)probe_fires;
}

}  // namespace

int main(int argc, char** argv) {
  const gate::Flags flags = gate::parse_flags(argc, argv, "sim_throughput");
  const bool quick = flags.quick;

  Results r;
  const std::size_t micro_n = quick ? 100'000 : 2'000'000;
  bench_schedule_cancel(micro_n, r);
  bench_churn(quick ? 50'000 : 1'000'000, r);
  bench_periodic(quick ? 500 : 5'000,
                 quick ? sim::seconds(10) : sim::seconds(60), r);
  bench_e2e(quick ? sim::seconds(1) : sim::seconds(5), r);
  bench_e2e_scale(quick ? sim::milliseconds(500) : sim::seconds(2),
                  quick ? 8 : 64, r);

  return gate::publish("sim_throughput",
                       {
                           gate::report("schedule_ns", r.schedule_ns, 1),
                           gate::report("cancel_ns", r.cancel_ns, 1),
                           gate::report("raw_fire_eps", r.raw_fire_eps),
                           gate::report("churn_ops_per_sec",
                                        r.churn_ops_per_sec),
                           gate::report("periodic_eps", r.periodic_eps),
                           gate::exact("e2e_events", r.e2e_events),
                           gate::report("e2e_wall_s", r.e2e_wall_s, 3),
                           gate::floor("e2e_eps", r.e2e_eps),
                           gate::exact("e2e_scale_events", r.e2e_scale_events),
                           gate::report("e2e_scale_wall_s",
                                        r.e2e_scale_wall_s, 3),
                           gate::floor("e2e_scale_eps", r.e2e_scale_eps),
                       },
                       flags);
}
