// Failure injection: Escra's control loops under degraded conditions —
// lossy telemetry, network jitter, a paused Controller, container crashes
// mid-run, and pool exhaustion. The system must degrade gracefully ("fail
// static": containers keep running at their last-applied limits) and
// recover when the fault clears.
#include <gtest/gtest.h>

#include "app/benchmarks.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "sim/rng.h"
#include "workload/load_generator.h"

namespace escra {
namespace {

using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

struct Rig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  std::unique_ptr<app::Application> application;
  std::unique_ptr<core::EscraSystem> escra;
  std::unique_ptr<workload::LoadGenerator> loadgen;

  explicit Rig(double rate_rps = 200.0) {
    for (int i = 0; i < 3; ++i) k8s.add_node({});
    application = std::make_unique<app::Application>(
        k8s, app::make_teastore(), sim::Rng(7), 1.0, 512 * kMiB);
    escra = std::make_unique<core::EscraSystem>(sim, net, k8s, 12.0, 8 * kGiB);
    escra->manage(application->containers());
    escra->start();
    loadgen = std::make_unique<workload::LoadGenerator>(
        sim, std::make_unique<workload::ExpArrivals>(rate_rps, sim::Rng(3)),
        [this](workload::LoadGenerator::Done done) {
          application->submit_request(std::move(done));
        });
  }

  std::uint64_t total_oom_kills() const {
    std::uint64_t kills = 0;
    for (const cluster::Container* c : application->containers()) {
      kills += c->oom_kill_count();
    }
    return kills;
  }
};

TEST(FaultInjectionTest, NetworkLossValidation) {
  sim::Simulation sim;
  net::Network net(sim);
  EXPECT_THROW(net.set_loss(-0.1, sim::Rng(1)), std::invalid_argument);
  EXPECT_THROW(net.set_loss(1.0, sim::Rng(1)), std::invalid_argument);
  EXPECT_NO_THROW(net.set_loss(0.5, sim::Rng(1)));
}

TEST(FaultInjectionTest, LossDropsOnlyTelemetry) {
  sim::Simulation sim;
  net::Network net(sim);
  net.set_loss(0.5, sim::Rng(2));
  int telemetry = 0, rpc = 0, mem_events = 0;
  for (int i = 0; i < 400; ++i) {
    net.send_to(net::Channel::kCpuTelemetry, 0, net::kControllerEndpoint, 64,
                [&] { ++telemetry; });
    net.send_to(net::Channel::kMemoryEvent, 0, net::kControllerEndpoint, 64,
                [&] { ++mem_events; });
    net.rpc_to(
        net::kControllerEndpoint, 0, 64, 64,
        [&] {
          ++rpc;
          return true;
        },
        [] {});
  }
  sim.run_all();
  EXPECT_NEAR(telemetry, 200, 50);
  EXPECT_EQ(mem_events, 400) << "TCP memory events are never dropped";
  EXPECT_EQ(rpc, 400) << "RPCs retransmit";
  EXPECT_NEAR(static_cast<double>(net.dropped_messages()), 200.0, 50.0);
}

TEST(FaultInjectionTest, EscraToleratesTenPercentTelemetryLoss) {
  Rig rig;
  rig.net.set_loss(0.10, sim::Rng(11));
  rig.loadgen->run(seconds(5), seconds(35));
  rig.sim.run_until(seconds(40));
  // The per-period stream is dense enough that losing one in ten statistics
  // merely delays individual decisions by a period.
  EXPECT_EQ(rig.loadgen->failed(), 0u);
  EXPECT_EQ(rig.total_oom_kills(), 0u);
  EXPECT_GT(rig.net.dropped_messages(), 50u);
  EXPECT_GT(rig.loadgen->succeeded(), 4000u);
}

TEST(FaultInjectionTest, EscraToleratesHeavyLossWithDegradedTails) {
  Rig baseline;
  baseline.loadgen->run(seconds(5), seconds(35));
  baseline.sim.run_until(seconds(40));

  Rig lossy;
  lossy.net.set_loss(0.5, sim::Rng(12));
  lossy.loadgen->run(seconds(5), seconds(35));
  lossy.sim.run_until(seconds(40));

  // Still functional: comparable throughput, no kills.
  EXPECT_EQ(lossy.total_oom_kills(), 0u);
  EXPECT_NEAR(lossy.loadgen->throughput_rps(),
              baseline.loadgen->throughput_rps(), 20.0);
}

TEST(FaultInjectionTest, ControllerPauseFailsStatic) {
  // With the reclamation loop stopped and telemetry effectively ignored,
  // containers keep running at their last limits — degraded efficiency, no
  // outage.
  Rig rig;
  rig.loadgen->run(seconds(5), seconds(65));
  rig.sim.schedule_at(seconds(20), [&] { rig.escra->stop(); });
  rig.sim.run_until(seconds(40));
  const double tput_during_pause = rig.loadgen->throughput_rps();
  EXPECT_GT(tput_during_pause, 0.0);
  rig.sim.schedule_at(seconds(40), [&] { rig.escra->start(); });
  rig.sim.run_until(seconds(70));
  EXPECT_EQ(rig.total_oom_kills(), 0u);
  EXPECT_GT(rig.loadgen->succeeded(), 8000u);
}

TEST(FaultInjectionTest, ContainerCrashRecoversUnderEscra) {
  Rig rig;
  rig.loadgen->run(seconds(5), seconds(35));
  // Crash one replica mid-run (an eviction models a node-agent restart).
  rig.sim.schedule_at(seconds(15), [&] {
    rig.application->containers()[0]->evict_restart(0.5, 256 * kMiB);
  });
  rig.sim.run_until(seconds(40));
  // Some requests fail during the restart window; afterwards Escra re-fits
  // the limits and traffic completes again.
  EXPECT_GT(rig.loadgen->failed(), 0u);
  EXPECT_GT(rig.loadgen->succeeded(), 4000u);
  EXPECT_TRUE(rig.application->containers()[0]->running());
}

TEST(FaultInjectionTest, StaleTelemetryFromDeregisteredContainerIgnored) {
  Rig rig;
  rig.sim.run_until(seconds(2));
  cluster::Container* victim = rig.application->containers()[0];
  // Deregister while its telemetry is still in flight.
  rig.escra->release(*victim);
  EXPECT_NO_THROW(rig.sim.run_until(seconds(5)));
  // Re-adopt: it rejoins the pool as a late joiner.
  rig.escra->adopt(*victim);
  EXPECT_TRUE(rig.escra->controller().is_registered(victim->id()));
  rig.sim.run_until(seconds(10));
}

// Post-fault recovery, judged on behaviour rather than instantaneous
// limits: the kappa/upsilon loop hunts around demand, so per-container
// trajectories of a faulted and an unfaulted run never line up again.
// What must hold after the fault clears: nobody was OOM-killed (fail
// static), the rejoin triggered a resync, decisions resume flowing, and
// the time-averaged aggregate CPU limit and throughput land where an
// identical-seed unfaulted run lands.
TEST(FaultInjectionTest, RecoveryAfterPartitionAndAgentCrash) {
  enum class Fault { kNone, kPartition, kAgentCrash };
  struct Outcome {
    double tail_mean_cores = 0.0;
    double throughput = 0.0;
    std::uint64_t kills = 0;
    std::uint64_t resyncs = 0;
    bool decisions_resumed = false;
  };
  // Fault at 15 s, cleared by 18 s; tail window 25..40 s is pure recovery.
  auto run = [](Fault fault) {
    Rig rig;
    std::unique_ptr<fault::FaultInjector> injector;
    if (fault != Fault::kNone) {
      injector =
          std::make_unique<fault::FaultInjector>(rig.sim, rig.net, *rig.escra);
      if (fault == Fault::kPartition) {
        injector->inject_partition(1, seconds(15), seconds(3));
      } else {
        injector->inject_agent_crash(1, seconds(15), seconds(2));
      }
    }
    rig.loadgen->run(seconds(2), seconds(38));
    double sum = 0.0;
    std::uint64_t samples = 0;
    rig.sim.schedule_every(seconds(25), milliseconds(100), [&] {
      double total = 0.0;
      for (const cluster::Container* c : rig.application->containers()) {
        total += c->cpu_cgroup().limit_cores();
      }
      sum += total;
      ++samples;
    });
    std::uint64_t updates_at_heal = 0;
    rig.sim.schedule_at(seconds(18), [&] {
      updates_at_heal = rig.escra->controller().limit_updates_sent();
    });
    rig.sim.run_until(seconds(40));
    Outcome out;
    out.tail_mean_cores = sum / static_cast<double>(samples);
    out.throughput = rig.loadgen->throughput_rps();
    out.kills = rig.total_oom_kills();
    out.resyncs = rig.escra->controller().resyncs();
    out.decisions_resumed =
        rig.escra->controller().limit_updates_sent() > updates_at_heal;
    return out;
  };

  const Outcome baseline = run(Fault::kNone);
  ASSERT_GT(baseline.tail_mean_cores, 0.0);
  for (const Fault fault : {Fault::kPartition, Fault::kAgentCrash}) {
    SCOPED_TRACE(fault == Fault::kPartition ? "partition" : "agent-crash");
    const Outcome faulted = run(fault);
    EXPECT_EQ(faulted.kills, 0u) << "fail static: the fault kills nothing";
    EXPECT_GT(faulted.resyncs, 0u) << "the rejoin triggered a resync";
    EXPECT_TRUE(faulted.decisions_resumed);
    EXPECT_NEAR(faulted.tail_mean_cores, baseline.tail_mean_cores,
                0.25 * baseline.tail_mean_cores);
    EXPECT_NEAR(faulted.throughput, baseline.throughput,
                0.15 * baseline.throughput);
  }
}

TEST(FaultInjectionTest, MemoryPoolExhaustionKillsOnlyTheHog) {
  // One container grows without bound. Escra rescues it while the pool and
  // neighbours' slack last; once the application truly has no memory left,
  // that container (and only that container) is killed.
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  cluster::ContainerSpec hog_spec;
  hog_spec.name = "hog";
  hog_spec.base_memory = 64 * kMiB;
  cluster::Container& hog = k8s.create_container(hog_spec, 1.0, 256 * kMiB);
  cluster::ContainerSpec other_spec;
  other_spec.name = "other";
  other_spec.base_memory = 64 * kMiB;
  cluster::Container& other = k8s.create_container(other_spec, 1.0, 256 * kMiB);

  core::EscraSystem escra(sim, net, k8s, 4.0, 1 * kGiB);
  escra.manage({&hog, &other});
  escra.start();

  sim.schedule_every(milliseconds(500), milliseconds(500),
                     [&] { hog.adjust_resident(32 * kMiB); });
  sim.run_until(seconds(30));
  // The growth loop keeps running after the restart, so the hog can die
  // more than once; what matters is that it does die and nothing else does.
  EXPECT_GE(hog.oom_kill_count(), 1u) << "the hog eventually dies";
  EXPECT_EQ(other.oom_kill_count(), 0u) << "the neighbour is isolated";
  EXPECT_GT(escra.controller().oom_rescues(), 5u)
      << "but only after the pool was genuinely exhausted";
  // The global limit was never exceeded.
  EXPECT_LE(escra.app().mem_allocated(), escra.app().mem_limit());
}

}  // namespace
}  // namespace escra
