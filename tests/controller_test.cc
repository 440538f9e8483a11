#include "core/controller.h"

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/escra.h"
#include "create_app.h"

namespace escra::core {
namespace {

using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

struct Rig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  cluster::Node& node = k8s.add_node({});
  EscraConfig config;
  DistributedContainer app{16.0, 8 * kGiB};
  ResourceAllocator alloc{config, app};
  Controller controller{sim, net, config, alloc};

  cluster::Container& make(const std::string& name, double parallelism = 4.0) {
    cluster::ContainerSpec s;
    s.name = name;
    s.base_memory = 64 * kMiB;
    s.max_parallelism = parallelism;
    return k8s.create_container(std::move(s), 0.5, 128 * kMiB);
  }
};

TEST(ControllerTest, RegistrationAppliesLimitsAndCommitsPool) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  rig.controller.register_container(c, rig.node, 2.0, kGiB);
  EXPECT_TRUE(rig.controller.is_registered(c.id()));
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 2.0);
  EXPECT_EQ(c.mem_cgroup().limit(), kGiB);
  EXPECT_DOUBLE_EQ(rig.app.cpu_allocated(), 2.0);
  EXPECT_EQ(rig.controller.registered_count(), 1u);
}

TEST(ControllerTest, LateJoinerGetsDefaultsClampedToPool) {
  Rig rig;
  cluster::Container& a = rig.make("a");
  rig.controller.register_container(a, rig.node, 15.5, 8 * kGiB - 100 * kMiB);
  cluster::Container& b = rig.make("b");
  rig.controller.register_container(b, rig.node, 0.0, 0);  // late joiner
  // Defaults are 1.0 cores / 256 MiB, but only 0.5 cores / 100 MiB remain.
  EXPECT_DOUBLE_EQ(b.cpu_cgroup().limit_cores(), 0.5);
  EXPECT_EQ(b.mem_cgroup().limit(), 100 * kMiB);
}

TEST(ControllerTest, LateJoinerWithEmptyPoolGetsZero) {
  Rig rig;
  cluster::Container& a = rig.make("a");
  rig.controller.register_container(a, rig.node, 16.0, 8 * kGiB);
  cluster::Container& b = rig.make("b");
  EXPECT_NO_THROW(rig.controller.register_container(b, rig.node, 0.0, 0));
  EXPECT_DOUBLE_EQ(b.cpu_cgroup().limit_cores(), 0.0);
}

TEST(ControllerTest, TelemetryFlowsToAllocatorAndBack) {
  Rig rig;
  rig.node.scheduler();  // node created
  cluster::Container& c = rig.make("a");
  rig.controller.register_container(c, rig.node, 0.5, kGiB);
  // Saturate the container so every period throttles.
  c.submit(seconds(30), 0, nullptr);
  rig.sim.run_until(seconds(2));
  EXPECT_GT(rig.controller.stats_received(), 10u);
  EXPECT_GT(rig.controller.limit_updates_sent(), 0u);
  // The control loop raised the limit above the bootstrap 0.5 cores.
  EXPECT_GT(c.cpu_cgroup().limit_cores(), 0.5);
  EXPECT_GT(rig.net.stats(net::Channel::kCpuTelemetry).messages, 10u);
  EXPECT_GT(rig.net.stats(net::Channel::kControlRpc).messages, 0u);
}

TEST(ControllerTest, DeregisterStopsTelemetryAndFreesPool) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  rig.controller.register_container(c, rig.node, 2.0, kGiB);
  rig.controller.deregister_container(c);
  EXPECT_FALSE(rig.controller.is_registered(c.id()));
  EXPECT_DOUBLE_EQ(rig.app.cpu_allocated(), 0.0);
  const auto msgs_before = rig.net.stats(net::Channel::kCpuTelemetry).messages;
  rig.sim.run_until(seconds(1));
  EXPECT_EQ(rig.net.stats(net::Channel::kCpuTelemetry).messages, msgs_before);
}

TEST(ControllerTest, OomRescueRaisesLimitSynchronously) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  rig.controller.register_container(c, rig.node, 1.0, 100 * kMiB);
  // Working set of 60 MiB on top of 64 MiB base overflows the 100 MiB limit
  // the moment it executes; the pre-OOM hook must rescue it.
  bool ok = false;
  c.submit(milliseconds(20), 60 * kMiB, [&](bool o) { ok = o; });
  rig.sim.run_until(seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(c.running());
  EXPECT_EQ(rig.controller.oom_events(), 1u);
  EXPECT_EQ(rig.controller.oom_rescues(), 1u);
  EXPECT_GT(c.mem_cgroup().limit(), 100 * kMiB);
  EXPECT_GT(rig.net.stats(net::Channel::kMemoryEvent).messages, 0u);
}

TEST(ControllerTest, OomDeniedWhenApplicationExhausted) {
  Rig rig;
  cluster::Container& a = rig.make("a");
  cluster::Container& b = rig.make("b");
  // Consume the entire application memory: a holds almost everything
  // (usage pinned via resident growth so reclamation cannot free it).
  rig.controller.register_container(a, rig.node, 1.0, 8 * kGiB - 128 * kMiB);
  rig.controller.register_container(b, rig.node, 1.0, 128 * kMiB);
  a.adjust_resident(8 * kGiB - 128 * kMiB - 64 * kMiB - 10 * kMiB);
  b.submit(milliseconds(20), 200 * kMiB, nullptr);
  rig.sim.run_until(seconds(1));
  EXPECT_FALSE(b.running()) << "no memory anywhere: the kill must proceed";
  EXPECT_EQ(b.oom_kill_count(), 1u);
}

TEST(ControllerTest, PeriodicReclamationShrinksIdleContainers) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  rig.controller.register_container(c, rig.node, 1.0, kGiB);
  rig.controller.start();
  rig.sim.run_until(seconds(6));  // one 5-second reclamation pass
  // usage 64 MiB -> limit reclaimed to usage + delta (50 MiB).
  EXPECT_EQ(c.mem_cgroup().limit(), 114 * kMiB);
  EXPECT_EQ(rig.app.member_mem(c.id()), 114 * kMiB);
  EXPECT_EQ(rig.controller.total_reclaimed(), kGiB - 114 * kMiB);
  rig.controller.stop();
}

TEST(ControllerTest, ReclamationFreesMemoryForNeedyContainers) {
  Rig rig;
  cluster::Container& fat = rig.make("fat");
  cluster::Container& needy = rig.make("needy");
  rig.controller.register_container(fat, rig.node, 1.0, 8 * kGiB - 130 * kMiB);
  rig.controller.register_container(needy, rig.node, 1.0, 130 * kMiB);
  // Pool is empty, but `fat` only uses 64 MiB: the emergency reclamation
  // path must free its slack so `needy` survives.
  bool ok = false;
  needy.submit(milliseconds(20), 100 * kMiB, [&](bool o) { ok = o; });
  rig.sim.run_until(seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(needy.running());
  EXPECT_LT(fat.mem_cgroup().limit(), kGiB) << "fat was reclaimed";
  EXPECT_EQ(rig.controller.oom_rescues(), 1u);
}

TEST(ControllerTest, EmergencyReclaimReportsPsi) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  rig.controller.register_container(c, rig.node, 1.0, kGiB);
  const memcg::Bytes psi = rig.controller.run_emergency_reclaim();
  EXPECT_EQ(psi, kGiB - 114 * kMiB);
}

TEST(ControllerTest, AgentPerNodeIsReused) {
  Rig rig;
  Agent& a1 = rig.controller.agent_for(rig.node);
  Agent& a2 = rig.controller.agent_for(rig.node);
  EXPECT_EQ(&a1, &a2);
  cluster::Node& other = rig.k8s.add_node({});
  EXPECT_NE(&rig.controller.agent_for(other), &a1);
}

TEST(ControllerTest, StartStopIdempotent) {
  Rig rig;
  rig.controller.start();
  rig.controller.start();
  rig.controller.stop();
  rig.controller.stop();
  rig.sim.run_until(seconds(12));
  EXPECT_EQ(rig.controller.total_reclaimed(), 0) << "loop cancelled";
}

// End-to-end EscraSystem facade behaviour.
TEST(EscraSystemTest, DeployAppliesEquations1And2) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  EscraConfig cfg;
  cfg.sigma = 0.2;
  EscraSystem escra(sim, net, k8s, 8.0, 4 * kGiB, cfg);
  const auto deployed = create_app(k8s, "demo", 4);
  escra.manage(deployed);
  ASSERT_EQ(deployed.size(), 4u);
  for (const cluster::Container* c : deployed) {
    EXPECT_DOUBLE_EQ(c->cpu_cgroup().limit_cores(), 2.0);  // 8 / 4
    EXPECT_EQ(c->mem_cgroup().limit(),
              static_cast<memcg::Bytes>(4.0 * kGiB * 0.8 / 4.0));
  }
  // sigma share withheld in the pool.
  EXPECT_NEAR(static_cast<double>(escra.app().mem_unallocated()),
              0.2 * 4 * kGiB, 4096);
}

TEST(EscraSystemTest, WatcherAdoptsLateContainers) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  EscraSystem escra(sim, net, k8s, 8.0, 4 * kGiB);
  escra.watch();
  cluster::ContainerSpec cs;
  cs.name = "pod";
  cluster::Container& c = k8s.create_container(cs, 1.0, 256 * kMiB);
  EXPECT_TRUE(escra.controller().is_registered(c.id()));
  escra.release(c);
  EXPECT_FALSE(escra.controller().is_registered(c.id()));
  escra.unwatch();
  cluster::Container& d = k8s.create_container(cs, 1.0, 256 * kMiB);
  EXPECT_FALSE(escra.controller().is_registered(d.id()));
}

TEST(EscraSystemTest, ManageEmptyListThrows) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  EscraSystem escra(sim, net, k8s, 8.0, 4 * kGiB);
  EXPECT_THROW(escra.manage({}), std::invalid_argument);
}

}  // namespace
}  // namespace escra::core
