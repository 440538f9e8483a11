// The control-plane reliability layer under injected faults: sequenced
// idempotent limit applies, retransmit-until-ack, heartbeat liveness with
// quarantine + reclaim, agent lease fail-static, Controller crash/resync,
// and deterministic replay of FaultInjector schedules.
#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "obs/observer.h"

namespace escra {
namespace {

using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

cluster::Container& make_container(cluster::Cluster& k8s,
                                   const std::string& name,
                                   double parallelism = 4.0) {
  cluster::ContainerSpec s;
  s.name = name;
  s.base_memory = 64 * kMiB;
  s.max_parallelism = parallelism;
  return k8s.create_container(std::move(s), 0.5, 128 * kMiB);
}

// --- Agent: sequenced applies and crash/restart -------------------------

TEST(FaultTest, SequencedApplyIsIdempotent) {
  using Apply = core::Agent::Apply;
  using core::Resource;
  sim::Simulation sim;
  cluster::Cluster k8s(sim);
  cluster::Node& node = k8s.add_node({});
  cluster::Container& c = make_container(k8s, "a");
  bw::ClusterShaper shaper(sim);
  shaper.add_node(node.id(), 1.0e9);
  core::Agent agent(node);
  agent.set_bw_shaper(&shaper);
  agent.manage(c);

  const Resource resources[] = {Resource::kCpu, Resource::kMem,
                                Resource::kBw};
  // One step of each resource's own unit, and its applied limit.
  const auto unit = [](Resource r) {
    return r == Resource::kCpu   ? 1.0
           : r == Resource::kMem ? static_cast<double>(128 * kMiB)
                                 : 1.0e6;
  };
  const auto limit = [&](Resource r) {
    return r == Resource::kCpu   ? c.cpu_cgroup().limit_cores()
           : r == Resource::kMem ? static_cast<double>(c.mem_cgroup().limit())
                                 : shaper.container_rate(c.id());
  };

  // Sequences are tracked per resource: each one starts fresh at seq 5.
  for (const Resource r : resources) {
    SCOPED_TRACE("resource " + std::to_string(static_cast<int>(r)));
    EXPECT_EQ(agent.apply_limit(c.id(), r, 2 * unit(r), 5), Apply::kApplied);
    EXPECT_DOUBLE_EQ(limit(r), 2 * unit(r));
    // The same sequence again, and an older one: both discarded, limit
    // intact.
    EXPECT_EQ(agent.apply_limit(c.id(), r, 3 * unit(r), 5), Apply::kStale);
    EXPECT_EQ(agent.apply_limit(c.id(), r, 3 * unit(r), 4), Apply::kStale);
    EXPECT_DOUBLE_EQ(limit(r), 2 * unit(r));
    // A newer sequence supersedes.
    EXPECT_EQ(agent.apply_limit(c.id(), r, 3 * unit(r), 6), Apply::kApplied);
    EXPECT_DOUBLE_EQ(limit(r), 3 * unit(r));
  }

  // A fenced epoch is discarded even with a sequence that would beat the
  // stale check; the fencing leader's own epoch applies.
  agent.fence_epoch(1);
  for (const Resource r : resources) {
    SCOPED_TRACE("resource " + std::to_string(static_cast<int>(r)));
    EXPECT_EQ(agent.apply_limit(c.id(), r, 4 * unit(r), 7), Apply::kFenced);
    EXPECT_DOUBLE_EQ(limit(r), 3 * unit(r));
    EXPECT_EQ(agent.apply_limit(c.id(), r, 4 * unit(r),
                                core::pack_update_seq(1, 1)),
              Apply::kApplied);
    EXPECT_DOUBLE_EQ(limit(r), 4 * unit(r));
  }

  // A crashed Agent rejects everything and the limits fail static.
  agent.crash();
  for (const Resource r : resources) {
    SCOPED_TRACE("resource " + std::to_string(static_cast<int>(r)));
    EXPECT_EQ(agent.apply_limit(c.id(), r, 5 * unit(r),
                                core::pack_update_seq(1, 2)),
              Apply::kRejected);
    EXPECT_DOUBLE_EQ(limit(r), 4 * unit(r));
  }
}

TEST(FaultTest, OddByteMemoryLimitLandsExactlyThroughBatchedPush) {
  // A desired-state slot carries its limit as one double; memory limits are
  // integral bytes, exact in a double below 2^53. An odd byte count opened
  // as a slot (here by takeover replay) must ride the batched wire path and
  // land byte-exact in the memcg.
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  core::EscraSystem escra(sim, net, k8s, 16.0, 8 * kGiB);
  cluster::Container& c = make_container(k8s, "a");
  escra.manage({&c});
  escra.start();
  sim.run_until(milliseconds(500));

  core::Controller& controller = escra.controller();
  core::ReplicaState replica = controller.image();
  const memcg::Bytes odd = 256 * kGiB + 4097;
  replica.slots = {{core::ReplicaState::slot_key(c.id(), core::Resource::kMem),
                    {0, core::Resource::kMem, static_cast<double>(odd)}}};
  controller.crash();
  controller.takeover(controller.epoch() + 1, replica, k8s);
  sim.run_until(milliseconds(600));
  EXPECT_EQ(controller.pending_updates(), 0u) << "the push was acked";
  EXPECT_EQ(c.mem_cgroup().limit(), odd);
}

TEST(FaultTest, AgentCrashLosesSoftStateButCgroupsPersist) {
  sim::Simulation sim;
  cluster::Cluster k8s(sim);
  cluster::Node& node = k8s.add_node({});
  cluster::Container& c = make_container(k8s, "a");
  core::Agent agent(node);
  agent.manage(c);
  ASSERT_EQ(agent.apply_limit(c.id(), core::Resource::kCpu, 2.0, 9),
            core::Agent::Apply::kApplied);
  const std::uint64_t inc_before = agent.incarnation();

  agent.crash();
  EXPECT_TRUE(agent.crashed());
  // The node fails static: the cgroup keeps the last applied limit...
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 2.0);
  // ...and RPCs to the dead process get no response at all.
  EXPECT_EQ(agent.apply_limit(c.id(), core::Resource::kCpu, 4.0, 10),
            core::Agent::Apply::kRejected);
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 2.0);

  agent.restart();
  EXPECT_FALSE(agent.crashed());
  EXPECT_GT(agent.incarnation(), inc_before);
  // The sequence table died with the process: an "old" sequence applies
  // again (the Controller resync makes this safe by pushing fresh state).
  EXPECT_EQ(agent.apply_limit(c.id(), core::Resource::kCpu, 1.5, 1),
            core::Agent::Apply::kApplied);
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 1.5);
}

// --- Controller: retransmit until acked ---------------------------------

TEST(FaultTest, RetransmitsUntilAckThenDrains) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  cluster::Node& node = k8s.add_node({});
  core::EscraConfig config;
  core::DistributedContainer app(16.0, 8 * kGiB);
  core::ResourceAllocator alloc(config, app);
  core::Controller controller(sim, net, config, alloc);

  cluster::Container& c = make_container(k8s, "a");
  controller.register_container(c, node, 0.5, kGiB);
  // Saturate so every period throttles and the allocator keeps granting.
  c.submit(seconds(30), 0, nullptr);

  // Blackhole the RPC channel: updates are issued but never delivered.
  net.set_fault_rng(sim::Rng(3));
  net.set_drop_rate(net::Channel::kControlRpc, 1.0 - 1e-12);
  sim.run_until(seconds(1));
  EXPECT_GT(controller.limit_updates_sent(), 0u);
  EXPECT_GT(controller.retransmits(), 0u);
  EXPECT_GT(controller.pending_updates(), 0u);
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 0.5)
      << "nothing applied through a blackholed channel";

  // Heal the channel: the armed retransmit timers deliver the newest
  // intended limits and the pending set drains.
  net.set_drop_rate(net::Channel::kControlRpc, 0.0);
  sim.run_until(seconds(2));
  EXPECT_EQ(controller.pending_updates(), 0u);
  EXPECT_GT(c.cpu_cgroup().limit_cores(), 0.5);
}

// --- liveness: heartbeats, quarantine, reclaim, rejoin ------------------

struct LivenessRig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  core::EscraSystem escra{sim, net, k8s, 16.0, 8 * kGiB};
  std::vector<cluster::Container*> containers;

  LivenessRig() {
    k8s.add_node({});
    k8s.add_node({});
    for (int i = 0; i < 4; ++i) {
      containers.push_back(&make_container(k8s, "c" + std::to_string(i)));
    }
    escra.manage(containers);
    escra.start();
  }

  std::vector<cluster::Container*> on_node(cluster::NodeId id) const {
    std::vector<cluster::Container*> out;
    for (cluster::Container* c : containers) {
      const cluster::Node* n = k8s.node_of(c->id());
      if (n != nullptr && n->id() == id) out.push_back(c);
    }
    return out;
  }
};

TEST(FaultTest, PartitionDeclaresNodeDeadQuarantinesThenReclaims) {
  LivenessRig rig;
  const auto victims = rig.on_node(0);
  ASSERT_FALSE(victims.empty());
  rig.sim.run_until(seconds(1));
  EXPECT_FALSE(rig.escra.controller().node_dead(0));

  rig.net.partition(0, net::kControllerEndpoint);
  // kLivenessTimeout (350 ms) of silence: declared dead, pool share still
  // quarantined (containers stay registered through the grace window).
  rig.sim.run_until(seconds(1) + milliseconds(600));
  EXPECT_TRUE(rig.escra.controller().node_dead(0));
  for (const cluster::Container* c : victims) {
    EXPECT_TRUE(rig.escra.controller().is_registered(c->id()));
  }

  // kQuarantineGrace (2 s) later the dead node's share is reclaimed.
  const double unallocated_before = rig.escra.app().cpu_unallocated();
  rig.sim.run_until(seconds(4));
  EXPECT_TRUE(rig.escra.controller().node_dead(0));
  for (const cluster::Container* c : victims) {
    EXPECT_FALSE(rig.escra.controller().is_registered(c->id()))
        << "quarantine expired: the dead node's containers leave the pool";
    EXPECT_GT(c->cpu_cgroup().limit_cores(), 0.0)
        << "fail static: the node-local cgroup limit persists";
  }
  EXPECT_GT(rig.escra.app().cpu_unallocated(), unallocated_before);

  // Heal: heartbeats resume, the node is declared alive, and a resync
  // re-adopts its containers into the pool.
  rig.net.heal(0, net::kControllerEndpoint);
  rig.sim.run_until(seconds(5));
  EXPECT_FALSE(rig.escra.controller().node_dead(0));
  for (const cluster::Container* c : victims) {
    EXPECT_TRUE(rig.escra.controller().is_registered(c->id()));
  }
  EXPECT_GT(rig.escra.controller().resyncs(), 0u);
  EXPECT_LE(rig.escra.app().cpu_allocated(), 16.0);
}

TEST(FaultTest, AgentLeaseExpiryEntersFailStaticUntilContact) {
  LivenessRig rig;
  rig.sim.run_until(seconds(1));
  core::Agent* agent = rig.escra.controller().agent_at(0);
  ASSERT_NE(agent, nullptr);
  EXPECT_FALSE(agent->fail_static());

  rig.net.partition(0, net::kControllerEndpoint);
  // kAgentLease (500 ms) of Controller silence: fail-static.
  rig.sim.run_until(seconds(2));
  EXPECT_TRUE(agent->fail_static());

  rig.net.heal(0, net::kControllerEndpoint);
  // The next heartbeat ack (or any delivered RPC) renews the lease.
  rig.sim.run_until(seconds(3));
  EXPECT_FALSE(agent->fail_static());
}

TEST(FaultTest, ControllerCrashFailsStaticAndResyncRebuilds) {
  LivenessRig rig;
  rig.sim.run_until(seconds(1));
  const std::size_t registered = rig.escra.controller().registered_count();
  ASSERT_EQ(registered, 4u);
  std::vector<double> limits_at_crash;
  for (const cluster::Container* c : rig.containers) {
    limits_at_crash.push_back(c->cpu_cgroup().limit_cores());
  }

  rig.escra.crash();
  EXPECT_TRUE(rig.escra.crashed());
  EXPECT_EQ(rig.escra.controller().registered_count(), 0u);
  rig.sim.run_until(seconds(3));
  // Fail static: cgroup limits survive the Controller untouched, and the
  // orphaned Agents notice the silence.
  for (std::size_t i = 0; i < rig.containers.size(); ++i) {
    EXPECT_DOUBLE_EQ(rig.containers[i]->cpu_cgroup().limit_cores(),
                     limits_at_crash[i]);
  }
  core::Agent* agent = rig.escra.controller().agent_at(0);
  ASSERT_NE(agent, nullptr);
  EXPECT_TRUE(agent->fail_static());

  rig.escra.restart();
  rig.sim.run_until(seconds(4));
  EXPECT_FALSE(rig.escra.crashed());
  EXPECT_EQ(rig.escra.controller().registered_count(), 4u)
      << "resync readopted every agent's snapshot";
  EXPECT_GT(rig.escra.controller().resyncs(), 0u);
  EXPECT_FALSE(agent->fail_static());
  EXPECT_LE(rig.escra.app().cpu_allocated(), 16.0);
  EXPECT_LE(rig.escra.app().mem_allocated(), rig.escra.app().mem_limit());
}

// --- FaultInjector ------------------------------------------------------

struct ReplayFingerprint {
  std::uint64_t injected = 0;
  std::uint64_t cleared = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t resyncs = 0;
  std::vector<double> cpu_limits;

  bool operator==(const ReplayFingerprint& o) const {
    return injected == o.injected && cleared == o.cleared &&
           dropped == o.dropped && duplicated == o.duplicated &&
           retransmits == o.retransmits && resyncs == o.resyncs &&
           cpu_limits == o.cpu_limits;
  }
};

ReplayFingerprint run_random_faults(std::uint64_t seed) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  k8s.add_node({});
  core::EscraSystem escra(sim, net, k8s, 16.0, 8 * kGiB);
  std::vector<cluster::Container*> containers;
  for (int i = 0; i < 4; ++i) {
    containers.push_back(&make_container(k8s, "c" + std::to_string(i)));
    containers.back()->submit(seconds(30), 0, nullptr);
  }
  escra.manage(containers);
  escra.start();

  net.set_fault_rng(sim::Rng(seed ^ 0x5eed));
  fault::FaultInjector injector(sim, net, escra);
  sim::Rng fault_rng(seed);
  injector.schedule_random(fault_rng, seconds(10), {}, /*node_count=*/2);
  sim.run_until(seconds(12));

  ReplayFingerprint fp;
  fp.injected = injector.injected();
  fp.cleared = injector.cleared();
  fp.dropped = net.dropped_messages();
  fp.duplicated = net.duplicated_messages();
  fp.retransmits = escra.controller().retransmits();
  fp.resyncs = escra.controller().resyncs();
  for (const cluster::Container* c : containers) {
    fp.cpu_limits.push_back(c->cpu_cgroup().limit_cores());
  }
  return fp;
}

TEST(FaultTest, RandomScheduleReplaysBitForBit) {
  const ReplayFingerprint a = run_random_faults(42);
  const ReplayFingerprint b = run_random_faults(42);
  EXPECT_TRUE(a == b) << "identical seeds must replay identically";
  EXPECT_EQ(a.cleared, a.injected) << "every window clears before the end";
}

TEST(FaultTest, FaultKindNames) {
  EXPECT_STREQ(fault::fault_kind_name(fault::FaultKind::kPartition),
               "partition");
  EXPECT_STREQ(fault::fault_kind_name(fault::FaultKind::kAgentCrash),
               "agent-crash");
  EXPECT_STREQ(fault::fault_kind_name(fault::FaultKind::kControllerCrash),
               "controller-crash");
  EXPECT_STREQ(fault::fault_kind_name(fault::FaultKind::kRpcDrop), "rpc-drop");
  EXPECT_STREQ(fault::fault_kind_name(fault::FaultKind::kRpcDuplicate),
               "rpc-duplicate");
  EXPECT_STREQ(fault::fault_kind_name(fault::FaultKind::kDelaySpike),
               "delay-spike");
}

// --- the checker stays sound through scripted faults --------------------

TEST(FaultTest, InvariantCheckerStaysGreenThroughFaultScript) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  k8s.add_node({});
  core::EscraSystem escra(sim, net, k8s, 16.0, 8 * kGiB);
  std::vector<cluster::Container*> containers;
  for (int i = 0; i < 4; ++i) {
    containers.push_back(&make_container(k8s, "c" + std::to_string(i)));
    containers.back()->submit(seconds(30), 0, nullptr);
  }
  escra.manage(containers);
  obs::Observer observer;
  escra.attach_observer(observer);
  net.attach_metrics(observer.metrics());
  escra.start();

  net.set_fault_rng(sim::Rng(17));
  check::InvariantChecker checker(escra, net, observer);
  fault::FaultInjector injector(sim, net, escra);
  injector.inject_rpc_drop(net::Channel::kControlRpc, 0.3, seconds(1),
                           seconds(3));
  injector.inject_partition(0, seconds(2), seconds(3));
  injector.inject_agent_crash(1, seconds(6), seconds(1));
  injector.inject_controller_crash(seconds(9), seconds(2));
  sim.run_until(seconds(14));
  checker.check_now();

  EXPECT_EQ(injector.injected(), 4u);
  EXPECT_EQ(injector.cleared(), 4u);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

}  // namespace
}  // namespace escra
