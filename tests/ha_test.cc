// The warm-standby replicated controller (src/ha): WAL replication keeps
// every standby a faithful mirror of the leader's book; a leader kill is
// followed by a staggered election, epoch fencing, and a sub-second
// takeover that replays the WAL tail instead of resyncing the Agents; a
// partitioned (still-alive) leader is deposed and its ghost can never move
// a cgroup again. Plus the satellite contracts: the 48-bit sequence-counter
// wrap guard, exactly-once effect for an OOM grant whose leader died
// mid-flight, and the strict-> lease-boundary determinism shared by the
// Agent watchdog and the standby election timer.
#include "ha/ha_control_plane.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "core/messages.h"
#include "fault/fault_injector.h"
#include "net/network.h"
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

struct HaRig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  core::EscraSystem escra{sim, net, k8s, 16.0, 8 * kGiB};
  obs::Observer observer;
  std::vector<cluster::Container*> containers;
  // Declared last: destroyed first, so the replication hook detaches while
  // the Controller is still alive.
  std::optional<ha::HaControlPlane> ha;

  explicit HaRig(int standbys, ha::HaConfig cfg = {}) {
    k8s.add_node({});
    k8s.add_node({});
    for (int i = 0; i < 4; ++i) {
      containers.push_back(&make_container(k8s, "c" + std::to_string(i)));
    }
    escra.attach_observer(observer);
    escra.manage(containers);
    escra.start();
    cfg.standbys = standbys;
    ha.emplace(escra, net, cfg);
    ha->start();
  }
};

void expect_replica_equals(const ha::ReplicaState& a,
                           const ha::ReplicaState& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.containers.size(), b.containers.size());
  for (const auto& [id, cs] : a.containers) {
    const auto it = b.containers.find(id);
    ASSERT_NE(it, b.containers.end()) << "container " << id;
    EXPECT_DOUBLE_EQ(cs.cores, it->second.cores) << "container " << id;
    EXPECT_EQ(cs.mem, it->second.mem) << "container " << id;
    EXPECT_EQ(cs.node, it->second.node) << "container " << id;
  }
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (const auto& [key, sl] : a.slots) {
    const auto it = b.slots.find(key);
    ASSERT_NE(it, b.slots.end()) << "slot " << key;
    EXPECT_EQ(sl.seq, it->second.seq) << "slot " << key;
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (const auto& [id, ns] : a.nodes) {
    const auto it = b.nodes.find(id);
    ASSERT_NE(it, b.nodes.end()) << "node " << id;
    EXPECT_EQ(ns.agent_incarnation, it->second.agent_incarnation);
    EXPECT_EQ(ns.dead, it->second.dead);
  }
}

// --- WAL replication ----------------------------------------------------

TEST(HaTest, WalStreamMirrorsLeaderBookOnEveryStandby) {
  HaRig rig(2);
  // Land between decision sweeps: every record appended by the last sweep
  // has had >> one RTT to reach the standbys.
  rig.sim.run_until(seconds(2) + milliseconds(17));

  EXPECT_GT(rig.ha->wal_appends(), 0u);
  for (int rank = 0; rank < 2; ++rank) {
    SCOPED_TRACE("standby rank " + std::to_string(rank));
    expect_replica_equals(rig.ha->book(), rig.ha->standby_replica(rank));
  }
}

TEST(HaTest, DeterministicReplayIsAPureFoldOfTheLog) {
  // Folding any record prefix in index order gives the same state no matter
  // who holds it — replay a synthetic log twice, in one pass and split
  // across two ReplicaStates joined by copy.
  ha::WalLog log;
  std::vector<ha::WalRecord> records;
  {
    ha::WalRecord r;
    r.kind = ha::WalKind::kEpochStart;
    r.epoch = 3;
    records.push_back(r);
    r = {};
    r.kind = ha::WalKind::kRegister;
    r.epoch = 3;
    r.container = 7;
    r.node = 1;
    r.cores = 2.0;
    r.mem = 256 * kMiB;
    records.push_back(r);
    r = {};
    r.kind = ha::WalKind::kCpuSlot;
    r.epoch = 3;
    r.container = 7;
    r.seq = core::pack_update_seq(3, 41);
    r.cores = 3.0;
    records.push_back(r);
    r = {};
    r.kind = ha::WalKind::kAckSlot;
    r.epoch = 3;
    r.container = 7;
    r.seq = core::pack_update_seq(3, 41);
    records.push_back(r);
  }
  for (const auto& r : records) log.append(r);

  ha::ReplicaState one_pass;
  for (std::uint64_t i = log.base(); i < log.next_index(); ++i) {
    one_pass.apply(log.at(i));
  }
  ha::ReplicaState prefix;
  prefix.apply(log.at(0));
  prefix.apply(log.at(1));
  ha::ReplicaState resumed = prefix;  // handoff mid-log
  resumed.apply(log.at(2));
  resumed.apply(log.at(3));
  expect_replica_equals(one_pass, resumed);

  EXPECT_EQ(one_pass.epoch, 3u);
  EXPECT_DOUBLE_EQ(one_pass.containers.at(7).cores, 3.0);
  EXPECT_TRUE(one_pass.slots.empty()) << "ack closed the slot";
}

// --- clean failover -----------------------------------------------------

TEST(HaTest, LeaderKillElectsStandbySubSecondWithoutResyncOrFailStatic) {
  HaRig rig(2);
  rig.sim.run_until(seconds(1));
  const std::uint64_t epoch_before = rig.escra.controller().epoch();
  const std::uint64_t resyncs_before = rig.escra.controller().resyncs();
  ASSERT_EQ(rig.escra.controller().registered_count(), 4u);

  rig.sim.schedule_at(seconds(1), [&] { rig.ha->kill_leader(); });
  rig.sim.run_until(seconds(2));

  EXPECT_EQ(rig.ha->failovers(), 1u);
  EXPECT_FALSE(rig.escra.crashed()) << "a standby holds the seat";
  EXPECT_GT(rig.escra.controller().epoch(), epoch_before);
  EXPECT_EQ(rig.ha->epoch(), rig.escra.controller().epoch());
  EXPECT_EQ(rig.ha->standby_count(), 2) << "the pool replenished itself";

  // Takeover rebuilt the registry from the replica — zero resync
  // round-trips — and beat the Agents' 500 ms lease watchdog.
  EXPECT_EQ(rig.escra.controller().registered_count(), 4u);
  EXPECT_EQ(rig.escra.controller().resyncs(), resyncs_before);
  for (cluster::NodeId n = 0; n < 2; ++n) {
    core::Agent* agent = rig.escra.controller().agent_at(n);
    ASSERT_NE(agent, nullptr);
    EXPECT_FALSE(agent->fail_static()) << "node " << n;
    EXPECT_EQ(agent->fenced_epoch(), rig.ha->epoch()) << "node " << n;
  }

  // Sub-second takeover, visible in the trace.
  EXPECT_EQ(rig.observer.h.ha_elections->value(), 1u);
  const obs::TraceBuffer& trace = rig.observer.trace();
  sim::TimePoint elected = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.at(i).kind == obs::EventKind::kLeaderElected) {
      elected = trace.at(i).time;
      break;
    }
  }
  ASSERT_GT(elected, seconds(1));
  EXPECT_LT(elected, seconds(1) + seconds(1)) << "takeover within 1 s";
}

TEST(HaTest, FailoverScheduleIsByteIdenticalAcrossRuns) {
  auto run = [] {
    HaRig rig(2);
    rig.sim.schedule_at(seconds(1), [&] { rig.ha->kill_leader(); });
    rig.sim.run_until(seconds(3));
    std::vector<std::uint64_t> fingerprint;
    const obs::TraceBuffer& trace = rig.observer.trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const obs::TraceEvent& ev = trace.at(i);
      fingerprint.push_back(static_cast<std::uint64_t>(ev.time));
      fingerprint.push_back(static_cast<std::uint64_t>(ev.kind));
      fingerprint.push_back(ev.container);
      fingerprint.push_back(static_cast<std::uint64_t>(ev.detail));
    }
    fingerprint.push_back(rig.ha->epoch());
    fingerprint.push_back(rig.ha->wal_appends());
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

// --- epoch fencing / split brain ----------------------------------------

TEST(HaTest, DeposedLeaderIsFencedAndCanNeverMoveACgroup) {
  HaRig rig(1);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  rig.sim.run_until(seconds(1));
  const std::uint64_t old_epoch = rig.escra.controller().epoch();

  // Partition the leader from its standby only — the Agents still hear
  // both sides. The standby must conclude the leader is dead (it cannot
  // distinguish silence from death), depose it, and fence its epoch.
  rig.net.partition(net::kControllerEndpoint, net::standby_endpoint(0));
  rig.sim.run_until(seconds(1) + milliseconds(400));

  EXPECT_EQ(rig.ha->failovers(), 1u);
  EXPECT_GT(rig.ha->epoch(), old_epoch);
  EXPECT_TRUE(rig.ha->ghost_active())
      << "the old leader was alive: it lives on briefly as a ghost";

  // The fence broadcast reached every Agent; any old-epoch update — even
  // one whose raw sequence would beat the per-resource stale check — is
  // discarded without touching the cgroup.
  for (cluster::NodeId n = 0; n < 2; ++n) {
    core::Agent* agent = rig.escra.controller().agent_at(n);
    ASSERT_NE(agent, nullptr);
    EXPECT_EQ(agent->fenced_epoch(), rig.ha->epoch()) << "node " << n;
  }
  cluster::Container* victim = rig.containers[0];
  const cluster::Node* home = rig.k8s.node_of(victim->id());
  ASSERT_NE(home, nullptr);
  core::Agent* agent = rig.escra.controller().agent_at(home->id());
  const double limit_before = victim->cpu_cgroup().limit_cores();
  EXPECT_EQ(agent->apply_limit(
                victim->id(), core::Resource::kCpu, 99.0,
                core::pack_update_seq(old_epoch, core::kUpdateSeqMask - 1)),
            core::Agent::Apply::kFenced);
  EXPECT_DOUBLE_EQ(victim->cpu_cgroup().limit_cores(), limit_before);

  // The ghost abdicates within kGhostAbdicate (500 ms) and the cluster
  // stays coherent throughout: no split-brain, monotonic epochs.
  rig.sim.run_until(seconds(2) + milliseconds(200));
  EXPECT_FALSE(rig.ha->ghost_active());
  checker.check_now();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(HaTest, LeaderChurnUnderInjectedFaultsKeepsInvariantsGreen) {
  HaRig rig(2);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  rig.net.set_fault_rng(sim::Rng(23));
  fault::FaultInjector injector(rig.sim, rig.net, rig.escra);
  injector.inject_rpc_drop(net::Channel::kHaReplication, 0.2, seconds(1),
                           seconds(4));
  rig.sim.schedule_at(seconds(2), [&] { rig.ha->kill_leader(); });
  rig.sim.schedule_at(seconds(4), [&] { rig.ha->kill_leader(); });
  rig.sim.run_until(seconds(6));

  EXPECT_EQ(rig.ha->failovers(), 2u);
  EXPECT_EQ(rig.ha->standby_count(), 2);
  EXPECT_FALSE(rig.escra.crashed());
  checker.check_now();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- satellite: OOM-grant slot replay is exactly-once -------------------

TEST(HaTest, OomGrantSurvivesLeaderDeathWithExactlyOnceEffect) {
  HaRig rig(1);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  rig.sim.run_until(seconds(1));

  cluster::Container* victim = rig.containers[0];
  bool granted = false;
  memcg::Bytes shadow_after_grant = 0;
  rig.sim.schedule_at(seconds(1) + milliseconds(3), [&] {
    // The grant opens a desired-state memory slot and streams its WAL
    // record; the leader dies in the same instant — before the Agent's
    // apply, long before the ack. The standby's replica holds the open
    // slot, so takeover replays it under the new epoch.
    granted = rig.escra.controller().handle_oom(*victim, 32 * kMiB,
                                                32 * kMiB);
    shadow_after_grant = rig.ha->book().containers.at(victim->id()).mem;
    rig.ha->kill_leader();
  });
  rig.sim.run_until(seconds(3));

  EXPECT_TRUE(granted);
  EXPECT_EQ(rig.ha->failovers(), 1u);
  // Exactly-once effect: the kernel limit landed on the granted value (the
  // replayed update is idempotent — same absolute limit, fresh sequence),
  // the leader book agrees with the kernel, and the slot is closed.
  EXPECT_EQ(victim->mem_cgroup().limit(), shadow_after_grant);
  EXPECT_EQ(rig.ha->book().containers.at(victim->id()).mem,
            shadow_after_grant);
  EXPECT_TRUE(rig.ha->book().slots.empty())
      << "the replayed slot was acked under the new epoch";
  checker.check_now();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- satellite: 48-bit sequence-counter wrap guard ----------------------

TEST(HaTest, SeqCounterWrapRollsEpochInsteadOfCorruptingOrder) {
  HaRig rig(1);
  rig.sim.run_until(seconds(1));
  const std::uint64_t epoch_before = rig.escra.controller().epoch();
  // Plant the per-epoch counter at 2^48 - 1; the very next limit update
  // must roll the epoch rather than let the counter overflow into the
  // epoch field (which would make newer updates compare *lower*). Force
  // sequenced updates across the boundary with a pair of OOM grants.
  rig.escra.controller().set_update_seq_for_test(core::kUpdateSeqMask);
  bool granted = false;
  rig.sim.schedule_at(seconds(1) + milliseconds(10), [&] {
    granted = rig.escra.controller().handle_oom(*rig.containers[0],
                                                16 * kMiB, 16 * kMiB);
    rig.escra.controller().handle_oom(*rig.containers[1], 16 * kMiB,
                                      16 * kMiB);
  });
  rig.sim.run_until(seconds(3));

  EXPECT_TRUE(granted);
  EXPECT_GT(rig.escra.controller().epoch(), epoch_before);
  // The system keeps functioning across the roll: updates still land.
  EXPECT_EQ(rig.escra.controller().registered_count(), 4u);
  for (cluster::NodeId n = 0; n < 2; ++n) {
    core::Agent* agent = rig.escra.controller().agent_at(n);
    ASSERT_NE(agent, nullptr);
    EXPECT_FALSE(agent->fail_static());
  }
}

// --- satellite: strict-> lease boundary ---------------------------------

TEST(HaTest, AgentLeaseContactAtExactExpiryInstantHoldsTheLease) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  cluster::Node& node = k8s.add_node({});
  cluster::Container& c = make_container(k8s, "a");
  core::Agent agent(node);
  agent.manage(c);
  agent.connect(sim, net, nullptr);
  // Heartbeat (and piggybacked watchdog) every 50 ms, lease 100 ms. The
  // last contact lands at t=50 ms, so the watchdog tick at t=150 ms sees
  // silence of exactly one lease — the boundary contract is strict >, so
  // the lease HOLDS; only the 200 ms tick (150 ms of silence) trips it.
  agent.start(milliseconds(50), milliseconds(100));
  sim.schedule_at(milliseconds(50), [&] { agent.note_controller_contact(); });

  sim.run_until(milliseconds(160));
  EXPECT_FALSE(agent.fail_static())
      << "contact at exactly lease expiry must hold the lease";
  sim.run_until(milliseconds(210));
  EXPECT_TRUE(agent.fail_static())
      << "strictly longer silence trips fail-static";
}

TEST(HaTest, StandbyElectionInstantIsIdenticalAcrossRuns) {
  // The standby watchdog uses the same strict-> boundary; with identical
  // seeds the election fires at the same simulated microsecond every time.
  auto elected_at = [] {
    HaRig rig(2);
    rig.sim.schedule_at(seconds(1), [&] { rig.ha->kill_leader(); });
    rig.sim.run_until(seconds(2));
    const obs::TraceBuffer& trace = rig.observer.trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace.at(i).kind == obs::EventKind::kLeaderElected) {
        return trace.at(i).time;
      }
    }
    return sim::TimePoint{0};
  };
  const sim::TimePoint first = elected_at();
  ASSERT_GT(first, seconds(1));
  EXPECT_LE(first, seconds(1) + milliseconds(400))
      << "lease timeout 200 ms + watchdog grid: well under a second";
  EXPECT_EQ(first, elected_at());
}

}  // namespace
}  // namespace escra
