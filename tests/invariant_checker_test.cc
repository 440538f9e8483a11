// InvariantChecker integration tests: a clean run reports no violations, a
// planted over-commit or bogus decision event is caught with the right rule
// name, and attachment/detachment honours the obs hook contract.
#include "check/invariant_checker.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/benchmarks.h"
#include "check/shard_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "create_app.h"
#include "net/network.h"
#include "obs/observer.h"
#include "shard/sharded_control_plane.h"
#include "sim/rng.h"
#include "workload/load_generator.h"

namespace escra::check {
namespace {

using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

struct Rig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  obs::Observer observer;
  std::unique_ptr<app::Application> application;
  std::unique_ptr<core::EscraSystem> escra;

  explicit Rig(bool attach = true) {
    for (int i = 0; i < 3; ++i) k8s.add_node({});
    application = std::make_unique<app::Application>(
        k8s, app::make_teastore(), sim::Rng(7), 1.0, 512 * kMiB);
    escra = std::make_unique<core::EscraSystem>(sim, net, k8s, 12.0, 8 * kGiB);
    if (attach) escra->attach_observer(observer);
    escra->manage(application->containers());
    escra->start();
  }

  void drive(workload::LoadGenerator& gen, sim::TimePoint until) {
    gen.run(seconds(1), until - seconds(2));
    sim.run_until(until);
  }
};

bool has_rule(const InvariantChecker& checker, const std::string& rule) {
  for (const Violation& v : checker.violations()) {
    if (v.rule == rule) return true;
  }
  return false;
}

bool has_rule(const ShardInvariantChecker& checker, const std::string& rule) {
  for (const Violation& v : checker.violations()) {
    if (v.rule == rule) return true;
  }
  return false;
}

// Minimal sharded rig for the cross-shard conservation rules.
struct ShardRig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  std::optional<shard::ShardedControlPlane> plane;

  ShardRig() {
    for (int i = 0; i < 2; ++i) k8s.add_node({});
    shard::ShardPlaneConfig pcfg;
    pcfg.shards = 2;
    plane.emplace(sim, net, k8s, 8.0, memcg::Bytes{4} * kGiB, pcfg);
    for (int a = 0; a < 4; ++a) {
      const std::string name = "app" + std::to_string(a);
      plane->manage(name, create_app(k8s, name, 2));
    }
    plane->start();
  }
};

TEST(InvariantCheckerTest, CleanRunHasNoViolations) {
  Rig rig;
  InvariantChecker checker(*rig.escra, rig.net, rig.observer);
  workload::LoadGenerator gen(
      rig.sim, std::make_unique<workload::ExpArrivals>(200.0, sim::Rng(3)),
      [&](workload::LoadGenerator::Done done) {
        rig.application->submit_request(std::move(done));
      });
  rig.drive(gen, seconds(10));
  checker.check_now();
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.events_checked(), 0u);
  EXPECT_GT(checker.sweeps(), 50u);  // one per 100 ms CFS period
  EXPECT_EQ(checker.report().rfind("invariants ok", 0), 0u);
}

TEST(InvariantCheckerTest, RequiresAttachedObserver) {
  Rig rig(/*attach=*/false);
  EXPECT_THROW(InvariantChecker(*rig.escra, rig.net, rig.observer),
               std::invalid_argument);
}

TEST(InvariantCheckerTest, CatchesPlantedCpuOverCommit) {
  Rig rig;
  InvariantChecker checker(*rig.escra, rig.net, rig.observer);
  // Write a limit straight into a cgroup, bypassing the allocator — the
  // over-commit Escra must never produce. Planted mid-period so the next
  // boundary sweep sees it before any corrective RPC.
  rig.sim.schedule_at(seconds(2) + milliseconds(50), [&] {
    cluster::Container* victim = rig.k8s.containers().front();
    victim->cpu_cgroup().set_limit_cores(rig.escra->app().cpu_limit() * 2.0);
  });
  rig.sim.run_until(seconds(3));
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(has_rule(checker, "cpu-conservation")) << checker.report();
}

TEST(InvariantCheckerTest, CounterDriftIsReportedPerRowInOrder) {
  Rig rig;
  rig.sim.run_until(seconds(1));
  InvariantChecker checker(*rig.escra, rig.net, rig.observer);
  // Counters that advance with no matching trace events: the first and the
  // last row, plus the two rows whose trace side is not an event count.
  const obs::Observer::Handles& h = rig.observer.h;
  h.deadline_misses->inc(2);
  h.fail_static_entries->inc();
  h.reclaim_bytes->inc(4096);
  h.cpu_grants->inc();
  checker.check_now();
  std::vector<std::string> details;
  for (const Violation& v : checker.violations()) {
    if (v.rule == "counter-consistency") details.push_back(v.detail);
  }
  const std::vector<std::string> expected = {
      "allocator.cpu_grants vs cpu-grant events: counter advanced 1, trace "
      "saw 0",
      "reclaim.bytes_total vs reclaim event details: counter advanced 4096, "
      "trace saw 0",
      "agent.fail_static_entries vs fail-static enter events: counter "
      "advanced 1, trace saw 0",
      "cfs.deadline_misses vs deadline-miss events: counter advanced 2, "
      "trace saw 0",
  };
  EXPECT_EQ(details, expected) << checker.report();
}

TEST(InvariantCheckerTest, CatchesUndersizedOomGrant) {
  Rig rig;
  rig.sim.run_until(seconds(1));
  InvariantChecker checker(*rig.escra, rig.net, rig.observer);
  // A grant smaller than the reported shortfall means the retried charge
  // still overflows: the exact "post-grant OOM kill" the rule exists for.
  obs::TraceEvent ev;
  ev.time = rig.sim.now();
  ev.kind = obs::EventKind::kMemGrantOnOom;
  ev.container = 42;
  ev.before = 100.0 * kMiB;
  ev.after = 101.0 * kMiB;
  ev.detail = 8 * kMiB;
  rig.observer.record(ev);
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(has_rule(checker, "mem-grant-covers")) << checker.report();
}

TEST(InvariantCheckerTest, CatchesStaleEventTime) {
  Rig rig;
  rig.sim.run_until(seconds(1));
  InvariantChecker checker(*rig.escra, rig.net, rig.observer);
  obs::TraceEvent ev;
  ev.time = rig.sim.now() - milliseconds(10);
  ev.kind = obs::EventKind::kThrottleObserved;
  ev.container = 1;
  rig.observer.record(ev);
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(has_rule(checker, "trace-time-monotonic")) << checker.report();
}

TEST(InvariantCheckerTest, DetachesOnDestruction) {
  Rig rig;
  {
    InvariantChecker checker(*rig.escra, rig.net, rig.observer);
    rig.sim.run_until(seconds(1));
  }
  // Hook removed, sweep cancelled: the system keeps running and recording
  // without a live checker.
  rig.sim.run_until(seconds(2));
  obs::TraceEvent ev;
  ev.time = rig.sim.now();
  ev.kind = obs::EventKind::kThrottleObserved;
  rig.observer.record(ev);  // would crash or mis-count with a stale hook
  SUCCEED();
}

TEST(InvariantCheckerTest, PlantedViolationReplaysIdentically) {
  const auto run = [] {
    Rig rig;
    InvariantChecker checker(*rig.escra, rig.net, rig.observer);
    workload::LoadGenerator gen(
        rig.sim, std::make_unique<workload::ExpArrivals>(150.0, sim::Rng(9)),
        [&](workload::LoadGenerator::Done done) {
          rig.application->submit_request(std::move(done));
        });
    rig.sim.schedule_at(seconds(2) + milliseconds(50), [&] {
      rig.k8s.containers().front()->cpu_cgroup().set_limit_cores(40.0);
    });
    rig.drive(gen, seconds(4));
    checker.check_now();
    return checker.report();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.rfind("invariants ok", 0), 0u);
  EXPECT_EQ(first, second);
}

// --- cross-shard conservation ---------------------------------------------

TEST(ShardInvariantCheckerTest, CleanShardedRunHasNoViolations) {
  ShardRig rig;
  ShardInvariantChecker checker(*rig.plane);
  rig.sim.run_until(seconds(3));
  EXPECT_GT(checker.sweeps(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(checker.report(), "ok");
}

TEST(ShardInvariantCheckerTest, CatchesUnledgeredSliceShrink) {
  ShardRig rig;
  ShardInvariantChecker checker(*rig.plane);
  rig.sim.run_until(seconds(1));
  // Shrink shard 0's memory slice without the borrow ledger knowing — the
  // bytes vanish from the cluster pool. Eq. 2 withholds sigma = 20%, so one
  // MiB is safely above the slice's allocated sum.
  core::DistributedContainer& app = rig.plane->shard(0).app();
  app.set_mem_limit(app.mem_limit() - memcg::Bytes{1} * kMiB);
  checker.check_now();
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(has_rule(checker, "shard-mem-conservation")) << checker.report();
}

TEST(ShardInvariantCheckerTest, CatchesUnledgeredCpuRaise) {
  ShardRig rig;
  ShardInvariantChecker checker(*rig.plane);
  rig.sim.run_until(seconds(1));
  // A conjured core: shard 1's slice grows with no matching shrink or
  // in-flight transfer anywhere.
  core::DistributedContainer& app = rig.plane->shard(1).app();
  app.set_cpu_limit(app.cpu_limit() + 1.0);
  checker.check_now();
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(has_rule(checker, "shard-cpu-conservation")) << checker.report();
}

}  // namespace
}  // namespace escra::check
