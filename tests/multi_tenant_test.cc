// Multi-tenant isolation (Section VII): several Distributed Containers
// sharing worker nodes, each confined to its own aggregate limits at
// runtime. A misbehaving tenant must not be able to take CPU or memory
// beyond its budget, no matter how hard it bursts.
#include <gtest/gtest.h>

#include "adv/greedy.h"
#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "exp/fairness.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/histogram.h"
#include "sim/rng.h"

namespace escra {
namespace {

using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

struct TwoTenantRig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  std::vector<cluster::Container*> a_containers;
  std::vector<cluster::Container*> b_containers;
  std::unique_ptr<core::EscraSystem> tenant_a;
  std::unique_ptr<core::EscraSystem> tenant_b;

  TwoTenantRig(double a_cpu, double b_cpu) {
    for (int i = 0; i < 2; ++i) k8s.add_node({.cores = 16.0});
    cluster::ContainerSpec spec;
    spec.base_memory = 96 * kMiB;
    spec.max_parallelism = 8.0;
    for (int i = 0; i < 2; ++i) {
      spec.name = "a" + std::to_string(i);
      a_containers.push_back(&k8s.create_container(spec, 1.0, 512 * kMiB));
      spec.name = "b" + std::to_string(i);
      b_containers.push_back(&k8s.create_container(spec, 1.0, 512 * kMiB));
    }
    tenant_a = std::make_unique<core::EscraSystem>(sim, net, k8s, a_cpu, 2 * kGiB);
    tenant_a->manage(a_containers);
    tenant_a->start();
    tenant_b = std::make_unique<core::EscraSystem>(sim, net, k8s, b_cpu, 1 * kGiB);
    tenant_b->manage(b_containers);
    tenant_b->start();
  }
};

TEST(MultiTenantTest, RunawayTenantCappedAtItsGlobalLimit) {
  TwoTenantRig rig(/*a_cpu=*/6.0, /*b_cpu=*/4.0);
  // Tenant B wants far more than 4 cores.
  rig.sim.schedule_every(milliseconds(20), milliseconds(20), [&] {
    for (cluster::Container* c : rig.b_containers) {
      c->submit(milliseconds(200), 0, nullptr);  // ~10 cores per container
    }
  });
  sim::SampleSet b_usage;
  std::vector<sim::Duration> prev(rig.b_containers.size(), 0);
  rig.sim.schedule_every(seconds(1), seconds(1), [&] {
    double used = 0.0;
    for (std::size_t i = 0; i < rig.b_containers.size(); ++i) {
      const auto consumed = rig.b_containers[i]->cpu_cgroup().total_consumed();
      used += static_cast<double>(consumed - prev[i]) / 1e6;
      prev[i] = consumed;
    }
    if (rig.sim.now() > seconds(5)) b_usage.add(used);
  });
  rig.sim.run_until(seconds(30));
  // Even saturated, tenant B's aggregate usage stays at/below its 4-core
  // budget (within one CFS period of slop).
  EXPECT_LE(b_usage.max(), 4.3);
  EXPECT_GT(b_usage.percentile(50), 3.0) << "B does get its own budget";
  EXPECT_LE(rig.tenant_b->app().cpu_allocated(), 4.0 + 1e-6);
}

TEST(MultiTenantTest, NeighbourUnaffectedByStorm) {
  TwoTenantRig rig(6.0, 4.0);
  // Tenant A: steady flow whose latency we track.
  sim::Histogram latency;
  rig.sim.schedule_every(milliseconds(10), milliseconds(10), [&] {
    const sim::TimePoint t0 = rig.sim.now();
    rig.a_containers[0]->submit(milliseconds(4), kMiB, [&, t0](bool ok) {
      if (ok) latency.record(std::max<sim::TimePoint>(1, rig.sim.now() - t0));
    });
  });
  // Quiet first half, tenant-B storm in the second half.
  rig.sim.schedule_at(seconds(15), [&] {
    rig.sim.schedule_every(rig.sim.now() + milliseconds(20), milliseconds(20),
                           [&] {
      for (cluster::Container* c : rig.b_containers) {
        c->submit(milliseconds(200), 2 * kMiB, nullptr);
      }
    });
  });
  rig.sim.run_until(seconds(15));
  const auto quiet_p99 = latency.percentile(99);
  latency.reset();
  rig.sim.run_until(seconds(30));
  const auto storm_p99 = latency.percentile(99);
  // 16+16 cores of hardware, 6+4 of budgets: the storm is absorbed inside
  // B's cap, so A's tail moves by at most a small factor.
  EXPECT_LT(static_cast<double>(storm_p99),
            2.0 * static_cast<double>(quiet_p99) + 20000.0);
}

TEST(MultiTenantTest, MemoryIsolationAcrossTenants) {
  TwoTenantRig rig(6.0, 4.0);
  // Tenant B's hog grows until its own pool is exhausted.
  rig.sim.schedule_every(milliseconds(500), milliseconds(500), [&] {
    rig.b_containers[0]->adjust_resident(24 * kMiB);
  });
  rig.sim.run_until(seconds(40));
  // B's hog eventually dies against B's 1 GiB budget...
  EXPECT_GE(rig.b_containers[0]->oom_kill_count(), 1u);
  // ...while tenant A's containers and pool are untouched.
  for (const cluster::Container* c : rig.a_containers) {
    EXPECT_EQ(c->oom_kill_count(), 0u);
  }
  EXPECT_LE(rig.tenant_b->app().mem_allocated(),
            rig.tenant_b->app().mem_limit());
  EXPECT_LE(rig.tenant_a->app().mem_allocated(),
            rig.tenant_a->app().mem_limit());
}

TEST(MultiTenantTest, BudgetsCanOversubscribeHardware) {
  // Limits are not reservations: tenants' budgets may sum past the node
  // capacity, and the node scheduler arbitrates actual contention.
  TwoTenantRig rig(/*a_cpu=*/24.0, /*b_cpu=*/24.0);  // 48 > 32 cores
  for (auto* tenants : {&rig.a_containers, &rig.b_containers}) {
    for (cluster::Container* c : *tenants) {
      rig.sim.schedule_every(milliseconds(20), milliseconds(20), [c] {
        c->submit(milliseconds(300), 0, nullptr);
      });
    }
  }
  rig.sim.run_until(seconds(20));
  double total_used = 0.0;
  for (const cluster::Container* c : rig.k8s.containers()) {
    total_used += sim::to_seconds(c->cpu_cgroup().total_consumed());
  }
  // The hardware (2 x 16 cores x 20 s = 640 core-s) is the binding limit;
  // both tenants share it without either being starved.
  EXPECT_GT(total_used, 500.0);
  EXPECT_LE(total_used, 645.0);
}

// --- lying tenants vs the honest floor (src/adv + the credit defense) ---

// One pool, four members, one of them adversarial. Honest members run a
// steady genuine load; the liar forges its telemetry stream.
struct GreedyRig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  obs::Observer observer;
  std::vector<cluster::Container*> containers;
  core::EscraSystem escra;
  workload::GreedyTenant liar;
  exp::FairnessMeter meter;

  explicit GreedyRig(bool defense,
                     workload::GreedyProfile profile = {})
      : escra(sim, net, k8s, 8.0, 4 * kGiB,
              [defense] {
                core::EscraConfig cfg;
                cfg.credit_defense = defense;
                return cfg;
              }()),
        liar(sim, escra.controller(), profile, sim::Rng(0xadf00d)),
        meter(sim, escra.app()) {
    for (int i = 0; i < 2; ++i) k8s.add_node({.cores = 16.0});
    cluster::ContainerSpec spec;
    spec.base_memory = 96 * kMiB;
    spec.max_parallelism = 8.0;
    for (int i = 0; i < 4; ++i) {
      spec.name = "c" + std::to_string(i);
      containers.push_back(&k8s.create_container(spec, 1.0, 512 * kMiB));
    }
    escra.attach_observer(observer);
    escra.manage(containers);
    escra.start();
    // Container 0 is the liar; 1..3 run a genuine ~1.2-core load.
    liar.attach(*containers[0]);
    for (int i = 1; i < 4; ++i) {
      cluster::Container* c = containers[i];
      sim.schedule_every(milliseconds(50) + milliseconds(i),
                         milliseconds(50),
                         [c] { c->submit(milliseconds(60), 0, nullptr); });
      meter.track(c->id(), /*greedy=*/false);
    }
    meter.track(containers[0]->id(), /*greedy=*/true);
    liar.start(milliseconds(100));
    meter.start(seconds(5));  // skip the cold-start transient
  }
};

TEST(AdversarialTenantTest, InflatedUsageCapturesPoolWithoutDefense) {
  GreedyRig rig(/*defense=*/false);
  rig.sim.run_until(seconds(60));
  const exp::FairnessReport r = rig.meter.report();
  // Fair share is 2 cores. Pure telemetry forgery — zero real work — walks
  // the liar's limit to at least twice that, and long-term fairness
  // collapses.
  EXPECT_GT(rig.liar.lies_told(), 0u);
  EXPECT_GE(r.greedy_capture, 2.0)
      << "greedy mean " << r.greedy_mean_cores << " cores";
  EXPECT_LT(r.jain_long_term, 0.85);
}

TEST(AdversarialTenantTest, CreditDefenseDecaysLiarToFairShare) {
  GreedyRig rig(/*defense=*/true);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  checker.attach_credits(rig.escra.controller().credits());
  rig.sim.run_until(seconds(60));
  const exp::FairnessReport r = rig.meter.report();
  const double fair = rig.escra.app().cpu_limit() / 4.0;
  // The liar still lies every period, but the ledger bleeds it dry and the
  // settle sweep decays it back to (about) its static fair share...
  EXPECT_GT(rig.liar.lies_told(), 0u);
  EXPECT_GT(rig.observer.h.credit_charges->value(), 0u);
  EXPECT_GT(rig.observer.h.greedy_throttles->value(), 0u);
  EXPECT_LE(rig.escra.controller().credits().balance_micro(
                rig.containers[0]->id()),
            0);
  EXPECT_LT(r.greedy_capture, 1.35);
  // ...while honest members keep what they genuinely use (~1.2 cores) and
  // long-term fairness holds.
  EXPECT_GE(r.honest_mean_cores, 1.0);
  EXPECT_GE(r.jain_long_term, 0.90);
  EXPECT_TRUE(checker.ok()) << checker.report();
  // The liar holds no more than fair share plus the settle tolerance band.
  EXPECT_LE(rig.escra.app().member_cores(rig.containers[0]->id()),
            fair * (1.0 + core::kCreditTolerance) + 0.35);
}

TEST(AdversarialTenantTest, PhantomOomFarmingIsChargedAndGated) {
  workload::GreedyProfile profile;
  profile.strategy = workload::GreedyStrategy::kPhantomOom;
  GreedyRig rig(/*defense=*/true, profile);
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  checker.attach_credits(rig.escra.controller().credits());
  rig.sim.run_until(seconds(60));
  // The farm is priced, not free: limit growth above the memory fair share
  // pays an entry fee at grant time and rent at every settle sweep. And it
  // does not compound — the farmer never touches the farmed bytes, so the
  // κ reclaim loop keeps clawing the hoard back toward real usage.
  EXPECT_GT(rig.liar.phantom_ooms(), 0u);
  EXPECT_GT(rig.liar.phantom_grants(), 0u);
  EXPECT_GT(rig.observer.h.credit_charges->value(), 0u);
  const double fair_mem =
      static_cast<double>(rig.escra.app().mem_limit()) / 4.0;
  EXPECT_LE(static_cast<double>(
                rig.escra.app().member_mem(rig.containers[0]->id())),
            1.5 * fair_mem)
      << "phantom farm must not keep compounding past fair share";
  EXPECT_LE(rig.escra.app().mem_allocated(), rig.escra.app().mem_limit());
  // The honest members never paid for the fabricated pressure with a kill.
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(rig.containers[i]->oom_kill_count(), 0u);
  }
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(AdversarialTenantTest, ColludersCannotLaunderThroughRotation) {
  workload::GreedyProfile profile;
  profile.strategy = workload::GreedyStrategy::kColluding;
  profile.rotate_interval = seconds(2);
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  obs::Observer observer;
  core::EscraConfig cfg;
  cfg.credit_defense = true;
  core::EscraSystem escra{sim, net, k8s, 8.0, 4 * kGiB, cfg};
  for (int i = 0; i < 2; ++i) k8s.add_node({.cores = 16.0});
  cluster::ContainerSpec spec;
  spec.base_memory = 96 * kMiB;
  spec.max_parallelism = 8.0;
  std::vector<cluster::Container*> containers;
  for (int i = 0; i < 4; ++i) {
    spec.name = "c" + std::to_string(i);
    containers.push_back(&k8s.create_container(spec, 1.0, 512 * kMiB));
  }
  escra.attach_observer(observer);
  escra.manage(containers);
  escra.start();
  // The whole pool colludes: one rotating liar, the rest earning credits
  // while idle — trying to bankroll whoever currently lies.
  workload::GreedyTenant ring{sim, escra.controller(), profile,
                              sim::Rng(0xc0110de)};
  for (cluster::Container* c : containers) ring.attach(*c);
  exp::FairnessMeter meter{sim, escra.app()};
  for (cluster::Container* c : containers) meter.track(c->id(), true);
  ring.start(milliseconds(100));
  meter.start(seconds(5));
  check::InvariantChecker checker(escra, net, observer);
  checker.attach_credits(escra.controller().credits());
  sim.run_until(seconds(60));
  // Rotation does not help: each liar-in-turn pays for its own window, and
  // nobody's *allocation* can exceed fair share for long once its own
  // balance drains, so the pool's long-term split stays near-even.
  const exp::FairnessReport r = meter.report();
  EXPECT_GT(ring.lies_told(), 0u);
  EXPECT_GE(r.jain_long_term, 0.85);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

}  // namespace
}  // namespace escra
