#include <gtest/gtest.h>

#include "baselines/autopilot.h"
#include "baselines/decaying_histogram.h"
#include "baselines/firm.h"
#include "baselines/static_policy.h"
#include "baselines/vpa.h"
#include "cluster/cluster.h"

namespace escra::baselines {
namespace {

using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

// --------------------------------------------------------- DecayingHistogram

TEST(DecayingHistogramTest, EmptyIsZero) {
  DecayingHistogram h(10.0, 100, 60.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 0.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
}

TEST(DecayingHistogramTest, PercentileOfUniformSamples) {
  DecayingHistogram h(10.0, 100, 1e9);  // effectively no decay
  for (int i = 1; i <= 100; ++i) h.add(0.0, static_cast<double>(i) / 10.0);
  EXPECT_NEAR(h.percentile(50), 5.0, 0.2);
  EXPECT_NEAR(h.percentile(95), 9.5, 0.2);
  EXPECT_NEAR(h.percentile(100), 10.0, 0.2);
}

TEST(DecayingHistogramTest, RecentSamplesDominateAfterDecay) {
  DecayingHistogram h(10.0, 100, /*half_life=*/10.0);
  // Old high usage...
  for (int i = 0; i < 100; ++i) h.add(0.0, 9.0);
  // ...then a long quiet stretch of low usage.
  for (int t = 1; t <= 100; ++t) h.add(static_cast<double>(t), 1.0);
  // After 10 half-lives the old peak carries ~2^-10 of its weight.
  EXPECT_LT(h.percentile(95), 2.0);
}

TEST(DecayingHistogramTest, PeakSurvivesModerateDecay) {
  DecayingHistogram h(10.0, 100, /*half_life=*/300.0);
  h.add(0.0, 8.0);
  for (int t = 1; t <= 60; ++t) h.add(static_cast<double>(t), 1.0);
  // Max percentile still reports the old peak's bucket.
  EXPECT_GT(h.percentile(100), 7.9);
}

TEST(DecayingHistogramTest, RenormalizationPreservesPercentiles) {
  DecayingHistogram h(10.0, 100, /*half_life=*/1.0);
  // Enough time span to force many renormalizations (2^t/1 growth).
  for (int t = 0; t < 500; ++t) h.add(static_cast<double>(t), 5.0);
  EXPECT_NEAR(h.percentile(50), 5.0, 0.2);
}

TEST(DecayingHistogramTest, ClampsToRange) {
  DecayingHistogram h(10.0, 100, 60.0);
  h.add(0.0, -5.0);
  h.add(0.0, 50.0);
  EXPECT_LE(h.percentile(100), 10.0);
  EXPECT_GE(h.percentile(0), 0.0);
}

TEST(DecayingHistogramTest, InvalidConstructionThrows) {
  EXPECT_THROW(DecayingHistogram(0.0, 10, 1.0), std::invalid_argument);
  EXPECT_THROW(DecayingHistogram(1.0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(DecayingHistogram(1.0, 10, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------- test rig

struct Rig {
  sim::Simulation sim;
  cluster::Cluster k8s{sim};
  cluster::Node& node = k8s.add_node({});

  cluster::Container& make(const std::string& name,
                           memcg::Bytes base = 64 * kMiB) {
    cluster::ContainerSpec s;
    s.name = name;
    s.base_memory = base;
    s.max_parallelism = 4.0;
    return k8s.create_container(std::move(s), 2.0, 512 * kMiB);
  }
};

// ---------------------------------------------------------------- Static

TEST(StaticPolicyTest, AppliesMultipliedProfile) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  StaticPolicy policy({&c}, {{2.0, 200 * kMiB}}, 1.5);
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 3.0);
  EXPECT_EQ(c.mem_cgroup().limit(), 300 * kMiB);
  EXPECT_EQ(policy.name(), "static-1.500000x");
}

TEST(StaticPolicyTest, ValidatesInputs) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  EXPECT_THROW(StaticPolicy({&c}, {}, 1.5), std::invalid_argument);
  EXPECT_THROW(StaticPolicy({&c}, {{1.0, kMiB}}, 0.0), std::invalid_argument);
}

TEST(StaticPolicyTest, NeverChangesLimitsAfterStart) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  StaticPolicy policy({&c}, {{0.5, 128 * kMiB}}, 1.0);
  policy.start();
  c.submit(seconds(30), 0, nullptr);  // one lane of demand vs a 0.5 limit
  rig.sim.run_until(seconds(5));
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 0.5);
  EXPECT_GT(c.cpu_cgroup().throttle_count(), 10u) << "throttles, no reaction";
}

// -------------------------------------------------------------- Autopilot

TEST(AutopilotTest, ValidatesInputs) {
  Rig rig;
  EXPECT_THROW(AutopilotPolicy(rig.sim, {}, seconds(1)), std::invalid_argument);
}

TEST(AutopilotTest, WaitsForWarmupSamples) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  c.cpu_cgroup().set_limit_cores(2.0);
  AutopilotPolicy policy(rig.sim, {&c}, seconds(1));
  policy.start();
  rig.sim.run_until(seconds(3));
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 2.0)
      << "no resize before five seconds of data";
  EXPECT_EQ(policy.cpu_resizes(), 0u);
}

TEST(AutopilotTest, ScalesBusyContainerUpOverTime) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  c.cpu_cgroup().set_limit_cores(0.5);
  AutopilotPolicy policy(rig.sim, {&c}, seconds(1));
  policy.start();
  c.submit(seconds(300), 0, nullptr);  // saturating work (4-way parallel)
  rig.sim.run_until(seconds(30));
  // The recommender sees sustained usage at the limit and raises it.
  EXPECT_GT(c.cpu_cgroup().limit_cores(), 0.5);
  EXPECT_GT(policy.cpu_resizes(), 0u);
}

TEST(AutopilotTest, ScalesIdleContainerDown) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  c.cpu_cgroup().set_limit_cores(4.0);
  AutopilotPolicy policy(rig.sim, {&c}, seconds(1));
  policy.start();
  rig.sim.run_until(seconds(60));
  EXPECT_LT(c.cpu_cgroup().limit_cores(), 1.0) << "idle usage -> small limit";
}

TEST(AutopilotTest, MemoryLimitNeverBelowCurrentUsage) {
  Rig rig;
  cluster::Container& c = rig.make("a", /*base=*/128 * kMiB);
  AutopilotPolicy policy(rig.sim, {&c}, seconds(1));
  policy.start();
  rig.sim.run_until(seconds(60));
  EXPECT_GE(c.mem_cgroup().limit(), c.mem_cgroup().usage());
  EXPECT_GT(policy.mem_resizes(), 0u);
}

TEST(AutopilotTest, LagsBehindSuddenBursts) {
  // The paper's core criticism: a windowed recommender reacts on second-to-
  // minute timescales, so a sudden burst throttles until the window adapts.
  Rig rig;
  cluster::Container& c = rig.make("a");
  c.cpu_cgroup().set_limit_cores(0.5);
  AutopilotPolicy policy(rig.sim, {&c}, seconds(1));
  policy.start();
  // Idle for 30 s (recommender converges down), then a burst arrives.
  rig.sim.schedule_at(seconds(30), [&] { c.submit(seconds(100), 0, nullptr); });
  rig.sim.run_until(seconds(31));
  const double limit_at_burst = c.cpu_cgroup().limit_cores();
  rig.sim.run_until(seconds(33));
  EXPECT_GT(c.cpu_cgroup().throttle_count(), 0u)
      << "burst outruns the limit (" << limit_at_burst << " cores)";
}

TEST(AutopilotTest, RestartingContainersExportNoSamples) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  AutopilotPolicy policy(rig.sim, {&c}, seconds(1));
  policy.start();
  rig.sim.run_until(seconds(10));
  c.evict_restart(1.0, 512 * kMiB);  // restarting for 3 s
  EXPECT_NO_THROW(rig.sim.run_until(seconds(20)));
  EXPECT_TRUE(c.running());
}

TEST(AutopilotTest, BestModelIsQueryable) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  AutopilotPolicy policy(rig.sim, {&c}, seconds(1));
  policy.start();
  rig.sim.run_until(seconds(10));
  EXPECT_LT(policy.best_cpu_model(0), kAutopilotCpuModels.size());
  EXPECT_THROW(policy.best_cpu_model(5), std::out_of_range);
}

// -------------------------------------------------------------------- VPA

TEST(VpaTest, ValidatesInputs) {
  Rig rig;
  EXPECT_THROW(VpaPolicy(rig.sim, {}), std::invalid_argument);
}

TEST(VpaTest, ResizeRequiresRestart) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  c.cpu_cgroup().set_limit_cores(4.0);  // utilization ~0 -> out of band
  VpaPolicy policy(rig.sim, {&c});
  policy.start();
  rig.sim.run_until(kVpaCheckInterval + seconds(1));
  EXPECT_EQ(policy.restarts(), 1u);
  EXPECT_EQ(c.eviction_count(), 1u);
  EXPECT_FALSE(c.running()) << "the pod is being recreated";
}

TEST(VpaTest, CooldownLimitsResizeFrequency) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  c.cpu_cgroup().set_limit_cores(4.0);
  VpaPolicy policy(rig.sim, {&c});
  policy.start();
  // Resized at the first check; the checks inside the cool-down skip it.
  rig.sim.run_until(kVpaCheckInterval + kVpaCooldown - seconds(1));
  EXPECT_EQ(policy.restarts(), 1u) << "at most one resize per minute";
  rig.sim.run_until(seconds(130));
  EXPECT_GE(policy.restarts(), 2u);
}

TEST(VpaTest, InBandUtilizationLeftAlone) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  // Pin utilization near the target: usage ~64 MiB of a 128 MiB limit and
  // CPU ~50% of limit.
  c.mem_cgroup().set_limit(128 * kMiB);
  c.cpu_cgroup().set_limit_cores(0.1);
  rig.sim.schedule_every(milliseconds(100), milliseconds(100), [&] {
    c.submit(milliseconds(5), 0, nullptr);  // ~0.05 cores
  });
  VpaPolicy policy(rig.sim, {&c});
  policy.start();
  rig.sim.run_until(3 * kVpaCheckInterval + seconds(5));
  EXPECT_EQ(policy.restarts(), 0u);
}

// ------------------------------------------------------------------- Firm

TEST(FirmTest, ValidatesInputs) {
  Rig rig;
  EXPECT_THROW(FirmPolicy(rig.sim, {}), std::invalid_argument);
}

TEST(FirmTest, MultiplexesFromIdleToBusyWithinFixedBudget) {
  Rig rig;
  cluster::Container& busy = rig.make("busy");
  cluster::Container& idle = rig.make("idle");
  busy.cpu_cgroup().set_limit_cores(1.0);
  idle.cpu_cgroup().set_limit_cores(3.0);
  FirmPolicy policy(rig.sim, {&busy, &idle});
  policy.start();
  EXPECT_DOUBLE_EQ(policy.budget_cores(), 4.0);
  for (int i = 0; i < 4; ++i) busy.submit(seconds(300), 0, nullptr);  // 4 lanes
  rig.sim.run_until(seconds(20));
  // Capacity moved: busy grew, idle shrank, aggregate preserved.
  EXPECT_GT(busy.cpu_cgroup().limit_cores(), 1.5);
  EXPECT_LT(idle.cpu_cgroup().limit_cores(), 2.0);
  EXPECT_NEAR(busy.cpu_cgroup().limit_cores() + idle.cpu_cgroup().limit_cores(),
              4.0, 0.05);
  EXPECT_GT(policy.reallocations(), 0u);
}

TEST(FirmTest, NeverTouchesMemoryLimits) {
  // "Firm does not implement seamless or automatic memory scaling" (Sec II).
  Rig rig;
  cluster::Container& c = rig.make("a");
  const memcg::Bytes before = c.mem_cgroup().limit();
  FirmPolicy policy(rig.sim, {&c});
  policy.start();
  c.submit(seconds(100), 0, nullptr);
  rig.sim.run_until(seconds(30));
  EXPECT_EQ(c.mem_cgroup().limit(), before);
}

TEST(FirmTest, NoRestartsEver) {
  Rig rig;
  cluster::Container& a = rig.make("a");
  cluster::Container& b = rig.make("b");
  FirmPolicy policy(rig.sim, {&a, &b});
  policy.start();
  a.submit(seconds(200), 0, nullptr);
  rig.sim.run_until(seconds(30));
  EXPECT_EQ(a.eviction_count() + b.eviction_count(), 0u);
}

TEST(FirmTest, NothingMovesWhenAllInBand) {
  Rig rig;
  cluster::Container& c = rig.make("a");
  c.cpu_cgroup().set_limit_cores(0.2);
  // ~0.14 cores of demand against 0.2: utilization ~0.7, inside the band.
  rig.sim.schedule_every(milliseconds(100), milliseconds(100),
                         [&] { c.submit(milliseconds(14), 0, nullptr); });
  FirmPolicy policy(rig.sim, {&c});
  policy.start();
  rig.sim.run_until(seconds(20));
  EXPECT_EQ(policy.reallocations(), 0u);
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 0.2);
}

TEST(FirmTest, CannotGrowPastItsBudget) {
  // Unlike Escra drawing on a cluster-scale Distributed Container, Firm is
  // stuck multiplexing the deployment's original budget.
  Rig rig;
  cluster::Container& a = rig.make("a");
  cluster::Container& b = rig.make("b");
  a.cpu_cgroup().set_limit_cores(1.0);
  b.cpu_cgroup().set_limit_cores(1.0);
  FirmPolicy policy(rig.sim, {&a, &b});
  policy.start();
  for (int i = 0; i < 4; ++i) {
    a.submit(seconds(500), 0, nullptr);  // both saturated:
    b.submit(seconds(500), 0, nullptr);  // nothing to harvest
  }
  rig.sim.run_until(seconds(20));
  EXPECT_NEAR(a.cpu_cgroup().limit_cores() + b.cpu_cgroup().limit_cores(),
              2.0, 0.05);
  EXPECT_GT(a.cpu_cgroup().throttle_count(), 50u) << "budget-bound: throttles";
}

}  // namespace
}  // namespace escra::baselines
