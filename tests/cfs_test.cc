#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "cfs/cgroup.h"
#include "cfs/node_scheduler.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace escra::cfs {
namespace {

using sim::milliseconds;

constexpr sim::Duration kPeriod = milliseconds(100);

// ------------------------------------------------------------------ CfsCgroup

TEST(CfsCgroupTest, QuotaFollowsCoreLimit) {
  CfsCgroup cg(1, kPeriod, 2.0);
  EXPECT_EQ(cg.quota(), milliseconds(200));
  EXPECT_EQ(cg.runtime_remaining(), milliseconds(200));
  cg.set_limit_cores(0.5);
  EXPECT_EQ(cg.quota(), milliseconds(50));
}

TEST(CfsCgroupTest, ConsumeDrainsRuntime) {
  CfsCgroup cg(1, kPeriod, 1.0);
  cg.consume(milliseconds(30), false);
  EXPECT_EQ(cg.runtime_remaining(), milliseconds(70));
  EXPECT_EQ(cg.consumed_this_period(), milliseconds(30));
  EXPECT_FALSE(cg.throttled());
}

TEST(CfsCgroupTest, ThrottleRequiresExhaustionAndDemand) {
  CfsCgroup cg(1, kPeriod, 1.0);
  cg.consume(milliseconds(100), /*wanted_more=*/false);
  EXPECT_FALSE(cg.throttled()) << "no runnable work left: not a throttle";

  CfsCgroup cg2(2, kPeriod, 1.0);
  cg2.consume(milliseconds(100), /*wanted_more=*/true);
  EXPECT_TRUE(cg2.throttled());

  CfsCgroup cg3(3, kPeriod, 1.0);
  cg3.consume(milliseconds(50), /*wanted_more=*/true);
  EXPECT_FALSE(cg3.throttled()) << "runtime remains: not throttled yet";
}

TEST(CfsCgroupTest, OverConsumeThrows) {
  CfsCgroup cg(1, kPeriod, 1.0);
  EXPECT_THROW(cg.consume(milliseconds(101), false), std::logic_error);
  EXPECT_THROW(cg.consume(-1, false), std::invalid_argument);
}

TEST(CfsCgroupTest, EndPeriodEmitsStatsAndRefills) {
  CfsCgroup cg(7, kPeriod, 1.5);
  PeriodStats seen;
  cg.set_period_hook([&](const PeriodStats& s) { seen = s; });
  cg.consume(milliseconds(150), true);
  EXPECT_TRUE(cg.throttled());
  cg.end_period(milliseconds(100));

  EXPECT_EQ(seen.cgroup, 7u);
  EXPECT_EQ(seen.period_end, milliseconds(100));
  EXPECT_EQ(seen.quota, milliseconds(150));
  EXPECT_EQ(seen.unused, 0);
  EXPECT_TRUE(seen.throttled);
  // Refilled for the next period.
  EXPECT_EQ(cg.runtime_remaining(), milliseconds(150));
  EXPECT_FALSE(cg.throttled());
  EXPECT_EQ(cg.consumed_this_period(), 0);
  EXPECT_EQ(cg.periods_elapsed(), 1u);
  EXPECT_EQ(cg.throttle_count(), 1u);
}

TEST(CfsCgroupTest, UnusedRuntimeReported) {
  CfsCgroup cg(1, kPeriod, 1.0);
  PeriodStats seen;
  cg.set_period_hook([&](const PeriodStats& s) { seen = s; });
  cg.consume(milliseconds(40), false);
  cg.end_period(0);
  EXPECT_EQ(seen.unused, milliseconds(60));
  EXPECT_FALSE(seen.throttled);
}

TEST(CfsCgroupTest, MidPeriodRaiseAddsRuntime) {
  CfsCgroup cg(1, kPeriod, 1.0);
  cg.consume(milliseconds(100), true);
  EXPECT_TRUE(cg.throttled());
  cg.set_limit_cores(2.0);  // cfs_quota_us write mid-period
  EXPECT_EQ(cg.runtime_remaining(), milliseconds(100));
  // More work can now run this period.
  cg.consume(milliseconds(50), false);
  EXPECT_EQ(cg.runtime_remaining(), milliseconds(50));
}

TEST(CfsCgroupTest, MidPeriodLowerClampsAtZero) {
  CfsCgroup cg(1, kPeriod, 2.0);
  cg.consume(milliseconds(150), false);
  cg.set_limit_cores(0.5);  // new quota 50 < consumed 150
  EXPECT_EQ(cg.runtime_remaining(), 0);
}

TEST(CfsCgroupTest, TotalConsumedAccumulatesAcrossPeriods) {
  CfsCgroup cg(1, kPeriod, 1.0);
  for (int i = 0; i < 5; ++i) {
    cg.consume(milliseconds(20), false);
    cg.end_period(i * kPeriod);
  }
  EXPECT_EQ(cg.total_consumed(), milliseconds(100));
}

TEST(CfsCgroupTest, FractionalCoresRoundToMicroseconds) {
  CfsCgroup cg(1, kPeriod, 0.123);
  EXPECT_EQ(cg.quota(), 12300);
}

TEST(CfsCgroupTest, InvalidConstructionThrows) {
  EXPECT_THROW(CfsCgroup(1, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(CfsCgroup(1, kPeriod, -1.0), std::invalid_argument);
}

TEST(CfsCgroupTest, BurstCarriesUnusedRuntime) {
  CfsCgroup cg(1, kPeriod, 1.0);
  cg.set_burst(milliseconds(50));
  cg.consume(milliseconds(30), false);  // 70 ms unused
  cg.end_period(0);
  // Next period: quota (100) + carried (min(70, burst 50)) = 150 ms.
  EXPECT_EQ(cg.runtime_remaining(), milliseconds(150));
  // A 140 ms spike now fits without a throttle.
  cg.consume(milliseconds(140), true);
  EXPECT_FALSE(cg.throttled());
}

TEST(CfsCgroupTest, BurstCarryCappedAtBudget) {
  CfsCgroup cg(1, kPeriod, 2.0);
  cg.set_burst(milliseconds(20));
  cg.end_period(0);  // 200 ms fully unused, but only 20 carries
  EXPECT_EQ(cg.runtime_remaining(), milliseconds(220));
}

TEST(CfsCgroupTest, BurstDoesNotAccumulateAcrossIdlePeriods) {
  CfsCgroup cg(1, kPeriod, 1.0);
  cg.set_burst(milliseconds(40));
  cg.end_period(0);
  cg.end_period(kPeriod);
  // Carry is capped per refill: 100 + 40, not 100 + 80.
  EXPECT_EQ(cg.runtime_remaining(), milliseconds(140));
}

TEST(CfsCgroupTest, BurstTelemetryStillRelativeToQuota) {
  CfsCgroup cg(1, kPeriod, 1.0);
  cg.set_burst(milliseconds(100));
  cg.end_period(0);  // runtime now 200
  PeriodStats seen;
  cg.set_period_hook([&](const PeriodStats& s) { seen = s; });
  cg.consume(milliseconds(20), false);
  cg.end_period(kPeriod);
  EXPECT_EQ(seen.quota, milliseconds(100));
  EXPECT_EQ(seen.unused, milliseconds(100)) << "clamped to quota";
}

TEST(CfsCgroupTest, ZeroBurstIsVanillaCfs) {
  CfsCgroup cg(1, kPeriod, 1.0);
  cg.end_period(0);
  EXPECT_EQ(cg.runtime_remaining(), milliseconds(100));
  EXPECT_THROW(cg.set_burst(-1), std::invalid_argument);
}

// ----------------------------------------------------------- max-min fairness

TEST(MaxMinFairTest, UnderloadedGivesEveryoneTheirDemand) {
  const auto g = NodeCpuScheduler::max_min_fair({1.0, 2.0, 3.0}, 10.0);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
  EXPECT_DOUBLE_EQ(g[2], 3.0);
}

TEST(MaxMinFairTest, EqualDemandsSplitEvenly) {
  const auto g = NodeCpuScheduler::max_min_fair({4.0, 4.0, 4.0, 4.0}, 8.0);
  for (const double x : g) EXPECT_DOUBLE_EQ(x, 2.0);
}

TEST(MaxMinFairTest, SmallDemandSatisfiedExcessRedistributed) {
  // Classic water-filling: capacity 10, demands {2, 8, 8}.
  const auto g = NodeCpuScheduler::max_min_fair({2.0, 8.0, 8.0}, 10.0);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 4.0);
  EXPECT_DOUBLE_EQ(g[2], 4.0);
}

TEST(MaxMinFairTest, ZeroDemandGetsNothing) {
  const auto g = NodeCpuScheduler::max_min_fair({0.0, 5.0}, 2.0);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
}

TEST(MaxMinFairTest, EmptyInput) {
  EXPECT_TRUE(NodeCpuScheduler::max_min_fair({}, 8.0).empty());
}

class MaxMinFairPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinFairPropertyTest, InvariantsHoldOnRandomInstances) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<double> demands;
    for (int i = 0; i < n; ++i) demands.push_back(rng.uniform(0.0, 4.0));
    const double capacity = rng.uniform(0.5, 16.0);
    const auto g = NodeCpuScheduler::max_min_fair(demands, capacity);

    double total = 0.0;
    double min_unsat = 1e18;
    for (std::size_t i = 0; i < g.size(); ++i) {
      // 1. No one gets more than they asked for, nothing negative.
      ASSERT_GE(g[i], -1e-9);
      ASSERT_LE(g[i], demands[i] + 1e-9);
      total += g[i];
      if (g[i] < demands[i] - 1e-6) min_unsat = std::min(min_unsat, g[i]);
    }
    // 2. Work-conserving: either capacity exhausted or all demand met.
    const double demand_sum =
        std::accumulate(demands.begin(), demands.end(), 0.0);
    ASSERT_LE(total, capacity + 1e-6);
    ASSERT_GE(total, std::min(capacity, demand_sum) - 1e-6);
    // 3. Max-min: every satisfied consumer's demand is <= any unsatisfied
    //    consumer's grant (nobody starves while a bigger flow feasts).
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (g[i] >= demands[i] - 1e-6) {
        ASSERT_LE(g[i], min_unsat + 1e-6);
      }
    }
  }
}

// The scheduler calls the in-place form every slice with the same buffers,
// so whatever a previous call left in them must not change the result: it
// must equal the returning form exactly, on idle consumers and on under- and
// over-subscribed nodes alike.
TEST_P(MaxMinFairPropertyTest, InPlaceFormMatchesReturningForm) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> grant;
  std::vector<std::size_t> work;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 24));
    std::vector<double> demands;
    for (int i = 0; i < n; ++i) {
      demands.push_back(rng.chance(0.3) ? 0.0 : rng.uniform(0.0, 4.0));
    }
    const double demand_sum =
        std::accumulate(demands.begin(), demands.end(), 0.0);
    double capacity = rng.uniform(0.5, 16.0);
    if (trial % 3 == 0) capacity = demand_sum + rng.uniform(0.1, 4.0);
    if (trial % 3 == 1) capacity = std::max(0.1, demand_sum * rng.uniform(0.1, 0.9));

    const std::vector<double> expected =
        NodeCpuScheduler::max_min_fair(demands, capacity);
    NodeCpuScheduler::max_min_fair(demands, capacity, grant, work);
    ASSERT_EQ(grant, expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinFairPropertyTest,
                         ::testing::Range(1, 6));

// ----------------------------------------------------------- NodeCpuScheduler

// A deterministic consumer with a fixed backlog of work.
class FakeConsumer : public CpuConsumer {
 public:
  FakeConsumer(CgroupId id, sim::Duration period, double cores,
               double parallelism, sim::Duration backlog)
      : cgroup_(id, period, cores), parallelism_(parallelism), backlog_(backlog) {}

  CfsCgroup& cpu_cgroup() override { return cgroup_; }

  double cpu_demand(sim::Duration slice) override {
    if (backlog_ <= 0) return 0.0;
    return std::min(parallelism_,
                    static_cast<double>(backlog_) / static_cast<double>(slice));
  }

  void run_for(sim::Duration granted, sim::Duration) override {
    executed_ += granted;
    backlog_ -= std::min(backlog_, granted);
  }

  sim::Duration executed() const { return executed_; }
  sim::Duration backlog() const { return backlog_; }

 private:
  CfsCgroup cgroup_;
  double parallelism_;
  sim::Duration backlog_;
  sim::Duration executed_ = 0;
};

TEST(NodeCpuSchedulerTest, InvalidConfigThrows) {
  sim::Simulation sim;
  EXPECT_THROW(
      NodeCpuScheduler(sim, {.cores = 0.0}), std::invalid_argument);
  EXPECT_THROW(NodeCpuScheduler(
                   sim, {.cores = 4, .slice = milliseconds(30),
                         .period = milliseconds(100)}),
               std::invalid_argument);
}

TEST(NodeCpuSchedulerTest, UnconstrainedWorkRunsAtParallelism) {
  sim::Simulation sim;
  NodeCpuScheduler sched(sim, {.cores = 8.0});
  FakeConsumer c(1, kPeriod, /*cores=*/8.0, /*parallelism=*/2.0,
                 /*backlog=*/milliseconds(1000));
  sched.attach(&c);
  sim.run_until(milliseconds(100));
  // 2 cores for 100ms = 200ms of core-time.
  EXPECT_EQ(c.executed(), milliseconds(200));
  EXPECT_FALSE(c.cpu_cgroup().throttle_count() > 0);
}

TEST(NodeCpuSchedulerTest, QuotaThrottlesExcessDemand) {
  sim::Simulation sim;
  NodeCpuScheduler sched(sim, {.cores = 8.0});
  FakeConsumer c(1, kPeriod, /*cores=*/0.5, /*parallelism=*/4.0,
                 /*backlog=*/milliseconds(1000));
  sched.attach(&c);
  sim.run_until(milliseconds(500));
  // 0.5 cores over 500ms = 250ms core-time despite 4-way demand.
  EXPECT_EQ(c.executed(), milliseconds(250));
  EXPECT_EQ(c.cpu_cgroup().throttle_count(), 5u);  // throttled every period
}

TEST(NodeCpuSchedulerTest, NodeContentionIsNotCfsThrottling) {
  sim::Simulation sim;
  NodeCpuScheduler sched(sim, {.cores = 2.0});
  // Two consumers each want 2 cores with quota for 2: node is the binding
  // constraint, so CFS must NOT mark them throttled.
  FakeConsumer a(1, kPeriod, 2.0, 2.0, milliseconds(10000));
  FakeConsumer b(2, kPeriod, 2.0, 2.0, milliseconds(10000));
  sched.attach(&a);
  sched.attach(&b);
  sim.run_until(milliseconds(500));
  EXPECT_EQ(a.executed() + b.executed(), milliseconds(1000));
  EXPECT_EQ(a.cpu_cgroup().throttle_count(), 0u);
  EXPECT_EQ(b.cpu_cgroup().throttle_count(), 0u);
}

TEST(NodeCpuSchedulerTest, CapacitySharedMaxMinFairly) {
  sim::Simulation sim;
  NodeCpuScheduler sched(sim, {.cores = 3.0});
  FakeConsumer small(1, kPeriod, 8.0, 1.0, milliseconds(100000));
  FakeConsumer big(2, kPeriod, 8.0, 4.0, milliseconds(100000));
  sched.attach(&small);
  sched.attach(&big);
  sim.run_until(milliseconds(1000));
  // small is capped by its own parallelism (1 core); big gets the rest (2).
  EXPECT_NEAR(static_cast<double>(small.executed()), 1000e3, 1e3);
  EXPECT_NEAR(static_cast<double>(big.executed()), 2000e3, 1e3);
}

TEST(NodeCpuSchedulerTest, DetachStopsScheduling) {
  sim::Simulation sim;
  NodeCpuScheduler sched(sim, {.cores = 4.0});
  FakeConsumer c(1, kPeriod, 4.0, 1.0, milliseconds(100000));
  sched.attach(&c);
  sim.run_until(milliseconds(100));
  const sim::Duration before = c.executed();
  sched.detach(&c);
  sim.run_until(milliseconds(200));
  EXPECT_EQ(c.executed(), before);
}

TEST(NodeCpuSchedulerTest, PeriodHooksFireEveryPeriod) {
  sim::Simulation sim;
  NodeCpuScheduler sched(sim, {.cores = 4.0});
  FakeConsumer c(1, kPeriod, 1.0, 1.0, milliseconds(100000));
  int hooks = 0;
  c.cpu_cgroup().set_period_hook([&](const PeriodStats&) { ++hooks; });
  sched.attach(&c);
  sim.run_until(milliseconds(1000));
  EXPECT_EQ(hooks, 10);
}

TEST(NodeCpuSchedulerTest, UsageTrackingReportsBusyCores) {
  sim::Simulation sim;
  NodeCpuScheduler sched(sim, {.cores = 8.0});
  FakeConsumer c(1, kPeriod, 8.0, 3.0, milliseconds(100000));
  sched.attach(&c);
  sim.run_until(milliseconds(50));
  EXPECT_NEAR(sched.last_slice_usage_cores(), 3.0, 0.01);
}

}  // namespace
}  // namespace escra::cfs
