#include "cluster/container.h"

#include <gtest/gtest.h>

#include "cfs/node_scheduler.h"
#include "sim/event_queue.h"

namespace escra::cluster {
namespace {

using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

constexpr sim::Duration kPeriod = milliseconds(100);

ContainerSpec spec(double parallelism = 4.0,
                   memcg::Bytes base = 64 * kMiB,
                   sim::Duration restart = seconds(3)) {
  ContainerSpec s;
  s.name = "c";
  s.max_parallelism = parallelism;
  s.base_memory = base;
  s.restart_delay = restart;
  return s;
}

// Drives a single container through a node scheduler.
struct Rig {
  sim::Simulation sim;
  cfs::NodeCpuScheduler sched{sim, {.cores = 8.0}};
  Container c;

  explicit Rig(ContainerSpec s = spec(), double cores = 2.0,
               memcg::Bytes mem_limit = 256 * kMiB)
      : c(sim, 1, std::move(s), kPeriod, cores, mem_limit) {
    sched.attach(&c);
  }
};

TEST(ContainerTest, BaseMemoryChargedAtStart) {
  Rig rig;
  EXPECT_EQ(rig.c.mem_cgroup().usage(), 64 * kMiB);
  EXPECT_TRUE(rig.c.running());
}

TEST(ContainerTest, WorkCompletesAndReleasesMemory) {
  Rig rig;
  bool done = false;
  rig.c.submit(milliseconds(50), 10 * kMiB, [&](bool ok) { done = ok; });
  EXPECT_EQ(rig.c.queue_depth(), 1u);
  rig.sim.run_until(milliseconds(200));
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.c.queue_depth(), 0u);
  EXPECT_EQ(rig.c.mem_cgroup().usage(), 64 * kMiB);
  EXPECT_EQ(rig.c.completed_items(), 1u);
}

TEST(ContainerTest, MemoryChargedOnlyWhileExecuting) {
  Rig rig(spec(/*parallelism=*/1.0));
  // Two items; with parallelism 1 only the first executes at a time, so at
  // most one working set is charged on top of the base.
  rig.c.submit(milliseconds(500), 30 * kMiB, nullptr);
  rig.c.submit(milliseconds(500), 30 * kMiB, nullptr);
  rig.sim.run_until(milliseconds(50));
  EXPECT_EQ(rig.c.mem_cgroup().usage(), 64 * kMiB + 30 * kMiB);
}

TEST(ContainerTest, FifoCompletionOrder) {
  Rig rig(spec(/*parallelism=*/1.0));
  std::vector<int> order;
  rig.c.submit(milliseconds(30), 0, [&](bool) { order.push_back(1); });
  rig.c.submit(milliseconds(30), 0, [&](bool) { order.push_back(2); });
  rig.c.submit(milliseconds(30), 0, [&](bool) { order.push_back(3); });
  rig.sim.run_until(milliseconds(500));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ContainerTest, ThroughputBoundedByCpuLimit) {
  Rig rig(spec(), /*cores=*/0.5);
  int completed = 0;
  // 20 items x 50ms = 1000ms core-time; at 0.5 cores that is 2 seconds.
  for (int i = 0; i < 20; ++i) {
    rig.c.submit(milliseconds(50), 0, [&](bool ok) { completed += ok; });
  }
  rig.sim.run_until(seconds(1));
  EXPECT_NEAR(completed, 10, 1);
  rig.sim.run_until(seconds(3));
  EXPECT_EQ(completed, 20);
}

TEST(ContainerTest, OomKillFailsAllQueuedWork) {
  Rig rig(spec(4.0, 64 * kMiB), 2.0, /*mem_limit=*/100 * kMiB);
  int ok = 0, failed = 0;
  const auto done = [&](bool o) { o ? ++ok : ++failed; };
  // Each working set is 30 MiB; the second concurrent charge overflows
  // 64 + 30 + 30 > 100.
  rig.c.submit(milliseconds(300), 30 * kMiB, done);
  rig.c.submit(milliseconds(300), 30 * kMiB, done);
  rig.c.submit(milliseconds(300), 30 * kMiB, done);
  rig.sim.run_until(milliseconds(100));
  EXPECT_EQ(failed, 3);
  EXPECT_EQ(ok, 0);
  EXPECT_FALSE(rig.c.running());
  EXPECT_EQ(rig.c.oom_kill_count(), 1u);
  EXPECT_EQ(rig.c.mem_cgroup().usage(), 0);
}

// An item that finishes in the slice in which a later item's charge
// OOM-kills the container still completes: its callback fires once, with
// ok, and the kill drops only the items still queued.
TEST(ContainerTest, ItemFinishedBeforeOomKillInSameSliceCompletes) {
  Rig rig(spec(4.0, 64 * kMiB), 2.0, /*mem_limit=*/100 * kMiB);
  int first_ok = 0, first_failed = 0, second_ok = 0, second_failed = 0;
  rig.c.submit(1, 1 * kMiB, [&](bool o) { o ? ++first_ok : ++first_failed; });
  // 64 + 1 + 64 > 100: this charge overflows once the first item is done.
  rig.c.submit(milliseconds(5), 64 * kMiB,
               [&](bool o) { o ? ++second_ok : ++second_failed; });
  rig.sim.run_until(milliseconds(100));
  ASSERT_EQ(rig.c.oom_kill_count(), 1u);
  EXPECT_EQ(first_ok, 1);
  EXPECT_EQ(first_failed, 0);
  EXPECT_EQ(second_ok, 0);
  EXPECT_EQ(second_failed, 1);
  EXPECT_EQ(rig.c.completed_items(), 1u);
  EXPECT_EQ(rig.c.dropped_items(), 1u);
}

TEST(ContainerTest, RestartsAfterDelayAndRechargesBase) {
  Rig rig(spec(4.0, 64 * kMiB, seconds(2)), 2.0, 100 * kMiB);
  rig.c.submit(milliseconds(10), 60 * kMiB, nullptr);  // overflows at exec
  rig.sim.run_until(milliseconds(100));
  ASSERT_FALSE(rig.c.running());
  EXPECT_FALSE(rig.c.submit(1, 0, nullptr)) << "restarting rejects work";
  rig.sim.run_until(milliseconds(100) + seconds(3));
  EXPECT_TRUE(rig.c.running());
  EXPECT_EQ(rig.c.mem_cgroup().usage(), 64 * kMiB);
  EXPECT_TRUE(rig.c.submit(1, 0, nullptr));
}

TEST(ContainerTest, OomHookRescuePreventsKill) {
  Rig rig(spec(4.0, 64 * kMiB), 2.0, 100 * kMiB);
  rig.c.mem_cgroup().set_oom_hook(
      [](memcg::MemCgroup& m, memcg::Bytes, memcg::Bytes shortfall) {
        m.set_limit(m.limit() + shortfall + 16 * kMiB);
        return true;
      });
  bool done = false;
  rig.c.submit(milliseconds(50), 60 * kMiB, [&](bool ok) { done = ok; });
  rig.sim.run_until(milliseconds(300));
  EXPECT_TRUE(done);
  EXPECT_TRUE(rig.c.running());
  EXPECT_EQ(rig.c.oom_kill_count(), 0u);
  EXPECT_EQ(rig.c.mem_cgroup().oom_rescues(), 1u);
}

TEST(ContainerTest, RescueStallPausesExecution) {
  ContainerSpec s = spec(4.0, 64 * kMiB);
  s.oom_rescue_stall = milliseconds(40);
  Rig rig(std::move(s), 2.0, 100 * kMiB);
  rig.c.mem_cgroup().set_oom_hook(
      [](memcg::MemCgroup& m, memcg::Bytes, memcg::Bytes shortfall) {
        m.set_limit(m.limit() + shortfall);
        return true;
      });
  rig.c.submit(milliseconds(10), 60 * kMiB, nullptr);
  rig.sim.run_until(milliseconds(20));
  // The charge happened in the first slice; the stall blocks progress, so
  // demand should be zero for ~40ms.
  EXPECT_EQ(rig.c.cpu_demand(milliseconds(10)), 0.0);
  rig.sim.run_until(milliseconds(120));
  EXPECT_EQ(rig.c.queue_depth(), 0u);
}

TEST(ContainerTest, EvictRestartAppliesNewLimits) {
  Rig rig;
  int failed = 0;
  rig.c.submit(milliseconds(500), 0, [&](bool ok) { failed += !ok; });
  rig.c.evict_restart(1.25, 96 * kMiB);
  EXPECT_EQ(failed, 1) << "in-flight work dropped by the eviction";
  EXPECT_FALSE(rig.c.running());
  EXPECT_EQ(rig.c.eviction_count(), 1u);
  EXPECT_EQ(rig.c.oom_kill_count(), 0u);
  EXPECT_DOUBLE_EQ(rig.c.cpu_cgroup().limit_cores(), 1.25);
  EXPECT_EQ(rig.c.mem_cgroup().limit(), 96 * kMiB);
  rig.sim.run_until(seconds(4));
  EXPECT_TRUE(rig.c.running());
}

TEST(ContainerTest, StartupWorkBurnsCpu) {
  ContainerSpec s = spec(4.0);
  s.startup_cpu = milliseconds(400);
  Rig rig(std::move(s), 4.0);
  EXPECT_GT(rig.c.queue_depth(), 0u);
  rig.sim.run_until(milliseconds(200));
  EXPECT_EQ(rig.c.queue_depth(), 0u);
  EXPECT_GE(rig.c.cpu_cgroup().total_consumed(), milliseconds(400));
}

TEST(ContainerTest, AdjustResidentGrowsAndShrinks) {
  Rig rig(spec(4.0, 64 * kMiB), 2.0, 256 * kMiB);
  rig.c.adjust_resident(32 * kMiB);
  EXPECT_EQ(rig.c.mem_cgroup().usage(), 96 * kMiB);
  rig.c.adjust_resident(-16 * kMiB);
  EXPECT_EQ(rig.c.mem_cgroup().usage(), 80 * kMiB);
}

TEST(ContainerTest, AdjustResidentCanOomKill) {
  Rig rig(spec(4.0, 64 * kMiB), 2.0, 100 * kMiB);
  rig.c.adjust_resident(50 * kMiB);
  EXPECT_FALSE(rig.c.running());
}

TEST(ContainerTest, DemandRespectsParallelism) {
  Rig rig(spec(/*parallelism=*/2.0));
  for (int i = 0; i < 8; ++i) rig.c.submit(seconds(1), 0, nullptr);
  EXPECT_DOUBLE_EQ(rig.c.cpu_demand(milliseconds(10)), 2.0);
}

TEST(ContainerTest, DemandZeroWhenRestarting) {
  Rig rig(spec(4.0, 64 * kMiB), 2.0, 80 * kMiB);
  rig.c.submit(milliseconds(10), 60 * kMiB, nullptr);
  rig.sim.run_until(milliseconds(100));
  ASSERT_FALSE(rig.c.running());
  EXPECT_DOUBLE_EQ(rig.c.cpu_demand(milliseconds(10)), 0.0);
}

TEST(ContainerTest, CompletionCanSubmitMoreWork) {
  Rig rig;
  bool second_done = false;
  rig.c.submit(milliseconds(10), 0, [&](bool) {
    rig.c.submit(milliseconds(10), 0, [&](bool ok) { second_done = ok; });
  });
  rig.sim.run_until(milliseconds(300));
  EXPECT_TRUE(second_done);
}

}  // namespace
}  // namespace escra::cluster
