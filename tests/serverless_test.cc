#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/escra.h"
#include "net/network.h"
#include "serverless/apps.h"
#include "serverless/openwhisk.h"

namespace escra::serverless {
namespace {

using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

ActionSpec fast_action(const std::string& name = "fn") {
  ActionSpec a;
  a.name = name;
  a.io_before = milliseconds(20);
  a.cpu_cost = milliseconds(100);
  a.cpu_sigma = 0.0;
  a.io_after = milliseconds(10);
  a.working_mem = 50 * kMiB;
  return a;
}

struct Rig {
  sim::Simulation sim;
  cluster::Cluster k8s{sim};
  OpenWhisk ow;

  explicit Rig(std::size_t max_pods = 128)
      : ow((k8s.add_node({}), sim), k8s, max_pods, sim::Rng(1)) {}
};

TEST(OpenWhiskTest, UnknownActionThrows) {
  Rig rig;
  EXPECT_THROW(rig.ow.invoke("nope", nullptr), std::invalid_argument);
  ActionSpec bad = fast_action("");
  EXPECT_THROW(rig.ow.register_action(bad), std::invalid_argument);
}

TEST(OpenWhiskTest, FirstInvocationColdStarts) {
  Rig rig;
  rig.ow.register_action(fast_action());
  bool ok = false;
  sim::TimePoint done_at = 0;
  rig.ow.invoke("fn", [&](bool o) {
    ok = o;
    done_at = rig.sim.now();
  });
  EXPECT_EQ(rig.ow.pod_count(), 1u);
  EXPECT_EQ(rig.ow.cold_starts(), 1u);
  rig.sim.run_until(seconds(5));
  EXPECT_TRUE(ok);
  // cold start (650) + io (20) + cpu (100 at 1 vCPU) + io (10); the first
  // scheduler slice credits work submitted mid-slice, so allow one slice.
  EXPECT_GE(done_at, milliseconds(770));
  EXPECT_LE(done_at, milliseconds(900));
}

TEST(OpenWhiskTest, WarmPodIsReused) {
  Rig rig;
  rig.ow.register_action(fast_action());
  rig.ow.invoke("fn", nullptr);
  rig.sim.run_until(seconds(3));
  sim::TimePoint start = rig.sim.now();
  sim::TimePoint done_at = 0;
  rig.ow.invoke("fn", [&](bool) { done_at = rig.sim.now(); });
  rig.sim.run_until(seconds(6));
  EXPECT_EQ(rig.ow.cold_starts(), 1u) << "second invocation reuses the pod";
  EXPECT_EQ(rig.ow.pod_count(), 1u);
  // Warm latency: no cold-start component.
  EXPECT_LT(done_at - start, milliseconds(250));
}

TEST(OpenWhiskTest, ConcurrentInvocationsGrowThePool) {
  Rig rig;
  rig.ow.register_action(fast_action());
  int done = 0;
  for (int i = 0; i < 5; ++i) rig.ow.invoke("fn", [&](bool) { ++done; });
  EXPECT_EQ(rig.ow.pod_count(), 5u);
  EXPECT_EQ(rig.ow.busy_pods(), 5u);
  rig.sim.run_until(seconds(5));
  EXPECT_EQ(done, 5);
  EXPECT_EQ(rig.ow.busy_pods(), 0u);
}

TEST(OpenWhiskTest, PoolCapQueuesActivations) {
  Rig rig(/*max_pods=*/2);
  rig.ow.register_action(fast_action());
  int done = 0;
  for (int i = 0; i < 6; ++i) rig.ow.invoke("fn", [&](bool) { ++done; });
  EXPECT_EQ(rig.ow.pod_count(), 2u);
  EXPECT_EQ(rig.ow.queued(), 4u);
  rig.sim.run_until(seconds(10));
  EXPECT_EQ(done, 6) << "queued activations drain as pods free up";
  EXPECT_EQ(rig.ow.queued(), 0u);
}

TEST(OpenWhiskTest, IdlePodsAreReaped) {
  Rig rig;
  rig.ow.register_action(fast_action());
  rig.ow.invoke("fn", nullptr);
  rig.sim.run_until(seconds(2));
  EXPECT_EQ(rig.ow.pod_count(), 1u);
  rig.sim.run_until(kPodIdleTimeout + seconds(25));
  EXPECT_EQ(rig.ow.pod_count(), 0u);
  EXPECT_EQ(rig.k8s.container_count(), 0u) << "container removed from cluster";
}

TEST(OpenWhiskTest, ReapHookFiresBeforeRemoval) {
  Rig rig;
  rig.ow.register_action(fast_action());
  bool hook_ran = false;
  rig.ow.set_pod_reap_hook([&](cluster::Container& c) {
    hook_ran = true;
    EXPECT_TRUE(rig.k8s.find_container(c.id()) != nullptr);
  });
  rig.ow.invoke("fn", nullptr);
  rig.sim.run_until(kPodIdleTimeout + seconds(25));
  EXPECT_TRUE(hook_ran);
}

TEST(OpenWhiskTest, AggregateLimitsTrackPool) {
  Rig rig;
  rig.ow.register_action(fast_action());
  for (int i = 0; i < 3; ++i) rig.ow.invoke("fn", nullptr);
  EXPECT_DOUBLE_EQ(rig.ow.aggregate_cpu_limit(), 3.0);  // 3 x 1 vCPU
  EXPECT_EQ(rig.ow.aggregate_mem_limit(), 3 * 256 * kMiB);
}

TEST(OpenWhiskTest, PodsArePinnedToAction) {
  Rig rig;
  rig.ow.register_action(fast_action("a"));
  rig.ow.register_action(fast_action("b"));
  rig.ow.invoke("a", nullptr);
  rig.sim.run_until(seconds(3));  // pod for a is idle now
  rig.ow.invoke("b", nullptr);
  EXPECT_EQ(rig.ow.pod_count(), 2u) << "b cannot reuse a's pod";
}

TEST(OpenWhiskTest, CompletionCountTracks) {
  Rig rig;
  rig.ow.register_action(fast_action());
  for (int i = 0; i < 4; ++i) rig.ow.invoke("fn", nullptr);
  rig.sim.run_until(seconds(10));
  EXPECT_EQ(rig.ow.completed(), 4u);
}

// ------------------------------------------------------------- GridSearchJob

TEST(GridSearchJobTest, CompletesAllTasks) {
  Rig rig(/*max_pods=*/8);
  ActionSpec task = fast_action("grid-task");
  rig.ow.register_action(task);
  sim::Duration makespan = 0;
  GridSearchJob job(rig.sim, rig.ow, {.total_tasks = 40},
                    [&](sim::Duration d) { makespan = d; });
  job.start();
  rig.sim.run_until(seconds(60));
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.tasks_completed(), 40u);
  EXPECT_EQ(job.tasks_failed(), 0u);
  EXPECT_GT(makespan, 0);
  // 40 tasks x 130 ms body over 8 pods ~ 5 rounds; with a cold start it is
  // well under a few seconds.
  EXPECT_LT(makespan, seconds(10));
}

TEST(GridSearchJobTest, ZeroTasksThrows) {
  Rig rig;
  rig.ow.register_action(fast_action("grid-task"));
  EXPECT_THROW(
      GridSearchJob(rig.sim, rig.ow, {.total_tasks = 0}, nullptr),
      std::invalid_argument);
}

TEST(GridSearchJobTest, RetriesFailedTasks) {
  // Pods whose working set exceeds the pod memory limit OOM on first touch;
  // the job must retry and (after the pod restarts) eventually... the spec
  // here keeps memory within bounds but kills a pod mid-run manually.
  Rig rig(/*max_pods=*/2);
  rig.ow.register_action(fast_action("grid-task"));
  GridSearchJob job(rig.sim, rig.ow, {.total_tasks = 10}, nullptr);
  job.start();
  rig.sim.schedule_at(milliseconds(300), [&] {
    // Kill one pod mid-task: the in-flight task fails and must be retried.
    auto containers = rig.k8s.containers();
    ASSERT_FALSE(containers.empty());
    containers[0]->evict_restart(1.0, 256 * kMiB);
  });
  rig.sim.run_until(seconds(60));
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.tasks_completed(), 10u);
  EXPECT_GE(job.retries(), 1u);
}

// ------------------------------------------------- Escra + OpenWhisk together

TEST(EscraOpenWhiskTest, WatcherAdoptsPodsAndReclaimsIdleMemory) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  core::EscraConfig ec;
  ec.upsilon = 35.0;
  core::EscraSystem escra(sim, net, k8s, 16.0, 4096LL * kMiB, ec);
  escra.watch();
  escra.start();

  OpenWhisk ow(sim, k8s, /*max_pods=*/128, sim::Rng(2));
  ow.set_pod_reap_hook([&](cluster::Container& c) { escra.release(c); });
  ow.register_action(fast_action());

  int done = 0;
  for (int i = 0; i < 4; ++i) ow.invoke("fn", [&](bool ok) { done += ok; });
  sim.run_until(seconds(2));
  EXPECT_EQ(done, 4);
  EXPECT_EQ(escra.controller().registered_count(), 4u);

  // Idle pods: Escra reclaims their memory to usage + delta and scales CPU
  // down, so the aggregate limits drop well below the static 4 x (1, 256).
  sim.run_until(seconds(30));
  EXPECT_LT(ow.aggregate_cpu_limit(), 2.0);
  EXPECT_LT(ow.aggregate_mem_limit(), 4 * 200 * kMiB);
}

TEST(EscraOpenWhiskTest, ReleasedPodsReturnLimitsToPool) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  core::EscraSystem escra(sim, net, k8s, 4.0, 1024LL * kMiB);
  escra.watch();
  OpenWhisk ow(sim, k8s, /*max_pods=*/128, sim::Rng(3));
  ow.set_pod_reap_hook([&](cluster::Container& c) { escra.release(c); });
  ow.register_action(fast_action());
  ow.invoke("fn", nullptr);
  sim.run_until(seconds(1));
  EXPECT_GT(escra.app().cpu_allocated(), 0.0);
  sim.run_until(kPodIdleTimeout + seconds(25));  // pod reaped
  EXPECT_EQ(ow.pod_count(), 0u);
  EXPECT_DOUBLE_EQ(escra.app().cpu_allocated(), 0.0);
  EXPECT_EQ(escra.app().mem_allocated(), 0);
}

TEST(ActionSpecsTest, PaperApplicationsAreRegistered) {
  const ActionSpec ip = make_image_process_action();
  EXPECT_EQ(ip.name, "image-process");
  EXPECT_GT(ip.cpu_cost, 0);
  const ActionSpec gs = make_grid_task_action();
  EXPECT_EQ(gs.name, "grid-task");
  // GridSearch tasks are I/O-heavy (the property Escra exploits).
  EXPECT_GT(gs.io_before + gs.io_after, gs.cpu_cost / 2);
}

}  // namespace
}  // namespace escra::serverless
