#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "app/benchmarks.h"
#include "app/service_graph.h"
#include "cluster/cluster.h"
#include "sim/rng.h"

namespace escra::app {
namespace {

using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

GraphSpec tiny_graph() {
  GraphSpec g;
  g.name = "tiny";
  ServiceSpec front;
  front.name = "front";
  front.replicas = 2;
  front.cpu_per_visit = milliseconds(2);
  front.cpu_jitter_sigma = 0.0;
  front.startup_cpu = 0;
  front.background_cpu_per_sec = 0;
  front.gc_cpu = 0;
  ServiceSpec back = front;
  back.name = "back";
  back.replicas = 1;
  g.services = {front, back};
  g.edges = {{0, 1, 1.0}};
  return g;
}

// ------------------------------------------------------------------ GraphSpec

TEST(GraphSpecTest, ValidationCatchesBadGraphs) {
  GraphSpec g = tiny_graph();
  EXPECT_NO_THROW(g.validate());

  GraphSpec empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  GraphSpec bad_edge = tiny_graph();
  bad_edge.edges.push_back({1, 0, 1.0});  // backward: cycle risk
  EXPECT_THROW(bad_edge.validate(), std::invalid_argument);

  GraphSpec oob = tiny_graph();
  oob.edges.push_back({0, 7, 1.0});
  EXPECT_THROW(oob.validate(), std::invalid_argument);

  GraphSpec bad_prob = tiny_graph();
  bad_prob.edges[0].probability = 1.5;
  EXPECT_THROW(bad_prob.validate(), std::invalid_argument);

  GraphSpec no_replicas = tiny_graph();
  no_replicas.services[0].replicas = 0;
  EXPECT_THROW(no_replicas.validate(), std::invalid_argument);
}

TEST(GraphSpecTest, TotalContainersSumsReplicas) {
  EXPECT_EQ(tiny_graph().total_containers(), 3u);
}

// ----------------------------------------------------- benchmark applications

struct CountCase {
  Benchmark benchmark;
  std::size_t containers;
};

class BenchmarkCountTest : public ::testing::TestWithParam<CountCase> {};

// The paper's container counts (Section VI-A): Media 32, HipsterShop 11,
// TrainTicket 68, Teastore 7.
TEST_P(BenchmarkCountTest, MatchesPaperContainerCount) {
  const GraphSpec g = make_benchmark(GetParam().benchmark);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.total_containers(), GetParam().containers);
}

// gtest names each case after the raw bytes of its CountCase, padding
// included. A static table has zeroed padding, so the names are the same on
// every run; temporaries built on the stack would leak stack garbage into them.
constexpr CountCase kPaperCounts[] = {{Benchmark::kMedia, 32},
                                      {Benchmark::kHipster, 11},
                                      {Benchmark::kTrainTicket, 68},
                                      {Benchmark::kTeastore, 7}};

INSTANTIATE_TEST_SUITE_P(PaperCounts, BenchmarkCountTest,
                         ::testing::ValuesIn(kPaperCounts));

TEST(BenchmarkTest, EntryServiceIsFirst) {
  for (const auto b : {Benchmark::kMedia, Benchmark::kHipster,
                       Benchmark::kTrainTicket, Benchmark::kTeastore}) {
    const GraphSpec g = make_benchmark(b);
    // Service 0 must have outgoing edges (it is the entry point).
    bool has_out = false;
    for (const EdgeSpec& e : g.edges) has_out |= e.from == 0;
    EXPECT_TRUE(has_out) << benchmark_name(b);
  }
}

TEST(BenchmarkTest, EveryServiceReachableFromEntry) {
  for (const auto b : {Benchmark::kMedia, Benchmark::kHipster,
                       Benchmark::kTrainTicket, Benchmark::kTeastore}) {
    const GraphSpec g = make_benchmark(b);
    std::vector<bool> reachable(g.services.size(), false);
    reachable[0] = true;
    // Edges are topologically indexed, so one forward pass suffices.
    for (const EdgeSpec& e : g.edges) {
      if (reachable[e.from]) reachable[e.to] = true;
    }
    for (std::size_t s = 0; s < g.services.size(); ++s) {
      EXPECT_TRUE(reachable[s])
          << benchmark_name(b) << " service " << g.services[s].name;
    }
  }
}

// ---------------------------------------------------------------- Application

struct Rig {
  sim::Simulation sim;
  cluster::Cluster k8s{sim};
  Application app;

  explicit Rig(GraphSpec g = tiny_graph())
      : app((k8s.add_node({}), k8s), std::move(g), sim::Rng(1),
            /*initial_cores=*/4.0, /*initial_mem=*/512 * kMiB) {}
};

TEST(ApplicationTest, DeploysOneContainerPerReplica) {
  Rig rig;
  EXPECT_EQ(rig.app.containers().size(), 3u);
  EXPECT_EQ(rig.k8s.container_count(), 3u);
  EXPECT_EQ(rig.app.service_containers(0).size(), 2u);
  EXPECT_EQ(rig.app.service_containers(1).size(), 1u);
  EXPECT_THROW(rig.app.service_containers(9), std::invalid_argument);
}

TEST(ApplicationTest, RequestTraversesGraphAndCompletes) {
  Rig rig;
  bool done = false, ok = false;
  rig.app.submit_request([&](bool o) {
    done = true;
    ok = o;
  });
  rig.sim.run_until(seconds(1));
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(rig.app.requests_started(), 1u);
  // Both entry and backend did work.
  EXPECT_GT(rig.app.service_containers(1)[0]->completed_items(), 0u);
}

TEST(ApplicationTest, RoundRobinSpreadsAcrossReplicas) {
  Rig rig;
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    rig.app.submit_request([&](bool) { ++completed; });
  }
  rig.sim.run_until(seconds(2));
  EXPECT_EQ(completed, 10);
  const auto front = rig.app.service_containers(0);
  EXPECT_EQ(front[0]->completed_items(), front[1]->completed_items());
}

TEST(ApplicationTest, FailedVisitFailsWholeRequest) {
  Rig rig;
  // Kill the single backend replica: in-flight requests through it fail.
  cluster::Container* back = rig.app.service_containers(1)[0];
  back->evict_restart(1.0, 512 * kMiB);
  bool ok = true;
  bool done = false;
  rig.app.submit_request([&](bool o) {
    done = true;
    ok = o;
  });
  rig.sim.run_until(seconds(1));
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok) << "backend was restarting: request must fail";
}

TEST(ApplicationTest, ProbabilisticEdgesSometimesSkip) {
  GraphSpec g = tiny_graph();
  g.edges[0].probability = 0.5;
  Rig rig(std::move(g));
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    rig.app.submit_request([&](bool) { ++completed; });
  }
  rig.sim.run_until(seconds(5));
  EXPECT_EQ(completed, 200);
  const auto visits = rig.app.service_containers(1)[0]->completed_items();
  EXPECT_GT(visits, 50u);
  EXPECT_LT(visits, 150u);
}

// A closed loop whose completions submit the next request, and every tenth
// submits two, so new requests arrive (and the request pool grows) while a
// completion is still on the stack. Each request must finish exactly once.
TEST(ApplicationTest, DoneMaySubmitWhileRequestPoolGrows) {
  GraphSpec g = tiny_graph();
  g.edges[0].probability = 0.5;
  Rig rig(std::move(g));
  constexpr int kRequests = 2000;
  std::vector<int> finished;  // completions per request, by submit order
  int ok = 0;
  std::function<void()> submit = [&] {
    const std::size_t id = finished.size();
    finished.push_back(0);
    rig.app.submit_request([&, id](bool o) {
      ++finished[id];
      ok += o ? 1 : 0;
      if (finished.size() >= kRequests) return;
      submit();
      if (id % 10 == 9) submit();
    });
  };
  for (int i = 0; i < 4; ++i) submit();
  rig.sim.run_until(seconds(60));

  ASSERT_GE(finished.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(rig.app.requests_started(), finished.size());
  for (std::size_t id = 0; id < finished.size(); ++id) {
    ASSERT_EQ(finished[id], 1) << "request " << id;
  }
  EXPECT_EQ(ok, static_cast<int>(finished.size()));
}

TEST(ApplicationTest, BackgroundLoadKeepsIdleContainersWarm) {
  GraphSpec g = tiny_graph();
  g.services[0].background_cpu_per_sec = milliseconds(30);
  Rig rig(std::move(g));
  rig.sim.run_until(seconds(10));
  // No requests were sent, yet the front containers burned CPU.
  EXPECT_GT(rig.app.service_containers(0)[0]->cpu_cgroup().total_consumed(),
            milliseconds(100));
}

TEST(ApplicationTest, GcBurstsShowUpAsSpikes) {
  GraphSpec g = tiny_graph();
  g.services[1].gc_cpu = milliseconds(300);
  g.services[1].gc_interval = seconds(2);
  Rig rig(std::move(g));
  rig.sim.run_until(seconds(20));
  // Roughly 10 GC bursts x 300 ms expected over 20 s.
  EXPECT_GT(rig.app.service_containers(1)[0]->cpu_cgroup().total_consumed(),
            milliseconds(1000));
}

TEST(ApplicationTest, StartupBurnHappensOnDeployment) {
  GraphSpec g = tiny_graph();
  g.services[0].startup_cpu = milliseconds(800);
  Rig rig(std::move(g));
  rig.sim.run_until(seconds(3));
  EXPECT_GE(rig.app.service_containers(0)[0]->cpu_cgroup().total_consumed(),
            milliseconds(800));
}

}  // namespace
}  // namespace escra::app
