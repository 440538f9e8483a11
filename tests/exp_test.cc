#include <gtest/gtest.h>

#include "exp/microservice.h"
#include "exp/profile.h"
#include "exp/report.h"
#include "exp/serverless.h"

namespace escra::exp {
namespace {

TEST(ReportTest, PctHelpers) {
  EXPECT_DOUBLE_EQ(pct_decrease(100.0, 60.0), 40.0);
  EXPECT_DOUBLE_EQ(pct_decrease(100.0, 150.0), -50.0);
  EXPECT_DOUBLE_EQ(pct_increase(100.0, 150.0), 50.0);
  EXPECT_DOUBLE_EQ(pct_increase(0.0, 5.0), 0.0);  // guarded
  EXPECT_DOUBLE_EQ(pct_decrease(0.0, 5.0), 0.0);
}

TEST(ReportTest, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt_pct(12.345, 1), "+12.3%");
  EXPECT_EQ(fmt_pct(-5.0, 1), "-5.0%");
}

TEST(ReportTest, RaggedTableThrows) {
  EXPECT_THROW(print_table({"a", "b"}, {{"1"}}), std::invalid_argument);
  EXPECT_NO_THROW(print_table({"a", "b"}, {{"1", "2"}}));
}

TEST(ProfileTest, ProfilesEveryContainerWithSanePeaks) {
  const ProfileResult& p = profile_benchmark(app::Benchmark::kTeastore);
  ASSERT_EQ(p.containers.size(), 7u);
  for (const ContainerProfile& c : p.containers) {
    EXPECT_GT(c.peak_cores, 0.0);
    EXPECT_LT(c.peak_cores, 8.0);  // under the generous profiling limit
    EXPECT_GE(c.peak_mem, 48 * memcg::kMiB);
  }
  EXPECT_GT(p.total_peak_cores(), 1.0);
  EXPECT_GT(p.total_peak_mem(), 7LL * 100 * memcg::kMiB);
}

TEST(ProfileTest, CachedAcrossCalls) {
  const ProfileResult& a = profile_benchmark(app::Benchmark::kTeastore);
  const ProfileResult& b = profile_benchmark(app::Benchmark::kTeastore);
  EXPECT_EQ(&a, &b);
}

TEST(PolicyNameTest, AllKindsNamed) {
  EXPECT_STREQ(policy_name(PolicyKind::kStatic), "static-1.5x");
  EXPECT_STREQ(policy_name(PolicyKind::kAutopilot), "autopilot");
  EXPECT_STREQ(policy_name(PolicyKind::kEscra), "escra");
  EXPECT_STREQ(policy_name(PolicyKind::kVpa), "vpa");
  EXPECT_STREQ(policy_name(PolicyKind::kFirm), "firm");
  EXPECT_STREQ(serverless_mode_name(ServerlessMode::kOpenWhisk), "openwhisk");
  EXPECT_STREQ(serverless_mode_name(ServerlessMode::kEscraReduced),
               "escra-openwhisk-80pct");
}

// One short smoke run per policy kind, checking the harness produces
// complete, self-consistent results (the shape assertions live in
// EXPERIMENTS.md / the bench binaries; here we verify plumbing).
class HarnessSmokeTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(HarnessSmokeTest, ProducesConsistentResults) {
  MicroserviceConfig cfg;
  cfg.benchmark = app::Benchmark::kTeastore;
  cfg.workload = workload::WorkloadKind::kFixed;
  cfg.policy = GetParam();
  cfg.duration = sim::seconds(15);
  const RunResult r = run_microservice(cfg);
  EXPECT_EQ(r.app_name, "teastore");
  EXPECT_EQ(r.workload_name, "fixed");
  EXPECT_GT(r.throughput_rps, 300.0);
  EXPECT_GT(r.succeeded, 4000u);
  EXPECT_GT(r.p999_latency_ms, r.p50_latency_ms);
  EXPECT_GE(r.p50_latency_ms, 1.0);
  EXPECT_FALSE(r.cpu_slack_cores.empty());
  EXPECT_FALSE(r.mem_slack_mib.empty());
  if (GetParam() == PolicyKind::kEscra) {
    EXPECT_GT(r.telemetry_msgs, 100u);
    EXPECT_GT(r.limit_updates, 0u);
    EXPECT_EQ(r.oom_kills, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, HarnessSmokeTest,
                         ::testing::Values(PolicyKind::kStatic,
                                           PolicyKind::kAutopilot,
                                           PolicyKind::kEscra,
                                           PolicyKind::kVpa,
                                           PolicyKind::kFirm));

TEST(HarnessCustomGraphTest, RunsAYamlStyleGraph) {
  app::GraphSpec g;
  g.name = "custom";
  app::ServiceSpec front;
  front.name = "front";
  front.replicas = 2;
  front.cpu_per_visit = sim::milliseconds(3);
  app::ServiceSpec back = front;
  back.name = "back";
  back.replicas = 1;
  g.services = {front, back};
  g.edges = {{0, 1, 0.8}};

  MicroserviceConfig cfg;
  cfg.custom_graph = std::make_shared<app::GraphSpec>(std::move(g));
  cfg.workload = workload::WorkloadKind::kFixed;
  cfg.policy = PolicyKind::kEscra;
  cfg.duration = sim::seconds(15);
  const RunResult r = run_microservice(cfg);
  EXPECT_EQ(r.app_name, "custom");
  EXPECT_GT(r.throughput_rps, 300.0);
  EXPECT_EQ(r.oom_kills, 0u);

  // The same custom graph must also drive a baseline (profiled fresh).
  cfg.policy = PolicyKind::kStatic;
  const RunResult st = run_microservice(cfg);
  EXPECT_EQ(st.policy_name, "static-1.5x");
  EXPECT_GT(st.throughput_rps, 300.0);
}

TEST(ServerlessHarnessTest, ImageProcessSmoke) {
  // The full run: four 10-minute iterations at one request per 0.8 s.
  const ImageProcessResult r = run_image_process(ServerlessMode::kEscra);
  EXPECT_GT(r.completed, 2900u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.cold_starts, 0u);
  EXPECT_GT(r.mean_latency_ms, 0.0);
  EXPECT_EQ(r.limits.size(), 600u);
  EXPECT_GT(r.mean_cpu_limit_cores, 0.0);
}

TEST(ServerlessHarnessTest, GridSearchSmoke) {
  GridSearchConfig cfg;
  cfg.mode = ServerlessMode::kEscra;
  cfg.runs = 1;  // one 960-task job over at most 115 pods
  const GridSearchResult r = run_grid_search(cfg);
  EXPECT_EQ(r.job_latency_s.count(), 1u);
  EXPECT_GT(r.mean_latency_s, 10.0);
  EXPECT_EQ(r.tasks_failed, 0u);
  EXPECT_GT(r.mean_cpu_limit_cores, 0.0);
  EXPECT_FALSE(r.limits.empty());
}

}  // namespace
}  // namespace escra::exp
