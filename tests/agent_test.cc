#include "core/agent.h"

#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace escra::core {
namespace {

using memcg::kMiB;

struct Rig {
  sim::Simulation sim;
  cluster::Cluster k8s{sim};
  cluster::Node& node = k8s.add_node({});
  Agent agent{node};

  cluster::Container& make(const std::string& name, double cores,
                           memcg::Bytes mem) {
    cluster::ContainerSpec s;
    s.name = name;
    s.base_memory = 64 * kMiB;
    return k8s.create_container(std::move(s), cores, mem);
  }
};

TEST(AgentTest, ManageAndUnmanage) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  EXPECT_FALSE(rig.agent.manages(c.id()));
  rig.agent.manage(c);
  EXPECT_TRUE(rig.agent.manages(c.id()));
  EXPECT_EQ(rig.agent.managed_count(), 1u);
  rig.agent.unmanage(c.id());
  EXPECT_FALSE(rig.agent.manages(c.id()));
}

TEST(AgentTest, ApplyLimitsHitCgroupsDirectly) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  rig.agent.manage(c);
  EXPECT_EQ(rig.agent.apply_limit(c.id(), Resource::kCpu, 2.5),
            Agent::Apply::kApplied);
  EXPECT_EQ(rig.agent.apply_limit(c.id(), Resource::kMem, 300.0 * kMiB),
            Agent::Apply::kApplied);
  EXPECT_DOUBLE_EQ(c.cpu_cgroup().limit_cores(), 2.5);
  EXPECT_EQ(c.mem_cgroup().limit(), 300 * kMiB);
}

TEST(AgentTest, ApplyToUnmanagedFails) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  EXPECT_EQ(rig.agent.apply_limit(c.id(), Resource::kCpu, 2.0),
            Agent::Apply::kRejected);
  EXPECT_EQ(rig.agent.apply_limit(c.id(), Resource::kMem, 1.0 * kMiB),
            Agent::Apply::kRejected);
}

TEST(AgentTest, ReclaimShrinksToUsagePlusDelta) {
  // The Section IV-C rule: if C_l > C_u + delta, set C_l' = C_u + delta and
  // report psi = C_l - C_l'.
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  rig.agent.manage(c);  // usage = 64 MiB base
  const auto result = rig.agent.reclaim(50 * kMiB, /*floor=*/16 * kMiB);
  EXPECT_EQ(c.mem_cgroup().limit(), 114 * kMiB);
  EXPECT_EQ(result.psi, (256 - 114) * kMiB);
  ASSERT_EQ(result.resizes.size(), 1u);
  EXPECT_EQ(result.resizes[0].container, c.id());
  EXPECT_EQ(result.resizes[0].new_limit, 114 * kMiB);
}

TEST(AgentTest, ReclaimSkipsTightContainers) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 100 * kMiB);  // usage 64
  rig.agent.manage(c);
  const auto result = rig.agent.reclaim(50 * kMiB, 16 * kMiB);
  // 100 <= 64 + 50: leave it alone.
  EXPECT_EQ(result.psi, 0);
  EXPECT_TRUE(result.resizes.empty());
  EXPECT_EQ(c.mem_cgroup().limit(), 100 * kMiB);
}

TEST(AgentTest, ReclaimRespectsFloor) {
  Rig rig;
  cluster::ContainerSpec s;
  s.name = "tiny";
  s.base_memory = 4 * kMiB;
  cluster::Container& c = rig.k8s.create_container(std::move(s), 1.0, 512 * kMiB);
  rig.agent.manage(c);
  const auto result = rig.agent.reclaim(10 * kMiB, /*floor=*/128 * kMiB);
  EXPECT_EQ(c.mem_cgroup().limit(), 128 * kMiB);
  EXPECT_EQ(result.psi, (512 - 128) * kMiB);
}

TEST(AgentTest, ReclaimAggregatesPsiAcrossContainers) {
  Rig rig;
  cluster::Container& a = rig.make("a", 1.0, 256 * kMiB);
  cluster::Container& b = rig.make("b", 1.0, 512 * kMiB);
  rig.agent.manage(a);
  rig.agent.manage(b);
  const auto result = rig.agent.reclaim(50 * kMiB, 16 * kMiB);
  EXPECT_EQ(result.resizes.size(), 2u);
  EXPECT_EQ(result.psi, (256 - 114) * kMiB + (512 - 114) * kMiB);
}

TEST(AgentTest, ReclaimIsIdempotentAtFixedUsage) {
  Rig rig;
  cluster::Container& c = rig.make("a", 1.0, 256 * kMiB);
  rig.agent.manage(c);
  rig.agent.reclaim(50 * kMiB, 16 * kMiB);
  const auto second = rig.agent.reclaim(50 * kMiB, 16 * kMiB);
  EXPECT_EQ(second.psi, 0) << "already at usage + delta";
}

}  // namespace
}  // namespace escra::core
