#include "cluster/cluster.h"

#include <gtest/gtest.h>

namespace escra::cluster {
namespace {

using memcg::kGiB;
using memcg::kMiB;

ContainerSpec spec(const std::string& name) {
  ContainerSpec s;
  s.name = name;
  return s;
}

TEST(NodeTest, TracksMemoryOfAttachedContainers) {
  sim::Simulation sim;
  Cluster cluster(sim);
  Node& node = cluster.add_node({.memory_capacity = 4 * kGiB});
  Container& a = cluster.create_container(spec("a"), 1.0, 256 * kMiB);
  Container& b = cluster.create_container(spec("b"), 1.0, 512 * kMiB);
  EXPECT_EQ(node.container_count(), 2u);
  EXPECT_EQ(node.memory_in_use(),
            a.mem_cgroup().usage() + b.mem_cgroup().usage());
  EXPECT_EQ(node.memory_limit_total(), 768 * kMiB);
  EXPECT_EQ(node.memory_available(), 4 * kGiB - node.memory_in_use());
}

TEST(NodeTest, InvalidConfigThrows) {
  sim::Simulation sim;
  EXPECT_THROW(Node(sim, 0, {.memory_capacity = 0}), std::invalid_argument);
}

TEST(ClusterTest, CreateWithoutNodesThrows) {
  sim::Simulation sim;
  Cluster cluster(sim);
  EXPECT_THROW(cluster.create_container(spec("x"), 1.0, kMiB), std::logic_error);
}

TEST(ClusterTest, LeastLoadedPlacementBalances) {
  sim::Simulation sim;
  Cluster cluster(sim);
  cluster.add_node({});
  cluster.add_node({});
  cluster.add_node({});
  for (int i = 0; i < 9; ++i) {
    cluster.create_container(spec("c" + std::to_string(i)), 0.5, 64 * kMiB);
  }
  for (const auto& node : cluster.nodes()) {
    EXPECT_EQ(node->container_count(), 3u);
  }
  EXPECT_EQ(cluster.container_count(), 9u);
}

TEST(ClusterTest, PinnedPlacement) {
  sim::Simulation sim;
  Cluster cluster(sim);
  Node& first = cluster.add_node({});
  cluster.add_node({});
  for (int i = 0; i < 4; ++i) {
    cluster.create_container(spec("p"), 0.5, 64 * kMiB, &first);
  }
  EXPECT_EQ(first.container_count(), 4u);
  EXPECT_EQ(cluster.nodes()[1]->container_count(), 0u);
}

TEST(ClusterTest, FindAndNodeOf) {
  sim::Simulation sim;
  Cluster cluster(sim);
  Node& node = cluster.add_node({});
  Container& c = cluster.create_container(spec("x"), 1.0, kMiB);
  EXPECT_EQ(cluster.find_container(c.id()), &c);
  EXPECT_EQ(cluster.node_of(c.id()), &node);
  EXPECT_EQ(cluster.find_container(9999), nullptr);
  EXPECT_EQ(cluster.node_of(9999), nullptr);
}

TEST(ClusterTest, ObserverSeesCreations) {
  sim::Simulation sim;
  Cluster cluster(sim);
  cluster.add_node({});
  std::vector<ContainerId> seen;
  cluster.set_container_observer(
      [&](Container& c, Node&) { seen.push_back(c.id()); });
  Container& a = cluster.create_container(spec("a"), 1.0, kMiB);
  Container& b = cluster.create_container(spec("b"), 1.0, kMiB);
  EXPECT_EQ(seen, (std::vector<ContainerId>{a.id(), b.id()}));
}

TEST(ClusterTest, RemoveDetachesAndDestroys) {
  sim::Simulation sim;
  Cluster cluster(sim);
  Node& node = cluster.add_node({});
  Container& c = cluster.create_container(spec("gone"), 1.0, kMiB);
  const ContainerId id = c.id();
  cluster.remove_container(c);
  EXPECT_EQ(cluster.find_container(id), nullptr);
  EXPECT_EQ(cluster.node_of(id), nullptr);
  EXPECT_EQ(node.container_count(), 0u);
  EXPECT_EQ(cluster.container_count(), 0u);
}

TEST(ClusterTest, IdsAreUniqueAndStable) {
  sim::Simulation sim;
  Cluster cluster(sim);
  cluster.add_node({});
  Container& a = cluster.create_container(spec("a"), 1.0, kMiB);
  Container& b = cluster.create_container(spec("b"), 1.0, kMiB);
  const ContainerId a_id = a.id();
  cluster.remove_container(a);
  Container& c = cluster.create_container(spec("c"), 1.0, kMiB);
  EXPECT_NE(b.id(), c.id());
  EXPECT_NE(a_id, c.id()) << "ids are never reused";
}

TEST(ClusterTest, ContainersListMatchesCreation) {
  sim::Simulation sim;
  Cluster cluster(sim);
  cluster.add_node({});
  cluster.create_container(spec("a"), 1.0, kMiB);
  Container& b = cluster.create_container(spec("b"), 1.0, kMiB);
  const auto all = cluster.containers();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name(), "a");
  EXPECT_EQ(all[1]->name(), "b");
  // A removal leaves a gap that the list skips; creation order holds.
  cluster.remove_container(b);
  cluster.create_container(spec("c"), 1.0, kMiB);
  const auto rest = cluster.containers();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0]->name(), "a");
  EXPECT_EQ(rest[1]->name(), "c");
}

}  // namespace
}  // namespace escra::cluster
