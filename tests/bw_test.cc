// src/bw: token-bucket shaping edge cases, NodeShaper queueing/release,
// ClusterShaper telemetry, send_flow end-to-end visibility, the Escra
// grant-on-saturation loop, byte-identical determinism of the release
// schedule across sweep worker counts, the data path's output pinned
// across commits, and releases and deliveries that re-enter the shaper and
// the network.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bw/shaper.h"
#include "bw/token_bucket.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/event_queue.h"
#include "sweep/runner.h"

namespace escra::bw {
namespace {

using sim::microseconds;
using sim::milliseconds;
using sim::seconds;

// --- TokenBucket ---------------------------------------------------------

TEST(TokenBucketTest, StartsFullAndRefillsAtRate) {
  TokenBucket b(1.0e6, 50'000.0);  // 1 MB/s, 50 KB burst
  EXPECT_TRUE(b.try_consume(0, 50'000.0));
  EXPECT_FALSE(b.try_consume(0, 1'000.0));
  // 10 ms at 1 MB/s accrues exactly 10 KB.
  EXPECT_EQ(b.time_until(0, 10'000.0), milliseconds(10));
  EXPECT_FALSE(b.try_consume(milliseconds(10) - 1, 10'000.0));
  EXPECT_TRUE(b.try_consume(milliseconds(10), 10'000.0));
}

TEST(TokenBucketTest, BurstCreditAccruesWhileIdleButIsCapped) {
  TokenBucket b(1.0e6, 50'000.0);
  ASSERT_TRUE(b.try_consume(0, 50'000.0));
  // A long idle refills to the burst ceiling, not beyond: after 10 idle
  // seconds (10 MB worth of rate) only one 50 KB burst is available.
  EXPECT_DOUBLE_EQ(b.tokens(seconds(10)), 50'000.0);
  EXPECT_TRUE(b.try_consume(seconds(10), 50'000.0));
  EXPECT_FALSE(b.try_consume(seconds(10), 1.0));
}

TEST(TokenBucketTest, ZeroRateMeansUnlimited) {
  TokenBucket b(0.0, 0.0);
  EXPECT_TRUE(b.unlimited());
  EXPECT_TRUE(b.try_consume(0, 1.0e12));
  EXPECT_TRUE(b.try_consume(0, 1.0e12));
  EXPECT_EQ(b.time_until(0, 1.0e12), 0);
}

TEST(TokenBucketTest, OversizedMessageLeavesDebtInsteadOfDeadlocking) {
  TokenBucket b(1.0e6, 50'000.0);
  // 80 KB > burst: admitted on a full bucket, drives the level negative.
  EXPECT_TRUE(b.try_consume(0, 80'000.0));
  EXPECT_LT(b.tokens(0), 0.0);
  // The next message waits for the debt plus its own credit.
  EXPECT_GT(b.time_until(0, 10'000.0), milliseconds(30));
  // And a second oversized message needs a full bucket again, not forever.
  EXPECT_EQ(b.time_until(0, 80'000.0), milliseconds(80));
}

TEST(TokenBucketTest, RateChangeSettlesOldCreditFirst) {
  TokenBucket b(1.0e6, 50'000.0);
  ASSERT_TRUE(b.try_consume(0, 50'000.0));  // empty at t=0
  // 20 ms at the old 1 MB/s rate banks 20 KB, then the rate drops 10x.
  b.set_rate(milliseconds(20), 0.1e6, 50'000.0);
  EXPECT_DOUBLE_EQ(b.tokens(milliseconds(20)), 20'000.0);
  // Further accrual runs at the new rate: +1 KB over the next 10 ms.
  EXPECT_DOUBLE_EQ(b.tokens(milliseconds(30)), 21'000.0);
}

TEST(TokenBucketTest, RateChangeForfeitsTokensAboveNewBurst) {
  TokenBucket b(1.0e6, 50'000.0);  // idle: full 50 KB
  b.set_rate(0, 1.0e6, 10'000.0);
  EXPECT_DOUBLE_EQ(b.tokens(0), 10'000.0);
}

// --- NodeShaper ----------------------------------------------------------

TEST(NodeShaperTest, ReleasesQueuedMessagesInFifoOrderAtTheRate) {
  sim::Simulation sim;
  NodeShaper shaper(sim, 0, /*nic_bps=*/1.0e9);
  shaper.set_container_rate(1, 1.0e6);  // burst = max(64 KiB, 10 KB) = 64 KiB

  std::vector<int> order;
  // The fresh lane holds one 64 KiB burst: the first message passes, the
  // next two queue behind the bucket and drain in arrival order.
  EXPECT_FALSE(shaper.shape(false, 1, 65'536, [&] { order.push_back(0); }));
  EXPECT_TRUE(shaper.shape(false, 1, 40'000, [&] { order.push_back(1); }));
  EXPECT_TRUE(shaper.shape(false, 1, 40'000, [&] { order.push_back(2); }));
  EXPECT_EQ(shaper.queued_messages(), 2u);
  sim.run_until(milliseconds(39));
  EXPECT_TRUE(order.empty());  // 40 KB at 1 MB/s needs 40 ms of credit
  sim.run_until(milliseconds(41));
  EXPECT_EQ(order, (std::vector<int>{1}));
  sim.run_until(milliseconds(81));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(shaper.queued_messages(), 0u);
}

TEST(NodeShaperTest, RateRaiseMidFlightReleasesQueuedMessagesEarly) {
  sim::Simulation sim;
  NodeShaper shaper(sim, 0, 1.0e9);
  shaper.set_container_rate(1, 1.0e6);
  sim::TimePoint released = -1;
  EXPECT_FALSE(shaper.shape(false, 1, 65'536, [] {}));  // drain the burst
  EXPECT_TRUE(shaper.shape(false, 1, 50'000, [&] { released = sim.now(); }));
  sim.run_until(milliseconds(10));  // 10 KB of the 50 KB credit accrued
  ASSERT_EQ(released, -1);
  // 10x the rate: the remaining 40 KB of credit arrives in 4 ms, not 40.
  shaper.set_container_rate(1, 10.0e6);
  sim.run_until(milliseconds(20));
  EXPECT_EQ(released, milliseconds(14));
}

TEST(NodeShaperTest, RateCutMidFlightPushesReleaseOut) {
  sim::Simulation sim;
  NodeShaper shaper(sim, 0, 1.0e9);
  shaper.set_container_rate(1, 10.0e6);  // burst = max(64 KiB, 100 KB)
  sim::TimePoint released = -1;
  EXPECT_FALSE(shaper.shape(false, 1, 100'000, [] {}));
  EXPECT_TRUE(shaper.shape(false, 1, 50'000, [&] { released = sim.now(); }));
  shaper.set_container_rate(1, 1.0e6);  // would have released at 5 ms
  sim.run_until(milliseconds(49));
  EXPECT_EQ(released, -1);
  sim.run_until(milliseconds(51));
  EXPECT_EQ(released, milliseconds(50));
}

TEST(NodeShaperTest, NicRootBucketGatesAcrossContainers) {
  sim::Simulation sim;
  // NIC burst = max(64 KiB, 10 KB) = 64 KiB shared by both containers, each
  // of whose own lane holds a fresh full burst.
  NodeShaper shaper(sim, 0, /*nic_bps=*/1.0e6);
  shaper.set_container_rate(1, 1.0e6);
  shaper.set_container_rate(2, 1.0e6);
  sim::TimePoint released = -1;
  EXPECT_FALSE(shaper.shape(false, 1, 60'000, [] {}));
  // Container 2 has private credit, but the NIC root is nearly drained: the
  // message queues behind the *node* bucket, not its own.
  EXPECT_TRUE(shaper.shape(false, 2, 60'000, [&] { released = sim.now(); }));
  sim.run_until(seconds(1));
  // NIC level after the first send: 65'536 - 60'000 = 5'536; the second
  // 60 KB message needs 54'464 bytes more at 1 MB/s ~ 54.5 ms.
  EXPECT_EQ(released, microseconds(54'464));
}

TEST(NodeShaperTest, RemoveContainerReleasesQueueUnshaped) {
  sim::Simulation sim;
  NodeShaper shaper(sim, 0, 1.0e9);
  shaper.set_container_rate(1, 1.0e6);
  std::vector<int> order;
  EXPECT_FALSE(shaper.shape(false, 1, 65'536, [] {}));
  EXPECT_TRUE(shaper.shape(false, 1, 40'000, [&] { order.push_back(1); }));
  EXPECT_TRUE(shaper.shape(false, 1, 40'000, [&] { order.push_back(2); }));
  shaper.remove_container(1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // immediate, in order
  EXPECT_EQ(shaper.queued_messages(), 0u);
  EXPECT_EQ(shaper.container_rate(1), 0.0);
}

// --- ClusterShaper telemetry --------------------------------------------

TEST(ClusterShaperTest, SamplerEmitsOnlyShapedContainersInOrder) {
  sim::Simulation sim;
  ClusterShaper shaper(sim);
  shaper.add_node(0, 1.0e9);
  shaper.attach(3, 0);
  shaper.attach(1, 0);
  shaper.attach(2, 0);
  shaper.set_container_rate(1, 1.0e6);
  shaper.set_container_rate(3, 2.0e6);
  // Container 2 stays unshaped (rate 0): no telemetry for it.

  std::vector<BwSample> samples;
  shaper.start_sampler(milliseconds(100),
                       [&](const BwSample& s) { samples.push_back(s); });
  shaper.shape_egress(1, 50'000, [] {});
  sim.run_until(milliseconds(100));
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].container, 1u);  // ascending container order
  EXPECT_EQ(samples[1].container, 3u);
  EXPECT_DOUBLE_EQ(samples[0].rate_bps, 1.0e6);
  EXPECT_DOUBLE_EQ(samples[0].used_bps, 500'000.0);  // 50 KB / 100 ms
  EXPECT_FALSE(samples[0].throttled);
  EXPECT_DOUBLE_EQ(samples[1].used_bps, 0.0);
}

TEST(ClusterShaperTest, SamplerReportsThrottlingAndQueueDepth) {
  sim::Simulation sim;
  ClusterShaper shaper(sim);
  shaper.add_node(0, 1.0e9);
  shaper.attach(1, 0);
  shaper.set_container_rate(1, 1.0e6);
  shaper.shape_egress(1, 65'536, [] {});  // spends the burst
  shaper.shape_egress(1, 60'000, [] {});  // releases at 60 ms
  shaper.shape_egress(1, 60'000, [] {});  // still queued at the 100 ms sample
  std::vector<BwSample> samples;
  shaper.start_sampler(milliseconds(100),
                       [&](const BwSample& s) { samples.push_back(s); });
  sim.run_until(milliseconds(100));
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_TRUE(samples[0].throttled);
  EXPECT_EQ(samples[0].queue_depth, 1u);
}

// --- send_flow integration ----------------------------------------------

TEST(BwNetworkTest, UnattachedContainersPassThroughAtChannelLatency) {
  sim::Simulation sim;
  net::Network network(sim);
  ClusterShaper shaper(sim);
  shaper.add_node(0, 1.0e9);
  shaper.attach(1, 0);
  shaper.set_container_rate(1, 1.0e6);
  network.set_shaper(&shaper);

  sim::TimePoint unshaped_at = -1;
  // Container 2 is unattached: pure channel latency even with big payloads.
  network.send_flow(net::Channel::kAppData, 0, 1, 2, 0, 10'000'000,
                    [&] { unshaped_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(unshaped_at, microseconds(80));  // telemetry-class latency
}

TEST(BwNetworkTest, EgressQueueDelaysDeliveryByCreditWait) {
  sim::Simulation sim;
  net::Network network(sim);
  ClusterShaper shaper(sim);
  shaper.add_node(0, 1.0e9);
  shaper.attach(1, 0);
  shaper.set_container_rate(1, 1.0e6);
  network.set_shaper(&shaper);

  sim::TimePoint first = -1, second = -1;
  network.send_flow(net::Channel::kAppData, 0, 1, 1, 0, 65'536,
                    [&] { first = sim.now(); });
  network.send_flow(net::Channel::kAppData, 0, 1, 1, 0, 50'000,
                    [&] { second = sim.now(); });
  sim.run_all();
  EXPECT_EQ(first, microseconds(80));
  // 50 KB of credit at 1 MB/s = 50 ms in the egress queue, then the wire.
  EXPECT_EQ(second, milliseconds(50) + microseconds(80));
}

// --- Escra end to end: bootstrap split -----------------------------------

// deploy() creates the containers itself but owes them the same Eq.-1-style
// bandwidth share as manage(): an equal slice of the pool, not the
// late-join rate (which would run the pool dry before the last member).
TEST(BwEscraTest, DeploySplitsThePoolEqually) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  bw::ClusterShaper shaper(sim);
  for (int n = 0; n < 2; ++n) {
    const cluster::Node& node = k8s.add_node(cluster::NodeConfig{.cores = 8.0});
    shaper.add_node(node.id(), node.config().nic_bps);
  }
  network.set_shaper(&shaper);
  core::EscraSystem escra(sim, network, k8s, 8.0, 4LL * memcg::kGiB);
  escra.enable_bandwidth(shaper, /*global_bw_bps=*/40.0e6);

  core::AppSpec app;
  app.name = "shop";
  for (int i = 0; i < 4; ++i) {
    cluster::ContainerSpec spec;
    spec.name = "svc" + std::to_string(i);
    spec.base_memory = 16 * memcg::kMiB;
    app.containers.push_back(spec);
  }
  const std::vector<cluster::Container*> deployed = escra.deploy(app);
  ASSERT_EQ(deployed.size(), 4u);
  for (const cluster::Container* c : deployed) {
    EXPECT_DOUBLE_EQ(escra.app().member_bw(c->id()), 10.0e6) << c->name();
    EXPECT_DOUBLE_EQ(shaper.container_rate(c->id()), 10.0e6) << c->name();
  }
  EXPECT_DOUBLE_EQ(escra.app().bw_unallocated(), 0.0);
}

// --- Escra end to end: saturation-driven grants --------------------------

TEST(BwEscraTest, SaturationDrivesGrantsAndReclaimFundsThem) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  cluster::Node& node = k8s.add_node(
      cluster::NodeConfig{.cores = 8.0, .nic_bps = 12.5e6});
  bw::ClusterShaper shaper(sim);
  shaper.add_node(node.id(), 12.5e6);
  network.set_shaper(&shaper);

  core::EscraConfig cfg;
  cfg.bw_gamma = 1.0e6;  // reclaim at MB/s scale for this small pool
  core::EscraSystem escra(sim, network, k8s, 8.0, 4LL * memcg::kGiB, cfg);
  obs::Observer observer;
  escra.attach_observer(observer);
  shaper.set_observer(&observer);
  escra.enable_bandwidth(shaper, /*global_bw_bps=*/10.0e6);

  cluster::ContainerSpec spec;
  spec.name = "hot";
  spec.base_memory = 16 * memcg::kMiB;
  cluster::Container& hot = k8s.create_container(spec, 1.0, 64 * memcg::kMiB);
  spec.name = "cold";
  cluster::Container& cold = k8s.create_container(spec, 1.0, 64 * memcg::kMiB);
  escra.manage({&hot, &cold});
  escra.start();

  // Equal bootstrap split of the 10 MB/s pool.
  EXPECT_DOUBLE_EQ(escra.app().member_bw(hot.id()), 5.0e6);
  EXPECT_DOUBLE_EQ(escra.app().member_bw(cold.id()), 5.0e6);

  // The hot container pushes ~9 MB/s against its 5 MB/s share; the cold one
  // stays idle. The allocator should reclaim the cold share and re-grant it.
  const std::uint32_t hot_id = hot.id();
  sim.schedule_every(milliseconds(1), milliseconds(1), [&] {
    network.send_flow(net::Channel::kAppData, 0, 0, hot_id, 0, 9'000, [] {});
  });
  sim.run_until(seconds(5));

  EXPECT_GT(observer.h.bw_grants->value(), 0u);
  EXPECT_GT(observer.h.bw_shrinks->value(), 0u);
  EXPECT_GT(observer.h.bw_throttle_events->value(), 0u);
  EXPECT_GT(escra.app().member_bw(hot.id()), 7.0e6);
  EXPECT_LT(escra.app().member_bw(cold.id()), 3.0e6);
  EXPECT_GE(escra.app().member_bw(cold.id()), core::kBwMinRate);
  // The applied shaper rate converged to the granted rate.
  EXPECT_DOUBLE_EQ(shaper.container_rate(hot.id()),
                   escra.app().member_bw(hot.id()));
}

// --- determinism across sweep worker counts ------------------------------

// One self-contained shaped scenario; returns a release-schedule trace.
// Byte-identical output across repeats and thread counts is the contract
// that makes --jobs N sweeps reproducible.
std::string release_trace(std::uint64_t seed) {
  sim::Simulation sim;
  ClusterShaper shaper(sim);
  shaper.add_node(0, 2.0e6);
  shaper.add_node(1, 2.0e6);
  for (std::uint32_t c = 1; c <= 4; ++c) {
    shaper.attach(c, c % 2);
    shaper.set_container_rate(c, 0.4e6 + 0.2e6 * c);
  }
  std::string trace;
  sim::Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t c = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    const std::size_t bytes =
        static_cast<std::size_t>(rng.uniform_int(1'000, 90'000));
    const bool ingress = rng.chance(0.5);
    sim.schedule_at(
        static_cast<sim::TimePoint>(rng.uniform_int(0, 500'000)),
        [&shaper, &sim, &trace, c, bytes, ingress] {
          const auto log = [&trace, &sim, c] {
            trace +=
                std::to_string(sim.now()) + ":c" + std::to_string(c) + "\n";
          };
          const bool queued = ingress ? shaper.shape_ingress(c, bytes, log)
                                      : shaper.shape_egress(c, bytes, log);
          if (!queued) log();
        });
  }
  sim.run_all();
  return trace;
}

TEST(BwDeterminismTest, ReleaseScheduleIsByteIdenticalAcrossJobs) {
  const std::string reference = release_trace(42);
  ASSERT_FALSE(reference.empty());
  for (const int jobs : {1, 4}) {
    const std::vector<std::string> traces =
        sweep::parallel_map<std::string>(8, jobs,
                                         [](std::size_t) { return release_trace(42); });
    for (const std::string& t : traces) EXPECT_EQ(t, reference);
  }
  // Different seeds genuinely differ (the trace is not degenerate).
  EXPECT_NE(release_trace(43), reference);
}

// --- the data path pinned across commits ---------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Messages still queued in either of the container's lanes.
std::uint64_t queue_depth(ClusterShaper& shaper, std::uint32_t container) {
  return shaper.node_shaper(shaper.node_of(container))
      ->sample(container)
      .queue_depth;
}

// Shaped send_flow traffic between two nodes, both directions shaping, with
// the app-data channel dropping and duplicating messages. One sender's rate
// is raised and one receiver's cut while their queues hold messages, and a
// container is detached with its queue non-empty. Every delivered copy logs
// (time, message tag).
std::string shaped_flow_trace(std::uint64_t seed) {
  sim::Simulation sim;
  net::Network network(sim);
  ClusterShaper shaper(sim);
  shaper.add_node(0, 3.0e6);
  shaper.add_node(1, 3.0e6);
  for (std::uint32_t c = 1; c <= 6; ++c) {
    shaper.attach(c, c % 2);
    shaper.set_container_rate(c, 0.3e6 + 0.1e6 * c);
  }
  network.set_shaper(&shaper);
  network.set_fault_rng(sim::Rng(seed + 1));
  network.set_drop_rate(net::Channel::kAppData, 0.05);
  network.set_duplicate_rate(net::Channel::kAppData, 0.1);

  std::string trace;
  sim::Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    const auto from = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    // A receiver on the other node: containers alternate nodes by parity.
    const auto to = static_cast<std::uint32_t>(
        (from + 2 * rng.uniform_int(0, 2)) % 6 + 1);
    const auto bytes =
        static_cast<std::size_t>(rng.uniform_int(1'000, 60'000));
    sim.schedule_at(
        static_cast<sim::TimePoint>(rng.uniform_int(0, 400'000)),
        [&network, &sim, &trace, i, from, to, bytes] {
          network.send_flow(
              net::Channel::kAppData, static_cast<net::EndpointId>(from % 2),
              static_cast<net::EndpointId>(to % 2), from, to, bytes,
              [&trace, &sim, i] {
                trace += std::to_string(sim.now()) + ":m" +
                         std::to_string(i) + "\n";
              });
        });
  }
  sim.schedule_at(milliseconds(150), [&] {
    EXPECT_GT(queue_depth(shaper, 1), 0u);
    shaper.set_container_rate(1, 2.0e6);  // raise
  });
  sim.schedule_at(milliseconds(250), [&] {
    EXPECT_GT(queue_depth(shaper, 4), 0u);
    shaper.set_container_rate(4, 0.2e6);  // cut
  });
  sim.schedule_at(milliseconds(350), [&] {
    EXPECT_GT(queue_depth(shaper, 5), 0u);
    shaper.detach(5);
  });
  sim.run_all();

  EXPECT_EQ(shaper.queued_messages(), 0u);
  EXPECT_GT(network.dropped_messages(), 0u);
  EXPECT_GT(network.duplicated_messages(), 0u);
  EXPECT_EQ(network.egress_bytes(),
            network.ingress_bytes() + network.dropped_bytes());
  return trace;
}

// The shaper's release schedule and the shaped send_flow path, hashed and
// compared against digests recorded at an earlier commit: a change to the
// data path's tables or message bookkeeping that claims the same behaviour
// is checked byte for byte. A change that alters behaviour on purpose must
// update the constants (and say why in its description).
TEST(BwDeterminismTest, DataPathDigestsArePinned) {
  EXPECT_EQ(fnv1a(release_trace(42)), 0x709d007e36adcd50ULL);
  EXPECT_EQ(fnv1a(shaped_flow_trace(42)), 0x9daa070a77e6831cULL);
}

// --- re-entrant releases and deliveries ----------------------------------

// Two nodes, container 1 on node 0 and container 2 on node 1, both shaped
// at 1 MB/s. Messages go to container 2, from container 1 or from an
// unattributed sender (id 0). Unattributed, the first message spends the
// receiver's 64 KiB burst, so the next ones queue in container 2's ingress
// lane and are delivered from its drain.
struct ReentrantRig {
  sim::Simulation sim;
  net::Network network{sim};
  ClusterShaper shaper{sim};
  std::vector<int> order;

  ReentrantRig() {
    shaper.add_node(0, 1.0e9);
    shaper.add_node(1, 1.0e9);
    shaper.attach(1, 0);
    shaper.set_container_rate(1, 1.0e6);
    shaper.attach(2, 1);
    shaper.set_container_rate(2, 1.0e6);
    network.set_shaper(&shaper);
  }

  // Sends tag `tag` to container 2; `then` runs after the tag is logged,
  // inside the delivery.
  void send(int tag, std::size_t bytes, std::function<void()> then = {},
            std::uint32_t from_container = 0) {
    network.send_flow(net::Channel::kAppData, 0, 1, from_container, 2, bytes,
                      [this, tag, then = std::move(then)] {
                        order.push_back(tag);
                        if (then) then();
                      });
  }

  void expect_conserved() const {
    EXPECT_EQ(network.egress_bytes(),
              network.ingress_bytes() + network.dropped_bytes());
  }
};

TEST(BwReentrancyTest, ReleaseThatGrowsTheTablesMidDrainKeepsFifo) {
  ReentrantRig rig;
  int far_delivered = 0;
  rig.send(0, 65'536);
  // Tag 1's delivery, run from container 2's ingress drain, attaches and
  // rates containers far past every table's size on the draining node, then
  // shapes a message from one of them.
  rig.send(1, 20'000, [&] {
    for (std::uint32_t c = 4096; c < 4128; ++c) {
      rig.shaper.attach(c, 1);
      rig.shaper.set_container_rate(c, 1.0e6);
    }
    rig.network.send_flow(net::Channel::kAppData, 1, 0, 4127, 1, 1'000,
                          [&] { ++far_delivered; });
  });
  rig.send(2, 20'000);
  rig.send(3, 20'000);
  rig.sim.run_all();
  EXPECT_EQ(rig.order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(far_delivered, 1);
  EXPECT_EQ(rig.shaper.node_of(4127), 1u);
  EXPECT_EQ(rig.shaper.container_rate(4127), 1.0e6);
  EXPECT_EQ(rig.shaper.queued_messages(), 0u);
  rig.expect_conserved();
}

TEST(BwReentrancyTest, ReleaseThatDetachesItsOwnContainerMidDrain) {
  ReentrantRig rig;
  rig.send(0, 65'536);
  // Tag 1's delivery detaches its own receiver from inside the receiver's
  // ingress drain: the rest of the queue is delivered there and then, in
  // order, and the drain stops.
  rig.send(1, 20'000, [&] {
    rig.shaper.detach(2);
    EXPECT_EQ(rig.order, (std::vector<int>{0, 1, 2, 3}));
  });
  rig.send(2, 20'000);
  rig.send(3, 20'000);
  rig.sim.run_all();
  EXPECT_EQ(rig.order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(rig.shaper.node_of(2), ClusterShaper::kNoNode);
  EXPECT_EQ(rig.shaper.container_rate(2), 0.0);
  EXPECT_EQ(rig.shaper.queued_messages(), 0u);

  // Detached, the receiver no longer shapes: a message sent now arrives at
  // the channel latency even though its lane had a backlog.
  const sim::TimePoint sent = rig.sim.now();
  rig.send(4, 200'000);
  rig.sim.run_all();
  EXPECT_EQ(rig.order.back(), 4);
  EXPECT_EQ(rig.sim.now(), sent + microseconds(80));
  rig.expect_conserved();
}

TEST(BwReentrancyTest, OnDeliverMaySendWhileTheMessagePoolGrows) {
  ReentrantRig rig;
  rig.network.set_fault_rng(sim::Rng(7));
  rig.network.set_drop_rate(net::Channel::kAppData, 0.1);
  rig.network.set_duplicate_rate(net::Channel::kAppData, 0.3);
  constexpr int kBudget = 300;
  int sent = 0;
  // Every delivered copy sends two more messages until the budget is spent,
  // so the in-flight pool grows from inside deliveries.
  std::function<void()> fan_out = [&] {
    for (int k = 0; k < 2 && sent < kBudget; ++k) {
      const int tag = sent++;
      rig.send(tag, 2'000 + 37 * static_cast<std::size_t>(tag), fan_out,
               /*from_container=*/1);
    }
  };
  for (int k = 0; k < 4; ++k) {
    const int tag = sent++;
    rig.send(tag, 2'000, fan_out, /*from_container=*/1);
  }
  rig.sim.run_all();

  ASSERT_EQ(sent, kBudget);
  std::vector<int> copies(kBudget, 0);
  std::vector<int> first_seen;
  for (const int tag : rig.order) {
    if (copies[tag]++ == 0) first_seen.push_back(tag);
  }
  // One callback per delivered copy: a dropped message delivers none, a
  // duplicated one two.
  EXPECT_EQ(rig.order.size(),
            static_cast<std::size_t>(kBudget) -
                rig.network.dropped_messages() +
                rig.network.duplicated_messages());
  EXPECT_GT(rig.network.dropped_messages(), 0u);
  EXPECT_GT(rig.network.duplicated_messages(), 0u);
  for (const int n : copies) EXPECT_LE(n, 2);
  // Originals leave in send order through both FIFO lanes; a copy trails
  // its original, so first deliveries keep the send order.
  EXPECT_TRUE(std::is_sorted(first_seen.begin(), first_seen.end()));
  EXPECT_EQ(rig.shaper.queued_messages(), 0u);
  rig.expect_conserved();
}

}  // namespace
}  // namespace escra::bw
