#include "net/network.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace escra::net {
namespace {

using sim::microseconds;
using sim::milliseconds;

TEST(NetworkTest, SendDeliversAfterChannelLatency) {
  sim::Simulation sim;
  Network net(sim, {.telemetry_latency = microseconds(80),
                    .rpc_latency = microseconds(150)});
  sim::TimePoint telemetry_at = -1, rpc_at = -1;
  net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 64,
              [&] { telemetry_at = sim.now(); });
  net.send_to(Channel::kControlRpc, kControllerEndpoint, 0, 128,
              [&] { rpc_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(telemetry_at, microseconds(80));
  EXPECT_EQ(rpc_at, microseconds(150));
}

TEST(NetworkTest, PerChannelAccounting) {
  sim::Simulation sim;
  Network net(sim);
  net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 100, [] {});
  net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 100, [] {});
  net.send_to(Channel::kMemoryEvent, 0, kControllerEndpoint, 50, [] {});
  sim.run_all();
  EXPECT_EQ(net.stats(Channel::kCpuTelemetry).messages, 2u);
  EXPECT_EQ(net.stats(Channel::kCpuTelemetry).bytes, 200u);
  EXPECT_EQ(net.stats(Channel::kMemoryEvent).bytes, 50u);
  EXPECT_EQ(net.stats(Channel::kRegistration).messages, 0u);
  EXPECT_EQ(net.total_bytes(), 250u);
  EXPECT_EQ(net.total_messages(), 3u);
}

TEST(NetworkTest, RpcRoundTripOrdering) {
  sim::Simulation sim;
  Network net(sim, {.rpc_latency = microseconds(100)});
  sim::TimePoint request_at = -1, response_at = -1;
  net.rpc_to(
      kControllerEndpoint, 0, 200, 80,
      [&] {
        request_at = sim.now();
        return true;
      },
      [&] { response_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(request_at, microseconds(100));
  EXPECT_EQ(response_at, microseconds(200));
  EXPECT_EQ(net.stats(Channel::kControlRpc).bytes, 280u);
  EXPECT_EQ(net.stats(Channel::kControlRpc).messages, 2u);
}

TEST(NetworkTest, SubSecondControlLoopIsFeasible) {
  // The paper's core premise: a telemetry + decision + limit-update cycle
  // completes in well under one CFS period.
  sim::Simulation sim;
  Network net(sim);
  sim::TimePoint done = -1;
  net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 66, [&] {
    net.rpc_to(
        kControllerEndpoint, 0, 280, 120,
        [&] {
          done = sim.now();
          return true;
        },
        [] {});
  });
  sim.run_all();
  EXPECT_LT(done, milliseconds(1));
}

TEST(NetworkTest, PeakBandwidthOverWindow) {
  sim::Simulation sim;
  Network net(sim, {.bandwidth_window = milliseconds(100)});
  // 10 KB in the first window, 1 KB later.
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(i * milliseconds(5),
                    [&] {
      net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 1024, [] {});
    });
  }
  sim.schedule_at(milliseconds(500),
                  [&] {
      net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 1024, [] {});
    });
  sim.run_all();
  // Peak window saw 10 KiB -> 10*1024*8 bits / 0.1 s = 819.2 kbps.
  EXPECT_NEAR(net.peak_mbps(), 0.8192, 1e-6);
}

TEST(NetworkTest, MeanBandwidthOverRun) {
  sim::Simulation sim;
  Network net(sim);
  net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 125000,
              [] {});  // 1 Mbit
  sim.run_all();
  sim.run_until(sim::seconds(1));
  EXPECT_NEAR(net.mean_mbps(), 1.0, 1e-6);
}

TEST(NetworkTest, ZeroElapsedMeanIsZero) {
  sim::Simulation sim;
  Network net(sim);
  EXPECT_DOUBLE_EQ(net.mean_mbps(), 0.0);
}

TEST(NetworkTest, JitterWorksWithoutLoss) {
  // Regression: set_jitter() used to be a silent no-op unless set_loss() had
  // installed the fault RNG first.
  sim::Simulation sim;
  Network net(sim, {.telemetry_latency = microseconds(80)});
  net.set_jitter(milliseconds(5));
  std::vector<sim::TimePoint> deliveries;
  for (int i = 0; i < 50; ++i) {
    net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 64,
                [&] { deliveries.push_back(sim.now()); });
  }
  sim.run_all();
  ASSERT_EQ(deliveries.size(), 50u);
  bool any_jittered = false;
  for (const sim::TimePoint t : deliveries) {
    EXPECT_GE(t, microseconds(80));
    EXPECT_LE(t, microseconds(80) + milliseconds(5));
    if (t > microseconds(80)) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered) << "jitter silently resolved to zero";
}

TEST(NetworkTest, PartitionDropsAddressedTrafficBothWays) {
  sim::Simulation sim;
  Network net(sim);
  net.partition(0, kControllerEndpoint);
  int to_node = 0, to_controller = 0, other_node = 0;
  net.send_to(Channel::kControlRpc, kControllerEndpoint, 0, 64,
              [&] { ++to_node; });
  net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 64,
              [&] { ++to_controller; });
  net.send_to(Channel::kCpuTelemetry, 1, kControllerEndpoint, 64,
              [&] { ++other_node; });
  sim.run_all();
  EXPECT_EQ(to_node, 0);
  EXPECT_EQ(to_controller, 0);
  EXPECT_EQ(other_node, 1) << "only the partitioned node is cut off";
  EXPECT_EQ(net.dropped_messages(), 2u);
  // Bytes were accounted before the drop (the NIC transmitted them).
  EXPECT_EQ(net.stats(Channel::kControlRpc).bytes, 64u);

  net.heal(0, kControllerEndpoint);
  net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 64,
              [&] { ++to_controller; });
  sim.run_all();
  EXPECT_EQ(to_controller, 1) << "heal restores delivery";
}

TEST(NetworkTest, SetLinkDownIsDirected) {
  sim::Simulation sim;
  Network net(sim);
  net.set_link_down(0, kControllerEndpoint, true);
  EXPECT_FALSE(net.link_up(0, kControllerEndpoint));
  EXPECT_TRUE(net.link_up(kControllerEndpoint, 0));
  int up_leg = 0, down_leg = 0;
  net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 64,
              [&] { ++down_leg; });
  net.send_to(Channel::kControlRpc, kControllerEndpoint, 0, 64,
              [&] { ++up_leg; });
  sim.run_all();
  EXPECT_EQ(down_leg, 0);
  EXPECT_EQ(up_leg, 1);
}

TEST(NetworkTest, RpcToRequestLossSilencesCall) {
  sim::Simulation sim;
  Network net(sim);
  net.set_fault_rng(sim::Rng(5));
  net.set_drop_rate(Channel::kControlRpc, 1.0 - 1e-12);
  int requests = 0, responses = 0;
  net.rpc_to(kControllerEndpoint, 0, 100, 50,
             [&] { ++requests; return true; }, [&] { ++responses; });
  sim.run_all();
  EXPECT_EQ(requests, 0);
  EXPECT_EQ(responses, 0) << "no response leg for a lost request";
  // Request bytes were accounted even though delivery failed.
  EXPECT_EQ(net.stats(Channel::kControlRpc).bytes, 100u);
}

TEST(NetworkTest, RpcToDeadReceiverNeverResponds) {
  sim::Simulation sim;
  Network net(sim);
  int requests = 0, responses = 0;
  net.rpc_to(kControllerEndpoint, 0, 100, 50,
             [&] { ++requests; return false; },  // receiver process is gone
             [&] { ++responses; });
  sim.run_all();
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(responses, 0);
  // Only the request leg was accounted — a dead process sends nothing back.
  EXPECT_EQ(net.stats(Channel::kControlRpc).bytes, 100u);
}

TEST(NetworkTest, DuplicateFaultDeliversTwice) {
  sim::Simulation sim;
  Network net(sim);
  net.set_fault_rng(sim::Rng(6));
  net.set_duplicate_rate(Channel::kControlRpc, 1.0 - 1e-12);
  int requests = 0;
  net.rpc_to(kControllerEndpoint, 0, 100, 50, [&] { ++requests; return true; },
             [] {});
  sim.run_all();
  EXPECT_EQ(requests, 2) << "receiver must handle duplicated requests";
  EXPECT_GE(net.duplicated_messages(), 1u);
}

TEST(NetworkTest, DelaySpikeAddsLatency) {
  sim::Simulation sim;
  Network net(sim, {.telemetry_latency = microseconds(80)});
  net.set_fault_rng(sim::Rng(7));
  net.set_delay_spike(Channel::kCpuTelemetry, 1.0 - 1e-12, milliseconds(10));
  sim::TimePoint delivered_at = -1;
  net.send_to(Channel::kCpuTelemetry, 0, kControllerEndpoint, 64,
              [&] { delivered_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(delivered_at, microseconds(80) + milliseconds(10));
}

TEST(NetworkTest, ChannelNames) {
  EXPECT_STREQ(channel_name(Channel::kCpuTelemetry), "cpu-telemetry");
  EXPECT_STREQ(channel_name(Channel::kMemoryEvent), "memory-event");
  EXPECT_STREQ(channel_name(Channel::kControlRpc), "control-rpc");
  EXPECT_STREQ(channel_name(Channel::kRegistration), "registration");
}

TEST(NetworkTest, DirectionalByteAccountingReconciles) {
  // Every byte handed to a NIC is either delivered or dropped, and per-
  // endpoint tx/rx totals reconcile with the aggregates — through partitions
  // (dropped), duplicate faults (bytes cross the wire once), and both the
  // addressed and data-plane entry points.
  sim::Simulation sim;
  Network net(sim);
  net.set_fault_rng(sim::Rng(11));
  net.set_duplicate_rate(Channel::kCpuTelemetry, 1.0 - 1e-12);
  net.set_link_down(0, 1, true);

  int delivered = 0;
  net.send_to(Channel::kControlRpc, 0, 1, 400, [&] { ++delivered; });   // lost
  net.send_to(Channel::kControlRpc, 1, 0, 300, [&] { ++delivered; });   // ok
  net.send_to(Channel::kCpuTelemetry, 2, 3, 50, [&] { ++delivered; });  // dup
  net.send_flow(Channel::kAppData, 2, 3, 7, 8, 1'000, [&] { ++delivered; });
  sim.run_all();

  EXPECT_EQ(delivered, 4);  // the duplicate delivers twice, counts once below
  EXPECT_EQ(net.egress_bytes(), 1'750u);
  EXPECT_EQ(net.dropped_bytes(), 400u);
  EXPECT_EQ(net.ingress_bytes(), 1'350u);
  EXPECT_EQ(net.egress_bytes(), net.ingress_bytes() + net.dropped_bytes());

  EXPECT_EQ(net.endpoint_stats(0).tx_bytes, 400u);
  EXPECT_EQ(net.endpoint_stats(0).rx_bytes, 300u);
  EXPECT_EQ(net.endpoint_stats(1).tx_bytes, 300u);
  EXPECT_EQ(net.endpoint_stats(1).rx_bytes, 0u);  // the 400 never arrived
  EXPECT_EQ(net.endpoint_stats(2).tx_bytes, 1'050u);
  EXPECT_EQ(net.endpoint_stats(3).rx_bytes, 1'050u);
  std::uint64_t tx = 0, rx = 0;
  for (const EndpointId ep : {0, 1, 2, 3}) {
    tx += net.endpoint_stats(ep).tx_bytes;
    rx += net.endpoint_stats(ep).rx_bytes;
  }
  EXPECT_EQ(tx, net.egress_bytes());
  EXPECT_EQ(rx, net.ingress_bytes());
}

TEST(NetworkTest, DirectionalCountersMirrorIntoObs) {
  sim::Simulation sim;
  Network net(sim);
  obs::MetricsRegistry registry;
  net.attach_metrics(registry);
  net.set_link_down(0, 1, true);
  net.send_to(Channel::kControlRpc, 0, 1, 250, [] {});  // dropped
  net.send_to(Channel::kControlRpc, 1, 0, 150, [] {});  // delivered
  sim.run_all();
  EXPECT_EQ(registry.find_counter("net.egress_bytes")->value(), 400u);
  EXPECT_EQ(registry.find_counter("net.ingress_bytes")->value(), 150u);
  EXPECT_EQ(registry.find_counter("net.dropped_bytes")->value(), 250u);
}

}  // namespace
}  // namespace escra::net
