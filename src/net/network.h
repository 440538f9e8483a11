// Simulated message transport.
//
// Stands in for the paper's kernel TCP/UDP sockets (telemetry, OOM events)
// and gRPC (Controller -> Agent limit updates, reclamation requests). Three
// things matter for the reproduction and are modelled:
//   1. one-way delivery latency, which bounds how fast the control loop can
//      react (Escra's claims are sub-second; limit application is 100s of us),
//   2. per-channel byte accounting, which regenerates the network-overhead
//      microbenchmark (Section VI-I: 12.06 Mbps peak at 32 containers),
//   3. failure: directed link partitions between endpoints plus per-channel
//      probabilistic drop / duplicate / delay-spike faults, so the control
//      plane's reliability layer (retransmit, resync, fail-static) can be
//      exercised deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace escra::obs {
class Counter;
class MetricsRegistry;
}

namespace escra::net {

// Logical traffic classes, matching the paper's transports.
enum class Channel {
  kCpuTelemetry,    // per-period CFS stats, UDP in the paper
  kMemoryEvent,     // OOM events / memory requests, kernel TCP socket
  kControlRpc,      // Controller <-> Agent gRPC (limit updates, reclamation)
  kRegistration,    // container registration at deploy time
  kHaReplication,   // leader -> standby WAL stream + lease announcements
  kBwTelemetry,     // per-period bandwidth shaper stats (src/bw)
  kAppData,         // application data plane (shaped container traffic)
  kShardControl,    // shard <-> shard surplus adverts + borrow/return RPCs
};

inline constexpr int kChannelCount = 8;
inline constexpr Channel kAllChannels[kChannelCount] = {
    Channel::kCpuTelemetry, Channel::kMemoryEvent,   Channel::kControlRpc,
    Channel::kRegistration, Channel::kHaReplication, Channel::kBwTelemetry,
    Channel::kAppData,      Channel::kShardControl};

const char* channel_name(Channel c);

// Network endpoints: every message travels a directed (partitionable) link
// between two of them. Worker nodes use their zero-based NodeId; the
// Controller has a reserved address.
using EndpointId = std::int32_t;
inline constexpr EndpointId kControllerEndpoint = -1;
// Warm-standby controller replicas: standby k (by creation order) answers at
// kStandbyEndpointBase - k, keeping the whole negative standby range clear of
// node ids (>= 0) and the reserved addresses above. Sharded control planes
// interleave their shards' HA groups (HaConfig::endpoint_base and
// endpoint_stride), so the range runs -16 down to kShardEndpointBase + 1.
inline constexpr EndpointId kStandbyEndpointBase = -16;
inline constexpr EndpointId standby_endpoint(int standby_index) {
  return kStandbyEndpointBase - standby_index;
}
// Controller shards (src/shard): shard i's leader seat answers borrow/advert
// traffic at kShardEndpointBase - i. Per-node control traffic still uses
// kControllerEndpoint — a node has one control uplink regardless of how many
// shards manage containers on it — so shard endpoints only address the
// shard-to-shard borrowing protocol (partitionable per shard pair).
inline constexpr EndpointId kShardEndpointBase = -96;
inline constexpr EndpointId shard_endpoint(int shard_index) {
  return kShardEndpointBase - shard_index;
}

// Counters for one traffic class.
struct ChannelStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

// Per-endpoint directional counters. Egress (tx) is accounted when a message
// is handed to the NIC (even if the network later drops it); ingress (rx) is
// accounted once per message at the delivery decision — a duplicated message
// is delivered twice but its bytes crossed the sender's NIC once, so it
// counts once on both sides and tx/rx totals reconcile exactly.
struct EndpointStats {
  std::uint64_t tx_messages = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_messages = 0;
  std::uint64_t rx_bytes = 0;
};

// Data-plane bandwidth shaping hook (implemented by bw::ClusterShaper).
// The network consults it on every send_flow: a shape_* call either passes
// the message through (returns false; `release` is discarded) or queues it
// behind the container's token bucket (returns true; the shaper invokes
// `release` from a sim timer once enough tokens accumulate), so shaping is
// visible in end-to-end latency.
class Shaper {
 public:
  virtual ~Shaper() = default;
  virtual bool shape_egress(std::uint32_t container, std::size_t bytes,
                            std::function<void()> release) = 0;
  virtual bool shape_ingress(std::uint32_t container, std::size_t bytes,
                             std::function<void()> release) = 0;
};

// One-way latency for datagram-style telemetry (same-rack kernel path).
inline constexpr sim::Duration kTelemetryLatency = sim::microseconds(80);
// One-way latency for RPC-style control messages.
inline constexpr sim::Duration kRpcLatency = sim::microseconds(150);
// Window used for bandwidth sampling.
inline constexpr sim::Duration kBandwidthWindow = sim::milliseconds(100);

class Network {
 public:
  explicit Network(sim::Simulation& sim) : sim_(sim) {}

  // Sends `bytes` on `channel` over the directed link `from -> to`;
  // `on_deliver` runs after the channel latency. The message is lost
  // (silently, after byte accounting — the NIC transmitted it) when that
  // link is partitioned or the channel's drop fault fires.
  void send_to(Channel channel, EndpointId from, EndpointId to,
               std::size_t bytes, std::function<void()> on_deliver);

  // Container-attributed data-plane send. Like send_to, but the message is
  // charged to `from_container`'s egress and `to_container`'s ingress token
  // buckets when a shaper is attached (container id 0 = unattributed, never
  // shaped). Egress shaping happens *before* the wire — bytes are accounted
  // when the message actually transmits, so shaped traffic shows the shaped
  // rate in the bandwidth meters; ingress shaping happens after transit,
  // before `on_deliver`. With no shaper attached this is exactly send_to.
  void send_flow(Channel channel, EndpointId from, EndpointId to,
                 std::uint32_t from_container, std::uint32_t to_container,
                 std::size_t bytes, std::function<void()> on_deliver);

  // Attaches/detaches the bandwidth shaper consulted by send_flow. Nullable;
  // shaping is strictly opt-in and traffic through the other entry points is
  // never shaped.
  void set_shaper(Shaper* shaper) { shaper_ = shaper; }
  Shaper* shaper() const { return shaper_; }

  // Models a Controller->Agent RPC with fixed request/response sizes.
  // `request_bytes` are accounted at issue time; after the one-way latency
  // `on_request_delivered` runs at the receiver, then `response_bytes` are
  // accounted and `on_response_delivered` runs at the caller after the
  // return leg — a full round trip end to end. Each leg independently
  // traverses the directed link (`from -> to` for the request, `to -> from`
  // for the response) and can be lost to a partition or a drop fault — the
  // caller sees silence and must retransmit. `on_request_delivered` returns
  // false to model a dead receiver (process gone: no response is ever
  // generated). A duplicated request leg delivers the request twice,
  // exercising receiver idempotency.
  void rpc_to(EndpointId from, EndpointId to, std::size_t request_bytes,
              std::size_t response_bytes,
              std::function<bool()> on_request_delivered,
              std::function<void()> on_response_delivered);

  const ChannelStats& stats(Channel channel) const;
  std::uint64_t total_bytes() const;
  std::uint64_t total_messages() const;

  // Directional aggregates (every entry point, all channels). Every byte
  // handed to a NIC is either delivered or dropped, so
  //   egress_bytes() == ingress_bytes() + dropped_bytes()
  // holds exactly at all times (duplicate deliveries count once).
  std::uint64_t egress_bytes() const { return lifetime_bytes_; }
  std::uint64_t ingress_bytes() const { return ingress_bytes_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }

  // Per-endpoint tx/rx counters (send_to / rpc_to / send_flow).
  const EndpointStats& endpoint_stats(EndpointId endpoint) const;

  // Observability: registers per-channel byte/message counters (plus
  // dropped/duplicated message counters) as "net.<channel>.bytes" /
  // ".messages" and mirrors all subsequent traffic into them. Unattached,
  // accounting costs nothing extra.
  void attach_metrics(obs::MetricsRegistry& registry);

  // Peak bandwidth observed over any sampling window so far, in Mbps.
  double peak_mbps() const;
  // Mean bandwidth over the whole run so far, in Mbps.
  double mean_mbps() const;

  // --- fault injection ---

  // Seeds the RNG all probabilistic faults (loss, drop, duplicate, delay
  // spike) draw from. set_loss also installs its rng for backward
  // compatibility; the other knobs auto-seed a default deterministic stream
  // if none was provided — pass your own for scenario-level
  // reproducibility.
  void set_fault_rng(sim::Rng rng);

  // Drops each UDP telemetry datagram independently with probability
  // `rate`; TCP-carried traffic (memory events, registration) and RPCs are
  // not dropped by *this* knob (TCP retransmits; use set_drop_rate or
  // partitions to break them). Used to test that the control loop tolerates
  // lossy telemetry.
  void set_loss(double rate, sim::Rng rng);

  // Per-channel fault knobs (addressed and unaddressed traffic alike).
  // Rates are probabilities in [0, 1); a dropped message is accounted but
  // never delivered, a duplicated message is delivered twice (the copy
  // trails by one channel latency), a delay spike adds `extra` to the
  // delivery latency with probability `rate`.
  void set_drop_rate(Channel channel, double rate);
  void set_duplicate_rate(Channel channel, double rate);
  void set_delay_spike(Channel channel, double rate, sim::Duration extra);

  // Directed partitions between endpoints. set_link_down severs one
  // direction; partition/heal sever/restore both. Messages crossing a down
  // link are accounted, counted as dropped, and never delivered.
  void set_link_down(EndpointId from, EndpointId to, bool down);
  void partition(EndpointId a, EndpointId b);
  void heal(EndpointId a, EndpointId b);
  bool link_up(EndpointId from, EndpointId to) const;

  std::uint64_t dropped_messages() const { return dropped_; }
  std::uint64_t duplicated_messages() const { return duplicated_; }

  sim::Simulation& simulation() { return sim_; }

 private:
  // Outcome of routing one message: whether it survives, the delivery delay,
  // and whether a duplicate copy follows.
  struct Route {
    bool deliver = false;
    bool duplicate = false;
    sim::Duration delay = 0;
  };
  Route route(Channel channel, EndpointId from, EndpointId to,
              std::size_t bytes);

  // One in-flight send_flow message, pooled in flows_ so its legs (egress
  // release, wire, arrival, ingress release) capture only [this, row] and
  // allocate nothing. A duplicate delivery takes a row of its own.
  struct Flow {
    Channel channel = Channel::kAppData;
    EndpointId from = 0;
    EndpointId to = 0;
    std::uint32_t to_container = 0;
    std::size_t bytes = 0;
    std::function<void()> on_deliver;
  };
  std::uint32_t open_flow(Flow flow);
  void close_flow(std::uint32_t row);
  void transmit_flow(std::uint32_t row);
  void arrive_flow(std::uint32_t row);
  void deliver_flow(std::uint32_t row);
  void account(Channel channel, EndpointId from, std::size_t bytes);
  void count_drop(std::size_t bytes);
  sim::Duration latency_for(Channel channel) const;
  void ensure_fault_rng();
  static std::uint64_t link_key(EndpointId from, EndpointId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }

  // Maps an endpoint id onto a dense slot in endpoint_stats_: node ids
  // (>= 0) sit above a fixed band reserved for the negative reserved
  // addresses (controller -1, standby bands -16-k, shard seats -96-i), so
  // lookups are a single bounds-checked index instead of a hash probe on
  // the RPC hot path. The band must cover the deepest reserved address
  // (kShardEndpointBase - max shards) or shard seats would alias node slots.
  static constexpr std::size_t kNegativeEndpointSlots = 128;
  static std::size_t endpoint_slot(EndpointId endpoint) {
    return endpoint >= 0
               ? kNegativeEndpointSlots + static_cast<std::size_t>(endpoint)
               : static_cast<std::size_t>(-endpoint);
  }
  EndpointStats& endpoint_slot_ref(EndpointId endpoint) {
    const std::size_t slot = endpoint_slot(endpoint);
    if (slot >= endpoint_stats_.size()) endpoint_stats_.resize(slot + 1);
    return endpoint_stats_[slot];
  }

  sim::Simulation& sim_;
  ChannelStats stats_[kChannelCount] = {};
  // Current bandwidth window accumulator.
  sim::TimePoint window_start_ = 0;
  std::uint64_t window_bytes_ = 0;
  std::uint64_t peak_window_bytes_ = 0;
  std::uint64_t lifetime_bytes_ = 0;
  std::uint64_t lifetime_messages_ = 0;
  double loss_rate_ = 0.0;
  double drop_rate_[kChannelCount] = {};
  double dup_rate_[kChannelCount] = {};
  double spike_rate_[kChannelCount] = {};
  sim::Duration spike_extra_[kChannelCount] = {};
  std::optional<sim::Rng> fault_rng_;
  std::set<std::uint64_t> down_links_;  // ordered: deterministic iteration
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t ingress_bytes_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::vector<EndpointStats> endpoint_stats_;  // dense, see endpoint_slot
  Shaper* shaper_ = nullptr;
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> free_flows_;  // flows_ rows ready for reuse
  // Registry mirrors, indexed by channel; all null until attach_metrics.
  obs::Counter* obs_bytes_[kChannelCount] = {};
  obs::Counter* obs_messages_[kChannelCount] = {};
  obs::Counter* obs_dropped_ = nullptr;
  obs::Counter* obs_duplicated_ = nullptr;
  obs::Counter* obs_egress_bytes_ = nullptr;
  obs::Counter* obs_ingress_bytes_ = nullptr;
  obs::Counter* obs_dropped_bytes_ = nullptr;
};

}  // namespace escra::net
