#include "net/network.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace escra::net {

const char* channel_name(Channel c) {
  switch (c) {
    case Channel::kCpuTelemetry: return "cpu-telemetry";
    case Channel::kMemoryEvent: return "memory-event";
    case Channel::kControlRpc: return "control-rpc";
    case Channel::kRegistration: return "registration";
    case Channel::kHaReplication: return "ha-replication";
    case Channel::kBwTelemetry: return "bw-telemetry";
    case Channel::kAppData: return "app-data";
    case Channel::kShardControl: return "shard-control";
  }
  return "unknown";
}

Network::Network(sim::Simulation& sim, Config config)
    : sim_(sim), config_(config) {}

sim::Duration Network::latency_for(Channel channel) const {
  switch (channel) {
    case Channel::kCpuTelemetry:
    case Channel::kBwTelemetry:
    case Channel::kAppData:
      return config_.telemetry_latency;
    case Channel::kMemoryEvent:
    case Channel::kControlRpc:
    case Channel::kRegistration:
    case Channel::kHaReplication:
    case Channel::kShardControl:
      return config_.rpc_latency;
  }
  return config_.rpc_latency;
}

void Network::account(Channel channel, EndpointId from, std::size_t bytes) {
  auto& s = stats_[static_cast<int>(channel)];
  ++s.messages;
  s.bytes += bytes;
  lifetime_bytes_ += bytes;
  ++lifetime_messages_;
  auto& ep = endpoint_slot_ref(from);
  ++ep.tx_messages;
  ep.tx_bytes += bytes;
  if (obs_bytes_[static_cast<int>(channel)] != nullptr) {
    obs_bytes_[static_cast<int>(channel)]->inc(bytes);
    obs_messages_[static_cast<int>(channel)]->inc();
  }
  if (obs_egress_bytes_ != nullptr) obs_egress_bytes_->inc(bytes);

  const sim::TimePoint now = sim_.now();
  if (now - window_start_ >= config_.bandwidth_window) {
    peak_window_bytes_ = std::max(peak_window_bytes_, window_bytes_);
    // Snap the window boundary to a multiple of the window size so quiet
    // gaps do not stretch a window.
    window_start_ = now - (now % config_.bandwidth_window);
    window_bytes_ = 0;
  }
  window_bytes_ += bytes;
  peak_window_bytes_ = std::max(peak_window_bytes_, window_bytes_);
}

void Network::count_drop(std::size_t bytes) {
  ++dropped_;
  dropped_bytes_ += bytes;
  if (obs_dropped_ != nullptr) obs_dropped_->inc();
  if (obs_dropped_bytes_ != nullptr) obs_dropped_bytes_->inc(bytes);
}

void Network::ensure_fault_rng() {
  // Deterministic default so fault knobs work standalone; callers wanting
  // scenario-level reproducibility install their own via set_fault_rng.
  if (!fault_rng_.has_value()) fault_rng_.emplace(0x5e5cfa0117ULL);
}

void Network::set_fault_rng(sim::Rng rng) { fault_rng_ = rng; }

void Network::set_loss(double rate, sim::Rng rng) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("set_loss: rate out of [0,1)");
  }
  loss_rate_ = rate;
  fault_rng_ = rng;
}

void Network::set_jitter(sim::Duration max_jitter) {
  if (max_jitter < 0) throw std::invalid_argument("set_jitter: negative");
  max_jitter_ = max_jitter;
  if (max_jitter_ > 0) ensure_fault_rng();
}

void Network::set_drop_rate(Channel channel, double rate) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("set_drop_rate: rate out of [0,1)");
  }
  drop_rate_[static_cast<int>(channel)] = rate;
  if (rate > 0.0) ensure_fault_rng();
}

void Network::set_duplicate_rate(Channel channel, double rate) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("set_duplicate_rate: rate out of [0,1)");
  }
  dup_rate_[static_cast<int>(channel)] = rate;
  if (rate > 0.0) ensure_fault_rng();
}

void Network::set_delay_spike(Channel channel, double rate,
                              sim::Duration extra) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("set_delay_spike: rate out of [0,1)");
  }
  if (extra < 0) throw std::invalid_argument("set_delay_spike: negative");
  spike_rate_[static_cast<int>(channel)] = rate;
  spike_extra_[static_cast<int>(channel)] = extra;
  if (rate > 0.0) ensure_fault_rng();
}

void Network::set_link_down(EndpointId from, EndpointId to, bool down) {
  if (down) {
    down_links_.insert(link_key(from, to));
  } else {
    down_links_.erase(link_key(from, to));
  }
}

void Network::partition(EndpointId a, EndpointId b) {
  set_link_down(a, b, true);
  set_link_down(b, a, true);
}

void Network::heal(EndpointId a, EndpointId b) {
  set_link_down(a, b, false);
  set_link_down(b, a, false);
}

bool Network::link_up(EndpointId from, EndpointId to) const {
  return !down_links_.contains(link_key(from, to));
}

sim::Duration Network::jitter() {
  if (max_jitter_ <= 0 || !fault_rng_.has_value()) return 0;
  return fault_rng_->uniform_int(0, max_jitter_);
}

Network::Route Network::route(Channel channel, EndpointId from, EndpointId to,
                              std::size_t bytes) {
  Route r;
  const int ch = static_cast<int>(channel);
  // Partition check first: a severed link consumes no fault-rng draws, so a
  // partition window does not perturb the fault schedule elsewhere.
  if (!link_up(from, to)) {
    count_drop(bytes);
    return r;
  }
  // Probabilistic faults draw in a fixed order (drop, duplicate, spike,
  // jitter), each only when armed, keeping the stream stable.
  if (channel == Channel::kCpuTelemetry && loss_rate_ > 0.0 &&
      fault_rng_.has_value() && fault_rng_->chance(loss_rate_)) {
    count_drop(bytes);
    return r;  // datagram lost; UDP telemetry has no retransmit
  }
  if (drop_rate_[ch] > 0.0 && fault_rng_.has_value() &&
      fault_rng_->chance(drop_rate_[ch])) {
    count_drop(bytes);
    return r;
  }
  r.deliver = true;
  // Ingress accounted at the delivery decision, once per message (a
  // duplicate delivery re-runs the callback, not the wire).
  ingress_bytes_ += bytes;
  auto& ep = endpoint_slot_ref(to);
  ++ep.rx_messages;
  ep.rx_bytes += bytes;
  if (obs_ingress_bytes_ != nullptr) obs_ingress_bytes_->inc(bytes);
  if (dup_rate_[ch] > 0.0 && fault_rng_.has_value() &&
      fault_rng_->chance(dup_rate_[ch])) {
    r.duplicate = true;
    ++duplicated_;
    if (obs_duplicated_ != nullptr) obs_duplicated_->inc();
  }
  r.delay = latency_for(channel);
  if (spike_rate_[ch] > 0.0 && fault_rng_.has_value() &&
      fault_rng_->chance(spike_rate_[ch])) {
    r.delay += spike_extra_[ch];
  }
  r.delay += jitter();
  return r;
}

void Network::send_to(Channel channel, EndpointId from, EndpointId to,
                      std::size_t bytes, std::function<void()> on_deliver) {
  account(channel, from, bytes);  // the wire carried it either way
  const Route r = route(channel, from, to, bytes);
  if (!r.deliver) return;
  if (r.duplicate) {
    // The copy trails the original by one channel latency (e.g. a retried
    // datagram whose first attempt was only slow). Bytes are counted once:
    // the duplication is delivery-level.
    sim_.schedule_coalesced(sim_.now() + r.delay + latency_for(channel),
                            on_deliver);
  }
  sim_.schedule_coalesced(sim_.now() + r.delay, std::move(on_deliver));
}

void Network::send_flow(Channel channel, EndpointId from, EndpointId to,
                        std::uint32_t from_container,
                        std::uint32_t to_container, std::size_t bytes,
                        std::function<void()> on_deliver) {
  const std::uint32_t row = open_flow(
      {channel, from, to, to_container, bytes, std::move(on_deliver)});
  // Wire transit starts only once the sender's egress bucket releases the
  // message: accounting then reflects the *shaped* transmit time.
  if (shaper_ != nullptr && from_container != 0 &&
      shaper_->shape_egress(from_container, bytes,
                            [this, row] { transmit_flow(row); })) {
    return;  // queued behind the sender's egress bucket
  }
  transmit_flow(row);
}

std::uint32_t Network::open_flow(Flow flow) {
  if (free_flows_.empty()) {
    flows_.push_back(std::move(flow));
    return static_cast<std::uint32_t>(flows_.size() - 1);
  }
  const std::uint32_t row = free_flows_.back();
  free_flows_.pop_back();
  flows_[row] = std::move(flow);
  return row;
}

void Network::close_flow(std::uint32_t row) {
  flows_[row].on_deliver = nullptr;
  free_flows_.push_back(row);
}

void Network::transmit_flow(std::uint32_t row) {
  const Flow& f = flows_[row];
  account(f.channel, f.from, f.bytes);
  const Route r = route(f.channel, f.from, f.to, f.bytes);
  if (!r.deliver) {
    close_flow(row);
    return;
  }
  const sim::TimePoint at = sim_.now() + r.delay;
  if (r.duplicate) {
    // The copy trails the original by one channel latency in a row of its
    // own (open_flow may move flows_: `f` is not used past this call).
    const sim::TimePoint copy_at = at + latency_for(f.channel);
    const std::uint32_t dup = open_flow(Flow(f));
    sim_.schedule_coalesced(copy_at, [this, dup] { arrive_flow(dup); });
  }
  sim_.schedule_coalesced(at, [this, row] { arrive_flow(row); });
}

void Network::arrive_flow(std::uint32_t row) {
  const Flow& f = flows_[row];
  if (shaper_ != nullptr && f.to_container != 0 &&
      shaper_->shape_ingress(f.to_container, f.bytes,
                             [this, row] { deliver_flow(row); })) {
    return;  // queued behind the receiver's ingress bucket
  }
  deliver_flow(row);
}

void Network::deliver_flow(std::uint32_t row) {
  // The row is free before the callback runs: on_deliver may send again
  // and grow flows_.
  std::function<void()> cb = std::move(flows_[row].on_deliver);
  close_flow(row);
  cb();
}

void Network::rpc_to(EndpointId from, EndpointId to, std::size_t request_bytes,
                     std::size_t response_bytes,
                     std::function<bool()> on_request_delivered,
                     std::function<void()> on_response_delivered) {
  account(Channel::kControlRpc, from, request_bytes);
  const Route r = route(Channel::kControlRpc, from, to, request_bytes);
  if (!r.deliver) return;  // request lost; the caller's timeout handles it

  // One delivered request leg: run the handler; if the receiver is alive,
  // account and route the response leg back.
  auto deliver_request = [this, from, to, response_bytes,
                          req = std::move(on_request_delivered),
                          resp = std::move(on_response_delivered)]() {
    if (!req()) return;  // receiver dead: the call just hangs
    account(Channel::kControlRpc, to, response_bytes);
    const Route back = route(Channel::kControlRpc, to, from, response_bytes);
    if (!back.deliver) return;  // response lost
    if (back.duplicate) {
      sim_.schedule_coalesced(
          sim_.now() + back.delay + latency_for(Channel::kControlRpc), resp);
    }
    sim_.schedule_coalesced(sim_.now() + back.delay, resp);
  };
  if (r.duplicate) {
    // Duplicated request: the receiver sees the call twice (idempotency is
    // the receiver's job); each delivery generates its own response leg.
    sim_.schedule_coalesced(
        sim_.now() + r.delay + latency_for(Channel::kControlRpc),
        deliver_request);
  }
  sim_.schedule_coalesced(sim_.now() + r.delay, std::move(deliver_request));
}

void Network::attach_metrics(obs::MetricsRegistry& registry) {
  for (int i = 0; i < kChannelCount; ++i) {
    const std::string base =
        std::string("net.") + channel_name(static_cast<Channel>(i));
    obs_bytes_[i] = &registry.counter(base + ".bytes");
    obs_messages_[i] = &registry.counter(base + ".messages");
  }
  obs_dropped_ = &registry.counter("net.dropped_datagrams");
  obs_duplicated_ = &registry.counter("net.duplicated_messages");
  obs_egress_bytes_ = &registry.counter("net.egress_bytes");
  obs_ingress_bytes_ = &registry.counter("net.ingress_bytes");
  obs_dropped_bytes_ = &registry.counter("net.dropped_bytes");
}

const EndpointStats& Network::endpoint_stats(EndpointId endpoint) const {
  static const EndpointStats kEmpty;
  const std::size_t slot = endpoint_slot(endpoint);
  return slot < endpoint_stats_.size() ? endpoint_stats_[slot] : kEmpty;
}

const ChannelStats& Network::stats(Channel channel) const {
  return stats_[static_cast<int>(channel)];
}

std::uint64_t Network::total_bytes() const { return lifetime_bytes_; }
std::uint64_t Network::total_messages() const { return lifetime_messages_; }

double Network::peak_mbps() const {
  const std::uint64_t peak = std::max(peak_window_bytes_, window_bytes_);
  return static_cast<double>(peak) * 8.0 /
         sim::to_seconds(config_.bandwidth_window) / 1e6;
}

double Network::mean_mbps() const {
  const double elapsed = sim::to_seconds(sim_.now());
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(lifetime_bytes_) * 8.0 / elapsed / 1e6;
}

}  // namespace escra::net
