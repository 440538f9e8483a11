// HTB-style hierarchical bandwidth shaping for container traffic.
//
// Mirrors how src/cfs models the CFS bandwidth controller, but for the
// network plane: every worker node owns a NodeShaper — a root token bucket
// sized to the node's NIC capacity with one child bucket per shaped
// container and direction (egress/ingress). net::Network::send_flow
// consults the ClusterShaper (the net::Shaper implementation that maps
// containers to their node's shaper) on every attributed send: a message
// within the container's rate passes straight through; one exceeding it is
// queued FIFO and released by a sim timer once tokens accumulate, so
// shaping is visible in end-to-end latency.
//
// Telemetry mirrors the CFS period hook: a periodic sampler emits one
// BwSample per shaped container (achieved rate, throttle flag, queue
// depth), which the Controller ingests like CPU stats to drive the
// allocator's bandwidth arm. Queue formation records an obs::kBwThrottled
// decision event when an Observer is attached.
//
// Everything runs on the deterministic simulation clock: identical seeds
// give byte-identical release schedules at any --jobs count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bw/token_bucket.h"
#include "net/network.h"
#include "sim/event_queue.h"

namespace escra::obs {
class Observer;
}

namespace escra::bw {

// Per-period telemetry for one shaped container (the bandwidth analogue of
// the CFS PeriodStats message).
struct BwSample {
  std::uint32_t container = 0;
  std::uint32_t node = 0;
  double rate_bps = 0.0;          // current symmetric rate limit, bytes/s
  double used_bps = 0.0;          // binding direction's achieved rate
  bool throttled = false;         // a queue formed (or persists) this period
  std::uint64_t queue_depth = 0;  // messages still queued at sample time
};

// One worker node's shaper: root NIC bucket + per-container/direction child
// buckets with FIFO queues and timer-driven release. Each rated container
// owns one row (its rate and both lanes), found through a dense
// container-id index, so a shaping decision makes no map lookup.
class NodeShaper {
 public:
  NodeShaper(sim::Simulation& sim, std::uint32_t node, double nic_bps);
  ~NodeShaper();

  NodeShaper(const NodeShaper&) = delete;
  NodeShaper& operator=(const NodeShaper&) = delete;

  std::uint32_t node() const { return node_; }
  double nic_bps() const { return nic_.rate_bps(); }

  // Sets the container's symmetric rate limit (applied to both directions).
  // <= 0 means unshaped (unlimited). Takes effect immediately: queued
  // messages re-evaluate against the new rate at the call instant.
  void set_container_rate(std::uint32_t container, double rate_bps);
  double container_rate(std::uint32_t container) const;

  // Drops the container's lanes, releasing anything still queued (in FIFO
  // order, unshaped — the container is gone, not its in-flight messages).
  void remove_container(std::uint32_t container);

  // The shaping decision for one message. Returns true when queued
  // (`release` fires later from a timer); false to pass through now.
  bool shape(bool ingress, std::uint32_t container, std::size_t bytes,
             std::function<void()> release);

  // Period accounting drained by the ClusterShaper sampler: returns the
  // container's counters since the last call and resets them.
  struct PeriodStats {
    std::uint64_t egress_bytes = 0;   // released onto the wire
    std::uint64_t ingress_bytes = 0;  // released to the receiver
    std::uint64_t throttled_msgs = 0;
    std::uint64_t queue_depth = 0;  // still queued now (not reset)
  };
  PeriodStats sample(std::uint32_t container);

  std::size_t queued_messages() const;

  void set_observer(obs::Observer* observer) { obs_ = observer; }

 private:
  struct Queued {
    std::size_t bytes = 0;
    std::function<void()> release;
  };
  // FIFO of queued messages: a vector consumed from `head`. It keeps its
  // storage when it empties and drops its consumed prefix once that is the
  // larger half, so steady-state queueing allocates nothing; a lane holds
  // storage for its deepest backlog so far.
  struct Queue {
    std::vector<Queued> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    std::size_t size() const { return items.size() - head; }
    const Queued& front() const { return items[head]; }
    void push_back(Queued q) { items.push_back(std::move(q)); }
    Queued pop_front();
  };
  struct Lane {
    TokenBucket bucket;
    Queue queue;
    sim::EventHandle timer;
    bool live = false;  // created by the container's first shaped message
    bool draining = false;
    std::uint64_t through_bytes = 0;
    std::uint64_t throttled_msgs = 0;
  };
  // One container's symmetric rate (0 = unshaped) and its two lanes. A row
  // lives from the container's first rate until remove_container (longer
  // only if a release there re-created a lane).
  struct Row {
    double rate = 0.0;
    Lane lanes[2];  // [0] egress, [1] ingress
  };
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  std::uint32_t row_index(std::uint32_t container) const {
    return container < row_of_.size() ? row_of_[container] : kNoRow;
  }
  Row* find_row(std::uint32_t container);
  Row& row(std::uint32_t container);  // finds or creates
  Lane* live_lane(std::uint32_t container, bool ingress);
  void drain(std::uint32_t container, bool ingress);
  void note_throttle(std::uint32_t container, const Lane& ln);

  sim::Simulation& sim_;
  std::uint32_t node_;
  TokenBucket nic_;  // root bucket: shaped traffic shares the NIC
  std::vector<std::uint32_t> row_of_;  // container id -> rows_ index/kNoRow
  std::vector<Row> rows_;
  std::vector<std::uint32_t> free_rows_;  // rows_ released for reuse
  obs::Observer* obs_ = nullptr;
};

// The cluster-wide net::Shaper: routes shape calls to the owning node's
// NodeShaper and runs the periodic telemetry sampler. Container ids (dense
// from 1) index the placement table and node ids (dense from 0) the node
// table.
class ClusterShaper final : public net::Shaper {
 public:
  explicit ClusterShaper(sim::Simulation& sim);
  ~ClusterShaper() override;

  ClusterShaper(const ClusterShaper&) = delete;
  ClusterShaper& operator=(const ClusterShaper&) = delete;

  NodeShaper& add_node(std::uint32_t node, double nic_bps);
  NodeShaper* node_shaper(std::uint32_t node);
  const NodeShaper* node_shaper(std::uint32_t node) const;
  double node_nic_bps(std::uint32_t node) const;

  // Places a container on a node for shaping purposes (must mirror the
  // cluster's placement). Unattached containers pass through unshaped.
  void attach(std::uint32_t container, std::uint32_t node);
  void detach(std::uint32_t container);
  // Owning node, or nullopt-like sentinel kNoNode when unattached.
  static constexpr std::uint32_t kNoNode = 0xffffffffu;
  std::uint32_t node_of(std::uint32_t container) const {
    return container < container_node_.size() ? container_node_[container]
                                              : kNoNode;
  }
  // Calls fn(container, node) for every attached container, in ascending
  // container order (so sums over the attachments are deterministic).
  template <typename Fn>
  void for_each_attachment(Fn&& fn) const {
    for (std::uint32_t c = 0; c < container_node_.size(); ++c) {
      if (container_node_[c] != kNoNode) fn(c, container_node_[c]);
    }
  }

  void set_container_rate(std::uint32_t container, double rate_bps);
  double container_rate(std::uint32_t container) const;

  // Per-period telemetry: every `period`, emits one BwSample per shaped
  // container (rate > 0), in ascending container order.
  using StatsSink = std::function<void(const BwSample&)>;
  void start_sampler(sim::Duration period, StatsSink sink);
  void stop_sampler();

  void set_observer(obs::Observer* observer);

  std::size_t queued_messages() const;

  // net::Shaper
  bool shape_egress(std::uint32_t container, std::size_t bytes,
                    std::function<void()> release) override;
  bool shape_ingress(std::uint32_t container, std::size_t bytes,
                     std::function<void()> release) override;

 private:
  void sampler_tick();

  sim::Simulation& sim_;
  std::vector<std::unique_ptr<NodeShaper>> nodes_;  // by node id
  std::vector<std::uint32_t> container_node_;  // by container id, or kNoNode
  sim::Duration sample_period_ = 0;
  sim::EventHandle sampler_;
  StatsSink sink_;
  obs::Observer* obs_ = nullptr;
};

}  // namespace escra::bw
