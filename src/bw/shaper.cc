#include "bw/shaper.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/observer.h"

namespace escra::bw {

namespace {
// Bucket depth as a time window of the rate: burst = rate * burst_window,
// floored so slow containers still absorb one MTU-scale batch.
constexpr double kBurstWindowS = 0.010;
constexpr double kMinBurstBytes = 64.0 * 1024.0;

double burst_for(double rate_bps) {
  return std::max(kMinBurstBytes, rate_bps * kBurstWindowS);
}
}  // namespace

// --- NodeShaper ----------------------------------------------------------

NodeShaper::NodeShaper(sim::Simulation& sim, std::uint32_t node,
                       double nic_bps)
    : sim_(sim),
      node_(node),
      nic_(nic_bps, nic_bps > 0.0 ? burst_for(nic_bps) : 0.0) {
  if (nic_bps <= 0.0) {
    throw std::invalid_argument("NodeShaper: nonpositive NIC capacity");
  }
}

NodeShaper::~NodeShaper() {
  for (Row& r : rows_) {
    for (Lane& ln : r.lanes) sim_.cancel(ln.timer);
  }
}

NodeShaper::Queued NodeShaper::Queue::pop_front() {
  Queued q = std::move(items[head++]);
  if (head == items.size()) {
    items.clear();
    head = 0;
  } else if (head * 2 >= items.size()) {
    items.erase(items.begin(),
                items.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return q;
}

NodeShaper::Row* NodeShaper::find_row(std::uint32_t container) {
  const std::uint32_t r = row_index(container);
  return r == kNoRow ? nullptr : &rows_[r];
}

NodeShaper::Row& NodeShaper::row(std::uint32_t container) {
  if (container >= row_of_.size()) row_of_.resize(container + 1, kNoRow);
  if (row_of_[container] == kNoRow) {
    if (free_rows_.empty()) {
      row_of_[container] = static_cast<std::uint32_t>(rows_.size());
      rows_.emplace_back();
    } else {
      row_of_[container] = free_rows_.back();
      free_rows_.pop_back();
    }
  }
  return rows_[row_of_[container]];
}

NodeShaper::Lane* NodeShaper::live_lane(std::uint32_t container,
                                        bool ingress) {
  Row* r = find_row(container);
  if (r == nullptr || !r->lanes[ingress].live) return nullptr;
  return &r->lanes[ingress];
}

double NodeShaper::container_rate(std::uint32_t container) const {
  const std::uint32_t r = row_index(container);
  return r == kNoRow ? 0.0 : rows_[r].rate;
}

void NodeShaper::set_container_rate(std::uint32_t container, double rate_bps) {
  const double rate = std::max(0.0, rate_bps);
  row(container).rate = rate;  // future lanes read the row's rate
  for (const bool ingress : {false, true}) {
    // Looked up per direction: the egress drain below may re-enter the
    // shaper, move the rows or remove this container.
    Lane* ln = live_lane(container, ingress);
    if (ln == nullptr) continue;
    ln->bucket.set_rate(
        sim_.now(), rate,
        rate > 0.0 ? burst_for(rate) : ln->bucket.burst_bytes());
    if (!ln->queue.empty() && !ln->draining) {
      // Queued messages re-evaluate against the new rate right now: a raise
      // can release them early, a cut pushes their release further out.
      sim_.cancel(ln->timer);
      ln->timer = sim::EventHandle{};
      drain(container, ingress);
    }
  }
}

void NodeShaper::remove_container(std::uint32_t container) {
  for (const bool ingress : {false, true}) {
    Lane* ln = live_lane(container, ingress);
    if (ln == nullptr) continue;
    sim_.cancel(ln->timer);
    // Release anything still queued, in order: the container's shaping is
    // gone, not the messages already handed to the network.
    Queue pending = std::move(ln->queue);
    *ln = Lane{};
    for (std::size_t i = pending.head; i < pending.items.size(); ++i) {
      pending.items[i].release();
    }
  }
  // The rate goes, and the row with it unless a release above re-entered
  // the shaper and re-created a lane.
  Row* r = find_row(container);
  if (r == nullptr) return;
  r->rate = 0.0;
  if (!r->lanes[0].live && !r->lanes[1].live) {
    free_rows_.push_back(row_of_[container]);
    row_of_[container] = kNoRow;
  }
}

void NodeShaper::note_throttle(std::uint32_t container, const Lane& ln) {
  if (obs_ == nullptr) return;
  obs_->h.bw_throttle_events->inc();
  obs_->record({.time = sim_.now(),
                .kind = obs::EventKind::kBwThrottled,
                .container = container,
                .node = node_ + 1,
                .before = ln.bucket.rate_bps(),
                .after = ln.bucket.rate_bps(),
                .detail = static_cast<std::int64_t>(ln.queue.size())});
}

bool NodeShaper::shape(bool ingress, std::uint32_t container,
                       std::size_t bytes, std::function<void()> release) {
  Row* r = find_row(container);
  if (r == nullptr || r->rate <= 0.0) return false;  // unshaped: pass through
  Lane& ln = r->lanes[ingress];
  const sim::TimePoint now = sim_.now();
  if (!ln.live) {
    ln.live = true;
    ln.bucket = TokenBucket(r->rate, burst_for(r->rate));
    // A fresh lane starts with a full burst of credit (idle until now), but
    // its refill clock starts at the current instant, not t=0.
    ln.bucket.tokens(now);
  }
  const double b = static_cast<double>(bytes);
  if (ln.queue.empty() && !ln.draining && ln.bucket.time_until(now, b) == 0 &&
      nic_.time_until(now, b) == 0) {
    ln.bucket.try_consume(now, b);
    nic_.try_consume(now, b);
    ln.through_bytes += bytes;
    return false;
  }
  ++ln.throttled_msgs;
  ln.queue.push_back({bytes, std::move(release)});
  if (ln.queue.size() == 1) {
    // Queue formation: the obs event that makes data-plane throttling
    // visible before the next telemetry period lands.
    note_throttle(container, ln);
    if (!ln.draining) {
      const sim::Duration wait =
          std::max(ln.bucket.time_until(now, b), nic_.time_until(now, b));
      ln.timer = sim_.schedule_after(
          std::max<sim::Duration>(wait, 1),
          [this, container, ingress] { drain(container, ingress); });
    }
  }
  return true;
}

void NodeShaper::drain(std::uint32_t container, bool ingress) {
  Lane* first = live_lane(container, ingress);
  if (first == nullptr) return;
  first->timer = sim::EventHandle{};
  first->draining = true;
  while (true) {
    // Re-find every iteration: a release() may re-enter the shaper, grow
    // the tables (moving this row) and even remove this container.
    Lane* ln = live_lane(container, ingress);
    if (ln == nullptr) return;
    if (ln->queue.empty()) {
      ln->draining = false;
      return;
    }
    const sim::TimePoint now = sim_.now();
    const double b = static_cast<double>(ln->queue.front().bytes);
    const sim::Duration wait =
        std::max(ln->bucket.time_until(now, b), nic_.time_until(now, b));
    if (wait > 0) {
      ln->draining = false;
      ln->timer = sim_.schedule_after(
          wait, [this, container, ingress] { drain(container, ingress); });
      return;
    }
    Queued head = ln->queue.pop_front();
    ln->bucket.try_consume(now, b);
    nic_.try_consume(now, b);
    ln->through_bytes += head.bytes;
    head.release();
  }
}

NodeShaper::PeriodStats NodeShaper::sample(std::uint32_t container) {
  PeriodStats s;
  Row* r = find_row(container);
  if (r == nullptr) return s;
  for (const bool ingress : {false, true}) {
    Lane& ln = r->lanes[ingress];  // a lane not yet live reads all zero
    (ingress ? s.ingress_bytes : s.egress_bytes) = ln.through_bytes;
    s.throttled_msgs += ln.throttled_msgs;
    s.queue_depth += ln.queue.size();
    ln.through_bytes = 0;
    ln.throttled_msgs = 0;
  }
  return s;
}

std::size_t NodeShaper::queued_messages() const {
  std::size_t n = 0;
  for (const Row& r : rows_) {
    for (const Lane& ln : r.lanes) n += ln.queue.size();
  }
  return n;
}

// --- ClusterShaper -------------------------------------------------------

ClusterShaper::ClusterShaper(sim::Simulation& sim) : sim_(sim) {}

ClusterShaper::~ClusterShaper() { stop_sampler(); }

NodeShaper& ClusterShaper::add_node(std::uint32_t node, double nic_bps) {
  if (node >= nodes_.size()) nodes_.resize(node + 1);
  if (nodes_[node]) {
    throw std::invalid_argument("ClusterShaper: duplicate node");
  }
  nodes_[node] = std::make_unique<NodeShaper>(sim_, node, nic_bps);
  nodes_[node]->set_observer(obs_);
  return *nodes_[node];
}

NodeShaper* ClusterShaper::node_shaper(std::uint32_t node) {
  return node < nodes_.size() ? nodes_[node].get() : nullptr;
}

const NodeShaper* ClusterShaper::node_shaper(std::uint32_t node) const {
  return node < nodes_.size() ? nodes_[node].get() : nullptr;
}

double ClusterShaper::node_nic_bps(std::uint32_t node) const {
  const NodeShaper* shaper = node_shaper(node);
  return shaper == nullptr ? 0.0 : shaper->nic_bps();
}

void ClusterShaper::attach(std::uint32_t container, std::uint32_t node) {
  if (node_shaper(node) == nullptr) {
    throw std::invalid_argument("ClusterShaper::attach: unknown node");
  }
  if (container >= container_node_.size()) {
    container_node_.resize(container + 1, kNoNode);
  }
  container_node_[container] = node;
}

void ClusterShaper::detach(std::uint32_t container) {
  const std::uint32_t node = node_of(container);
  if (node == kNoNode) return;
  nodes_[node]->remove_container(container);
  container_node_[container] = kNoNode;
}

void ClusterShaper::set_container_rate(std::uint32_t container,
                                       double rate_bps) {
  const std::uint32_t node = node_of(container);
  if (node == kNoNode) {
    throw std::invalid_argument(
        "ClusterShaper::set_container_rate: container not attached");
  }
  nodes_[node]->set_container_rate(container, rate_bps);
}

double ClusterShaper::container_rate(std::uint32_t container) const {
  const std::uint32_t node = node_of(container);
  if (node == kNoNode) return 0.0;
  return nodes_[node]->container_rate(container);
}

void ClusterShaper::start_sampler(sim::Duration period, StatsSink sink) {
  if (period <= 0) throw std::invalid_argument("start_sampler: period <= 0");
  stop_sampler();
  sample_period_ = period;
  sink_ = std::move(sink);
  sampler_ = sim_.schedule_every(sim_.now() + period, period,
                                 [this] { sampler_tick(); });
}

void ClusterShaper::stop_sampler() {
  sim_.cancel(sampler_);
  sampler_ = sim::EventHandle{};
}

void ClusterShaper::sampler_tick() {
  if (!sink_) return;
  const double period_s = sim::to_seconds(sample_period_);
  // Ascending container order: the emission order (and therefore the
  // controller's ingest order) is deterministic. The bound is re-read every
  // step, so a container the sink attaches is visited like any other.
  for (std::uint32_t container = 0; container < container_node_.size();
       ++container) {
    const std::uint32_t node = container_node_[container];
    if (node == kNoNode) continue;
    NodeShaper& shaper = *nodes_[node];
    const double rate = shaper.container_rate(container);
    if (rate <= 0.0) continue;  // unshaped: no telemetry
    const NodeShaper::PeriodStats stats = shaper.sample(container);
    BwSample s;
    s.container = container;
    s.node = node;
    s.rate_bps = rate;
    s.used_bps = static_cast<double>(
                     std::max(stats.egress_bytes, stats.ingress_bytes)) /
                 period_s;
    s.throttled = stats.throttled_msgs > 0 || stats.queue_depth > 0;
    s.queue_depth = stats.queue_depth;
    sink_(s);
  }
}

void ClusterShaper::set_observer(obs::Observer* observer) {
  obs_ = observer;
  for (const auto& shaper : nodes_) {
    if (shaper) shaper->set_observer(observer);
  }
}

std::size_t ClusterShaper::queued_messages() const {
  std::size_t n = 0;
  for (const auto& shaper : nodes_) {
    if (shaper) n += shaper->queued_messages();
  }
  return n;
}

bool ClusterShaper::shape_egress(std::uint32_t container, std::size_t bytes,
                                 std::function<void()> release) {
  const std::uint32_t node = node_of(container);
  if (node == kNoNode) return false;
  return nodes_[node]->shape(false, container, bytes, std::move(release));
}

bool ClusterShaper::shape_ingress(std::uint32_t container, std::size_t bytes,
                                  std::function<void()> release) {
  const std::uint32_t node = node_of(container);
  if (node == kNoNode) return false;
  return nodes_[node]->shape(true, container, bytes, std::move(release));
}

}  // namespace escra::bw
