#include "core/agent.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/messages.h"
#include "obs/observer.h"

namespace escra::core {

Agent::Agent(cluster::Node& node) : node_(node) {}

void Agent::manage(cluster::Container& container) {
  // Re-managing keeps the existing sequence state (idempotent).
  bool created = false;
  const std::uint32_t slot = index_.intern(container.id(), &created);
  if (slot >= containers_.size()) {
    containers_.resize(index_.capacity(), nullptr);
    seq_.resize(index_.capacity() * kResources, 0);
  }
  if (created) {
    // Fresh tenancy (first manage, or slot reuse after an unmanage): the
    // sequence state starts clean for the new container.
    std::fill_n(seq_.begin() + slot * kResources, kResources, 0);
  }
  containers_[slot] = &container;
}

void Agent::unmanage(cluster::ContainerId id) { index_.release(id); }

void Agent::record_dup(cluster::ContainerId id, double before, double offered,
                       std::uint64_t seq) {
  if (obs_ == nullptr || sim_ == nullptr) return;
  obs_->h.dup_suppressed->inc();
  obs::TraceEvent ev;
  ev.time = sim_->now();
  ev.kind = obs::EventKind::kDuplicateSuppressed;
  ev.container = id;
  ev.node = node_.id() + 1;
  ev.before = before;
  ev.after = offered;
  ev.detail = static_cast<std::int64_t>(seq);
  obs_->record(ev);
}

double Agent::read_limit(cluster::ContainerId id, cluster::Container& c,
                         Resource resource) const {
  switch (resource) {
    case Resource::kCpu:
      return c.cpu_cgroup().limit_cores();
    case Resource::kMem:
      return static_cast<double>(c.mem_cgroup().limit());
    case Resource::kBw:
      return bw_shaper_->node_of(id) == bw::ClusterShaper::kNoNode
                 ? 0.0
                 : bw_shaper_->container_rate(id);
  }
  return 0.0;
}

void Agent::write_limit(cluster::ContainerId id, cluster::Container& c,
                        Resource resource, double value) {
  switch (resource) {
    case Resource::kCpu:
      c.cpu_cgroup().set_limit_cores(value);
      break;
    case Resource::kMem:
      c.mem_cgroup().set_limit(static_cast<memcg::Bytes>(value));
      break;
    case Resource::kBw:
      // Attach on first write: after a takeover or re-adoption the
      // controller's registration-time attach may not have happened on this
      // seat.
      if (bw_shaper_->node_of(id) == bw::ClusterShaper::kNoNode) {
        bw_shaper_->attach(id, node_.id());
      }
      bw_shaper_->set_container_rate(id, value);
      break;
  }
}

Agent::Apply Agent::apply_limit(cluster::ContainerId id, Resource resource,
                                double value, std::uint64_t seq) {
  if (crashed_) return Apply::kRejected;
  if (resource == Resource::kBw && bw_shaper_ == nullptr) {
    return Apply::kRejected;
  }
  const std::uint32_t slot = index_.find(id);
  if (slot == ContainerIndex::kInvalid) return Apply::kRejected;
  cluster::Container& c = *containers_[slot];
  std::uint64_t& newest =
      seq_[slot * kResources + static_cast<std::size_t>(resource)];
  if (seq != 0 && update_seq_epoch(seq) < fenced_epoch_) {
    record_fenced(id, read_limit(id, c, resource), value, seq);
    return Apply::kFenced;
  }
  if (seq != 0 && seq <= newest) {
    record_dup(id, read_limit(id, c, resource), value, seq);
    return Apply::kStale;
  }
  write_limit(id, c, resource, value);
  if (seq != 0) newest = seq;
  if (obs_ != nullptr) obs_->h.agent_limit_applies->inc();
  return Apply::kApplied;
}

Agent::ReclaimResult Agent::reclaim(memcg::Bytes delta, memcg::Bytes floor) {
  ReclaimResult result;
  if (crashed_) return result;
  // Dense slot order: deterministic (unlike the old unordered_map walk) and
  // cache-friendly at node scale.
  index_.for_each([&](std::uint32_t slot, cluster::ContainerId id) {
    memcg::MemCgroup& mem = containers_[slot]->mem_cgroup();
    const memcg::Bytes usage = mem.usage();
    const memcg::Bytes limit = mem.limit();
    if (limit <= usage + delta) return;  // C(i)_l <= C(i)_u + δ: leave it
    const memcg::Bytes new_limit = std::max(usage + delta, floor);
    if (new_limit >= limit) return;
    mem.set_limit(new_limit);
    result.psi += limit - new_limit;
    result.resizes.push_back({id, limit, new_limit});
  });
  return result;
}

void Agent::connect(sim::Simulation& sim, net::Network& net,
                    HeartbeatSink sink) {
  sim_ = &sim;
  net_ = &net;
  heartbeat_sink_ = std::move(sink);
  last_contact_ = sim.now();
}

void Agent::start(sim::Duration heartbeat_interval, sim::Duration lease) {
  if (running_) return;
  if (sim_ == nullptr) {
    throw std::logic_error("Agent::start: connect() first");
  }
  running_ = true;
  lease_ = lease;
  last_contact_ = sim_->now();
  heartbeat_loop_ =
      sim_->schedule_every(sim_->now() + heartbeat_interval,
                           heartbeat_interval, [this] { send_heartbeat(); });
}

void Agent::stop() {
  if (!running_) return;
  running_ = false;
  if (sim_ != nullptr) sim_->cancel(heartbeat_loop_);
}

void Agent::crash() {
  if (crashed_) return;
  crashed_ = true;
  fail_static_ = false;
  // Soft state dies with the process; cgroups persist in the kernel. The
  // epoch fence goes with it — the current leader's resync re-fences.
  fenced_epoch_ = 0;
  std::fill(seq_.begin(), seq_.end(), 0);
}

void Agent::restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++incarnation_;
  if (sim_ != nullptr) last_contact_ = sim_->now();  // fresh lease
}

void Agent::record_fail_static(bool entered) {
  if (obs_ == nullptr || sim_ == nullptr) return;
  if (entered) obs_->h.fail_static_entries->inc();
  obs::TraceEvent ev;
  ev.time = sim_->now();
  ev.kind = obs::EventKind::kFailStatic;
  ev.node = node_.id() + 1;
  ev.detail = entered ? 1 : 0;
  obs_->record(ev);
}

void Agent::enter_fail_static() {
  if (fail_static_) return;
  fail_static_ = true;
  record_fail_static(true);
}

void Agent::record_fenced(cluster::ContainerId id, double before,
                          double offered, std::uint64_t seq) {
  if (obs_ == nullptr || sim_ == nullptr) return;
  obs_->h.ha_fenced_updates->inc();
  obs::TraceEvent ev;
  ev.time = sim_->now();
  ev.kind = obs::EventKind::kEpochFenced;
  ev.container = id;
  ev.node = node_.id() + 1;
  ev.before = before;
  ev.after = offered;
  ev.detail = static_cast<std::int64_t>(seq);
  obs_->record(ev);
}

void Agent::fence_epoch(std::uint64_t epoch) {
  if (crashed_) return;
  fenced_epoch_ = std::max(fenced_epoch_, epoch);
  // The fence broadcast comes from the live (new) leader: it renews the
  // lease like any other controller contact, so a takeover that beats the
  // watchdog keeps the node out of fail-static entirely.
  note_controller_contact();
}

void Agent::note_controller_contact() {
  if (crashed_ || sim_ == nullptr) return;
  last_contact_ = sim_->now();
  if (fail_static_) {
    fail_static_ = false;
    record_fail_static(false);
  }
}

void Agent::send_heartbeat() {
  if (crashed_ || net_ == nullptr) return;
  // The lease watchdog piggybacks on the heartbeat tick: silence past the
  // lease means the Controller (or the path to it) is gone — fall back to
  // fail-static rather than acting on stale intent.
  //
  // Boundary contract (strict >): contact delivered at *exactly* the lease
  // expiry instant still holds the lease — the agent stays live and only
  // strictly-longer silence trips fail-static. The controller's liveness
  // sweep uses the same strict comparison, so both sides of the lease agree
  // on the boundary deterministically.
  if (lease_ > 0 && sim_->now() - last_contact_ > lease_) enter_fail_static();
  if (!heartbeat_sink_) return;
  const cluster::NodeId node = node_.id();
  const std::uint64_t inc = incarnation_;
  net_->send_to(net::Channel::kControlRpc,
                static_cast<net::EndpointId>(node), net::kControllerEndpoint,
                kHeartbeatWireBytes,
                [sink = heartbeat_sink_, node, inc] { sink(node, inc); });
}

std::vector<Agent::SnapshotEntry> Agent::snapshot() const {
  std::vector<SnapshotEntry> out;
  out.reserve(index_.size());
  index_.for_each([&](std::uint32_t slot, cluster::ContainerId id) {
    SnapshotEntry e;
    e.id = id;
    e.container = containers_[slot];
    e.cpu_cores = e.container->cpu_cgroup().limit_cores();
    e.mem_limit = e.container->mem_cgroup().limit();
    if (bw_shaper_ != nullptr &&
        bw_shaper_->node_of(id) != bw::ClusterShaper::kNoNode) {
      e.bw_bps = bw_shaper_->container_rate(id);
    }
    out.push_back(e);
  });
  std::sort(out.begin(), out.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace escra::core
