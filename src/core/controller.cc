#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

namespace escra::core {

namespace {
// Minimum bandwidth-rate change worth an RPC, in bytes/s (8 KB/s). Matches
// the allocator's decision epsilon so a clamp that erases the whole change
// also suppresses the slot.
constexpr double kBwRateEpsilon = 8e3;
// Minimum CPU-limit change worth an RPC, in cores (the allocator's epsilon).
constexpr double kCpuLimitEpsilon = 1e-3;
// Tolerance for the RT floor-raising paths. kCpuLimitEpsilon exists to damp
// RPC churn on best-effort limits, but an admitted reservation's floor is a
// core-for-core promise: leaving the book even a milli-core short of it is a
// real deadline-miss cause the checker (kCpuEps = 1e-6) rightly flags. Only
// floating-point dust is tolerated when raising to or shedding toward a floor.
constexpr double kRtFloorSlack = 1e-9;

// Bandwidth granted to a late joiner when shaping is enabled (bytes/s).
constexpr double kLateJoinBw = 12.5e6;
// Agent -> Controller heartbeat cadence (rides the gRPC channel).
constexpr sim::Duration kHeartbeatInterval = sim::milliseconds(100);
// Controller declares a node dead after this much heartbeat silence
// (~3 missed heartbeats).
constexpr sim::Duration kLivenessTimeout = sim::milliseconds(350);
static_assert(kLivenessTimeout >= 3 * kHeartbeatInterval,
              "liveness must outlast ~3 missed heartbeats");
// A dead node's pool share is held (quarantined) this long before being
// reclaimed for the live nodes.
constexpr sim::Duration kQuarantineGrace = sim::seconds(2);
// Settle sweeps a credit-exhausted container must stay above fair share
// before its CPU limit is decayed toward the static fair share.
constexpr int kCreditDecayGrace = 3;
// Fraction of a node's NIC rate RT bandwidth reservations may claim (the
// bw arm's admission bound, applied when a reservation carries bw_bps).
constexpr double kRtBwBound = 0.5;
}  // namespace

Controller::Controller(sim::Simulation& sim, net::Network& network,
                       const EscraConfig& config, ResourceAllocator& allocator)
    : sim_(sim), net_(network), config_(config), allocator_(allocator) {}

Controller::~Controller() {
  stop();
  for (std::size_t i = 0; i < pending_open_.size(); ++i) {
    if (pending_open_[i] != 0) sim_.cancel(pending_[i].timer);
  }
  for (auto& [node, b] : batches_) {
    if (b.scheduled) sim_.cancel(b.flush);
  }
  for (auto& [node, h] : health_) sim_.cancel(h.reclaim_timer);
}

Agent& Controller::agent_for(cluster::Node& node) {
  const auto it = agents_by_node_.find(node.id());
  if (it != agents_by_node_.end()) return *it->second;
  agents_.push_back(std::make_unique<Agent>(node));
  Agent& agent = *agents_.back();
  agents_by_node_[node.id()] = &agent;
  agent.connect(sim_, net_,
                [this](cluster::NodeId n, std::uint64_t incarnation) {
                  on_heartbeat(n, incarnation);
                });
  agent.set_observer(obs_);
  agent.set_bw_shaper(bw_shaper_);
  if (started_) {
    agent.start(kHeartbeatInterval, kAgentLease);
  }
  return agent;
}

Agent* Controller::agent_at(cluster::NodeId node) {
  const auto it = agents_by_node_.find(node);
  return it != agents_by_node_.end() ? it->second : nullptr;
}

bool Controller::node_dead(cluster::NodeId node) const {
  const auto it = health_.find(node);
  return it != health_.end() && it->second.dead;
}

bool Controller::reachable(cluster::NodeId node) const {
  return net_.link_up(ep(node), net::kControllerEndpoint) &&
         net_.link_up(net::kControllerEndpoint, ep(node));
}

void Controller::set_observer(obs::Observer* observer) {
  obs_ = observer;
  for (const auto& agent : agents_) agent->set_observer(observer);
  index_.for_each([&](std::uint32_t slot, cluster::ContainerId) {
    Entry& entry = registry_[slot];
    if (observer != nullptr) {
      entry.container->cpu_cgroup().set_obs_counters(
          observer->h.cfs_periods, observer->h.cfs_throttled_periods);
      entry.container->mem_cgroup().set_obs_counters(
          observer->h.memcg_oom_kills, observer->h.memcg_oom_rescues);
    } else {
      entry.container->cpu_cgroup().set_obs_counters(nullptr, nullptr);
      entry.container->mem_cgroup().set_obs_counters(nullptr, nullptr);
    }
  });
  if (observer != nullptr) {
    observer->h.containers_active->set(static_cast<double>(index_.size()));
  }
}

obs::EventId Controller::trace_at(std::uint32_t node_tag, obs::EventKind kind,
                                  cluster::ContainerId id, double before,
                                  double after, std::int64_t detail,
                                  obs::EventId cause) {
  if (obs_ == nullptr) return 0;
  return obs_->record(obs::TraceEvent{.time = sim_.now(),
                                      .kind = kind,
                                      .container = id,
                                      .node = node_tag,
                                      .before = before,
                                      .after = after,
                                      .cause = cause,
                                      .detail = detail});
}

void Controller::register_container(cluster::Container& container,
                                    cluster::Node& node, double cores,
                                    memcg::Bytes mem) {
  register_impl(container, node, cores, mem, RegisterMode::kBootstrap);
}

void Controller::register_impl(cluster::Container& container,
                               cluster::Node& node, double cores,
                               memcg::Bytes mem, RegisterMode mode,
                               double bw_want, const cfs::RtSpec* rt,
                               double rt_bw) {
  if (crashed_) {
    // Vacant seat: queue the admission (see deferred_registrations_). The
    // container runs against its creation-time cgroup limits meanwhile —
    // unmanaged, exactly like any pod the control plane has not answered
    // yet.
    deferred_registrations_.push_back(
        DeferredRegistration{&container, &node, cores, mem});
    return;
  }
  Agent& agent = agent_for(node);
  // Late joiners (e.g. serverless pods created mid-run) receive the
  // configured defaults, clamped to whatever the pool still holds.
  if (cores <= 0.0 && mode == RegisterMode::kBootstrap) {
    // Whatever the pool still holds, up to the default; a zero grant is
    // legal (the container waits for reclaimed capacity).
    cores = std::min(config_.late_join_cores,
                     std::max(0.0, allocator_.app().cpu_unallocated()));
  }
  if (mem <= 0 && mode == RegisterMode::kBootstrap) {
    mem = std::min(config_.late_join_mem,
                   std::max<memcg::Bytes>(0, allocator_.app().mem_unallocated()));
  }
  if (mode != RegisterMode::kBootstrap) {
    // Recovery registrations re-commit values granted by an earlier seat
    // (an Agent's fail-static snapshot, or a takeover replica). The pool
    // those grants came from may have been slimmer than what this seat has
    // already committed — a stale WAL prefix rebuilds the book at an older,
    // fatter state, and a later re-adoption of a container that prefix
    // never saw would push past the global limit. Clamp to what is still
    // uncommitted: the cgroup keeps the node's fail-static truth, and the
    // shadow works back up through the normal grant path (handle_oom
    // widens OOM shortfalls by exactly this shadow/applied divergence).
    cores = std::min(cores, std::max(0.0, allocator_.app().cpu_unallocated()));
    mem = std::min(
        mem, std::max<memcg::Bytes>(0, allocator_.app().mem_unallocated()));
  }
  allocator_.register_container(container.id(), cores, mem);
  // The pool may have clamped the grant; read back the committed values.
  cores = allocator_.app().member_cores(container.id());
  mem = allocator_.app().member_mem(container.id());
  agent.manage(container);
  {
    const std::uint32_t slot = index_.intern(container.id());
    if (slot >= registry_.size()) {
      registry_.resize(index_.capacity());
      pending_.resize(index_.capacity() * kResources);
      pending_open_.resize(index_.capacity() * kResources, 0);
    }
    registry_[slot] = Entry{&container, &agent};
  }
  if (bw_shaper_ != nullptr) {
    // Bandwidth admission rides registration: bootstrap grants the plan (or
    // the late-join default); recovery modes re-admit the snapshot/replica
    // rate passed in by the caller, clamped against this seat's book.
    if (mode == RegisterMode::kBootstrap) {
      bw_want = bw_plan_ > 0.0 ? bw_plan_ : kLateJoinBw;
    }
    admit_bw(container, node, bw_want, mode);
  }
  {
    ReplicationEvent rev;
    rev.kind = ReplicationEvent::Kind::kRegister;
    rev.container = container.id();
    rev.node = node.id();
    rev.cores = cores;
    rev.mem = mem;
    rev.bw_bps = allocator_.app().member_bw(container.id());
    emit_repl(rev);
  }

  if (mode == RegisterMode::kBootstrap) {
    // Registration message on the container's new kernel socket.
    net_.send_to(net::Channel::kRegistration, ep(node.id()),
                 net::kControllerEndpoint, kRegistrationWireBytes, [] {});
    // Deploy-time bootstrap limits go straight into the cgroups — except
    // that the memory limit never drops below live usage: a pod that ran
    // before the control plane answered (admitted during an outage, drained
    // after recovery) would be OOM-killed by its own admission. The applied
    // limit stays at usage and the reclamation loop walks it toward the
    // shadow as usage allows, same as the resync path.
    container.cpu_cgroup().set_limit_cores(cores);
    container.mem_cgroup().set_limit(
        std::max(mem, container.mem_cgroup().usage()));
  }
  // Resync mode: the cgroups hold the node's fail-static truth; the shadow
  // registration reflects it and any correction travels as a normal
  // (reliable) limit update issued by the resync path.

  if (obs_ != nullptr) {
    container.cpu_cgroup().set_obs_counters(obs_->h.cfs_periods,
                                            obs_->h.cfs_throttled_periods);
    container.mem_cgroup().set_obs_counters(obs_->h.memcg_oom_kills,
                                            obs_->h.memcg_oom_rescues);
    obs_->h.registrations->inc();
    obs_->h.containers_active->set(static_cast<double>(index_.size()));
    trace(obs::EventKind::kContainerRegistered, container.id(), 0.0, cores,
          static_cast<std::int64_t>(mem));
  }

  if (config_.credit_defense) open_credit_account(container.id());

  // Kernel hook 1: per-period CFS telemetry streamed to the Controller.
  const cluster::NodeId node_id = node.id();
  container.cpu_cgroup().set_period_hook(
      [this, node_id](const cfs::PeriodStats& period) {
        CpuStatsMsg msg;
        msg.cgroup = period.cgroup;
        msg.period_end = period.period_end;
        msg.quota = period.quota;
        msg.unused = period.unused;
        msg.throttled = period.throttled;
        // Fire instant of the control loop: the kernel hook hands the
        // statistic to the wire. A throttled period opens a causal chain.
        const sim::TimePoint fire = sim_.now();
        obs::EventId cause = 0;
        if (obs_ != nullptr && msg.throttled) {
          const double limit_cores =
              static_cast<double>(msg.quota) /
              static_cast<double>(config_.cfs_period);
          cause = trace(obs::EventKind::kThrottleObserved, msg.cgroup,
                        limit_cores, limit_cores,
                        static_cast<std::int64_t>(msg.unused));
        }
        net_.send_to(net::Channel::kCpuTelemetry, ep(node_id),
                     net::kControllerEndpoint, kCpuStatsWireBytes,
                     [this, msg, cause, fire] {
                       ingest_cpu_stats(msg, cause, fire);
                     });
      });

  // Kernel hook 2: pre-OOM trap in try_charge().
  cluster::Container* cptr = &container;
  container.mem_cgroup().set_oom_hook(
      [this, cptr](memcg::MemCgroup&, memcg::Bytes charge,
                   memcg::Bytes shortfall) {
        return handle_oom(*cptr, charge, shortfall);
      });

  // RT reservation recovery. Takeover re-installs the replicated image
  // (exactly-once: install_rt re-emits the kRt record so the new leader's
  // stream rebuilds the standbys). Resync re-derives the reservation from
  // the node-side container — the periodic-job model and its burst survive
  // a controller crash (fail static), so the node is the authoritative
  // record a restarted seat can actually reach. Neither path re-runs the
  // admission test: the reservation was admitted once, by a live leader.
  if (mode == RegisterMode::kTakeover && rt != nullptr && rt->valid()) {
    install_rt(container.id(), *rt, rt_bw, /*fresh=*/false);
  } else if (mode == RegisterMode::kResync && container.rt().valid()) {
    // The bandwidth arm of the reservation is controller soft state with no
    // node-side mirror; a plain restart conservatively re-admits CPU only.
    install_rt(container.id(), container.rt(), 0.0, /*fresh=*/false);
  }
}

void Controller::deregister_container(cluster::Container& container) {
  std::erase_if(deferred_registrations_,
                [&container](const DeferredRegistration& d) {
                  return d.container == &container;
                });
  const Entry* entry = find_entry(container.id());
  if (entry == nullptr) return;
  Agent* agent = entry->agent;
  // Reason 0: the reservation is released with its container.
  release(container.id(), /*rt_reason=*/0);
  agent->unmanage(container.id());
  // The container is gone: tear down its shaper lane (queued messages
  // release unshaped). Quarantine reclaim does NOT do this — a dead node's
  // shaper is unreachable and keeps its fail-static rates.
  if (bw_shaper_ != nullptr) bw_shaper_->detach(container.id());
  container.cpu_cgroup().set_period_hook(nullptr);
  container.mem_cgroup().set_oom_hook(nullptr);
  container.cpu_cgroup().set_obs_counters(nullptr, nullptr);
  container.mem_cgroup().set_obs_counters(nullptr, nullptr);
}

void Controller::release(cluster::ContainerId id, int rt_reason) {
  // An admitted reservation is never dropped silently: the explicit
  // eviction decision precedes the kill event so the trace always explains
  // why the floor vanished.
  if (rt_.count(id) != 0) evict_rt(id, rt_reason);
  trace(obs::EventKind::kContainerKilled, id, allocator_.app().member_cores(id),
        0.0, static_cast<std::int64_t>(allocator_.app().member_mem(id)));
  if (obs_ != nullptr) obs_->h.deregistrations->inc();
  cancel_pending_for(id);
  close_credit_account(id);
  emit_repl({.kind = ReplicationEvent::Kind::kDeregister, .container = id});
  allocator_.deregister_container(id);
  index_.release(id);
  if (obs_ != nullptr) {
    obs_->h.containers_active->set(static_cast<double>(index_.size()));
  }
}

void Controller::start() {
  if (started_) return;
  started_ = true;
  reclaim_loop_ =
      sim_.schedule_every(sim_.now() + config_.reclaim_interval,
                          config_.reclaim_interval,
                          [this] { run_periodic_reclaim(); });
  liveness_loop_ =
      sim_.schedule_every(sim_.now() + kHeartbeatInterval,
                          kHeartbeatInterval,
                          [this] { run_liveness_check(); });
  if (config_.credit_defense) {
    settle_loop_ =
        sim_.schedule_every(sim_.now() + config_.cfs_period,
                            config_.cfs_period, [this] { settle_credits(); });
  }
  for (const auto& agent : agents_) {
    agent->start(kHeartbeatInterval, kAgentLease);
  }
}

void Controller::stop() {
  if (!started_) return;
  started_ = false;
  sim_.cancel(reclaim_loop_);
  sim_.cancel(liveness_loop_);
  sim_.cancel(settle_loop_);
  for (const auto& agent : agents_) agent->stop();
}

void Controller::crash() {
  if (crashed_) return;
  crashed_ = true;
  // Controller-side loops die with the process. The Agents are separate
  // processes: their heartbeat loops keep running (and go unanswered, which
  // is how they notice and fall back to fail-static).
  if (started_) {
    started_ = false;
    sim_.cancel(reclaim_loop_);
    sim_.cancel(liveness_loop_);
    sim_.cancel(settle_loop_);
  }
  for (std::size_t i = 0; i < pending_open_.size(); ++i) {
    if (pending_open_[i] != 0) {
      sim_.cancel(pending_[i].timer);
      pending_open_[i] = 0;
    }
  }
  open_pending_ = 0;
  for (auto& [node, b] : batches_) {
    if (b.scheduled) sim_.cancel(b.flush);
  }
  batches_.clear();
  for (auto& [node, h] : health_) sim_.cancel(h.reclaim_timer);
  health_.clear();
  // Soft state is gone: registry and pool accounting are rebuilt from the
  // Agents' snapshots on restart. Kernel hooks and cgroup limits live on
  // the nodes and persist — the cluster fails static.
  index_.clear();
  allocator_.reset();
  // The ledger dies with the process (soft state): balances AND the
  // mint/burn totals reset together, so conservation holds from zero when
  // the seat returns. Under HA the standby's replica preserves the image.
  credits_.clear();
  // The admitted RT set is soft state too — but the reservations are not
  // lost: the node-side periodic-job models keep running fail-static, and
  // resync/takeover re-derive the admitted set (the floors re-arm before
  // any allocator decision can fire, so no reservation is ever shrunk by a
  // seat that forgot it).
  rt_.clear();
  rt_reserved_cores_ = 0.0;
  if (obs_ != nullptr) {
    obs_->h.containers_active->set(0.0);
    obs_->h.rt_reserved_cores->set(0.0);
  }
}

void Controller::restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++incarnation_;
  update_seq_ = 0;
  start();  // agents still running their loops: Agent::start is a no-op
  // Rebuild the registry and pool accounting by pulling every Agent's
  // managed-container inventory.
  for (const auto& agent : agents_) {
    resync_node(agent->node().id(), *agent);
  }
  // Admissions queued during the outage. Snapshot responses are still in
  // flight, so the book may under-count — a resync landing later re-adopts
  // at a clamped shadow and pushes the corrective shrink, which the
  // conservation checker covers as in-flight divergence.
  drain_deferred_registrations();
}

void Controller::enable_bandwidth(bw::ClusterShaper& shaper) {
  bw_shaper_ = &shaper;
  for (const auto& agent : agents_) agent->set_bw_shaper(bw_shaper_);
  // The sampler is the bandwidth analogue of the CFS period hook: one
  // BwSample per shaped container per period, shipped to the Controller on
  // its own telemetry channel (lost when the path is down, like CPU stats).
  shaper.start_sampler(
      config_.cfs_period, [this](const bw::BwSample& sample) {
        net_.send_to(net::Channel::kBwTelemetry, ep(sample.node),
                     net::kControllerEndpoint, kBwStatsWireBytes,
                     [this, sample] { on_bw_stats(sample); });
      });
}

double Controller::node_bw_headroom(cluster::NodeId node,
                                    cluster::ContainerId except) const {
  if (bw_shaper_ == nullptr) return 0.0;
  const double nic = bw_shaper_->node_nic_bps(node);
  double used = 0.0;
  bw_shaper_->for_each_attachment([&](std::uint32_t id, std::uint32_t n) {
    if (n != node || id == except) return;
    // The larger of the applied shaper rate and the book's shadow rate: an
    // in-flight grant is already committed in the book, an unlanded shrink
    // is still applied at the node — counting the max keeps the sum of
    // applied rates under the NIC in both directions of divergence. A
    // fail-static attachment can outlive the book across a controller
    // crash (members are rebuilt from resync; shaper state persists on the
    // node), so the shadow rate only counts for current members.
    const double book = allocator_.app().is_member(id)
                            ? allocator_.app().member_bw(id)
                            : 0.0;
    used += std::max(bw_shaper_->container_rate(id), book);
  });
  return std::max(0.0, nic - used);
}

void Controller::admit_bw(cluster::Container& container, cluster::Node& node,
                          double want, RegisterMode mode) {
  if (bw_shaper_ == nullptr) return;
  if (bw_shaper_->node_shaper(node.id()) == nullptr) return;  // no shaper here
  const cluster::ContainerId id = container.id();
  const bool attached = bw_shaper_->node_of(id) != bw::ClusterShaper::kNoNode;
  if (want <= 0.0) {
    // Recovery with no recorded rate (a replica that never saw a bandwidth
    // slot): adopt the node's fail-static shaper rate if the container is
    // still attached there; otherwise it stays unshaped.
    if (!attached) return;
    want = bw_shaper_->container_rate(id);
    if (want <= 0.0) return;
  }
  const double grant =
      std::min({want, std::max(0.0, allocator_.app().bw_unallocated()),
                node_bw_headroom(node.id(), id)});
  if (grant < kBwMinRate) {
    // Below the admission floor: an allocation that small would starve the
    // container behind its own shaper — better unshaped (NIC-contended)
    // until the pool can cover the floor.
    return;
  }
  const double committed = allocator_.app().set_member_bw(id, grant);
  if (committed <= 0.0) return;
  const double applied = attached ? bw_shaper_->container_rate(id) : 0.0;
  if (mode == RegisterMode::kBootstrap) {
    // Deploy-time bootstrap rates go straight into the shaper, like the
    // registration-time cgroup writes.
    if (!attached) bw_shaper_->attach(id, node.id());
    bw_shaper_->set_container_rate(id, committed);
  } else if (std::abs(applied - committed) > kBwRateEpsilon) {
    // Recovery: the shaper keeps the node's fail-static truth; the
    // correction travels as a normal sequenced update.
    LoopCtx ctx;
    push_limit(id, Resource::kBw, committed, ctx);
  }
}

void Controller::on_bw_stats(const bw::BwSample& sample) {
  if (crashed_) return;
  if (obs_ != nullptr) obs_->h.bw_stats_ingested->inc();

  Entry* rit = find_entry(sample.container);
  if (rit == nullptr) return;
  // Dead-node quarantine, same as the CPU path: no decisions for a node
  // that cannot apply them.
  if (rit->agent != nullptr && node_dead(rit->agent->node().id())) {
    return;
  }
  if (!allocator_.knows(sample.container)) return;

  // Physically-impossible bandwidth telemetry: a flow cannot move more
  // bytes/s than its node's NIC, and rates are non-negative.
  if (rit->agent != nullptr) {
    const double nic = rit->agent->node().config().nic_bps;
    if (sample.used_bps < 0.0 || (nic > 0.0 && sample.used_bps > nic)) {
      if (obs_ != nullptr) obs_->h.telemetry_rejected->inc();
      trace(obs::EventKind::kTelemetryRejected, sample.container,
            2.0,  // resource flag: 2 = bandwidth
            nic, static_cast<std::int64_t>(sample.used_bps));
      return;
    }
  }

  obs::EventId cause = 0;
  if (sample.throttled) {
    if (obs_ != nullptr) obs_->h.bw_saturation->inc();
    cause = trace(obs::EventKind::kBwSaturation, sample.container,
                  sample.rate_bps, sample.rate_bps,
                  static_cast<std::int64_t>(sample.queue_depth));
  }

  const double before = allocator_.app().member_bw(sample.container);
  const auto decision = allocator_.on_bw_stats(sample);
  if (!decision.has_value()) return;

  // NIC conservation: a grant may not push the node's summed applied rates
  // past its NIC, counting every peer at the larger of its applied and book
  // rate (in-flight slots in either direction stay accounted). Shrinks only
  // free capacity and are never clamped. The allocator already moved the
  // book to *decision; a clamp writes the book back down.
  double target = *decision;
  if (target > before && rit->agent != nullptr) {
    const cluster::NodeId node = rit->agent->node().id();
    const double headroom = node_bw_headroom(node, sample.container);
    const double clamped = std::max(before, std::min(target, headroom));
    if (clamped < target) {
      target = allocator_.app().set_member_bw(sample.container, clamped);
    }
  }

  // The decision trace event always lands (1:1 with the allocator's
  // grant/shrink counters), even when the NIC clamp reduced it to a no-op;
  // the slot is only opened for a change worth an RPC.
  LoopCtx ctx;
  ctx.fire = sim_.now();
  ctx.ingest = sim_.now();
  ctx.decide = sim_.now();
  ctx.cause = trace(*decision > before ? obs::EventKind::kBwGrant
                                       : obs::EventKind::kBwShrink,
                    sample.container, before, target, 0, cause);
  if (std::abs(target - before) > kBwRateEpsilon) {
    push_limit(sample.container, Resource::kBw, target, ctx);
  }
}

void Controller::on_cpu_stats(const CpuStatsMsg& stats) {
  // Direct entry point (tests, replay): no causal ancestor, and the fire
  // instant is the period boundary the statistic describes.
  ingest_cpu_stats(stats, /*cause=*/0, /*fire_time=*/stats.period_end);
}

void Controller::ingest_cpu_stats(const CpuStatsMsg& stats, obs::EventId cause,
                                  sim::TimePoint fire_time) {
  if (crashed_) return;  // nobody home
  ++stats_received_;
  if (obs_ != nullptr) obs_->h.stats_ingested->inc();

  // Dead-node quarantine: decisions for a dead node's containers are
  // suppressed — an update could not be applied there, and the share is
  // frozen until reclaimed (or the node returns and resyncs).
  const Entry* rit = find_entry(stats.cgroup);
  if (rit != nullptr && rit->agent != nullptr &&
      node_dead(rit->agent->node().id())) {
    return;
  }

  // Harden ingestion against lying telemetry: a reading no real cgroup
  // could produce is dropped before it reaches the allocator.
  if (!telemetry_plausible(stats, rit)) return;

  const bool known = allocator_.knows(stats.cgroup);
  const double before =
      known ? allocator_.app().member_cores(stats.cgroup) : 0.0;
  const auto decision = allocator_.on_cpu_stats(stats);
  if (!decision.has_value()) return;
  apply_cpu_decision(stats.cgroup, before, *decision, fire_time, cause);
}

void Controller::apply_cpu_decision(cluster::ContainerId id, double before,
                                    double cores, sim::TimePoint fire_time,
                                    obs::EventId cause) {
  if (crashed_) return;
  LoopCtx ctx;
  ctx.fire = fire_time;
  ctx.ingest = sim_.now();
  ctx.decide = sim_.now();  // synchronous allocator: decide == ingest
  ctx.profile = true;
  ctx.cause = trace(cores > before ? obs::EventKind::kCpuGrant
                                   : obs::EventKind::kCpuShrink,
                    id, before, cores, 0, cause);
  push_limit(id, Resource::kCpu, cores, ctx);
}

void Controller::push_limit(cluster::ContainerId id, Resource resource,
                            double value, LoopCtx ctx) {
  if (crashed_) return;
  const std::uint32_t slot = index_.find(id);
  if (slot == ContainerIndex::kInvalid) return;
  Entry& entry = registry_[slot];
  ++limit_updates_;
  const std::size_t idx = static_cast<std::size_t>(slot) * kResources +
                          static_cast<std::size_t>(resource);
  Pending& p = pending_[idx];
  if (pending_open_[idx] == 0) {
    p = Pending{};  // closed row may hold a prior tenant's stale fields
    pending_open_[idx] = 1;
    ++open_pending_;
  } else if (p.timer.valid()) {
    sim_.cancel(p.timer);  // superseded: newest wins
  }
  p.seq = next_seq();
  p.resource = resource;
  p.value = value;
  p.attempts = 0;
  p.backoff = kRpcRetryTimeout;
  p.ctx = ctx;
  if (obs_ != nullptr) obs_->h.rpcs_issued->inc();
  // `before` is the resource flag. The detail is the logical (unbatched-
  // equivalent) RPC size; the batched path's actual wire accounting lands in
  // the net.* counters and controller.batched_*.
  p.rpc_event = trace(obs::EventKind::kRpcIssued, id,
                      static_cast<double>(resource), value,
                      static_cast<std::int64_t>(kLimitUpdateRpcBytes),
                      ctx.cause);
  {
    using Kind = ReplicationEvent::Kind;
    ReplicationEvent rev;
    rev.kind = resource == Resource::kCpu   ? Kind::kCpuSlot
               : resource == Resource::kMem ? Kind::kMemSlot
                                            : Kind::kBwSlot;
    rev.container = id;
    rev.node = entry.agent->node().id();
    rev.seq = p.seq;
    rev.resource = resource;
    rev.set_slot_value(value);
    emit_repl(rev);
  }
  dispatch_update(update_key(id, resource), entry.agent->node().id());
}

void Controller::dispatch_update(std::uint64_t key, cluster::NodeId node) {
  Pending* p = find_pending(key);
  if (p == nullptr) return;
  NodeBatch& batch = batches_[node];
  if (!p->queued) {
    p->queued = true;
    batch.keys.push_back(key);
  }
  if (!batch.scheduled) {
    batch.scheduled = true;
    // Same-tick flush: runs after every event already queued at this
    // timestamp, so all of a period's decisions for the node coalesce into
    // one RPC without delaying any of them.
    batch.flush =
        sim_.schedule_after(0, [this, node] { flush_node_batch(node); });
  }
}

void Controller::flush_node_batch(cluster::NodeId node) {
  const auto bit = batches_.find(node);
  if (bit == batches_.end()) return;
  NodeBatch& batch = bit->second;
  batch.scheduled = false;
  const std::vector<std::uint64_t> keys = std::move(batch.keys);
  batch.keys.clear();
  if (crashed_ || keys.empty()) return;

  std::vector<WireEntry> entries;
  entries.reserve(keys.size());
  Agent* agent = nullptr;
  for (const std::uint64_t key : keys) {
    Pending* p = find_pending(key);
    if (p == nullptr) continue;  // acked or canceled before the flush
    Entry* entry = find_entry(static_cast<cluster::ContainerId>(key >> 2));
    if (entry->agent == nullptr) {
      p->queued = false;
      continue;
    }
    if (entry->agent->node().id() != node) {
      // Re-registered on another node between dispatch and flush: hand the
      // slot to the node that owns it now.
      p->queued = false;
      dispatch_update(key, entry->agent->node().id());
      continue;
    }
    p->queued = false;
    agent = entry->agent;
    entries.push_back({key, static_cast<cluster::ContainerId>(key >> 2),
                       p->seq, p->resource, p->value, p->rpc_event, p->ctx,
                       node_tag(*entry)});
  }
  if (entries.empty() || agent == nullptr) return;

  if (obs_ != nullptr) {
    obs_->h.batched_rpcs->inc();
    obs_->h.batch_entries->inc(static_cast<std::uint64_t>(entries.size()));
  }
  const std::size_t req_bytes =
      kBatchedLimitUpdateHdrBytes + entries.size() * kBatchedLimitEntryBytes;
  const std::size_t resp_bytes =
      kBatchedLimitAckHdrBytes + entries.size() * kBatchedLimitAckEntryBytes;
  // (key, seq) pairs the Agent acks; shared between the request and
  // response legs. A duplicated request delivery rebuilds the list (the
  // applies are idempotent, and on_update_ack ignores a closed slot).
  auto acks = std::make_shared<
      std::vector<std::pair<std::uint64_t, std::uint64_t>>>();
  const cluster::NodeId node_id = node;
  net_.rpc_to(
      net::kControllerEndpoint, ep(node_id), req_bytes, resp_bytes,
      // Request delivered at the Agent: apply every entry on its own.
      // Entries rejected (crashed/unmanaged) or fenced get no ack — their
      // retransmit timers carry them; if *no* entry landed there is no
      // response at all.
      [this, agent, entries, acks]() -> bool {
        acks->clear();
        for (const WireEntry& w : entries) {
          if (apply_at_agent(*agent, w)) acks->emplace_back(w.key, w.seq);
        }
        return !acks->empty();
      },
      // Response: per-entry acks. Unacked entries stay pending and
      // retransmit individually — partial-batch loss never re-sends what
      // already landed.
      [this, acks, node_id] {
        for (const auto& [key, seq] : *acks) on_update_ack(key, seq, node_id);
      });

  for (const WireEntry& w : entries) {
    Pending* p = find_pending(w.key);
    if (p == nullptr || p->seq != w.seq) continue;
    p->timer = sim_.schedule_after(p->backoff, [this, key = w.key,
                                                seq = w.seq] {
      on_update_timeout(key, seq);
    });
  }
}

bool Controller::apply_at_agent(Agent& agent, const WireEntry& w) {
  const Agent::Apply result =
      agent.apply_limit(w.id, w.resource, w.value, w.seq);
  if (result == Agent::Apply::kRejected) return false;
  // A fenced update means this epoch has been deposed: the Agent will not
  // act on it and must not treat it as live-controller contact — no ack,
  // the slot dies with the old epoch.
  if (result == Agent::Apply::kFenced) return false;
  agent.note_controller_contact();  // a delivered update renews the lease
  if (result == Agent::Apply::kApplied && obs_ != nullptr) {
    obs_->h.rpcs_applied->inc();
    // Detail is the applied sequence (epoch in the high 16 bits): the
    // invariant checker derives the no-split-brain rule — per-(container,
    // resource) applied sequences strictly increase — from it. The cause is
    // the original issue, across retransmits.
    trace_at(w.node_tag, obs::EventKind::kRpcApplied, w.id,
             static_cast<double>(w.resource), w.value,
             static_cast<std::int64_t>(w.seq), w.rpc_event);
    if (w.ctx.profile) {
      obs_->profiler().record_loop(w.ctx.fire, w.ctx.ingest, w.ctx.decide,
                                   sim_.now());
    }
  }
  return true;  // ack (duplicate deliveries ack too: idempotent)
}

void Controller::on_update_ack(std::uint64_t key, std::uint64_t seq,
                               cluster::NodeId node) {
  if (crashed_) return;
  // Any traffic from the node proves it alive.
  health_[node].last_heartbeat = sim_.now();
  Pending* p = find_pending(key);
  if (p == nullptr || p->seq != seq) return;  // superseded
  sim_.cancel(p->timer);
  {
    ReplicationEvent rev;
    rev.kind = ReplicationEvent::Kind::kAckSlot;
    rev.container = static_cast<cluster::ContainerId>(key >> 2);
    rev.node = node;
    rev.seq = seq;
    rev.resource = p->resource;
    emit_repl(rev);
  }
  const std::uint32_t slot =
      index_.find(static_cast<cluster::ContainerId>(key >> 2));
  pending_open_[static_cast<std::size_t>(slot) * kResources + (key & 3)] = 0;
  --open_pending_;
}

void Controller::on_update_timeout(std::uint64_t key, std::uint64_t seq) {
  if (crashed_) return;
  Pending* pp = find_pending(key);
  if (pp == nullptr || pp->seq != seq) return;
  Pending& p = *pp;
  ++p.attempts;
  ++retransmits_;
  const auto id = static_cast<cluster::ContainerId>(key >> 2);
  if (obs_ != nullptr) obs_->h.retransmits->inc();
  trace(obs::EventKind::kRetransmit, id, static_cast<double>(p.resource),
        p.value, p.attempts, p.rpc_event);
  p.backoff = std::min<sim::Duration>(p.backoff * 2, kRpcBackoffMax);
  // Re-send the *newest* desired value and re-arm the timer. The batched
  // path re-enqueues: several entries timing out at the same instant for
  // one node coalesce back into a single retransmit RPC, and only unacked
  // entries ride it.
  const Entry* entry = find_entry(id);
  dispatch_update(key, entry->agent->node().id());
}

void Controller::cancel_pending_for(cluster::ContainerId id) {
  const std::uint32_t slot = index_.find(id);
  if (slot == ContainerIndex::kInvalid) return;
  for (std::size_t r = 0; r < kResources; ++r) {
    const std::size_t idx = static_cast<std::size_t>(slot) * kResources + r;
    if (pending_open_[idx] == 0) continue;
    sim_.cancel(pending_[idx].timer);
    pending_open_[idx] = 0;
    --open_pending_;
  }
}

void Controller::on_heartbeat(cluster::NodeId node,
                              std::uint64_t incarnation) {
  if (crashed_) return;  // nobody listening; the Agent's lease will expire
  if (obs_ != nullptr) obs_->h.heartbeats->inc();
  NodeHealth& h = health_[node];
  const bool was_dead = h.dead;
  const bool first_contact = h.agent_incarnation == 0;
  const bool agent_restarted =
      h.agent_incarnation != 0 && h.agent_incarnation != incarnation;
  h.last_heartbeat = sim_.now();
  h.agent_incarnation = incarnation;
  // Liveness *transitions* (not every heartbeat) replicate to the standbys:
  // the incarnation map and dead/alive state are part of the takeover image.
  if (first_contact || was_dead || agent_restarted) {
    emit_health(node, incarnation, /*dead=*/false);
  }
  if (was_dead) {
    h.dead = false;
    sim_.cancel(h.reclaim_timer);  // quarantine lifted
    if (obs_ != nullptr) obs_->h.nodes_alive->inc();
    trace_at(node_tag(node), obs::EventKind::kNodeAlive, 0, 0.0, 0.0,
             static_cast<std::int64_t>(incarnation));
  }
  Agent* agent = agent_at(node);
  if (agent != nullptr) {
    // Ack the heartbeat so the Agent's lease stays fresh.
    net_.send_to(net::Channel::kControlRpc, net::kControllerEndpoint,
                 ep(node), kHeartbeatAckWireBytes,
                 [agent] { agent->note_controller_contact(); });
    // A node back from the dead (possibly with reclaimed containers) or a
    // restarted Agent (sequence table lost) needs reconciliation.
    if (was_dead || agent_restarted) resync_node(node, *agent);
  }
}

void Controller::run_liveness_check() {
  if (crashed_) return;
  for (auto& [node, h] : health_) {
    if (h.dead || h.agent_incarnation == 0) continue;
    if (sim_.now() - h.last_heartbeat > kLivenessTimeout) {
      declare_dead(node, h);
    }
  }
}

void Controller::declare_dead(cluster::NodeId node, NodeHealth& health) {
  health.dead = true;
  emit_health(node, health.agent_incarnation, /*dead=*/true);
  if (obs_ != nullptr) obs_->h.nodes_dead->inc();
  trace_at(node_tag(node), obs::EventKind::kNodeDead, 0, 0.0, 0.0,
           sim_.now() - health.last_heartbeat);  // silence at declaration, us
  // Quarantine: the node's pool share is frozen (decisions suppressed) for
  // the grace period, then reclaimed for the live nodes.
  health.reclaim_timer = sim_.schedule_after(
      kQuarantineGrace, [this, node] { reclaim_dead_node(node); });
}

void Controller::emit_health(cluster::NodeId node, std::uint64_t incarnation,
                             bool dead) {
  emit_repl({.kind = ReplicationEvent::Kind::kNodeHealth,
             .node = node,
             .agent_incarnation = incarnation,
             .node_dead = dead});
}

void Controller::reclaim_dead_node(cluster::NodeId node) {
  if (crashed_) return;
  const auto hit = health_.find(node);
  if (hit == health_.end() || !hit->second.dead) return;
  std::vector<cluster::ContainerId> ids;
  index_.for_each([&](std::uint32_t slot, cluster::ContainerId id) {
    const Entry& entry = registry_[slot];
    if (entry.agent != nullptr && entry.agent->node().id() == node) {
      ids.push_back(id);
    }
  });
  std::sort(ids.begin(), ids.end());  // deterministic reclaim order
  // Fail-static reclaim of a dead node's share: each container's pool
  // commitment is released, but the node is unreachable — its kernel hooks
  // and cgroup limits stay exactly as they are (the Agent still "manages"
  // it locally). If the node returns, resync re-adopts the container. RT
  // admissions are revoked explicitly (reason 1): a reservation cannot be
  // honored on a dead node.
  for (const cluster::ContainerId id : ids) release(id, /*rt_reason=*/1);
}

void Controller::resync_node(cluster::NodeId node, Agent& agent) {
  if (crashed_) return;
  Agent* agent_ptr = &agent;
  auto snap = std::make_shared<std::vector<Agent::SnapshotEntry>>();
  net_.rpc_to(
      net::kControllerEndpoint, ep(node), kResyncRpcBytes, kResyncRespBytes,
      [agent_ptr, snap]() -> bool {
        if (agent_ptr->crashed()) return false;
        *snap = agent_ptr->snapshot();
        agent_ptr->note_controller_contact();
        return true;
      },
      [this, node, agent_ptr, snap] { apply_resync(node, *agent_ptr, *snap); });
}

void Controller::apply_resync(cluster::NodeId node, Agent& agent,
                              const std::vector<Agent::SnapshotEntry>& snap) {
  if (crashed_) return;
  health_[node].last_heartbeat = sim_.now();  // the response proves liveness
  const double eps = 1e-9;
  for (const Agent::SnapshotEntry& s : snap) {
    if (s.container == nullptr) continue;
    double want_cores = 0.0;
    double want_bw = 0.0;
    bool push_bw = false;
    if (index_.contains(s.id)) {
      // Still registered (Agent restart without Controller loss): the
      // shadow limits are authoritative; reconcile the node toward them.
      want_cores = allocator_.app().member_cores(s.id);
      want_bw = allocator_.app().member_bw(s.id);
      push_bw = bw_shaper_ != nullptr &&
                std::abs(want_bw - s.bw_bps) > kBwRateEpsilon;
      if (std::abs(want_cores - s.cpu_cores) <= eps && !push_bw) continue;
    } else {
      // Re-adoption (Controller restart, or a node back after its share
      // was reclaimed): the node's fail-static limits are the starting
      // point, clamped to what the pool still holds. Bandwidth re-admission
      // (with the same clamp and its own corrective slot) rides inside.
      const double cores = std::min(
          s.cpu_cores, std::max(0.0, allocator_.app().cpu_unallocated()));
      const memcg::Bytes mem = std::min(
          s.mem_limit,
          std::max<memcg::Bytes>(0, allocator_.app().mem_unallocated()));
      register_impl(*s.container, agent.node(), cores, mem,
                    RegisterMode::kResync, s.bw_bps);
      want_cores = allocator_.app().member_cores(s.id);
      want_bw = allocator_.app().member_bw(s.id);
    }
    ++resyncs_;
    if (obs_ != nullptr) obs_->h.resyncs->inc();
    // Before: the applied (fail-static) limit at the node; after: the
    // controller-intended shadow limit.
    const obs::EventId resync_ev = trace_at(
        node_tag(node), obs::EventKind::kResync, s.id, s.cpu_cores,
        want_cores, static_cast<std::int64_t>(s.mem_limit));
    // Corrective update where the node diverges from the intent. Memory
    // is left to the periodic reclamation loop (shrinking a memory limit
    // below live usage would manufacture OOMs).
    LoopCtx ctx;
    ctx.cause = resync_ev;
    if (std::abs(want_cores - s.cpu_cores) > eps) {
      push_limit(s.id, Resource::kCpu, want_cores, ctx);
    }
    if (push_bw) push_limit(s.id, Resource::kBw, want_bw, ctx);
  }
}

bool Controller::handle_oom(cluster::Container& container, memcg::Bytes charge,
                            memcg::Bytes shortfall) {
  // The event travels the container's persistent kernel TCP socket; the
  // limit raise returns over RPC. The container is stalled for the round
  // trip by its own rescue path; here we account the bytes and decide.
  const Entry* it = find_entry(container.id());
  const cluster::NodeId node =
      it != nullptr && it->agent != nullptr ? it->agent->node().id() : 0;
  net_.send_to(net::Channel::kMemoryEvent, ep(node), net::kControllerEndpoint,
               kOomEventWireBytes, [] {});
  // A crashed Controller, a severed path, or an unregistered container
  // (quarantine-reclaimed) leaves the request unanswered: the hook returns
  // false and the kernel's normal OOM path proceeds against the container's
  // fail-static limit.
  if (crashed_ || it == nullptr || !reachable(node) ||
      !allocator_.knows(container.id())) {
    return false;
  }
  ++oom_events_;
  if (obs_ != nullptr) obs_->h.oom_events->inc();

  const memcg::Bytes old_limit = container.mem_cgroup().limit();
  OomEventMsg event;
  event.container = container.id();
  event.attempted_charge = charge;
  // The kernel reports the shortfall against the *applied* cgroup limit,
  // but the allocator raises the *shadow* limit. After a crash/resync the
  // shadow may sit below the node's fail-static applied limit; widen the
  // request by that divergence so the granted shadow still clears the
  // applied position — otherwise the "grant" would lower the cgroup limit
  // mid-OOM and kill a container the allocator judged grantable.
  event.shortfall =
      shortfall +
      std::max<memcg::Bytes>(
          0, old_limit - allocator_.app().member_mem(container.id()));

  auto decision = allocator_.on_oom_event(event, /*post_reclaim=*/false);
  bool retried = false;
  if (decision.action == ResourceAllocator::MemAction::kReclaimThenRetry) {
    retried = true;
    // Pool dry: aggressive reclamation from containers with slack
    // (Section III "Reactive Memory Reclamation"), then retry once.
    run_emergency_reclaim();
    // The sweep may have shrunk this container's own limit, so the original
    // shortfall is stale; a grant sized from it leaves the retried charge
    // over the new limit and OOM-kills a container the pool could cover.
    // Same shadow-divergence widening as above (the sweep re-syncs shadows
    // for containers it resized, so recompute from current state).
    event.shortfall =
        container.mem_cgroup().usage() + charge -
        std::min(container.mem_cgroup().limit(),
                 allocator_.app().member_mem(container.id()));
    // A non-positive recomputed shortfall means the books say the charge
    // already fits: a real charge failure always leaves usage + charge
    // above the applied limit, so the claimed OOM was forged. Deny — a
    // negative shortfall fed to the allocator would round to a negative
    // page count and turn the "grant" into a limit cut.
    if (event.shortfall <= 0) return false;
    decision = allocator_.on_oom_event(event, /*post_reclaim=*/true);
  }
  if (decision.action != ResourceAllocator::MemAction::kGrant) return false;

  // Describe the grant against the state the decision acted on: the applied
  // limit at grant time, and the shortfall the grant was issued to cover —
  // the kernel's reported shortfall on the direct path, the recomputed
  // book shortfall on the post-reclaim retry (the sweep may have shrunk
  // this container's own limit, so the entry-time claim is stale). For an
  // honest event both equal usage + charge - limit; for a forged event the
  // claim can bear no relation to the books, and the grant is priced by
  // the credit charge below, not second-guessed here.
  const memcg::Bytes pre_grant_limit = container.mem_cgroup().limit();
  const memcg::Bytes eff_shortfall =
      retried ? container.mem_cgroup().usage() + charge - pre_grant_limit
              : shortfall;

  // Apply synchronously: the charge retries as soon as the hook returns.
  container.mem_cgroup().set_limit(decision.new_limit);
  const bool saved =
      container.mem_cgroup().usage() + charge <= decision.new_limit;
  if (saved) ++oom_rescues_;
  if (saved && obs_ != nullptr) obs_->h.oom_rescues->inc();
  const obs::EventId grant_ev =
      trace(obs::EventKind::kMemGrantOnOom, container.id(),
            static_cast<double>(pre_grant_limit),
            static_cast<double>(decision.new_limit),
            static_cast<std::int64_t>(eff_shortfall));
  // The synchronous write rescued the charge, but only an acked, sequence-
  // numbered desired-state slot survives a controller handoff: route the
  // grant through the slot machinery so an un-acked grant is replicated and
  // a new leader replays it. The slot carries the absolute limit, so the
  // Agent-side re-apply is idempotent — the memcg charge succeeds exactly
  // once, never doubled by the replay.
  LoopCtx ctx;
  ctx.cause = grant_ev;
  push_limit(container.id(), Resource::kMem,
             static_cast<double>(decision.new_limit), ctx);

  // Karma coupling for memory: an OOM grant that lifts the member above its
  // fair share of the global memory limit spends the same credit currency
  // as CPU overclaiming — a phantom-OOM attack drains the attacker's
  // balance, and with it the CPU elasticity the balance was buying.
  if (config_.credit_defense && credits_.contains(container.id()) &&
      allocator_.app().member_count() > 0) {
    const memcg::Bytes fair_mem = static_cast<memcg::Bytes>(
        allocator_.app().mem_limit() /
        static_cast<memcg::Bytes>(allocator_.app().member_count()));
    const memcg::Bytes over =
        decision.new_limit - std::max(pre_grant_limit, fair_mem);
    if (fair_mem > 0 && over > 0) {
      // Price: fraction of a fair memory share taken, in fair-share-seconds.
      // Debt is floored at -kCreditCap, same as the settle sweep.
      charge_credits(container.id(),
                     CreditLedger::to_micro(static_cast<double>(over) /
                                            static_cast<double>(fair_mem)),
                     static_cast<std::int64_t>(over), grant_ev);
    }
  }
  return saved;
}

std::vector<Controller::TakeoverContainer> Controller::registry_snapshot() {
  std::vector<TakeoverContainer> out;
  out.reserve(index_.size());
  index_.for_each([&](std::uint32_t, cluster::ContainerId id) {
    TakeoverContainer c;
    c.id = id;
    c.cores = allocator_.app().member_cores(id);
    c.mem = allocator_.app().member_mem(id);
    c.bw_bps = allocator_.app().member_bw(id);
    const auto rt = rt_.find(id);
    if (rt != rt_.end()) {
      c.rt = rt->second.spec;
      c.rt_bw_bps = rt->second.bw_bps;
    }
    out.push_back(c);
  });
  std::sort(out.begin(), out.end(),
            [](const TakeoverContainer& a, const TakeoverContainer& b) {
              return a.id < b.id;
            });
  return out;
}

std::vector<Controller::TakeoverSlot> Controller::pending_slots() const {
  std::vector<TakeoverSlot> out;
  out.reserve(open_pending_);
  index_.for_each([&](std::uint32_t slot, cluster::ContainerId id) {
    for (std::size_t r = 0; r < kResources; ++r) {
      const std::size_t idx = static_cast<std::size_t>(slot) * kResources + r;
      if (pending_open_[idx] == 0) continue;
      const Pending& p = pending_[idx];
      out.push_back(TakeoverSlot{id, p.resource, p.value, p.seq});
    }
  });
  std::sort(out.begin(), out.end(),
            [](const TakeoverSlot& a, const TakeoverSlot& b) {
              return a.id != b.id ? a.id < b.id : a.resource < b.resource;
            });
  return out;
}

std::vector<Controller::TakeoverNode> Controller::health_snapshot() const {
  std::vector<TakeoverNode> out;
  out.reserve(health_.size());
  for (const auto& [node, h] : health_) {
    TakeoverNode n;
    n.node = node;
    n.agent_incarnation = h.agent_incarnation;
    n.dead = h.dead;
    out.push_back(n);
  }
  std::sort(out.begin(), out.end(),
            [](const TakeoverNode& a, const TakeoverNode& b) {
              return a.node < b.node;
            });
  return out;
}

std::vector<Agent*> Controller::agents() {
  std::vector<Agent*> out;
  out.reserve(agents_.size());
  for (const auto& agent : agents_) out.push_back(agent.get());
  return out;
}

void Controller::takeover(std::uint64_t epoch,
                          const std::vector<TakeoverContainer>& containers,
                          const std::vector<TakeoverSlot>& slots,
                          const std::vector<TakeoverNode>& nodes,
                          obs::EventId cause) {
  // A live (deposed) leader is crashed first by the caller; a dead one is
  // simply re-seated. Either way the seat starts from the replica, not from
  // Agent snapshots.
  crashed_ = false;
  // Never move the epoch backwards: a plain restart() may have burned
  // intermediate incarnations this election never observed.
  incarnation_ = std::max(epoch, incarnation_ + 1);
  update_seq_ = 0;
  start();  // agents keep their own loops; Agent::start is a no-op for them

  // Node health first, so registration sees liveness state. Dead nodes
  // restart their quarantine clock under the new leader — the share is
  // reclaimed `kQuarantineGrace` after takeover, not retroactively.
  for (const TakeoverNode& n : nodes) {
    NodeHealth& h = health_[n.node];
    h.last_heartbeat = sim_.now();
    h.agent_incarnation = n.agent_incarnation;
    h.dead = n.dead;
    if (n.dead) {
      const cluster::NodeId node = n.node;
      h.reclaim_timer = sim_.schedule_after(
          kQuarantineGrace, [this, node] { reclaim_dead_node(node); });
    }
    ReplicationEvent rev;
    rev.kind = ReplicationEvent::Kind::kNodeHealth;
    rev.node = n.node;
    rev.agent_incarnation = n.agent_incarnation;
    rev.node_dead = n.dead;
    emit_repl(rev);
  }

  // Rebuild the registry and pool book from the replicated shadow limits.
  // The values were committed against the same pool by the old epoch, so
  // re-committing them in sorted order reproduces the book exactly — no
  // cgroup writes, no bootstrap traffic (kTakeover behaves like kResync on
  // the wire: the node-side state is whatever fail-static preserved).
  for (const TakeoverContainer& c : containers) {
    if (c.container == nullptr || c.node == nullptr) continue;
    if (index_.contains(c.container->id())) continue;
    register_impl(*c.container, *c.node, c.cores, c.mem,
                  RegisterMode::kTakeover, c.bw_bps,
                  c.rt.valid() ? &c.rt : nullptr, c.rt_bw_bps);
  }

  // Replay every still-open desired-state slot with a fresh epoch-packed
  // sequence: the corrective updates converge any cgroup the old leader's
  // unacked RPCs left divergent, and their acks close the slots normally.
  std::vector<cluster::ContainerId> cpu_slotted;
  std::vector<cluster::ContainerId> bw_slotted;
  LoopCtx ctx;
  ctx.cause = cause;
  for (const TakeoverSlot& s : slots) {
    if (!index_.contains(s.id)) continue;
    if (s.resource == Resource::kCpu) cpu_slotted.push_back(s.id);
    if (s.resource == Resource::kBw) bw_slotted.push_back(s.id);
    push_limit(s.id, s.resource, s.value, ctx);
  }

  // A node's applied limit may sit above the book this seat just rebuilt:
  // a WAL record lost in the stream's tail is undetectable (no later record
  // reveals the gap, and nobody outlived the old leader to resend it), and
  // such a loss leaves no open slot behind to correct the cgroup it
  // described. Converge every registered CPU limit the slot replay did not
  // already cover — idempotent sequences make the already-converged case a
  // no-op at the node. Memory is left to the reclamation loop, same as the
  // resync path (shrinking below live usage would manufacture OOMs).
  std::vector<cluster::ContainerId> registered_ids;
  registered_ids.reserve(index_.size());
  index_.for_each([&](std::uint32_t, cluster::ContainerId id) {
    registered_ids.push_back(id);
  });
  std::sort(registered_ids.begin(), registered_ids.end());
  for (const cluster::ContainerId id : registered_ids) {
    if (!std::binary_search(cpu_slotted.begin(), cpu_slotted.end(), id)) {
      push_limit(id, Resource::kCpu, allocator_.app().member_cores(id), ctx);
    }
    // Same convergence sweep for bandwidth: a bandwidth slot lost in the
    // WAL tail would otherwise leave the node's applied rate divergent
    // forever. Unshaped containers (no book rate, no applied rate) are
    // skipped — pushing a zero rate would attach an empty lane.
    if (bw_shaper_ != nullptr &&
        !std::binary_search(bw_slotted.begin(), bw_slotted.end(), id)) {
      const double book = allocator_.app().member_bw(id);
      const bool attached =
          bw_shaper_->node_of(id) != bw::ClusterShaper::kNoNode;
      const double applied = attached ? bw_shaper_->container_rate(id) : 0.0;
      if (book > 0.0 || applied > 0.0) {
        push_limit(id, Resource::kBw, book, ctx);
      }
    }
  }

  // Admissions queued during the vacancy, answered against the fully
  // rebuilt book (takeover is synchronous, unlike restart's async resync).
  drain_deferred_registrations();
}

void Controller::drain_deferred_registrations() {
  if (deferred_registrations_.empty()) return;
  const std::vector<DeferredRegistration> deferred =
      std::move(deferred_registrations_);
  deferred_registrations_.clear();
  for (const DeferredRegistration& d : deferred) {
    if (d.container == nullptr || d.node == nullptr) continue;
    if (index_.contains(d.container->id())) continue;
    register_impl(*d.container, *d.node, d.cores, d.mem,
                  RegisterMode::kBootstrap);
  }
}

void Controller::apply_reclaim(Agent& agent,
                               const Agent::ReclaimResult& result) {
  for (const Agent::Resize& resize : result.resizes) {
    allocator_.on_reclaimed(resize.container, resize.new_limit);
    emit_repl({.kind = ReplicationEvent::Kind::kMemShadow,
               .container = resize.container,
               .mem = resize.new_limit});
  }
  total_reclaimed_ += result.psi;
  if (obs_ == nullptr) return;
  memcg::Bytes freed = 0;
  for (const Agent::Resize& resize : result.resizes) {
    const memcg::Bytes delta = resize.old_limit - resize.new_limit;
    trace_at(node_tag(agent.node().id()), obs::EventKind::kReclaim,
             resize.container, static_cast<double>(resize.old_limit),
             static_cast<double>(resize.new_limit),
             static_cast<std::int64_t>(delta));
    freed += delta;
  }
  obs_->h.reclaim_bytes->inc(static_cast<std::uint64_t>(freed));
}

memcg::Bytes Controller::run_emergency_reclaim() {
  memcg::Bytes psi = 0;
  if (crashed_) return psi;
  if (obs_ != nullptr) obs_->h.reclaim_sweeps->inc();
  for (const auto& agent : agents_) {
    // A crashed or unreachable agent cannot service the synchronous sweep;
    // the RPC library fails fast and the sweep moves on.
    if (agent->crashed() || !reachable(agent->node().id())) continue;
    net_.send_to(net::Channel::kControlRpc, net::kControllerEndpoint,
                 ep(agent->node().id()), kReclaimRpcBytes, [] {});
    const Agent::ReclaimResult result =
        agent->reclaim(config_.delta, config_.min_mem);
    net_.send_to(net::Channel::kControlRpc, ep(agent->node().id()),
                 net::kControllerEndpoint, kReclaimRespBytes, [] {});
    apply_reclaim(*agent, result);
    psi += result.psi;
  }
  return psi;
}

void Controller::run_periodic_reclaim() {
  // Every 5 seconds (Section IV-C): ask each Agent to shrink the limits of
  // its containers to usage + δ and report back ψ.
  if (crashed_) return;
  if (obs_ != nullptr && !agents_.empty()) obs_->h.reclaim_sweeps->inc();
  for (const auto& agent_ptr : agents_) {
    Agent* agent = agent_ptr.get();
    auto result = std::make_shared<Agent::ReclaimResult>();
    const memcg::Bytes delta = config_.delta;
    const memcg::Bytes floor = config_.min_mem;
    net_.rpc_to(
        net::kControllerEndpoint, ep(agent->node().id()), kReclaimRpcBytes,
        kReclaimRespBytes,
        [agent, result, delta, floor]() -> bool {
          if (agent->crashed()) return false;
          *result = agent->reclaim(delta, floor);
          return true;
        },
        [this, agent, result] {
          if (!crashed_) apply_reclaim(*agent, *result);
        });
  }
}

bool Controller::telemetry_plausible(const CpuStatsMsg& stats,
                                     const Entry* entry) {
  const double period = static_cast<double>(config_.cfs_period);
  bool bad = stats.quota < 0 || stats.unused < 0 || stats.unused > stats.quota;
  if (!bad && entry != nullptr && entry->agent != nullptr && period > 0.0) {
    // Used core-time over one period cannot exceed the node's core count:
    // the scheduler physically cannot run more than `cores` core-seconds
    // per second, whatever the cgroup's quota says.
    const double node_cores = entry->agent->node().config().cores;
    const double used_cores =
        static_cast<double>(stats.quota - stats.unused) / period;
    if (used_cores > node_cores * (1.0 + 1e-9)) bad = true;
  }
  if (!bad) return true;
  if (obs_ != nullptr) obs_->h.telemetry_rejected->inc();
  trace(obs::EventKind::kTelemetryRejected, stats.cgroup,
        0.0,  // resource flag: 0 = CPU
        period > 0.0 ? static_cast<double>(stats.quota) / period : 0.0,
        static_cast<std::int64_t>(stats.unused));
  return false;
}

void Controller::open_credit_account(cluster::ContainerId id) {
  if (!config_.credit_defense || credits_.contains(id)) return;
  credits_.open(id, CreditLedger::to_micro(kCreditInit));
  emit_credit(id, /*removed=*/false);
}

void Controller::close_credit_account(cluster::ContainerId id) {
  if (!credits_.contains(id)) return;
  credits_.close(id);
  emit_credit(id, /*removed=*/true);
}

void Controller::emit_credit(cluster::ContainerId id, bool removed) {
  if (!repl_hook_) return;
  ReplicationEvent rev;
  rev.kind = ReplicationEvent::Kind::kCredit;
  rev.container = id;
  rev.credit_micro = removed ? 0 : credits_.balance_micro(id);
  rev.credit_minted = credits_.minted_micro();
  rev.credit_burned = credits_.burned_micro();
  rev.credit_removed = removed;
  emit_repl(rev);
}

void Controller::charge_credits(cluster::ContainerId id, std::int64_t want,
                                std::int64_t detail, obs::EventId cause) {
  const std::int64_t before = credits_.balance_micro(id);
  const std::int64_t price = std::min(
      want, std::max<std::int64_t>(
                0, before + CreditLedger::to_micro(kCreditCap)));
  if (price <= 0) return;
  credits_.burn(id, price);
  if (obs_ != nullptr) obs_->h.credit_charges->inc();
  trace(obs::EventKind::kCreditCharge, id, CreditLedger::to_credits(before),
        CreditLedger::to_credits(credits_.balance_micro(id)), detail, cause);
  emit_credit(id, /*removed=*/false);
}

void Controller::install_credits(
    const std::vector<CreditLedger::Snapshot>& accounts, std::int64_t burned) {
  // Takeover re-registration already opened init accounts for every member
  // it could rebuild; the replicated image replaces those wholesale.
  // Accounts for containers the takeover could not re-register (vanished
  // mid-failover) are dropped, their balances burned into the totals so
  // conservation survives the filter.
  std::vector<cluster::ContainerId> live;
  live.reserve(credits_.size());
  for (const auto& [id, acct] : credits_.accounts()) live.push_back(id);
  std::vector<CreditLedger::Snapshot> kept;
  kept.reserve(accounts.size());
  std::int64_t dropped = 0;
  for (const CreditLedger::Snapshot& s : accounts) {
    if (index_.find(s.id) != ContainerIndex::kInvalid) {
      kept.push_back(s);
    } else {
      dropped += s.micro;
    }
  }
  // Under replication faults the image's totals and its account map can be
  // stale relative to each other: a lost kCredit record drops an account's
  // open (or close) while later records overwrite the totals with values
  // that include it. The balances are the authoritative part, so re-derive
  // the minted total from them and enforce conservation structurally. In a
  // clean failover the image is self-consistent and this reproduces the
  // replicated minted total exactly.
  const std::int64_t total_burned = burned + dropped;
  std::int64_t outstanding = 0;
  for (const CreditLedger::Snapshot& s : kept) outstanding += s.micro;
  credits_.install(kept, total_burned + outstanding, total_burned);
  // A live member missing from the image (its open record never reached
  // the replicated WAL) starts over from the init grant — the same account
  // the takeover re-registration gave it before the install replaced it.
  for (const cluster::ContainerId id : live) {
    if (!credits_.contains(id)) open_credit_account(id);
  }
  // Re-emit the installed image so the new leader's own WAL stream starts
  // from the authoritative balances, not the register-time init grants.
  for (const auto& [id, acct] : credits_.accounts()) {
    emit_credit(id, /*removed=*/false);
  }
}

double Controller::rt_capacity() const {
  const double pool = allocator_.app().cpu_limit();
  // A pinned base (sharded deployments) never counts borrowed pool: the
  // live limit can sit above the base while a borrow is held, and a
  // reservation admitted against transient capacity would have to be
  // broken when the loan is returned.
  return rt_capacity_ > 0.0 ? std::min(rt_capacity_, pool) : pool;
}

double Controller::rt_floor_of(cluster::ContainerId id) const {
  const auto it = rt_.find(id);
  return it != rt_.end() ? it->second.floor : 0.0;
}

double Controller::node_rt_reserved(cluster::NodeId node,
                                    cluster::ContainerId except,
                                    double RtInfo::*field) const {
  double sum = 0.0;
  for (const auto& [id, info] : rt_) {
    if (id == except) continue;
    const std::uint32_t slot = index_.find(id);
    if (slot == ContainerIndex::kInvalid) continue;
    const Entry& e = registry_[slot];
    if (e.agent != nullptr && e.agent->node().id() == node) sum += info.*field;
  }
  return sum;
}

void Controller::record_rt_rejected(cluster::ContainerId id, double floor,
                                    std::int64_t reason) {
  ++rt_rejections_;
  if (obs_ != nullptr) obs_->h.rt_rejected->inc();
  trace(obs::EventKind::kRtRejected, id, 0.0, floor, reason);
}

Controller::RtAdmit Controller::admit_rt(cluster::ContainerId id,
                                         const cfs::RtSpec& spec,
                                         double bw_bps) {
  const double floor = spec.valid() ? spec.floor_cores() : 0.0;
  Entry* entry = find_entry(id);
  if (crashed_ || !spec.valid() || bw_bps < 0.0 || entry == nullptr ||
      entry->agent == nullptr || rt_.count(id) != 0 ||
      node_dead(entry->agent->node().id())) {
    record_rt_rejected(id, floor, 3);
    return RtAdmit::kRejectedState;
  }
  const cluster::NodeId node = entry->agent->node().id();
  // Node utilization bound: the deadline scheduler can honor the node's
  // reservations only while their density sum stays under the bound — the
  // slack above it is what absorbs CFS quantization and best-effort floors.
  const double node_cores = entry->agent->node().config().cores;
  if (node_rt_reserved(node, id, &RtInfo::floor) + floor >
      kRtUtilBound * node_cores + kCpuLimitEpsilon) {
    record_rt_rejected(id, floor, 0);
    return RtAdmit::kRejectedNode;
  }
  // Pool bound against non-borrowed RT capacity: an admitted floor is a
  // promise the pool must keep through faults, so it is only ever written
  // against capacity this controller owns outright.
  if (rt_reserved_cores_ + floor >
      kRtUtilBound * rt_capacity() + kCpuLimitEpsilon) {
    record_rt_rejected(id, floor, 1);
    return RtAdmit::kRejectedPool;
  }
  // Bandwidth arm: a reservation with a rate rides the same admission
  // decision, bounded against the node NIC (the bw plane's scarce link).
  if (bw_bps > 0.0) {
    const double nic =
        bw_shaper_ != nullptr ? bw_shaper_->node_nic_bps(node) : 0.0;
    if (nic <= 0.0 || node_rt_reserved(node, id, &RtInfo::bw_bps) + bw_bps >
                          kRtBwBound * nic + 0.5) {
      record_rt_rejected(id, floor, 2);
      return RtAdmit::kRejectedBw;
    }
  }
  install_rt(id, spec, bw_bps, /*fresh=*/true);
  return RtAdmit::kAdmitted;
}

void Controller::install_rt(cluster::ContainerId id, const cfs::RtSpec& spec,
                            double bw_bps, bool fresh) {
  Entry* entry = find_entry(id);
  if (entry == nullptr || entry->container == nullptr) return;
  const double floor = spec.floor_cores();
  rt_[id] = RtInfo{spec, floor, bw_bps};
  rt_reserved_cores_ += floor;
  allocator_.set_rt_floor(id, floor, bw_bps);
  cluster::Container& c = *entry->container;
  // Recovery re-installation finds the node-side periodic-job model still
  // running (fail static); re-arming it would reset the job phase.
  if (!(c.rt() == spec)) c.set_rt(spec);
  c.set_deadline_miss_observer([this, &c](sim::Duration remaining) {
    on_deadline_miss(c, remaining);
  });
  if (fresh) ++rt_admissions_;
  if (obs_ != nullptr) {
    obs_->h.rt_reserved_cores->set(rt_reserved_cores_);
    if (fresh) {
      obs_->h.rt_admitted->inc();
      trace(obs::EventKind::kRtAdmitted, id, 0.0, floor,
            (static_cast<std::int64_t>(spec.runtime) << 32) |
                static_cast<std::int64_t>(spec.period));
    }
  }
  emit_rt(id, /*removed=*/false);
  // The reservation holds from this instant: lift the shadow limit to the
  // floor, shedding best-effort if the unallocated pool cannot cover it.
  raise_to_rt_floor(id, floor);
}

bool Controller::evict_rt(cluster::ContainerId id, int reason) {
  const auto it = rt_.find(id);
  if (it == rt_.end()) return false;
  if (obs_ != nullptr) obs_->h.rt_evicted->inc();
  trace(obs::EventKind::kRtEvicted, id, it->second.floor, 0.0, reason);
  // A dead node's container keeps its periodic-job model fail-static (the
  // node is unreachable; resync re-derives the reservation if it returns);
  // every other eviction tears the node-side model down.
  remove_rt(id, /*clear_node=*/reason != 1);
  return true;
}

void Controller::remove_rt(cluster::ContainerId id, bool clear_node) {
  const auto it = rt_.find(id);
  if (it == rt_.end()) return;
  rt_reserved_cores_ = std::max(0.0, rt_reserved_cores_ - it->second.floor);
  rt_.erase(it);
  allocator_.clear_rt_floor(id);
  Entry* entry = find_entry(id);
  if (clear_node && entry != nullptr && entry->container != nullptr) {
    entry->container->clear_rt();
    entry->container->set_deadline_miss_observer(nullptr);
  }
  if (obs_ != nullptr) obs_->h.rt_reserved_cores->set(rt_reserved_cores_);
  emit_rt(id, /*removed=*/true);
}

void Controller::emit_rt(cluster::ContainerId id, bool removed) {
  if (!repl_hook_) return;
  ReplicationEvent rev;
  rev.kind = ReplicationEvent::Kind::kRt;
  rev.container = id;
  const auto it = rt_.find(id);
  if (it != rt_.end()) {
    rev.cores = it->second.floor;
    rev.bw_bps = it->second.bw_bps;
    rev.rt_runtime = it->second.spec.runtime;
    rev.rt_deadline = it->second.spec.deadline;
    rev.rt_period = it->second.spec.period;
  }
  rev.rt_removed = removed;
  emit_repl(rev);
}

void Controller::raise_to_rt_floor(cluster::ContainerId id, double floor) {
  // The floor is a promise the deadline model depends on core-for-core, so
  // this path tolerates only numeric dust (kRtFloorSlack), never the RPC
  // churn epsilon: a book left kCpuLimitEpsilon under the floor is a real
  // core-time shortfall that surfaces as an allocator-caused deadline miss.
  const double cur = allocator_.app().member_cores(id);
  if (cur + kRtFloorSlack >= floor) return;
  const double need = floor - cur;
  const double unalloc = std::max(0.0, allocator_.app().cpu_unallocated());
  if (unalloc < need) shed_best_effort(need - unalloc);
  const double applied = allocator_.app().set_member_cores(id, floor);
  if (applied - cur <= kRtFloorSlack) return;
  if (obs_ != nullptr) obs_->h.cpu_grants->inc();
  LoopCtx ctx;
  ctx.cause = trace(obs::EventKind::kCpuGrant, id, cur, applied);
  push_limit(id, Resource::kCpu, applied, ctx);
}

void Controller::shed_best_effort(double need) {
  if (need <= kRtFloorSlack) return;
  // Graceful degradation: best-effort members shed first, in ascending id
  // order, each shrunk toward the min_cores floor until the need is
  // covered. If best-effort alone cannot cover it (every co-tenant may be
  // RT-admitted), a second pass reclaims RT members' surplus above their
  // own floors — an admitted reservation protects its floor, never the
  // κ-granted headroom above it. Neither pass ever takes an RT container
  // below its floor.
  std::vector<cluster::ContainerId> ids;
  ids.reserve(index_.size());
  index_.for_each(
      [&](std::uint32_t, cluster::ContainerId id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  for (const bool rt_pass : {false, true}) {
    for (const cluster::ContainerId id : ids) {
      if (need <= kRtFloorSlack) return;
      if ((rt_.count(id) != 0) != rt_pass) continue;
      const Entry* entry = find_entry(id);
      if (entry == nullptr || entry->agent == nullptr) continue;
      if (node_dead(entry->agent->node().id())) continue;
      const double cur = allocator_.app().member_cores(id);
      const double lower =
          rt_pass ? std::max(config_.min_cores, rt_floor_of(id))
                  : config_.min_cores;
      const double target = std::max(lower, cur - need);
      // No churn guard here: a sub-epsilon residual is still owed to the
      // floor being raised, and skipping it strands the reservation just
      // under its promise (one extra shrink RPC per admission is cheap).
      if (cur - target <= kRtFloorSlack) continue;
      const double applied = allocator_.app().set_member_cores(id, target);
      need -= cur - applied;
      if (obs_ != nullptr) obs_->h.cpu_shrinks->inc();
      LoopCtx ctx;
      ctx.cause = trace(obs::EventKind::kCpuShrink, id, cur, applied);
      push_limit(id, Resource::kCpu, applied, ctx);
    }
  }
}

void Controller::on_deadline_miss(cluster::Container& container,
                                  sim::Duration remaining) {
  ++deadline_misses_;
  if (obs_ == nullptr) return;
  obs_->h.deadline_misses->inc();
  trace(obs::EventKind::kDeadlineMiss, container.id(),
        container.rt().floor_cores(),
        allocator_.app().is_member(container.id())
            ? allocator_.app().member_cores(container.id())
            : container.cpu_cgroup().limit_cores(),
        static_cast<std::int64_t>(remaining));
}

void Controller::settle_credits() {
  // The ONLY site that charges usage-based credits. Settling on the
  // Controller's own clock — never per telemetry RPC — makes every charge
  // exactly-once under retransmits and un-dodgeable by a tenant
  // suppressing its own reports: the sweep reads the allocator's book
  // state, which the tenant cannot forge.
  if (crashed_) return;
  const std::size_t members = allocator_.app().member_count();
  if (members == 0) return;
  const double pool = allocator_.app().cpu_limit();
  const double fair = pool / static_cast<double>(members);
  if (fair <= 0.0) return;
  const double tol = fair * kCreditTolerance;
  const double period_s = sim::to_seconds(config_.cfs_period);
  // Pool pressure: taking capacity nobody else wants is cheap; taking it
  // from a contended pool costs full price (Karma's price signal).
  const double pressure =
      pool > 0.0 ? allocator_.app().cpu_allocated() / pool : 0.0;
  const std::int64_t cap = CreditLedger::to_micro(kCreditCap);
  // Memory is rented, not bought: the one-shot OOM-grant charge is only an
  // entry fee, and a phantom-OOM farmer who idles on CPU would otherwise
  // mint enough every sweep to bankroll the farm forever. Holding bytes
  // above the memory fair share costs the same fair-share-seconds rate as
  // holding cores above the CPU fair share.
  const double mem_pool = static_cast<double>(allocator_.app().mem_limit());
  const double fair_mem = mem_pool / static_cast<double>(members);
  const double mem_pressure =
      mem_pool > 0.0
          ? static_cast<double>(allocator_.app().mem_allocated()) / mem_pool
          : 0.0;

  // std::map keys: the sweep settles in ascending ContainerId order, so
  // every trace and WAL byte is seed-stable.
  std::vector<cluster::ContainerId> ids;
  ids.reserve(credits_.size());
  for (const auto& [id, acct] : credits_.accounts()) ids.push_back(id);

  for (const cluster::ContainerId id : ids) {
    if (!allocator_.app().is_member(id)) continue;
    const Entry* entry = find_entry(id);
    // Dead-node quarantine: a frozen share is not the tenant's choice; no
    // charges, no earnings, no decay until the node returns or is reclaimed.
    if (entry != nullptr && entry->agent != nullptr &&
        node_dead(entry->agent->node().id())) {
      continue;
    }
    const double cur = allocator_.app().member_cores(id);

    if (cur > fair + tol) {
      // Above fair share: charge (cur-fair)/fair fair-share-seconds per
      // second held, scaled by pool pressure; debt floored at -kCreditCap.
      // Detail: above-share millicores.
      charge_credits(
          id, CreditLedger::to_micro((cur - fair) / fair * pressure * period_s),
          std::llround((cur - fair) * 1000.0));
      const std::int32_t streak = credits_.bump_streak(id);
      if (credits_.balance_micro(id) <= 0 &&
          streak >= kCreditDecayGrace) {
        // Credit-exhausted and persistently above fair share: κ-damped
        // decay toward the static fair share — the overclaimer converges
        // to what admission would have given it, never below. An admitted
        // RT floor outranks the decay: the reservation's priority was paid
        // at admission, not borrowed from this ledger.
        const double target = std::max(
            {config_.min_cores, allocator_.rt_floor(id), fair,
             cur - config_.kappa * (cur - fair)});
        if (cur - target > kCpuLimitEpsilon) {
          const double applied = allocator_.app().set_member_cores(id, target);
          if (obs_ != nullptr) obs_->h.greedy_throttles->inc();
          LoopCtx ctx;
          ctx.cause =
              trace(obs::EventKind::kGreedyThrottle, id, cur, applied, streak);
          push_limit(id, Resource::kCpu, applied, ctx);
        }
      }
    } else {
      if (cur < fair - tol) {
        // Below fair share: earn at the symmetric rate, capped so priority
        // cannot be banked indefinitely (anti-hoarding).
        const std::int64_t before_bal = credits_.balance_micro(id);
        const std::int64_t earned = credits_.mint(
            id, CreditLedger::to_micro((fair - cur) / fair * period_s), cap);
        if (earned > 0) {
          if (obs_ != nullptr) obs_->h.credit_refunds->inc();
          trace(obs::EventKind::kCreditRefund, id,
                CreditLedger::to_credits(before_bal),
                CreditLedger::to_credits(credits_.balance_micro(id)),
                std::llround((fair - cur) * 1000.0));  // below-share mcores
          emit_credit(id, /*removed=*/false);
        }
      }
      credits_.reset_streak(id);
    }

    // Memory rent, independent of the CPU branch (and of the decay streak,
    // which stays a CPU concept — memory hoarders are drained here and
    // stopped at the next grant by the Υ-gate in Allocator::on_oom_event).
    const double cur_mem =
        static_cast<double>(allocator_.app().member_mem(id));
    if (fair_mem > 0.0 &&
        cur_mem > fair_mem * (1.0 + kCreditTolerance)) {
      charge_credits(id,
                     CreditLedger::to_micro((cur_mem - fair_mem) / fair_mem *
                                            mem_pressure * period_s),
                     static_cast<std::int64_t>(cur_mem - fair_mem));  // bytes
    }
  }
}

}  // namespace escra::core
