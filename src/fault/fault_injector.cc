#include "fault/fault_injector.h"

#include <algorithm>

#include "obs/observer.h"

namespace escra::fault {

namespace {
// Ranges schedule_random draws every fault from, whatever the profile.
// Fault-window duration range.
constexpr sim::Duration kMinDuration = sim::milliseconds(200);
constexpr sim::Duration kMaxDuration = sim::seconds(3);
// Probabilistic-fault rate range.
constexpr double kMinRate = 0.05;
constexpr double kMaxRate = 0.40;
// Delay-spike extra latency range.
constexpr sim::Duration kMinSpike = sim::milliseconds(1);
constexpr sim::Duration kMaxSpike = sim::milliseconds(20);
// Faults are clamped to end at least this long before `end`, so every
// run includes a recovery window the checker can hold to account.
constexpr sim::Duration kRecoveryMargin = sim::seconds(1);

// One row per FaultInjector::Profile, in enum order.
struct ProfileSpec {
  // Upper bound on the number of faults drawn (actual count is uniform in
  // [0, max_faults]).
  int max_faults;
  // Relative weight of each fault kind, in FaultKind order from kPartition
  // to kLeaderKill (need not sum to 1).
  double weights[7];
  // Widens the probabilistic-fault channel draw to include the HA
  // replication channel (WAL stream / lease announcements), so drop and
  // delay faults can starve the standbys' view of the lease.
  bool target_ha_channel;
};
constexpr ProfileSpec kProfiles[] = {
    // kMixed
    {3, {0.25, 0.20, 0.15, 0.20, 0.10, 0.10, 0.0}, false},
    // kLeaderChurn: the HA watchdog owns seat recovery, so no plain
    // controller crash/restart.
    {4, {0.15, 0.10, 0.0, 0.15, 0.05, 0.05, 0.50}, true},
};
}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kAgentCrash:
      return "agent-crash";
    case FaultKind::kControllerCrash:
      return "controller-crash";
    case FaultKind::kRpcDrop:
      return "rpc-drop";
    case FaultKind::kRpcDuplicate:
      return "rpc-duplicate";
    case FaultKind::kDelaySpike:
      return "delay-spike";
    case FaultKind::kLeaderKill:
      return "leader-kill";
  }
  return "unknown";
}

FaultInjector::FaultInjector(sim::Simulation& sim, net::Network& net,
                             core::EscraSystem& escra)
    : sim_(sim), net_(net), escra_(escra) {}

void FaultInjector::record(bool injected, FaultKind kind,
                           std::uint32_t node_tag, double rate,
                           sim::Duration duration) {
  if (injected) {
    ++injected_;
  } else {
    ++cleared_;
  }
  obs::Observer* obs = escra_.controller().observer();
  if (obs == nullptr) return;
  if (injected) {
    obs->h.faults_injected->inc();
  } else {
    obs->h.faults_cleared->inc();
  }
  obs::TraceEvent ev;
  ev.time = sim_.now();
  ev.kind = injected ? obs::EventKind::kFaultInjected
                     : obs::EventKind::kFaultCleared;
  ev.node = node_tag;
  ev.before = rate;
  ev.after = sim::to_seconds(duration);
  ev.detail = static_cast<std::int64_t>(kind);
  obs->record(ev);
}

void FaultInjector::inject_partition(cluster::NodeId node,
                                     sim::TimePoint start,
                                     sim::Duration duration) {
  sim_.schedule_at(start, [this, node, duration] {
    if (partition_depth_[node]++ == 0) {
      net_.partition(static_cast<net::EndpointId>(node),
                     net::kControllerEndpoint);
    }
    record(true, FaultKind::kPartition, node + 1, 0.0, duration);
    sim_.schedule_after(duration, [this, node, duration] {
      if (--partition_depth_[node] == 0) {
        net_.heal(static_cast<net::EndpointId>(node),
                  net::kControllerEndpoint);
      }
      record(false, FaultKind::kPartition, node + 1, 0.0, duration);
    });
  });
}

void FaultInjector::inject_agent_crash(cluster::NodeId node,
                                       sim::TimePoint start,
                                       sim::Duration downtime) {
  sim_.schedule_at(start, [this, node, downtime] {
    core::Agent* agent = escra_.controller().agent_at(node);
    if (agent == nullptr) return;  // node never hosted a managed container
    if (agent_crash_depth_[node]++ == 0) agent->crash();
    record(true, FaultKind::kAgentCrash, node + 1, 0.0, downtime);
    sim_.schedule_after(downtime, [this, node, downtime] {
      core::Agent* a = escra_.controller().agent_at(node);
      if (a != nullptr && --agent_crash_depth_[node] == 0) a->restart();
      record(false, FaultKind::kAgentCrash, node + 1, 0.0, downtime);
    });
  });
}

void FaultInjector::inject_controller_crash(sim::TimePoint start,
                                            sim::Duration downtime) {
  sim_.schedule_at(start, [this, downtime] {
    // Record *before* the crash so the event lands even if the observer's
    // registry gauges are zeroed by it (the trace buffer is independent).
    record(true, FaultKind::kControllerCrash, 0, 0.0, downtime);
    if (controller_crash_depth_++ == 0) escra_.crash();
    sim_.schedule_after(downtime, [this, downtime] {
      if (--controller_crash_depth_ == 0) escra_.restart();
      record(false, FaultKind::kControllerCrash, 0, 0.0, downtime);
    });
  });
}

void FaultInjector::inject_rpc_drop(net::Channel channel, double rate,
                                    sim::TimePoint start,
                                    sim::Duration duration) {
  const int ch = static_cast<int>(channel);
  sim_.schedule_at(start, [this, channel, ch, rate, duration] {
    ++drop_depth_[ch];
    net_.set_drop_rate(channel, rate);
    record(true, FaultKind::kRpcDrop, 0, rate, duration);
    sim_.schedule_after(duration, [this, channel, ch, rate, duration] {
      if (--drop_depth_[ch] == 0) net_.set_drop_rate(channel, 0.0);
      record(false, FaultKind::kRpcDrop, 0, rate, duration);
    });
  });
}

void FaultInjector::inject_rpc_duplicate(net::Channel channel, double rate,
                                         sim::TimePoint start,
                                         sim::Duration duration) {
  const int ch = static_cast<int>(channel);
  sim_.schedule_at(start, [this, channel, ch, rate, duration] {
    ++dup_depth_[ch];
    net_.set_duplicate_rate(channel, rate);
    record(true, FaultKind::kRpcDuplicate, 0, rate, duration);
    sim_.schedule_after(duration, [this, channel, ch, rate, duration] {
      if (--dup_depth_[ch] == 0) net_.set_duplicate_rate(channel, 0.0);
      record(false, FaultKind::kRpcDuplicate, 0, rate, duration);
    });
  });
}

void FaultInjector::inject_delay_spike(net::Channel channel, double rate,
                                       sim::Duration extra,
                                       sim::TimePoint start,
                                       sim::Duration duration) {
  const int ch = static_cast<int>(channel);
  sim_.schedule_at(start, [this, channel, ch, rate, extra, duration] {
    ++spike_depth_[ch];
    net_.set_delay_spike(channel, rate, extra);
    record(true, FaultKind::kDelaySpike, 0, rate, duration);
    sim_.schedule_after(duration, [this, channel, ch, rate, duration] {
      if (--spike_depth_[ch] == 0) net_.set_delay_spike(channel, 0.0, 0);
      record(false, FaultKind::kDelaySpike, 0, rate, duration);
    });
  });
}

void FaultInjector::inject_leader_kill(sim::TimePoint start) {
  sim_.schedule_at(start, [this] {
    // Record before the crash (same reasoning as controller-crash), and
    // close the window immediately: the kill is a point event — no restart
    // follows, recovery belongs to the HA standbys.
    record(true, FaultKind::kLeaderKill, 0, 0.0, 0);
    escra_.crash();
    record(false, FaultKind::kLeaderKill, 0, 0.0, 0);
  });
}

void FaultInjector::schedule_random(sim::Rng& rng, sim::TimePoint end,
                                    Profile profile, int node_count) {
  const ProfileSpec& spec = kProfiles[static_cast<int>(profile)];
  const sim::TimePoint now = sim_.now();
  const int count =
      static_cast<int>(rng.uniform_int(0, std::max(0, spec.max_faults)));
  double total_weight = 0.0;
  for (const double w : spec.weights) total_weight += w;
  // The channels a probabilistic fault can target. kRegistration is spared:
  // registration is modelled as fire-and-forget bootstrap, with no retry
  // path to exercise. The HA replication channel joins the draw only when
  // the profile opts in (keeps legacy seed streams byte-identical).
  static constexpr net::Channel kFaultChannels[4] = {
      net::Channel::kControlRpc, net::Channel::kCpuTelemetry,
      net::Channel::kMemoryEvent, net::Channel::kHaReplication};
  const std::int64_t channel_max = spec.target_ha_channel ? 3 : 2;

  for (int i = 0; i < count; ++i) {
    // Fixed draw count per fault, independent of the kind selected.
    const double kind_draw = rng.uniform(0.0, total_weight);
    const cluster::NodeId node = static_cast<cluster::NodeId>(
        node_count > 0 ? rng.uniform_int(0, node_count - 1) : 0);
    const sim::Duration duration = rng.uniform_int(kMinDuration, kMaxDuration);
    const double rate = rng.uniform(kMinRate, kMaxRate);
    const sim::Duration spike = rng.uniform_int(kMinSpike, kMaxSpike);
    const net::Channel channel =
        kFaultChannels[rng.uniform_int(0, channel_max)];
    // Clamp the window so recovery fits before `end`.
    const sim::TimePoint latest_start = end - duration - kRecoveryMargin;
    if (latest_start <= now) continue;  // run too short for this fault
    const sim::TimePoint start = rng.uniform_int(now, latest_start);

    // The first kind whose cumulative weight exceeds the draw; a draw past
    // every earlier edge is a leader kill.
    FaultKind kind = FaultKind::kLeaderKill;
    double edge = 0.0;
    for (int k = 0; k < 6; ++k) {
      edge += spec.weights[k];
      if (kind_draw < edge) {
        kind = static_cast<FaultKind>(k + 1);
        break;
      }
    }
    switch (kind) {
      case FaultKind::kPartition:
        inject_partition(node, start, duration);
        break;
      case FaultKind::kAgentCrash:
        inject_agent_crash(node, start, duration);
        break;
      case FaultKind::kControllerCrash:
        inject_controller_crash(start, duration);
        break;
      case FaultKind::kRpcDrop:
        inject_rpc_drop(channel, rate, start, duration);
        break;
      case FaultKind::kRpcDuplicate:
        inject_rpc_duplicate(channel, rate, start, duration);
        break;
      case FaultKind::kDelaySpike:
        inject_delay_spike(channel, rate, spike, start, duration);
        break;
      case FaultKind::kLeaderKill:
        inject_leader_kill(start);
        break;
    }
  }
}

}  // namespace escra::fault
