// Deterministic control-plane fault injection.
//
// The FaultInjector turns an Escra deployment into a crash-test rig: it
// schedules node partitions, Agent crash/restart cycles, Controller
// crash/restart cycles, and per-channel probabilistic RPC faults (drop,
// duplicate, delay spike) against the simulated network — all either
// scripted explicitly or drawn as a deterministic schedule from a seeded
// RNG (`schedule_random`), so any fault scenario replays bit-for-bit.
//
// Every injection and clearance is recorded as a kFaultInjected /
// kFaultCleared trace event (when an observer is attached to the system's
// Controller) so traces show exactly which windows of a run were degraded,
// and the invariant checker can reconcile anomalies against fault windows.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "cluster/node.h"
#include "core/escra.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace escra::fault {

// Fault taxonomy. The enum value is stored in the trace event's `detail`
// field so tools can tell fault windows apart.
enum class FaultKind : int {
  kPartition = 1,        // node <-> Controller links severed, both ways
  kAgentCrash = 2,       // Agent process dies (soft state lost), restarts
  kControllerCrash = 3,  // Controller dies (registry/pool lost), restarts
  kRpcDrop = 4,          // per-channel probabilistic message loss
  kRpcDuplicate = 5,     // per-channel probabilistic duplicate delivery
  kDelaySpike = 6,       // per-channel probabilistic extra latency
  kLeaderKill = 7,       // Controller dies with NO restart: recovery is the
                         // HA standbys' takeover (src/ha), not a resync
};

const char* fault_kind_name(FaultKind kind);

class FaultInjector {
 public:
  FaultInjector(sim::Simulation& sim, net::Network& net,
                core::EscraSystem& escra);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- scripted injections ---
  //
  // Each call schedules the fault to take effect at absolute time `start`
  // and clear `duration` later. Overlapping faults of the same kind on the
  // same target nest: the fault clears only when the last overlapping
  // window ends.

  // Severs both directions between `node` and the Controller.
  void inject_partition(cluster::NodeId node, sim::TimePoint start,
                        sim::Duration duration);
  // Kills the node's Agent (sequence table lost; cgroups persist), then
  // restarts it with a new incarnation — the Controller notices and resyncs.
  void inject_agent_crash(cluster::NodeId node, sim::TimePoint start,
                          sim::Duration downtime);
  // Kills the Controller (registry, pool accounting, pending retransmits
  // lost; the cluster fails static), then restarts it — it rebuilds by
  // resyncing every Agent.
  void inject_controller_crash(sim::TimePoint start, sim::Duration downtime);
  // Per-channel probabilistic faults for the window.
  void inject_rpc_drop(net::Channel channel, double rate, sim::TimePoint start,
                       sim::Duration duration);
  void inject_rpc_duplicate(net::Channel channel, double rate,
                            sim::TimePoint start, sim::Duration duration);
  void inject_delay_spike(net::Channel channel, double rate,
                          sim::Duration extra, sim::TimePoint start,
                          sim::Duration duration);
  // Kills the Controller permanently — no restart is scheduled. Only
  // meaningful when an ha::HaControlPlane shadows the system: a standby's
  // lease watchdog detects the silence and takes the seat over. The kill is
  // recorded as an instantaneous fault window (injected and cleared at the
  // kill instant); the recovery itself is traced by kLeaderElected.
  void inject_leader_kill(sim::TimePoint start);

  // --- seed-driven schedules ---

  struct Profile {
    // Upper bound on the number of faults drawn (actual count is uniform in
    // [0, max_faults]).
    int max_faults = 3;
    // Relative weights of each fault kind (need not sum to 1).
    double partition_weight = 0.25;
    double agent_crash_weight = 0.20;
    double controller_crash_weight = 0.15;
    double rpc_drop_weight = 0.20;
    double rpc_duplicate_weight = 0.10;
    double delay_spike_weight = 0.10;
    // Weight of permanent leader kills (kLeaderKill). Zero by default: the
    // fault only makes sense with a warm-standby pool attached, and keeping
    // it out of the draw preserves existing seed streams.
    double leader_kill_weight = 0.0;
    // Widens the probabilistic-fault channel draw to include the HA
    // replication channel (WAL stream / lease announcements), so drop and
    // delay faults can starve the standbys' view of the lease.
    bool target_ha_channel = false;
  };

  // Profile for hammering the replicated-controller path: leader kills
  // dominate, plain controller crash/restart is disabled (a restart's
  // epoch bump would race the standbys' elections for the same seat — the
  // HA watchdog owns recovery here), and probabilistic faults may target
  // the HA replication channel.
  static Profile leader_churn_profile();

  // Draws a deterministic fault script from `rng` over [sim.now(), end) and
  // schedules it. The number of RNG draws per fault is fixed regardless of
  // the kind drawn, so scenario streams stay aligned across profiles.
  void schedule_random(sim::Rng& rng, sim::TimePoint end,
                       const Profile& profile, int node_count);

  // --- introspection ---
  std::uint64_t injected() const { return injected_; }
  std::uint64_t cleared() const { return cleared_; }
  std::uint64_t active() const { return injected_ - cleared_; }

 private:
  void record(bool injected, FaultKind kind, std::uint32_t node_tag,
              double rate, sim::Duration duration);

  sim::Simulation& sim_;
  net::Network& net_;
  core::EscraSystem& escra_;

  // Nesting depths so overlapping same-target windows compose.
  std::unordered_map<cluster::NodeId, int> partition_depth_;
  std::unordered_map<cluster::NodeId, int> agent_crash_depth_;
  int controller_crash_depth_ = 0;
  int drop_depth_[net::kChannelCount] = {};
  int dup_depth_[net::kChannelCount] = {};
  int spike_depth_[net::kChannelCount] = {};

  std::uint64_t injected_ = 0;
  std::uint64_t cleared_ = 0;
};

}  // namespace escra::fault
