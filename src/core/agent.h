// The Escra Agent (Figure 1, circle 5).
//
// One Agent runs per worker node (like a kubelet). It receives limit-update
// RPCs from the Controller and applies them to the container's cgroups —
// seamlessly, with no restart — and executes the periodic memory-reclamation
// scan (Section IV-C): any managed container whose memory limit exceeds its
// usage by more than the safe margin δ is shrunk to usage + δ, and the total
// reclaimed amount ψ is reported back.
//
// Reliability layer (beyond the paper): limit updates carry sequence
// numbers, and the Agent keeps the newest applied sequence per container and
// resource so duplicated or reordered retransmits are discarded (idempotent
// applies). The Agent heartbeats to the Controller, and a lease watchdog
// drops it into *fail-static* mode when the Controller goes silent: no local
// limit churn, containers keep running at their last-applied limits. The
// Agent can crash (soft state — the sequence table — is lost; cgroups are
// kernel state and persist) and restart with a new incarnation, which the
// Controller detects to trigger a resync.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bw/shaper.h"
#include "cluster/container.h"
#include "cluster/node.h"
#include "core/container_index.h"
#include "core/messages.h"
#include "memcg/mem_cgroup.h"
#include "net/network.h"
#include "sim/event_queue.h"

namespace escra::obs {
class Observer;
}

namespace escra::core {

class Agent {
 public:
  explicit Agent(cluster::Node& node);

  cluster::Node& node() { return node_; }

  // The Container Watcher notifies the Agent of a newly created container on
  // its node; from then on the Agent can resize it (Section IV-A).
  void manage(cluster::Container& container);
  void unmanage(cluster::ContainerId id);
  bool manages(cluster::ContainerId id) const { return index_.contains(id); }
  std::size_t managed_count() const { return index_.size(); }

  // --- limit application (RPC handlers) ---

  // Outcome of a sequenced apply.
  enum class Apply {
    kApplied,   // limit written to the cgroup
    kStale,     // duplicate / out-of-date sequence: discarded (idempotent)
    kRejected,  // agent crashed or container unmanaged: no response at all
    kFenced,    // update from a fenced (deposed) controller epoch: discarded
  };
  // Sequenced apply of one limit. `value` is in the resource's unit: cores
  // (CPU), bytes (memory; integral, exact in a double below 2^53) or
  // bytes/s (bandwidth, written into the node's shaper — the tc/HTB
  // analogue of a cgroup write — and rejected when no shaper is wired).
  // `seq` must exceed the newest applied sequence for the (container,
  // resource) pair or the update is discarded as stale; seq 0 bypasses the
  // check (unsequenced local/test path).
  Apply apply_limit(cluster::ContainerId id, Resource resource, double value,
                    std::uint64_t seq = 0);

  // --- memory reclamation (Section IV-C) ---
  struct Resize {
    cluster::ContainerId container = 0;
    memcg::Bytes old_limit = 0;  // limit before the shrink (for tracing)
    memcg::Bytes new_limit = 0;
  };
  struct ReclaimResult {
    memcg::Bytes psi = 0;          // total reclaimed bytes
    std::vector<Resize> resizes;   // per-container new limits (for shadow sync)
  };

  // Shrinks every managed container with limit > usage + delta down to
  // usage + delta (never below `floor`). Returns ψ and the new limits.
  ReclaimResult reclaim(memcg::Bytes delta, memcg::Bytes floor);

  // --- heartbeats, lease, crash/restart ---

  // Wires the agent to the simulation and network. `heartbeat_sink` runs at
  // the Controller when a heartbeat is delivered (node id, incarnation).
  using HeartbeatSink =
      std::function<void(cluster::NodeId, std::uint64_t incarnation)>;
  void connect(sim::Simulation& sim, net::Network& net, HeartbeatSink sink);

  // Starts/stops the heartbeat loop (and the piggybacked lease watchdog).
  // Requires connect() first; driven by Controller::start/stop.
  void start(sim::Duration heartbeat_interval, sim::Duration lease);
  void stop();

  // Crash: the agent process dies. Soft state (sequence table) is lost;
  // cgroup limits are kernel state and persist — the node fails static.
  // RPCs to a crashed agent are rejected (no response). restart() brings it
  // back with a new incarnation so the Controller can detect it and resync.
  void crash();
  void restart();
  bool crashed() const { return crashed_; }
  std::uint64_t incarnation() const { return incarnation_; }

  // Fail-static: entered when the lease expires without Controller contact,
  // left on the next contact. (The flag is advisory — the applied cgroup
  // limits already *are* the fail-static state.)
  bool fail_static() const { return fail_static_; }
  // Any message from the Controller (heartbeat ack, delivered RPC) renews
  // the lease.
  void note_controller_contact();

  // --- epoch fencing (controller HA, src/ha) ---
  // A newly elected leader broadcasts its epoch; from then on any sequenced
  // update whose packed epoch (seq >> 48) is below the fence is discarded
  // with Apply::kFenced — a deposed leader (or its in-flight retransmits)
  // can never move a cgroup after the handoff. The fence only ratchets up.
  // Like the sequence table, the fence is soft state: a crash clears it and
  // the new leader's resync re-establishes it.
  void fence_epoch(std::uint64_t epoch);
  std::uint64_t fenced_epoch() const { return fenced_epoch_; }

  // --- resync snapshot ---
  // The agent's managed-container inventory with last-applied limits,
  // sorted by id (deterministic order for resync replay). The Controller
  // rebuilds its registry and pool accounting from this on reconnect.
  struct SnapshotEntry {
    cluster::ContainerId id = 0;
    cluster::Container* container = nullptr;
    double cpu_cores = 0.0;
    memcg::Bytes mem_limit = 0;
    double bw_bps = 0.0;  // applied shaper rate; 0 = unshaped
  };
  std::vector<SnapshotEntry> snapshot() const;

  // Wires the node's traffic shaper. Like the cgroups, shaper rates are
  // node state: they persist across Agent crashes (fail-static) and are
  // reported in the resync snapshot.
  void set_bw_shaper(bw::ClusterShaper* shaper) { bw_shaper_ = shaper; }

  // Observability: trace events (duplicate-suppressed, fail-static) and the
  // limit-apply counter. Null (the default) disables the hooks.
  void set_observer(obs::Observer* observer) { obs_ = observer; }

 private:
  void send_heartbeat();
  void enter_fail_static();
  void record_fail_static(bool entered);
  void record_dup(cluster::ContainerId id, double before, double offered,
                  std::uint64_t seq);
  void record_fenced(cluster::ContainerId id, double before, double offered,
                     std::uint64_t seq);
  // The only per-resource code on the apply path: read the applied limit,
  // and write a new one into the cgroup or shaper lane.
  double read_limit(cluster::ContainerId id, cluster::Container& c,
                    Resource resource) const;
  void write_limit(cluster::ContainerId id, cluster::Container& c,
                   Resource resource, double value);

  cluster::Node& node_;
  // Managed containers interned to dense slots; the hot per-container state
  // (container pointer + newest applied sequence per resource) lives in
  // slot-indexed struct-of-arrays so the per-RPC apply path is a direct
  // load, and the reclaim sweep walks containers densely.
  ContainerIndex index_;
  std::vector<cluster::Container*> containers_;
  std::vector<std::uint64_t> seq_;  // slot * kResources + resource
  obs::Observer* obs_ = nullptr;
  bw::ClusterShaper* bw_shaper_ = nullptr;

  sim::Simulation* sim_ = nullptr;
  net::Network* net_ = nullptr;
  HeartbeatSink heartbeat_sink_;
  sim::EventHandle heartbeat_loop_;
  sim::Duration lease_ = 0;
  sim::TimePoint last_contact_ = 0;
  bool running_ = false;
  bool crashed_ = false;
  bool fail_static_ = false;
  std::uint64_t incarnation_ = 1;
  std::uint64_t fenced_epoch_ = 0;  // min controller epoch still accepted
};

}  // namespace escra::core
