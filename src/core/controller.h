// The Escra Controller (Figure 1 circle 2, Figure 3; Section IV-C).
//
// The logically centralized component that brings the system together. It
// owns one Agent per worker node, keeps the pool of registered containers,
// ingests the per-period CPU telemetry each container's kernel hook streams
// over the (simulated) network, forwards it to the Resource Allocator, and
// carries out the allocator's decisions via RPCs to the Agents. It also
// launches the periodic memory-reclamation loop (every 5 s) and services
// pre-OOM memory requests on the containers' persistent kernel sockets.
//
// Reliability layer (beyond the paper): limit updates are sequence-numbered
// and retransmitted with exponential backoff until the Agent acks (the Agent
// discards stale/duplicate sequences, so retries are idempotent); Agents
// heartbeat in and the Controller tracks per-node liveness — a dead node's
// pool share is quarantined, then reclaimed for the live nodes; and the
// Controller itself can crash (soft state — registry, pool accounting,
// allocator windows — is lost) and restart, rebuilding everything by
// resyncing each Agent's managed-container snapshot. Containers on the far
// side of any of these faults fail static: their cgroups keep the last
// applied limits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bw/shaper.h"
#include "cfs/rt.h"
#include "cluster/cluster.h"
#include "cluster/container.h"
#include "cluster/node.h"
#include "core/agent.h"
#include "core/allocator.h"
#include "core/config.h"
#include "core/container_index.h"
#include "core/credit_ledger.h"
#include "core/messages.h"
#include "core/replica_state.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/event_queue.h"

namespace escra::core {

class Controller {
 public:
  Controller(sim::Simulation& sim, net::Network& network,
             const EscraConfig& config, ResourceAllocator& allocator);
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // --- agents ---
  // Creates (or returns) the Agent for a node.
  Agent& agent_for(cluster::Node& node);
  // The node's Agent, or nullptr if none exists yet.
  Agent* agent_at(cluster::NodeId node);

  // --- container registration (Section IV-A / IV-B) ---
  //
  // Registers a container: commits its limits against the global pool,
  // points the node's Agent at it, applies the starting limits to the
  // cgroups, and installs the two kernel hooks (per-period CPU telemetry,
  // pre-OOM trap). `cores`/`mem` of 0 mean "late joiner": the container
  // gets the configured late-join defaults clamped to the unallocated pool.
  void register_container(cluster::Container& container, cluster::Node& node,
                          double cores, memcg::Bytes mem);
  void deregister_container(cluster::Container& container);
  bool is_registered(cluster::ContainerId id) const {
    return index_.contains(id);
  }
  std::size_t registered_count() const { return index_.size(); }

  // Starts the periodic loops: reclamation, liveness checks, and every
  // Agent's heartbeats.
  void start();
  void stop();

  // --- warm-standby replication (controller HA, src/ha) ---
  //
  // Every durable state change the leader makes is mirrored to an optional
  // replication hook as a flat ReplicationEvent (core/replica_state.h),
  // stamped with the emitting epoch. src/ha turns the stream into a
  // sequence-numbered WAL shipped to the standbys; core stays ignorant of
  // the transport.
  using ReplicationHook = std::function<void(const ReplicationEvent&)>;
  void set_replication_hook(ReplicationHook hook) {
    repl_hook_ = std::move(hook);
  }

  // The seat's book as the replication stream folds it: registry and
  // shadow commitments (each container's node from this registry), every
  // still-open desired-state slot with its real sequence, node health,
  // credit balances with the mint/burn totals, and the admitted RT
  // reservations. src/ha seeds its leader book from it when attaching to a
  // live system.
  ReplicaState image() const;

  // Takeover: a standby installs its replica into this controller seat and
  // assumes leadership under `epoch` (strictly above every epoch this seat
  // has used). Unlike restart(), no snapshot round-trips to the Agents are
  // needed: node health, the registry, pool commitments and RT
  // reservations are rebuilt from the replica (ids resolved through
  // `cluster`; containers that vanished meanwhile are skipped), and every
  // still-open desired-state slot is re-issued with a fresh `epoch`-packed
  // sequence — the corrective updates double as the convergence traffic,
  // so takeover cost is one one-way RPC per divergent container instead of
  // a full resync. Then the vacancy's deferred registrations are answered
  // and, when the replica carries credit state, its balances replace the
  // fresh accounts re-registration opened. Works on a crashed seat (leader
  // death) or a live one (a deposed leader being superseded: crash()
  // first). `cause` threads the kLeaderElected trace event into the
  // replayed updates' causal chains.
  void takeover(std::uint64_t epoch, const ReplicaState& replica,
                cluster::Cluster& cluster, obs::EventId cause = 0);

  std::vector<Agent*> agents();

  // The controller epoch stamped into update sequence numbers. Advances on
  // restart (+1), on HA takeover (to the election's epoch), and when the
  // 48-bit per-epoch sequence counter is about to wrap.
  std::uint64_t epoch() const { return incarnation_; }
  // Test hook (satellite: 48-bit wrap guard): plants the per-epoch sequence
  // counter so tests can drive next_seq() to the wrap boundary cheaply.
  void set_update_seq_for_test(std::uint64_t counter) {
    update_seq_ = counter;
  }
  // Test hook (tests/container_index_test.cc): the process-local dense slot
  // interned for `id`, or ContainerIndex::kInvalid when unregistered. Slots
  // are never serialized — this exists only to lock the determinism
  // property (takeover replay rebuilds identical slot layouts).
  std::uint32_t container_slot_for_test(cluster::ContainerId id) const {
    return index_.find(id);
  }

  // --- crash / restart (fault injection) ---
  // crash(): the Controller process dies. All soft state — registry, pool
  // commitments, allocator windows, pending retransmits, liveness tracking —
  // is lost; kernel hooks and cgroup limits live on the nodes and persist
  // (the cluster fails static). Telemetry, OOM requests, and heartbeats
  // arriving while crashed are dropped on the floor.
  // restart(): comes back empty and rebuilds the registry and pool
  // accounting by pulling each Agent's managed-container snapshot (resync).
  void crash();
  void restart();
  bool crashed() const { return crashed_; }

  // --- bandwidth plane (third managed resource, src/bw) ---
  //
  // Arms bandwidth management: the Controller keeps the shaper pointer for
  // rate reads and admission clamping, and starts the shaper's per-period
  // sampler, whose samples travel the kBwTelemetry channel into
  // on_bw_stats — the bandwidth analogue of the CFS period hook. The
  // Distributed Container's bandwidth pool (set_bw_limit) must be armed
  // separately; EscraSystem::enable_bandwidth does both.
  void enable_bandwidth(bw::ClusterShaper& shaper);
  bool bandwidth_enabled() const { return bw_shaper_ != nullptr; }
  // The per-container bootstrap rate granted at registration (bytes/s);
  // containers registering while the plan is 0 use the late-join default.
  void set_bw_plan(double per_container_bps) { bw_plan_ = per_container_bps; }

  // Bandwidth telemetry ingress (normally invoked via the network by the
  // shaper sampler wiring in enable_bandwidth).
  void on_bw_stats(const bw::BwSample& sample);

  // --- telemetry & events (normally invoked via the network) ---
  void on_cpu_stats(const CpuStatsMsg& stats);
  // Pre-OOM request: returns true if the limit was raised enough for the
  // charge to succeed (the container survives). Fails (container dies by
  // the kernel's normal OOM path) when the Controller is crashed or
  // partitioned from the node.
  bool handle_oom(cluster::Container& container, memcg::Bytes charge,
                  memcg::Bytes shortfall);
  // Heartbeat ingress (normally invoked via the network by Agents).
  void on_heartbeat(cluster::NodeId node, std::uint64_t incarnation);

  // Emergency reclamation sweep across every agent, synchronously (used on
  // OOM when the pool is dry). Returns total ψ. Crashed or partitioned
  // nodes are skipped.
  memcg::Bytes run_emergency_reclaim();

  // --- observability ---
  // Attaches (or detaches, with null) a control-plane observer: decision
  // trace events with causal links, metric counters, and the per-stage
  // control-loop latency profile. Re-wires already-created Agents and
  // already-registered containers, so attaching to a live system works;
  // with no observer every hook is a single null-pointer test.
  void set_observer(obs::Observer* observer);
  obs::Observer* observer() { return obs_; }

  // --- Karma-style credit defense (config.credit_defense, src/adv) ---
  //
  // The ledger lives here because the Controller owns the clock (settle
  // sweep every CFS period), the trace, and the replication stream; the
  // allocator reads it via a const pointer to Υ-gate grants.
  const CreditLedger& credits() const { return credits_; }

  // --- real-time admission control (mixed-criticality class) ---
  //
  // An RT reservation is a (runtime, deadline, period) triple; its CPU
  // floor is runtime / min(deadline, period) cores. Admission is a
  // utilization-bound test at two scopes — the container's node
  // (kRtUtilBound x node cores) and the pool's non-borrowed RT capacity
  // (kRtUtilBound x rt_capacity). Once admitted, no allocator decision —
  // κ scale-down, credit decay, greedy throttling — may take the container
  // below its floor, and the reservation is only ever revoked by an
  // explicit kRtEvicted decision (release, node death), never silently.
  // A rejection's trace `detail` is its reason code: 0 node, 1 pool,
  // 3 state.
  enum class RtAdmit {
    kAdmitted,
    kRejectedNode,   // node utilization bound exceeded
    kRejectedPool,   // pool RT-capacity bound exceeded
    kRejectedState,  // not registered / already admitted / invalid / crashed
  };
  RtAdmit admit_rt(cluster::ContainerId id, const cfs::RtSpec& spec);
  // Revokes an admitted reservation (trace kRtEvicted, reason: 0 released,
  // 1 node dead/quarantined, 2 operator). The container survives as
  // best-effort unless the caller also deregisters it. Returns false if the
  // id holds no reservation.
  bool evict_rt(cluster::ContainerId id, int reason = 0);
  bool rt_admitted(cluster::ContainerId id) const {
    return rt_.count(id) != 0;
  }
  // The admitted CPU floor, or 0 for best-effort containers.
  double rt_floor_of(cluster::ContainerId id) const;
  double rt_reserved_cores() const { return rt_reserved_cores_; }
  std::size_t rt_count() const { return rt_.size(); }
  std::uint64_t rt_admissions() const { return rt_admissions_; }
  std::uint64_t rt_rejections() const { return rt_rejections_; }
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  // The pool's non-borrowed RT capacity base (cores). The sharded control
  // plane pins this to each shard's base slice so borrowed pool is never
  // counted toward RT headroom; 0 (default) means "use the live pool
  // limit" (single-controller deployments, where nothing is borrowed).
  void set_rt_capacity(double cores) { rt_capacity_ = cores; }
  double rt_capacity() const;

  // --- counters ---
  std::uint64_t stats_received() const { return stats_received_; }
  std::uint64_t limit_updates_sent() const { return limit_updates_; }
  std::uint64_t oom_events() const { return oom_events_; }
  std::uint64_t oom_rescues() const { return oom_rescues_; }
  memcg::Bytes total_reclaimed() const { return total_reclaimed_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t resyncs() const { return resyncs_; }
  // Limit updates issued but not yet acked by their Agent.
  std::size_t pending_updates() const { return open_pending_; }
  bool node_dead(cluster::NodeId node) const;

  ResourceAllocator& allocator() { return allocator_; }

 private:
  struct Entry {
    cluster::Container* container = nullptr;
    Agent* agent = nullptr;
  };
  // Trace/latency context threaded from telemetry fire to limit apply.
  struct LoopCtx {
    obs::EventId cause = 0;        // decision (or throttle) trace event
    sim::TimePoint fire = 0;       // telemetry left the kernel hook
    sim::TimePoint ingest = 0;     // Controller received the statistic
    sim::TimePoint decide = 0;     // Allocator returned the decision
    bool profile = false;          // record the loop when the RPC lands
  };
  // One desired-state slot per (container, resource): the newest intended
  // limit, its sequence number, and the retransmit timer. The *external*
  // identity of a slot — what the WAL, the replicas, and the checker see —
  // stays `container id * 4 + resource`; internally the rows live in a
  // dense vector indexed by `registry slot * 3 + resource` so the hot
  // push/ack/timeout path is a direct load. A superseding decision
  // overwrites the slot (the newest value wins); the ack for the newest
  // sequence clears it.
  struct Pending {
    std::uint64_t seq = 0;
    Resource resource = Resource::kCpu;
    double value = 0.0;  // cores, bytes or bytes/s, per `resource`
    int attempts = 0;
    sim::Duration backoff = 0;
    sim::EventHandle timer;
    obs::EventId rpc_event = 0;  // original kRpcIssued (causal anchor)
    LoopCtx ctx;
    bool queued = false;  // sitting in a NodeBatch awaiting flush
  };
  // One limit update on the wire, fixed when its RPC is sent: a slot
  // superseded afterwards keeps its own newer state, and the in-flight entry
  // acks or times out on this seq.
  struct WireEntry {
    std::uint64_t key = 0;
    cluster::ContainerId id = 0;
    std::uint64_t seq = 0;
    Resource resource = Resource::kCpu;
    double value = 0.0;
    obs::EventId rpc_event = 0;
    LoopCtx ctx;
    std::uint32_t node_tag = 0;
  };
  // Per-node coalescing buffer: every limit push within one tick bound for
  // the same node rides a single batched RPC with per-entry acks. The flush
  // runs same-tick (schedule_after(0)) after all already-queued work, so a
  // whole telemetry period's decisions for a node coalesce without adding
  // latency.
  struct NodeBatch {
    std::vector<std::uint64_t> keys;  // external update keys, push order
    sim::EventHandle flush;
    bool scheduled = false;
  };
  // Per-node liveness bookkeeping (keyed by heartbeats).
  struct NodeHealth {
    sim::TimePoint last_heartbeat = 0;
    std::uint64_t agent_incarnation = 0;
    bool dead = false;
    sim::EventHandle reclaim_timer;  // quarantine-expiry reclaim
  };

  enum class RegisterMode { kBootstrap, kResync, kTakeover };
  // `bw_want` is the recovery-mode bandwidth rate to re-admit (snapshot or
  // replica value); bootstrap ignores it and derives the rate from the plan.
  // `rt` re-installs a replicated RT reservation on the takeover path
  // (resync re-derives the reservation from node-side container state
  // instead — the node is the source of truth a restarted seat can reach).
  void register_impl(cluster::Container& container, cluster::Node& node,
                     double cores, memcg::Bytes mem, RegisterMode mode,
                     double bw_want = 0.0, const cfs::RtSpec* rt = nullptr);
  // Runs the allocator on one CPU statistic and, on a decision, records the
  // grant/shrink event (linked to `cause`, the throttle that prompted it)
  // and opens the sequenced desired-state slot.
  void ingest_cpu_stats(const CpuStatsMsg& stats, obs::EventId cause,
                        sim::TimePoint fire_time);
  // The one trace recorder: stamps the event with sim_.now() and tags it
  // with the container's node from its registry row. With no observer
  // attached it returns 0 before any lookup.
  obs::EventId trace(obs::EventKind kind, cluster::ContainerId id,
                     double before, double after, std::int64_t detail = 0,
                     obs::EventId cause = 0) {
    if (obs_ == nullptr) return 0;
    const Entry* entry = find_entry(id);
    return trace_at(entry != nullptr ? node_tag(*entry) : 0, kind, id, before,
                    after, detail, cause);
  }
  // Same, with the node tag supplied by the caller: the tag captured at send
  // time, the answering Agent's node, or a node-level event (id 0).
  obs::EventId trace_at(std::uint32_t node_tag, obs::EventKind kind,
                        cluster::ContainerId id, double before, double after,
                        std::int64_t detail = 0, obs::EventId cause = 0);
  // Opens (or supersedes) the container's desired-state slot for `resource`
  // with `value`: fresh sequence, kRpcIssued trace, slot replication, and
  // dispatch to the wire.
  void push_limit(cluster::ContainerId id, Resource resource, double value,
                  LoopCtx ctx);
  // NIC headroom left on a node for one container's rate: nic_bps minus
  // every *other* attached container's rate, counting for each the larger
  // of the applied shaper rate and the book's shadow rate (so in-flight
  // grants and unlanded shrinks both stay accounted).
  double node_bw_headroom(cluster::NodeId node,
                          cluster::ContainerId except) const;
  // Initial bandwidth admission for a registering container. Grants
  // min(want, pool, NIC headroom) unless that falls below the kBwMinRate
  // admission floor, in which case the container stays unshaped.
  void admit_bw(cluster::Container& container, cluster::Node& node,
                double want, RegisterMode mode);
  void run_periodic_reclaim();
  // Books one Agent's reclaim result (either sweep): shadow limits and
  // kMemShadow records first, then the kReclaim traces.
  void apply_reclaim(Agent& agent, const Agent::ReclaimResult& result);
  // Credit defense internals. settle_credits runs every CFS period and is
  // the ONLY site that charges usage-based credits — charging at the sweep
  // rather than per telemetry RPC makes charges exactly-once under
  // retransmits and un-dodgeable by suppressing one's own telemetry.
  void settle_credits();
  void open_credit_account(cluster::ContainerId id);
  void close_credit_account(cluster::ContainerId id);
  void emit_credit(cluster::ContainerId id, bool removed);
  // Takeover's last step: the replica's balances replace the init accounts
  // re-registration opened (synchronous, so no settle tick intervenes).
  void install_credits(const ReplicaState& replica);
  // Burns min(want, balance + kCreditCap) micro-credits (debt is floored at
  // -kCreditCap), tracing kCreditCharge and replicating the balance.
  void charge_credits(cluster::ContainerId id, std::int64_t want,
                      std::int64_t detail, obs::EventId cause = 0);
  // RT admission internals. install_rt commits an already-checked
  // reservation: books the floor into the allocator, arms the node-side
  // periodic-job model and the deadline-miss observer, and replicates the
  // image (kRt). `fresh` distinguishes a new admission (trace + counter)
  // from recovery re-installation (resync/takeover), which must not
  // double-count.
  void install_rt(cluster::ContainerId id, const cfs::RtSpec& spec,
                  bool fresh);
  // Drops the reservation's controller-side state (floor, gauge, books);
  // the caller decides whether a kRtEvicted trace precedes it.
  // `clear_node` false leaves the node-side periodic-job model running
  // fail-static (dead-node eviction: the node is unreachable).
  void remove_rt(cluster::ContainerId id, bool clear_node = true);
  // Frees `need` cores of pool headroom by shrinking best-effort members
  // toward min_cores (ascending id order, RT floors untouched): graceful
  // degradation sheds best-effort first, never the admitted RT set.
  void shed_best_effort(double need);
  // Raises the container's shadow limit to its floor (shedding best-effort
  // if the pool is dry) so the reservation holds from admission onward.
  void raise_to_rt_floor(cluster::ContainerId id, double floor);
  // Sum of the RT floors admitted on the node's other containers.
  double node_rt_reserved(cluster::NodeId node,
                          cluster::ContainerId except) const;
  void on_deadline_miss(cluster::Container& container,
                        sim::Duration remaining);
  void record_rt_rejected(cluster::ContainerId id, double floor,
                          std::int64_t reason);
  void emit_rt(cluster::ContainerId id, bool removed);
  // Rejects physically-impossible telemetry (trace kTelemetryRejected).
  bool telemetry_plausible(const CpuStatsMsg& stats, const Entry* entry);
  // Trace events store node + 1 so that 0 stays "unknown" (node ids are
  // zero-based).
  static std::uint32_t node_tag(cluster::NodeId node) { return node + 1; }
  static std::uint32_t node_tag(const Entry& entry) {
    return entry.agent != nullptr ? node_tag(entry.agent->node().id()) : 0;
  }

  // --- reliability internals ---
  std::uint64_t next_seq() {
    // The per-epoch counter lives in the low 48 bits. Rolling it over into
    // the epoch field would make a later update compare *lower* than an
    // earlier one and break the Agents' monotonic-seq check, so bump the
    // epoch and restart the counter just before the wrap instead — packed
    // comparison stays strictly monotonic across the boundary.
    if (update_seq_ >= kUpdateSeqMask) {
      ++incarnation_;
      update_seq_ = 0;
    }
    return pack_update_seq(incarnation_, ++update_seq_);
  }
  void emit_repl(ReplicationEvent ev) {
    if (!repl_hook_) return;
    ev.epoch = incarnation_;
    repl_hook_(ev);
  }
  static net::EndpointId ep(cluster::NodeId node) {
    return static_cast<net::EndpointId>(node);
  }
  bool reachable(cluster::NodeId node) const;
  // Registry row for a container, or nullptr if unregistered.
  Entry* find_entry(cluster::ContainerId id) {
    const std::uint32_t slot = index_.find(id);
    return slot == ContainerIndex::kInvalid ? nullptr : &registry_[slot];
  }
  // Open desired-state slot for an external key, or nullptr.
  Pending* find_pending(std::uint64_t key) {
    const std::uint32_t slot = index_.find(ReplicaState::slot_container(key));
    if (slot == ContainerIndex::kInvalid) return nullptr;
    const std::size_t idx =
        static_cast<std::size_t>(slot) * kResources +
        static_cast<std::size_t>(ReplicaState::slot_resource(key));
    return pending_open_[idx] != 0 ? &pending_[idx] : nullptr;
  }
  // Routes an opened slot to the wire through the node's coalescing batch.
  void dispatch_update(std::uint64_t key, cluster::NodeId node);
  void flush_node_batch(cluster::NodeId node);
  // The request leg of a batched RPC, run at the Agent for one entry: the
  // sequenced apply, lease renewal, the kRpcApplied trace and the loop
  // profile. Returns whether the entry earns an ack.
  bool apply_at_agent(Agent& agent, const WireEntry& w);
  void on_update_timeout(std::uint64_t key, std::uint64_t seq);
  void on_update_ack(std::uint64_t key, std::uint64_t seq,
                     cluster::NodeId node);
  void cancel_pending_for(cluster::ContainerId id);
  void run_liveness_check();
  void declare_dead(cluster::NodeId node, NodeHealth& health);
  void emit_health(cluster::NodeId node, std::uint64_t incarnation, bool dead);
  void reclaim_dead_node(cluster::NodeId node);
  // Releases a container's controller-side state: RT eviction (`rt_reason`
  // per evict_rt), kContainerKilled, slots, credits, kDeregister, pool and
  // index. Node-side state is the caller's: a quarantine reclaim leaves the
  // dead node's hooks and cgroups fail-static.
  void release(cluster::ContainerId id, int rt_reason);
  void resync_node(cluster::NodeId node, Agent& agent);
  void apply_resync(cluster::NodeId node, Agent& agent,
                    const std::vector<Agent::SnapshotEntry>& snapshot);
  void drain_deferred_registrations();

  sim::Simulation& sim_;
  net::Network& net_;
  EscraConfig config_;
  ResourceAllocator& allocator_;
  obs::Observer* obs_ = nullptr;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::unordered_map<cluster::NodeId, Agent*> agents_by_node_;
  // Registered containers interned to dense slots; the hot per-container
  // state (registry entry, three desired-state slot rows) is slot-indexed
  // struct-of-arrays. External identities (WAL, replication, trace events,
  // id*4+resource slot keys) keep the ContainerId — slots never leave the
  // process.
  ContainerIndex index_;
  std::vector<Entry> registry_;
  // Pod creations that arrived while the seat was vacant (Controller
  // crashed, takeover pending). A vacant seat cannot admit — crash()
  // cleared the pool book, so a grant issued now would be clamped against
  // an empty pool and overcommit the cluster's fail-static cgroups.
  // Whichever seat returns (restart or standby takeover) answers them in
  // arrival order against its rebuilt book.
  struct DeferredRegistration {
    cluster::Container* container = nullptr;
    cluster::Node* node = nullptr;
    double cores = 0.0;
    memcg::Bytes mem = 0;
  };
  std::vector<DeferredRegistration> deferred_registrations_;
  CreditLedger credits_;
  sim::EventHandle reclaim_loop_;
  sim::EventHandle liveness_loop_;
  sim::EventHandle settle_loop_;
  bool started_ = false;
  bool crashed_ = false;
  std::uint64_t incarnation_ = 1;
  std::uint64_t update_seq_ = 0;
  // Desired-state slot rows, indexed registry-slot * 3 + resource, with a
  // parallel open-flag byte vector (closed rows keep stale contents until
  // reopened). `open_pending_` maintains the live count for
  // pending_updates() without a scan.
  std::vector<Pending> pending_;
  std::vector<std::uint8_t> pending_open_;
  std::size_t open_pending_ = 0;
  std::unordered_map<cluster::NodeId, NodeBatch> batches_;
  std::unordered_map<cluster::NodeId, NodeHealth> health_;
  ReplicationHook repl_hook_;
  bw::ClusterShaper* bw_shaper_ = nullptr;
  double bw_plan_ = 0.0;  // registration-time grant; 0 = late-join default

  // Admitted RT reservations. An ordered map: admission sweeps and
  // per-node reservation sums iterate it, and decision order must be
  // deterministic across identical-seed runs.
  struct RtInfo {
    cfs::RtSpec spec;
    double floor = 0.0;  // spec.floor_cores() at admission
  };
  std::map<cluster::ContainerId, RtInfo> rt_;
  double rt_reserved_cores_ = 0.0;
  double rt_capacity_ = 0.0;  // 0 = track the live pool limit
  std::uint64_t rt_admissions_ = 0;
  std::uint64_t rt_rejections_ = 0;
  std::uint64_t deadline_misses_ = 0;

  std::uint64_t stats_received_ = 0;
  std::uint64_t limit_updates_ = 0;
  std::uint64_t oom_events_ = 0;
  std::uint64_t oom_rescues_ = 0;
  memcg::Bytes total_reclaimed_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t resyncs_ = 0;
};

}  // namespace escra::core
