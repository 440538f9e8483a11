// Warm-standby replicated controller (controller HA).
//
// The active leader streams the Controller's decision/state WAL (src/ha/
// wal.h) to N standby replicas over net::Channel::kHaReplication, and
// announces its leadership lease every 50 ms. Each standby folds
// the delivered records into a ReplicaState — the exact image a new leader
// needs: registered containers with their current shadow limits, every
// still-open desired-state slot, and the node liveness/incarnation map.
//
// When the lease goes silent for kLeaseTimeout (+ rank * a 100 ms stagger,
// so elections are staggered and at most one standby moves at a time), the
// standby fences the old epoch and takes over:
//
//   1. It claims a strictly higher epoch. If the old leader is in fact
//      alive (a partition, not a crash — split brain), the seat is deposed:
//      the old leader lives on briefly as a "ghost" that keeps
//      retransmitting its in-flight old-epoch updates until it abdicates.
//   2. Controller::takeover installs the replica: registry, pool
//      commitments and node health rebuild from the book — no Agent
//      resync round-trips — and every open slot is replayed with a fresh
//      epoch-packed sequence.
//   3. A fence broadcast tells every Agent the new epoch. Agents discard
//      any lower-epoch update (Apply::kFenced, reusing the incarnation/seq
//      machinery), so the ghost can never move a cgroup after the handoff:
//      epochs resolve split brain, divergent limits are never applied.
//   4. The fence/replay traffic doubles as controller contact, so a
//      takeover that beats the Agents' lease watchdog (kLeaseTimeout <<
//      core::kAgentLease) keeps every node out of fail-static entirely.
//
// The promoted standby's seat is the Controller singleton itself (the seat
// is a role, not a process); a fresh standby immediately replaces it, so
// the pool survives arbitrary leader churn. Everything is driven by the
// deterministic simulation: identical seeds give byte-identical failover
// schedules.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/escra.h"
#include "ha/wal.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace escra::ha {

// Silence after which a standby declares the leader dead. Must sit well
// under the Agents' fail-static lease (core::kAgentLease, 500 ms) for
// takeover to keep nodes live.
inline constexpr sim::Duration kLeaseTimeout = sim::milliseconds(200);
static_assert(kLeaseTimeout < core::kAgentLease,
              "takeover must beat the Agents' fail-static lease");

struct HaConfig {
  int standbys = 1;
  // Standby-endpoint addresses this plane hands out: the k-th standby it
  // creates (replacements after a takeover included) answers at
  // net::standby_endpoint(endpoint_base + k * endpoint_stride). A sharded
  // control plane interleaves its shards (base = shard, stride = shard
  // count), so every address a shard ever uses is its own and a partition
  // aimed at one shard's replica never clips another's.
  int endpoint_base = 0;
  int endpoint_stride = 1;
};

class HaControlPlane {
 public:
  // Attaches to a (possibly already running) system: hooks the Controller's
  // replication stream, seeds the leader book from its live snapshots, and
  // creates `config.standbys` warm standbys. `net` must be the same network
  // the system's control plane runs on.
  HaControlPlane(core::EscraSystem& escra, net::Network& net,
                 HaConfig config = {});
  ~HaControlPlane();

  HaControlPlane(const HaControlPlane&) = delete;
  HaControlPlane& operator=(const HaControlPlane&) = delete;

  // Starts/stops the lease loop and the standby watchdogs.
  void start();
  void stop();

  // Fault-injection entry: kills the current leader *without* scheduling a
  // restart — failover is the standbys' job now.
  void kill_leader();

  // --- introspection (tests, benchmarks, tools) ---
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t wal_appends() const { return wal_appends_; }
  int standby_count() const { return static_cast<int>(standbys_.size()); }
  const ReplicaState& book() const { return book_; }
  // Rank r standby's replica.
  const ReplicaState& standby_replica(int rank) const;
  bool ghost_active() const;

 private:
  struct Standby {
    int endpoint_index = 0;  // net::standby_endpoint() address (stable)
    ReplicaState replica;
    std::uint64_t next_index = 0;  // next contiguous record to apply
    std::map<std::uint64_t, WalRecord> stash;  // out-of-order arrivals
    std::uint64_t acked = 0;  // leader-side cumulative-ack cursor
    sim::TimePoint last_leader_contact = 0;
    std::uint64_t last_seen_epoch = 0;
    bool synced = false;  // initial state snapshot delivered
    sim::EventHandle watchdog;
  };

  // A deposed leader's dying gasps: the old-epoch in-flight slots it keeps
  // retransmitting until it abdicates. Fenced at every live Agent.
  struct GhostSlot {
    cluster::ContainerId id = 0;
    cluster::NodeId node = 0;
    core::Resource resource = core::Resource::kCpu;
    double value = 0.0;  // cores, bytes or bytes/s, per `resource`
    std::uint64_t seq = 0;
  };
  struct Ghost {
    std::uint64_t epoch = 0;
    std::vector<GhostSlot> slots;
    sim::TimePoint abdicate_at = 0;
    sim::EventHandle timer;
  };

  void on_repl_event(const core::Controller::ReplicationEvent& ev);
  void append_and_stream(WalRecord record);
  void stream_record(Standby& standby, const WalRecord& record);
  void deliver_record(Standby& standby, const WalRecord& record);
  void send_ack(Standby& standby);
  void leader_tick();
  Standby& add_standby();
  void send_snapshot(Standby& standby);
  void arm_watchdog(Standby& standby);
  void standby_check(Standby& standby);
  int rank_of(const Standby& standby) const;
  void promote(Standby& standby);
  void spawn_ghost();
  void ghost_tick(Ghost& ghost);
  obs::Observer* observer();

  core::EscraSystem& escra_;
  sim::Simulation& sim_;
  net::Network& net_;
  HaConfig config_;

  WalLog log_;
  ReplicaState book_;  // leader-side fold of the same log
  std::vector<std::unique_ptr<Standby>> standbys_;  // index 0 = rank 0
  std::vector<std::unique_ptr<Ghost>> ghosts_;
  sim::EventHandle lease_loop_;
  bool started_ = false;
  int next_endpoint_index_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t wal_appends_ = 0;
};

}  // namespace escra::ha
