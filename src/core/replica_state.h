// The Controller's replicated book (controller HA, src/ha).
//
// Every durable state change the leader makes — container registration /
// deregistration (pool commitments), desired-state slot opens and acks,
// shadow-limit moves, node-liveness transitions, credit balances and RT
// reservations — is mirrored as a flat ReplicationEvent. ReplicaState is
// their left fold: the exact image a new leader needs to take the seat
// without resyncing the Agents. The one type travels both ways:
// Controller::image() exports it from a live seat, Controller::takeover()
// installs it, and src/ha folds the same events into it on every standby.
// A kEpochStart event resets the state it governs, so applying events
// [0..n) in order always produces the same replica, regardless of which
// leader wrote which prefix (deterministic WAL replay).
#pragma once

#include <cstdint>
#include <map>

#include "cfs/rt.h"
#include "cluster/container.h"
#include "cluster/node.h"
#include "core/messages.h"
#include "memcg/mem_cgroup.h"

namespace escra::core {

struct ReplicationEvent {
  enum class Kind : std::uint8_t {
    kEpochStart,  // new leadership epoch (written by src/ha, not by core)
    kRegister,    // container joined: committed cores/mem/bw
    kDeregister,  // container left (deregistered or quarantine-reclaimed)
    kSlot,        // desired-state slot opened/superseded (resource, seq, value)
    kAckSlot,     // slot acked by the Agent (seq closed it)
    kMemShadow,   // shadow memory limit moved without a slot (reclaim)
    kNodeHealth,  // node liveness / agent-incarnation transition
    kCredit,      // credit-ledger account moved (balance + totals image)
    kRt,          // RT reservation admitted (absolute image) or revoked
    // Former name of kSlot, still spelled by the escra_bench package's
    // WAL-fold probe (bench/escra_bench/iso.cc).
    kCpuSlot = kSlot,
  };
  Kind kind = Kind::kRegister;
  cluster::ContainerId container = 0;
  cluster::NodeId node = 0;
  std::uint64_t seq = 0;               // slot sequence number (kSlot/kAckSlot)
  Resource resource = Resource::kCpu;  // slot resource (kSlot/kAckSlot)
  double value = 0.0;  // kSlot: cores, bytes or bytes/s, per `resource`
  double cores = 0.0;    // kRegister
  memcg::Bytes mem = 0;  // kRegister / kMemShadow
  double bw_bps = 0.0;   // kRegister
  std::uint64_t agent_incarnation = 0;  // kNodeHealth
  bool node_dead = false;               // kNodeHealth
  // kCredit: the account's absolute balance plus the ledger's running
  // mint/burn totals (absolute images keep WAL replay a pure fold).
  std::int64_t credit_micro = 0;
  std::int64_t credit_minted = 0;
  std::int64_t credit_burned = 0;
  bool credit_removed = false;  // account closed (container left)
  // kRt: the reservation's absolute image; rt_removed marks an explicit
  // eviction.
  cfs::RtSpec rt{};
  bool rt_removed = false;
  // The epoch of the leader that emitted the event (kEpochStart: the epoch
  // it opens).
  std::uint64_t epoch = 0;
};

struct ReplicaState {
  struct ContainerState {
    double cores = 0.0;    // current shadow CPU commitment
    memcg::Bytes mem = 0;  // current shadow memory commitment
    cluster::NodeId node = 0;
    double bw_bps = 0.0;  // current shadow bandwidth rate; 0 = unshaped
    bool operator==(const ContainerState&) const = default;
  };
  struct SlotState {
    std::uint64_t seq = 0;
    Resource resource = Resource::kCpu;
    double value = 0.0;  // cores, bytes or bytes/s, per `resource`
    bool operator==(const SlotState&) const = default;
  };
  struct NodeState {
    std::uint64_t agent_incarnation = 0;
    bool dead = false;
    bool operator==(const NodeState&) const = default;
  };

  // std::map: deterministic iteration order for takeover replay. Slot keys
  // are the *external* identity container_id*4 + resource — deliberately
  // independent of any leader's process-local ContainerIndex slot numbers,
  // so a standby's replayed state matches regardless of interning order.
  std::map<cluster::ContainerId, ContainerState> containers;
  std::map<std::uint64_t, SlotState> slots;  // key = slot_key(id, resource)
  std::map<cluster::NodeId, NodeState> nodes;
  // Credit-ledger image (Karma defense): balances plus the mint/burn
  // totals carried on every kCredit record. Balances for closed accounts
  // are erased by an explicit credit_removed record, not by kDeregister —
  // the close's burn must land in the totals atomically with the erase.
  std::map<cluster::ContainerId, std::int64_t> credits;
  std::int64_t credit_minted = 0;
  std::int64_t credit_burned = 0;
  // Admitted RT reservations (absolute images; erased by an explicit
  // rt_removed record or by the container's kDeregister).
  std::map<cluster::ContainerId, cfs::RtSpec> rt;
  std::uint64_t epoch = 0;

  bool operator==(const ReplicaState&) const = default;

  static std::uint64_t slot_key(cluster::ContainerId id, Resource r) {
    return static_cast<std::uint64_t>(id) * 4 +
           static_cast<std::uint64_t>(r);
  }
  static cluster::ContainerId slot_container(std::uint64_t key) {
    return static_cast<cluster::ContainerId>(key / 4);
  }
  static Resource slot_resource(std::uint64_t key) {
    return static_cast<Resource>(key % 4);
  }

  void apply(const ReplicationEvent& r) {
    using Kind = ReplicationEvent::Kind;
    switch (r.kind) {
      case Kind::kEpochStart:
        // The new leader re-registers everything through its replication
        // hook right after this record; the replica rebuilds from that.
        *this = ReplicaState{};
        epoch = r.epoch;
        break;
      case Kind::kRegister:
        containers[r.container] =
            ContainerState{r.cores, r.mem, r.node, r.bw_bps};
        break;
      case Kind::kDeregister:
        containers.erase(r.container);
        for (std::size_t res = 0; res < kResources; ++res) {
          slots.erase(slot_key(r.container, static_cast<Resource>(res)));
        }
        rt.erase(r.container);
        break;
      case Kind::kSlot: {
        slots[slot_key(r.container, r.resource)] =
            SlotState{r.seq, r.resource, r.value};
        // The slot's value is the container's new shadow limit.
        const auto it = containers.find(r.container);
        if (it == containers.end()) break;
        switch (r.resource) {
          case Resource::kCpu:
            it->second.cores = r.value;
            break;
          case Resource::kMem:
            it->second.mem = static_cast<memcg::Bytes>(r.value);
            break;
          case Resource::kBw:
            it->second.bw_bps = r.value;
            break;
        }
        break;
      }
      case Kind::kAckSlot: {
        const auto it = slots.find(slot_key(r.container, r.resource));
        // A newer (superseding) slot under the same key stays open: only
        // the ack for the newest sequence closes it.
        if (it != slots.end() && it->second.seq == r.seq) slots.erase(it);
        break;
      }
      case Kind::kMemShadow: {
        const auto it = containers.find(r.container);
        if (it != containers.end()) it->second.mem = r.mem;
        break;
      }
      case Kind::kNodeHealth:
        nodes[r.node] = NodeState{r.agent_incarnation, r.node_dead};
        break;
      case Kind::kCredit:
        if (r.credit_removed) {
          credits.erase(r.container);
        } else {
          credits[r.container] = r.credit_micro;
        }
        credit_minted = r.credit_minted;
        credit_burned = r.credit_burned;
        break;
      case Kind::kRt:
        if (r.rt_removed) {
          rt.erase(r.container);
        } else {
          rt[r.container] = r.rt;
        }
        break;
    }
  }
};

}  // namespace escra::core
