// Decision/state WAL for the replicated controller (src/ha).
//
// The active leader turns every durable state change the Controller makes —
// container registration/deregistration (pool commitments), desired-state
// slot opens and acks, shadow-limit moves, node-liveness transitions — into
// a flat, sequence-numbered record. The log index is globally monotonic
// across epochs; a kEpochStart record marks each leadership handoff and
// resets the replica state it governs, so replay is a pure left fold:
// applying records [0..n) in index order always produces the same replica,
// regardless of which leader wrote which prefix (deterministic WAL replay).
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "cluster/container.h"
#include "cluster/node.h"
#include "core/controller.h"
#include "core/messages.h"
#include "memcg/mem_cgroup.h"

namespace escra::ha {

using WalKind = core::Controller::ReplicationEvent::Kind;

// One log record: the Controller's replication event, stamped with the
// leader epoch that wrote it and its position in the log.
struct WalRecord : core::Controller::ReplicationEvent {
  std::uint64_t epoch = 0;  // leader epoch that wrote the record
  std::uint64_t index = 0;  // position in the log (assigned by append)
};

// The leader's in-memory log. Indices never reset (standby cursors stay
// valid across epochs); the prefix every standby has acked is trimmed.
class WalLog {
 public:
  // Assigns the next index, retains the record, returns its index.
  std::uint64_t append(WalRecord record) {
    record.index = next_index_;
    records_.push_back(record);
    return next_index_++;
  }

  // First retained index / one past the last written index.
  std::uint64_t base() const { return next_index_ - records_.size(); }
  std::uint64_t next_index() const { return next_index_; }
  std::size_t retained() const { return records_.size(); }

  // Record at `index`; must be in [base, next_index).
  const WalRecord& at(std::uint64_t index) const {
    return records_[index - base()];
  }

  // Drops every record below `index` (all-standby-acked prefix).
  void trim_to(std::uint64_t index) {
    while (!records_.empty() && records_.front().index < index) {
      records_.pop_front();
    }
  }

 private:
  std::deque<WalRecord> records_;
  std::uint64_t next_index_ = 0;
};

// The state a WAL prefix folds to: what a standby needs to seat a new
// leader without resyncing the Agents. Held identically by the leader (its
// "book", fed directly by the replication hook) and by every standby (fed
// by the delivered stream), so takeover state equals leader state as of the
// last applied record.
struct ReplicaState {
  struct ContainerState {
    double cores = 0.0;    // current shadow CPU commitment
    memcg::Bytes mem = 0;  // current shadow memory commitment
    cluster::NodeId node = 0;
    double bw_bps = 0.0;  // current shadow bandwidth rate; 0 = unshaped
  };
  struct RtState {
    sim::Duration runtime = 0;
    sim::Duration deadline = 0;
    sim::Duration period = 0;
    double bw_bps = 0.0;  // bandwidth reservation; 0 = none
  };
  struct SlotState {
    std::uint64_t seq = 0;
    core::Resource resource = core::Resource::kCpu;
    double value = 0.0;  // cores, bytes or bytes/s, per `resource`
  };
  struct NodeState {
    std::uint64_t agent_incarnation = 0;
    bool dead = false;
  };

  // std::map: deterministic iteration order for takeover replay. Slot keys
  // are the *external* identity container_id*4 + resource — deliberately
  // independent of any leader's process-local ContainerIndex slot numbers,
  // so a standby's replayed state matches regardless of interning order.
  std::map<cluster::ContainerId, ContainerState> containers;
  std::map<std::uint64_t, SlotState> slots;  // key = container*4 + resource
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
  std::map<cluster::ContainerId, RtState> rt;
  std::uint64_t epoch = 0;

  static std::uint64_t slot_key(cluster::ContainerId id, core::Resource r) {
    return static_cast<std::uint64_t>(id) * 4 +
           static_cast<std::uint64_t>(r);
  }

  void apply(const WalRecord& r) {
    switch (r.kind) {
      case WalKind::kEpochStart:
        // The new leader re-registers everything through its replication
        // hook right after this record; the replica rebuilds from that.
        containers.clear();
        slots.clear();
        nodes.clear();
        credits.clear();
        credit_minted = 0;
        credit_burned = 0;
        rt.clear();
        epoch = r.epoch;
        break;
      case WalKind::kRegister:
        containers[r.container] =
            ContainerState{r.cores, r.mem, r.node, r.bw_bps};
        break;
      case WalKind::kDeregister:
        containers.erase(r.container);
        slots.erase(slot_key(r.container, core::Resource::kCpu));
        slots.erase(slot_key(r.container, core::Resource::kMem));
        slots.erase(slot_key(r.container, core::Resource::kBw));
        rt.erase(r.container);
        break;
      case WalKind::kCpuSlot:
      case WalKind::kMemSlot:
      case WalKind::kBwSlot: {
        slots[slot_key(r.container, r.resource)] =
            SlotState{r.seq, r.resource, r.slot_value()};
        // The slot's value is the container's new shadow limit.
        const auto it = containers.find(r.container);
        if (it == containers.end()) break;
        switch (r.resource) {
          case core::Resource::kCpu:
            it->second.cores = r.cores;
            break;
          case core::Resource::kMem:
            it->second.mem = r.mem;
            break;
          case core::Resource::kBw:
            it->second.bw_bps = r.bw_bps;
            break;
        }
        break;
      }
      case WalKind::kAckSlot: {
        const auto it = slots.find(slot_key(r.container, r.resource));
        // A newer (superseding) slot under the same key stays open: only
        // the ack for the newest sequence closes it.
        if (it != slots.end() && it->second.seq == r.seq) slots.erase(it);
        break;
      }
      case WalKind::kMemShadow: {
        const auto it = containers.find(r.container);
        if (it != containers.end()) it->second.mem = r.mem;
        break;
      }
      case WalKind::kNodeHealth:
        nodes[r.node] = NodeState{r.agent_incarnation, r.node_dead};
        break;
      case WalKind::kCredit:
        if (r.credit_removed) {
          credits.erase(r.container);
        } else {
          credits[r.container] = r.credit_micro;
        }
        credit_minted = r.credit_minted;
        credit_burned = r.credit_burned;
        break;
      case WalKind::kRt:
        if (r.rt_removed) {
          rt.erase(r.container);
        } else {
          rt[r.container] =
              RtState{r.rt_runtime, r.rt_deadline, r.rt_period, r.bw_bps};
        }
        break;
    }
  }
};

}  // namespace escra::ha
