#include "ha/ha_control_plane.h"

#include <algorithm>
#include <utility>

#include "core/messages.h"
#include "obs/observer.h"

namespace escra::ha {

namespace {

net::EndpointId node_ep(cluster::NodeId node) {
  return static_cast<net::EndpointId>(node);
}

// Retransmitted WAL records per standby per lease tick: bounds the burst
// after a long outage without stalling catch-up (128 records / 50 ms).
constexpr std::uint64_t kRetransmitBatch = 128;

// Leader -> standby lease announcement period (also the retransmit /
// ack-cursor exchange tick).
constexpr sim::Duration kLeaseInterval = sim::milliseconds(50);
static_assert(kLeaseInterval < kLeaseTimeout,
              "a live leader must announce within every lease timeout");
// Election stagger between standby ranks: rank k waits an extra
// k * kTakeoverStagger, so a successful takeover (whose new lease
// announcements arrive within one RTT) always preempts lower ranks.
constexpr sim::Duration kTakeoverStagger = sim::milliseconds(100);
// How long a deposed (split-brain) leader keeps retransmitting its
// in-flight updates before noticing the higher epoch and abdicating.
constexpr sim::Duration kGhostAbdicate = sim::milliseconds(500);
// Standby ack cursors further than this many records behind the log head
// at a lease tick are traced as kWalLag.
constexpr std::uint64_t kWalLagThreshold = 64;

}  // namespace

HaControlPlane::HaControlPlane(core::EscraSystem& escra, net::Network& net,
                               HaConfig config)
    : escra_(escra),
      sim_(escra.cluster().simulation()),
      net_(net),
      config_(config) {
  core::Controller& controller = escra_.controller();
  // Seed the leader book from the live seat (attaching mid-run is legal):
  // the same image a takeover installs.
  book_ = controller.image();
  epoch_ = book_.epoch;

  // Log origin: the current epoch's start. Standbys never replay across
  // this (they bootstrap from a book snapshot), but every later record
  // folds deterministically on top of it.
  WalRecord origin;
  origin.kind = WalKind::kEpochStart;
  origin.epoch = epoch_;
  log_.append(origin);

  controller.set_replication_hook(
      [this](const core::ReplicationEvent& ev) { on_repl_event(ev); });

  for (int i = 0; i < config_.standbys; ++i) add_standby();
}

HaControlPlane::~HaControlPlane() {
  stop();
  escra_.controller().set_replication_hook(nullptr);
}

obs::Observer* HaControlPlane::observer() {
  return escra_.controller().observer();
}

void HaControlPlane::start() {
  if (started_) return;
  started_ = true;
  const sim::TimePoint now = sim_.now();
  lease_loop_ = sim_.schedule_every(now + kLeaseInterval, kLeaseInterval,
                                    [this] { leader_tick(); });
  for (const auto& standby : standbys_) {
    standby->last_leader_contact = now;
    arm_watchdog(*standby);
  }
  obs::Observer* obs = observer();
  if (obs != nullptr) obs->h.ha_epoch->set(static_cast<double>(epoch_));
}

void HaControlPlane::stop() {
  if (!started_) return;
  started_ = false;
  sim_.cancel(lease_loop_);
  for (const auto& standby : standbys_) sim_.cancel(standby->watchdog);
  for (const auto& ghost : ghosts_) sim_.cancel(ghost->timer);
  ghosts_.clear();
}

void HaControlPlane::kill_leader() { escra_.crash(); }

const ReplicaState& HaControlPlane::standby_replica(int rank) const {
  return standbys_.at(static_cast<std::size_t>(rank))->replica;
}

bool HaControlPlane::ghost_active() const { return !ghosts_.empty(); }

int HaControlPlane::rank_of(const Standby& standby) const {
  for (std::size_t i = 0; i < standbys_.size(); ++i) {
    if (standbys_[i].get() == &standby) return static_cast<int>(i);
  }
  return 0;
}

// --- replication stream (leader side) ---

void HaControlPlane::on_repl_event(const core::ReplicationEvent& ev) {
  append_and_stream(WalRecord{ev});
}

void HaControlPlane::append_and_stream(WalRecord record) {
  record.index = log_.append(record);
  book_.apply(record);
  ++wal_appends_;
  obs::Observer* obs = observer();
  if (obs != nullptr) obs->h.ha_wal_appends->inc();
  for (const auto& standby : standbys_) stream_record(*standby, record);
}

void HaControlPlane::stream_record(Standby& standby, const WalRecord& record) {
  const int epi = standby.endpoint_index;
  net_.send_to(net::Channel::kHaReplication, net::kControllerEndpoint,
               net::standby_endpoint(epi), core::kWalRecordWireBytes,
               [this, epi, record] {
                 for (const auto& s : standbys_) {
                   if (s->endpoint_index == epi) {
                     deliver_record(*s, record);
                     return;
                   }
                 }
                 // Standby promoted/retired while the record was in flight.
               });
}

void HaControlPlane::deliver_record(Standby& standby, const WalRecord& record) {
  // Any leader traffic renews the standby's view of the lease.
  standby.last_leader_contact = sim_.now();
  standby.last_seen_epoch = std::max(standby.last_seen_epoch, record.epoch);
  if (!standby.synced) {
    // Bootstrap snapshot still in flight: stash everything; the snapshot's
    // cursor decides what is stale once it lands.
    standby.stash[record.index] = record;
    return;
  }
  if (record.index == standby.next_index) {
    standby.replica.apply(record);
    ++standby.next_index;
    // Drain any contiguous out-of-order arrivals behind it.
    auto it = standby.stash.begin();
    while (it != standby.stash.end() && it->first <= standby.next_index) {
      if (it->first == standby.next_index) {
        standby.replica.apply(it->second);
        ++standby.next_index;
      }
      it = standby.stash.erase(it);
    }
  } else if (record.index > standby.next_index) {
    standby.stash[record.index] = record;
  }
  // Cumulative ack either way: a duplicate still tells the leader where the
  // contiguous frontier is.
  send_ack(standby);
}

void HaControlPlane::send_ack(Standby& standby) {
  const int epi = standby.endpoint_index;
  const std::uint64_t acked = standby.next_index;
  net_.send_to(net::Channel::kHaReplication, net::standby_endpoint(epi),
               net::kControllerEndpoint, core::kWalAckWireBytes,
               [this, epi, acked] {
                 for (const auto& s : standbys_) {
                   if (s->endpoint_index == epi) {
                     s->acked = std::max(s->acked, acked);
                     return;
                   }
                 }
               });
}

void HaControlPlane::leader_tick() {
  core::Controller& controller = escra_.controller();
  if (controller.crashed()) return;  // dead leaders announce nothing
  if (controller.epoch() != epoch_) {
    // 48-bit sequence wrap bumped the epoch in place (same leader, no
    // handoff): track it so lease announcements carry the truth.
    epoch_ = controller.epoch();
    obs::Observer* obs = observer();
    if (obs != nullptr) obs->h.ha_epoch->set(static_cast<double>(epoch_));
  }
  std::uint64_t min_acked = log_.next_index();
  for (const auto& sp : standbys_) {
    Standby& s = *sp;
    min_acked = std::min(min_acked, s.acked);
    if (s.synced || s.acked < log_.next_index()) {
      // Retransmit the unacked tail (lost records leave a gap the stash
      // can't close on its own). Bounded per tick to keep a long outage
      // from bursting the channel.
      const std::uint64_t from = std::max(s.acked, log_.base());
      const std::uint64_t to =
          std::min(log_.next_index(), from + kRetransmitBatch);
      for (std::uint64_t i = from; i < to; ++i) stream_record(s, log_.at(i));
    }
    const std::uint64_t lag = log_.next_index() - s.acked;
    if (lag > kWalLagThreshold) {
      obs::Observer* obs = observer();
      if (obs != nullptr) {
        obs->h.ha_wal_lag_events->inc();
        obs::TraceEvent ev;
        ev.time = sim_.now();
        ev.kind = obs::EventKind::kWalLag;
        ev.detail = static_cast<std::int64_t>(lag);
        obs->record(ev);
      }
    }
    // The lease announcement proper: leadership is held by this epoch.
    const int epi = s.endpoint_index;
    const std::uint64_t epoch = epoch_;
    net_.send_to(net::Channel::kHaReplication, net::kControllerEndpoint,
                 net::standby_endpoint(epi), core::kLeaseAnnounceWireBytes,
                 [this, epi, epoch] {
                   for (const auto& st : standbys_) {
                     if (st->endpoint_index == epi) {
                       st->last_leader_contact = sim_.now();
                       st->last_seen_epoch =
                           std::max(st->last_seen_epoch, epoch);
                       return;
                     }
                   }
                 });
  }
  log_.trim_to(min_acked);
}

// --- standby pool ---

HaControlPlane::Standby& HaControlPlane::add_standby() {
  auto standby = std::make_unique<Standby>();
  standby->endpoint_index =
      config_.endpoint_base + config_.endpoint_stride * next_endpoint_index_++;
  standby->last_leader_contact = sim_.now();
  standby->last_seen_epoch = epoch_;
  // The bootstrap snapshot covers the log so far; streaming continues from
  // here, and the leader's retransmit cursor starts past the snapshot.
  standby->acked = log_.next_index();
  send_snapshot(*standby);
  if (started_) arm_watchdog(*standby);
  standbys_.push_back(std::move(standby));
  return *standbys_.back();
}

void HaControlPlane::send_snapshot(Standby& standby) {
  const int epi = standby.endpoint_index;
  const std::uint64_t snap_index = log_.next_index();
  const std::uint64_t epoch = epoch_;
  // State transfer sized by the book: one record-equivalent per entry.
  const std::size_t bytes =
      core::kWalRecordWireBytes *
      (1 + book_.containers.size() + book_.slots.size() + book_.nodes.size());
  net_.send_to(
      net::Channel::kHaReplication, net::kControllerEndpoint,
      net::standby_endpoint(epi), bytes,
      [this, epi, snap = book_, snap_index, epoch] {
        for (const auto& sp : standbys_) {
          if (sp->endpoint_index != epi) continue;
          Standby& s = *sp;
          s.replica = snap;
          s.next_index = snap_index;
          s.synced = true;
          s.last_leader_contact = sim_.now();
          s.last_seen_epoch = std::max(s.last_seen_epoch, epoch);
          // Drain stashed records the snapshot doesn't already cover.
          auto it = s.stash.begin();
          while (it != s.stash.end() && it->first <= s.next_index) {
            if (it->first == s.next_index) {
              s.replica.apply(it->second);
              ++s.next_index;
            }
            it = s.stash.erase(it);
          }
          send_ack(s);
          return;
        }
      });
}

void HaControlPlane::arm_watchdog(Standby& standby) {
  Standby* s = &standby;
  standby.watchdog =
      sim_.schedule_every(sim_.now() + kLeaseInterval, kLeaseInterval,
                          [this, s] { standby_check(*s); });
}

void HaControlPlane::standby_check(Standby& standby) {
  // Same strict-> boundary contract as the Agent lease watchdog and the
  // Controller liveness sweep: contact at exactly the expiry instant still
  // holds the lease.
  const sim::Duration deadline =
      kLeaseTimeout + rank_of(standby) * kTakeoverStagger;
  if (sim_.now() - standby.last_leader_contact > deadline) promote(standby);
}

// --- failover ---

void HaControlPlane::promote(Standby& standby) {
  core::Controller& controller = escra_.controller();
  // Detach the winner from the pool first; its replica is the new truth.
  sim_.cancel(standby.watchdog);
  const int rank = rank_of(standby);
  std::unique_ptr<Standby> winner;
  for (auto it = standbys_.begin(); it != standbys_.end(); ++it) {
    if (it->get() == &standby) {
      winner = std::move(*it);
      standbys_.erase(it);
      break;
    }
  }
  Standby& s = *winner;

  const std::uint64_t old_epoch = std::max(s.last_seen_epoch, s.replica.epoch);
  std::uint64_t new_epoch = old_epoch + 1 + static_cast<std::uint64_t>(rank);

  // Split brain: the seat is still live — the lease went silent because of
  // a partition, not a crash. Depose it; the old incumbent lives on as a
  // ghost retransmitting its in-flight old-epoch updates until it notices
  // the higher epoch and abdicates. Epoch fencing at the Agents guarantees
  // none of those ghosts can move a cgroup after the fence lands.
  if (!controller.crashed()) {
    spawn_ghost();
    controller.crash();
  }
  new_epoch = std::max(new_epoch, controller.epoch() + 1);

  obs::Observer* obs = observer();
  obs::EventId cause = 0;
  // Records the old leader never replicated die with it: account the lost
  // tail before the replica becomes the new truth.
  const std::uint64_t lost = log_.next_index() - s.next_index;
  if (obs != nullptr) {
    if (lost > 0) {
      obs->h.ha_wal_lag_events->inc();
      obs::TraceEvent lag;
      lag.time = sim_.now();
      lag.kind = obs::EventKind::kWalLag;
      lag.detail = static_cast<std::int64_t>(lost);
      obs->record(lag);
    }
    obs->h.ha_elections->inc();
    obs::TraceEvent ev;
    ev.time = sim_.now();
    ev.kind = obs::EventKind::kLeaderElected;
    ev.before = static_cast<double>(old_epoch);
    ev.after = static_cast<double>(s.replica.slots.size());
    ev.detail = static_cast<std::int64_t>(new_epoch);
    cause = obs->record(ev);
  }
  ++failovers_;
  epoch_ = new_epoch;

  // Victory broadcast: the survivors learn the election result the instant
  // it is decided, not a network round-trip later. Without this, a standby
  // whose watchdog shares this very timestamp would see a now-shorter
  // deadline (ranks shift down when the winner leaves the pool) against a
  // still-stale lease and depose the winner before its first announcement
  // could possibly arrive — the stagger only serializes elections if losing
  // a race resets your clock.
  for (const auto& sp : standbys_) {
    sp->last_leader_contact = sim_.now();
    sp->last_seen_epoch = std::max(sp->last_seen_epoch, new_epoch);
  }

  // Fresh book for the new epoch: the kEpochStart record resets it, and the
  // takeover below re-fires the replication hook for every node, container,
  // slot, reservation and credit account, repopulating the book and
  // streaming the rebuilt state to the surviving standbys (which reset on
  // the same record).
  WalRecord start;
  start.kind = WalKind::kEpochStart;
  start.epoch = new_epoch;
  append_and_stream(start);

  controller.takeover(new_epoch, s.replica, escra_.cluster(), cause);
  epoch_ = controller.epoch();
  if (obs != nullptr) obs->h.ha_epoch->set(static_cast<double>(epoch_));

  // Fence broadcast: every Agent ratchets to the new epoch; anything the
  // deposed epoch still has in flight is discarded on arrival. Delivery
  // also counts as controller contact, keeping the nodes' leases warm.
  for (core::Agent* agent : controller.agents()) {
    const std::uint64_t epoch = epoch_;
    net_.send_to(net::Channel::kControlRpc, net::kControllerEndpoint,
                 node_ep(agent->node().id()), core::kFenceWireBytes,
                 [agent, epoch] { agent->fence_epoch(epoch); });
  }

  // Replenish the pool: a fresh standby takes the promoted one's place, so
  // the system survives arbitrary leader churn at the same depth.
  add_standby();
}

void HaControlPlane::spawn_ghost() {
  auto ghost = std::make_unique<Ghost>();
  ghost->epoch = book_.epoch;
  ghost->abdicate_at = sim_.now() + kGhostAbdicate;
  ghost->slots.reserve(book_.slots.size());
  for (const auto& [key, sl] : book_.slots) {
    const cluster::ContainerId id = ReplicaState::slot_container(key);
    const auto it = book_.containers.find(id);
    if (it == book_.containers.end()) continue;
    ghost->slots.push_back(
        GhostSlot{id, it->second.node, sl.resource, sl.value, sl.seq});
  }
  Ghost* g = ghost.get();
  ghost->timer =
      sim_.schedule_every(sim_.now() + kLeaseInterval, kLeaseInterval,
                          [this, g] { ghost_tick(*g); });
  ghosts_.push_back(std::move(ghost));
}

void HaControlPlane::ghost_tick(Ghost& ghost) {
  if (sim_.now() >= ghost.abdicate_at) {
    // The deposed leader finally hears about the higher epoch and stands
    // down for good.
    sim_.cancel(ghost.timer);
    for (auto it = ghosts_.begin(); it != ghosts_.end(); ++it) {
      if (it->get() == &ghost) {
        ghosts_.erase(it);
        break;
      }
    }
    return;
  }
  core::Controller& controller = escra_.controller();
  for (const GhostSlot& slot : ghost.slots) {
    core::Agent* agent = controller.agent_at(slot.node);
    if (agent == nullptr || agent->crashed()) continue;
    net_.rpc_to(
        net::kControllerEndpoint, node_ep(slot.node),
        core::kLimitUpdateRpcBytes, core::kLimitUpdateRespBytes,
        [agent, slot]() -> bool {
          // The ghost re-sends with its *original* old-epoch sequences:
          // before the fence lands these are stale duplicates at worst
          // (idempotent); after it they bounce off Apply::kFenced.
          const core::Agent::Apply result =
              agent->apply_limit(slot.id, slot.resource, slot.value, slot.seq);
          return result == core::Agent::Apply::kApplied ||
                 result == core::Agent::Apply::kStale;
        },
        [] {});
  }
}

}  // namespace escra::ha
