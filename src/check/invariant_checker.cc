#include "check/invariant_checker.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "cluster/cluster.h"
#include "cluster/container.h"
#include "cluster/node.h"
#include "core/escra.h"
#include "core/messages.h"

namespace escra::check {

namespace {

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

std::string fmt3(const char* format, double a, double b, double c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

}  // namespace

InvariantChecker::InvariantChecker(core::EscraSystem& escra,
                                   net::Network& network,
                                   obs::Observer& observer, Config config)
    : escra_(escra),
      net_(network),
      obs_(observer),
      cluster_(escra.cluster()),
      sim_(escra.cluster().simulation()),
      config_(config) {
  if (escra_.controller().observer() != &observer) {
    throw std::invalid_argument(
        "InvariantChecker: observer is not attached to this EscraSystem "
        "(call EscraSystem::attach_observer first)");
  }
  if (config_.sweep_interval <= 0) {
    throw std::invalid_argument("InvariantChecker: sweep_interval <= 0");
  }

  last_event_time_ = sim_.now();

  const obs::Observer::Handles& h = obs_.h;
  base_cpu_grants_ = h.cpu_grants->value();
  base_cpu_shrinks_ = h.cpu_shrinks->value();
  base_mem_grants_ = h.mem_grants->value();
  base_rpcs_issued_ = h.rpcs_issued->value();
  base_rpcs_applied_ = h.rpcs_applied->value();
  base_registrations_ = h.registrations->value();
  base_deregistrations_ = h.deregistrations->value();
  base_throttled_periods_ = h.cfs_throttled_periods->value();
  base_reclaim_bytes_ = h.reclaim_bytes->value();
  base_retransmits_ = h.retransmits->value();
  base_dup_suppressed_ = h.dup_suppressed->value();
  base_resyncs_ = h.resyncs->value();
  base_nodes_dead_ = h.nodes_dead->value();
  base_nodes_alive_ = h.nodes_alive->value();
  base_fail_static_ = h.fail_static_entries->value();
  base_faults_injected_ = h.faults_injected->value();
  base_faults_cleared_ = h.faults_cleared->value();
  base_ha_elections_ = h.ha_elections->value();
  base_ha_fenced_ = h.ha_fenced_updates->value();
  base_ha_wal_lag_ = h.ha_wal_lag_events->value();
  base_bw_throttles_ = h.bw_throttle_events->value();
  base_bw_saturation_ = h.bw_saturation->value();
  base_bw_grants_ = h.bw_grants->value();
  base_bw_shrinks_ = h.bw_shrinks->value();
  base_telemetry_rejected_ = h.telemetry_rejected->value();
  base_credit_charges_ = h.credit_charges->value();
  base_credit_refunds_ = h.credit_refunds->value();
  base_greedy_throttles_ = h.greedy_throttles->value();
  base_rt_admitted_ = h.rt_admitted->value();
  base_rt_rejected_ = h.rt_rejected->value();
  base_rt_evicted_ = h.rt_evicted->value();
  base_deadline_misses_ = h.deadline_misses->value();

  // Network mirrors exist only once Network::attach_metrics has run against
  // this observer's registry; absent counters disable the net check.
  for (int i = 0; i < net::kChannelCount; ++i) {
    const net::Channel channel = net::kAllChannels[i];
    const std::string base = std::string("net.") + net::channel_name(channel);
    NetBaseline& nb = net_base_[i];
    nb.bytes = obs_.metrics().find_counter(base + ".bytes");
    nb.messages = obs_.metrics().find_counter(base + ".messages");
    if (nb.bytes != nullptr) {
      nb.bytes_offset = net_.stats(channel).bytes - nb.bytes->value();
    }
    if (nb.messages != nullptr) {
      nb.messages_offset = net_.stats(channel).messages - nb.messages->value();
    }
  }
  net_dropped_ = obs_.metrics().find_counter("net.dropped_datagrams");
  if (net_dropped_ != nullptr) {
    net_dropped_offset_ = net_.dropped_messages() - net_dropped_->value();
  }
  net_duplicated_ = obs_.metrics().find_counter("net.duplicated_messages");
  if (net_duplicated_ != nullptr) {
    net_duplicated_offset_ =
        net_.duplicated_messages() - net_duplicated_->value();
  }

  obs_.trace().set_record_hook(
      [this](const obs::TraceEvent& event) { on_event(event); });
  sweep_event_ = sim_.schedule_every(sim_.now() + config_.sweep_interval,
                                     config_.sweep_interval,
                                     [this] { sweep(); });
}

InvariantChecker::~InvariantChecker() {
  sim_.cancel(sweep_event_);
  obs_.trace().set_record_hook(nullptr);
}

void InvariantChecker::add(const std::string& rule, std::uint32_t container,
                           std::string detail) {
  if (violations_.size() >= kMaxViolations) {
    ++dropped_violations_;
    return;
  }
  violations_.push_back({sim_.now(), rule, container, std::move(detail)});
}

void InvariantChecker::on_event(const obs::TraceEvent& ev) {
  ++events_checked_;
  const core::EscraConfig& cfg = escra_.config();
  const double eps = kCpuEps;

  // Event-queue / trace time monotonicity: the deterministic simulation
  // records every event at the current clock, so times never regress.
  if (ev.time < last_event_time_) {
    add("trace-time-monotonic", ev.container,
        fmt("event time %.0f < previous %.0f", static_cast<double>(ev.time),
            static_cast<double>(last_event_time_)));
  }
  if (ev.time != sim_.now()) {
    add("trace-time-monotonic", ev.container,
        fmt("event time %.0f != sim now %.0f", static_cast<double>(ev.time),
            static_cast<double>(sim_.now())));
  }
  last_event_time_ = std::max(last_event_time_, ev.time);
  ++seen_[static_cast<std::size_t>(ev.kind)];

  switch (ev.kind) {
    case obs::EventKind::kCpuGrant:
      if (ev.after <= ev.before - eps) {
        add("cpu-grant", ev.container,
            fmt("grant does not raise the limit: %.6f -> %.6f", ev.before,
                ev.after));
      }
      if (ev.after > escra_.app().cpu_limit() + eps) {
        add("cpu-grant", ev.container,
            fmt("granted %.6f cores beyond the global limit %.6f", ev.after,
                escra_.app().cpu_limit()));
      }
      break;

    case obs::EventKind::kCpuShrink:
      if (ev.after >= ev.before + eps) {
        add("cpu-shrink", ev.container,
            fmt("shrink does not lower the limit: %.6f -> %.6f", ev.before,
                ev.after));
      }
      if (ev.after < cfg.min_cores - eps) {
        add("cpu-floor", ev.container,
            fmt("shrink to %.6f cores below the %.6f-core floor", ev.after,
                cfg.min_cores));
      }
      if (const auto rt = rt_floor_track_.find(ev.container);
          rt != rt_floor_track_.end() && ev.after < rt->second - eps) {
        add("rt-floor", ev.container,
            fmt("shrink to %.6f cores below the admitted %.6f-core "
                "reservation floor",
                ev.after, rt->second));
      }
      break;

    case obs::EventKind::kMemGrantOnOom: {
      // detail is the shortfall the grant was issued to cover, measured
      // against the applied limit at grant time (`before`): the kernel's
      // reported shortfall on the direct path, the recomputed book
      // shortfall on the post-reclaim retry. For honest events both equal
      // usage + charge - limit; a forged event is covered per its claim
      // (and priced by the credit defense), since the claim is all the
      // control plane is asked to act on.
      const double shortfall = static_cast<double>(ev.detail);
      // A grant may legitimately land below the previous applied limit when
      // an emergency reclaim shrank this container in the same instant (the
      // reclaimed limit is still in flight on the wire); any other lowering
      // is a mid-OOM limit cut.
      const auto rec = last_reclaim_.find(ev.container);
      const bool reclaimed_now =
          rec != last_reclaim_.end() && rec->second == ev.time;
      if (ev.after < ev.before - 0.5 && !reclaimed_now) {
        add("mem-grant-covers", ev.container,
            fmt("pre-OOM grant lowered the limit: %.0f -> %.0f", ev.before,
                ev.after));
      }
      // The allocator judged the container grantable (it granted); a limit
      // below usage + charge (= before + detail) means the retried charge
      // still overflows and the OOM killer fires anyway — the exact failure
      // Escra's pre-OOM hook exists to prevent.
      if (ev.after - ev.before < shortfall - 0.5) {
        add("mem-grant-covers", ev.container,
            fmt3("grant of %.0f bytes does not cover the %.0f-byte shortfall "
                 "(post-grant OOM kill); limit now %.0f",
                 ev.after - ev.before, shortfall, ev.after));
      }
      if (ev.after >
          static_cast<double>(escra_.app().mem_limit()) + 0.5) {
        add("mem-grant-covers", ev.container,
            fmt("granted limit %.0f beyond the global limit %.0f", ev.after,
                static_cast<double>(escra_.app().mem_limit())));
      }
      break;
    }

    case obs::EventKind::kReclaim: {
      if (ev.after >= ev.before) {
        add("mem-reclaim", ev.container,
            fmt("reclaim did not shrink: %.0f -> %.0f", ev.before, ev.after));
      }
      if (ev.after < static_cast<double>(cfg.min_mem) - 0.5) {
        add("mem-reclaim", ev.container,
            fmt("reclaim to %.0f bytes below the %.0f-byte floor", ev.after,
                static_cast<double>(cfg.min_mem)));
      }
      const double freed = ev.before - ev.after;
      if (std::abs(static_cast<double>(ev.detail) - freed) > 0.5) {
        add("mem-reclaim", ev.container,
            fmt("freed-bytes detail %.0f != limit delta %.0f",
                static_cast<double>(ev.detail), freed));
      }
      reclaim_bytes_seen_ += ev.detail;
      last_reclaim_[ev.container] = ev.time;
      break;
    }

    case obs::EventKind::kRpcIssued:
      // `before` carries the resource flag: 0 = CPU, 1 = memory, 2 =
      // bandwidth. Only CPU updates feed the conservation slack.
      if (ev.before == 0.0) {
        CpuTrack& t = cpu_track_[ev.container];
        ++t.inflight;
        t.latest_issue = ev.id;
      }
      break;

    case obs::EventKind::kRpcApplied:
      if (ev.before == 0.0) {
        const auto it = cpu_track_.find(ev.container);
        if (it != cpu_track_.end()) {
          // Applying the latest issue means the cgroup holds the newest
          // intent; older issues were superseded by the slot protocol and
          // can never apply after it, so the whole count clears.
          if (ev.cause != 0 && ev.cause == it->second.latest_issue) {
            it->second.inflight = 0;
          } else if (it->second.inflight > 0) {
            --it->second.inflight;
          }
        }
      }
      // Split-brain guard: `detail` carries the applied update sequence,
      // which packs the issuing controller's epoch in its high bits. Per
      // slot, applied sequences must strictly increase — an apply at or
      // below the last one means either a duplicate slipped the agent's
      // dedup or, worse, a deposed leader landed a limit after its
      // successor did (two live epochs mutating the same slot).
      if (ev.detail != 0) {
        const std::uint64_t seq = static_cast<std::uint64_t>(ev.detail);
        // `before` is the resource flag (0/1/2): one slot per (container,
        // resource), keyed like the controller's desired-state slots.
        const std::uint64_t key = core::ReplicaState::slot_key(
            ev.container, static_cast<core::Resource>(ev.before));
        AppliedSeq& slot = applied_seq_[key];
        if (slot.seq != 0 && seq <= slot.seq) {
          add("no-split-brain", ev.container,
              fmt3("applied seq %.0f (epoch %.0f) not above previous %.0f",
                   static_cast<double>(seq),
                   static_cast<double>(core::update_seq_epoch(seq)),
                   static_cast<double>(slot.seq)));
        }
        slot.seq = std::max(slot.seq, seq);
        slot.node = ev.node;
      }
      break;

    case obs::EventKind::kRetransmit:
      if (ev.detail < 1) {
        add("counter-consistency", ev.container,
            fmt("retransmit with attempt count %.0f < 1",
                static_cast<double>(ev.detail), 0.0));
      }
      break;

    case obs::EventKind::kDuplicateSuppressed:
      break;

    case obs::EventKind::kResync: {
      // The controller just reconciled this container against the agent's
      // snapshot; in-flight bookkeeping from before the fault is void (any
      // residual divergence gets its own corrective kRpcIssued).
      const auto it = cpu_track_.find(ev.container);
      if (it != cpu_track_.end()) {
        it->second.inflight = 0;
        it->second.latest_issue = 0;
      }
      break;
    }

    case obs::EventKind::kFailStatic:
      if (ev.detail != 0 && ev.detail != 1) {
        add("counter-consistency", ev.container,
            fmt("fail-static event with detail %.0f (want 0 or 1)",
                static_cast<double>(ev.detail), 0.0));
      }
      if (ev.detail == 1) ++fail_static_entries_seen_;
      break;

    case obs::EventKind::kNodeDead:
    case obs::EventKind::kNodeAlive:
      break;

    case obs::EventKind::kFaultInjected:
      // An agent crash (fault kind 2, fault::FaultKind::kAgentCrash) wipes
      // that node's sequence tables and epoch fence by design, so earlier
      // sequences may legitimately re-apply there after the restart+resync;
      // restart the split-brain ratchet for the node's containers.
      if (ev.detail == 2 && ev.node != 0) {
        for (auto it = applied_seq_.begin(); it != applied_seq_.end();) {
          if (it->second.node == ev.node) {
            it = applied_seq_.erase(it);
          } else {
            ++it;
          }
        }
      }
      break;

    case obs::EventKind::kFaultCleared:
      if (seen_[static_cast<std::size_t>(obs::EventKind::kFaultCleared)] >
          seen_[static_cast<std::size_t>(obs::EventKind::kFaultInjected)]) {
        add("fault-accounting", 0,
            fmt("fault clears %.0f outnumber injections %.0f",
                static_cast<double>(seen_[static_cast<std::size_t>(
                    obs::EventKind::kFaultCleared)]),
                static_cast<double>(seen_[static_cast<std::size_t>(
                    obs::EventKind::kFaultInjected)])));
      }
      break;

    case obs::EventKind::kContainerRegistered:
      if (ev.after < -eps || ev.detail < 0) {
        add("pool-conservation", ev.container,
            fmt("registration with negative limits: %.6f cores, %.0f bytes",
                ev.after, static_cast<double>(ev.detail)));
      }
      break;

    case obs::EventKind::kThrottleObserved:
      if (ev.detail < 0) {
        add("cfs-state", ev.container,
            fmt("negative unused runtime %.0f at quota %.6f",
                static_cast<double>(ev.detail), ev.before));
      }
      last_throttle_[ev.container] = ev.time;
      break;

    case obs::EventKind::kContainerKilled:
      // A kill that reaches the trace with the reservation still tracked
      // means the controller dropped an admitted RT container without the
      // explicit kRtEvicted decision that must precede it (same instant).
      if (const auto rt = rt_floor_track_.find(ev.container);
          rt != rt_floor_track_.end()) {
        add("rt-evict-explicit", ev.container,
            fmt("admitted RT container killed (%.6f-core floor) without a "
                "preceding rt-evicted decision",
                rt->second, 0.0));
        rt_floor_track_.erase(rt);
      }
      cpu_track_.erase(ev.container);
      applied_seq_.erase(static_cast<std::uint64_t>(ev.container) * 4);
      applied_seq_.erase(static_cast<std::uint64_t>(ev.container) * 4 + 1);
      applied_seq_.erase(static_cast<std::uint64_t>(ev.container) * 4 + 2);
      break;

    case obs::EventKind::kLeaderElected: {
      const std::uint64_t epoch = static_cast<std::uint64_t>(ev.detail);
      if (epoch <= last_elected_epoch_) {
        add("epoch-monotonic", 0,
            fmt("elected epoch %.0f not above previously elected %.0f",
                static_cast<double>(epoch),
                static_cast<double>(last_elected_epoch_)));
      }
      if (static_cast<double>(epoch) <= ev.before) {
        add("epoch-monotonic", 0,
            fmt("elected epoch %.0f not above deposed epoch %.0f",
                static_cast<double>(epoch), ev.before));
      }
      last_elected_epoch_ = std::max(last_elected_epoch_, epoch);
      break;
    }

    case obs::EventKind::kEpochFenced:
      if (ev.detail <= 0) {
        add("epoch-monotonic", ev.container,
            fmt("epoch-fenced event with rejected seq %.0f (want > 0)",
                static_cast<double>(ev.detail), 0.0));
      }
      break;

    case obs::EventKind::kWalLag:
      if (ev.detail < 1) {
        add("epoch-monotonic", 0,
            fmt("wal-lag event with lag %.0f records (want >= 1)",
                static_cast<double>(ev.detail), 0.0));
      }
      break;

    case obs::EventKind::kBwThrottled:
      // Recorded when a shaper queue forms; detail is the queue depth at
      // that moment, so a throttle with an empty queue is inconsistent.
      if (ev.detail < 1) {
        add("counter-consistency", ev.container,
            fmt("bw-throttle event with queue depth %.0f (want >= 1)",
                static_cast<double>(ev.detail), 0.0));
      }
      break;

    case obs::EventKind::kBwSaturation:
      // Telemetry echo of a saturated period; counted for consistency only.
      break;

    case obs::EventKind::kBwGrant:
      if (ev.after < ev.before - 0.5) {
        add("bw-grant", ev.container,
            fmt("grant lowered the rate: %.0f -> %.0f bytes/s", ev.before,
                ev.after));
      }
      if (ev.after > escra_.app().bw_limit() + 0.5) {
        add("bw-grant", ev.container,
            fmt("granted %.0f bytes/s beyond the global limit %.0f",
                ev.after, escra_.app().bw_limit()));
      }
      break;

    case obs::EventKind::kBwShrink:
      if (ev.after > ev.before + 0.5) {
        add("bw-shrink", ev.container,
            fmt("shrink raised the rate: %.0f -> %.0f bytes/s", ev.before,
                ev.after));
      }
      if (ev.after < core::kBwMinRate - 0.5) {
        add("bw-floor", ev.container,
            fmt("shrink to %.0f bytes/s below the %.0f floor", ev.after,
                core::kBwMinRate));
      }
      break;

    case obs::EventKind::kTelemetryRejected:
      // `before` is the resource flag: 0 = CPU, 2 = bandwidth.
      if (ev.before != 0.0 && ev.before != 2.0) {
        add("counter-consistency", ev.container,
            fmt("telemetry-rejected with resource flag %.0f (want 0 or 2)",
                ev.before, 0.0));
      }
      break;

    case obs::EventKind::kCreditCharge:
      // before/after carry the balance: a charge only ever lowers it.
      if (ev.after > ev.before + 1e-9) {
        add("credit-conservation", ev.container,
            fmt("credit charge raised the balance: %.6f -> %.6f", ev.before,
                ev.after));
      }
      break;

    case obs::EventKind::kCreditRefund:
      if (ev.after < ev.before - 1e-9) {
        add("credit-conservation", ev.container,
            fmt("credit refund lowered the balance: %.6f -> %.6f", ev.before,
                ev.after));
      }
      break;

    case obs::EventKind::kGreedyThrottle:
      // The decay only ever lowers the limit, and never below the floor:
      // degrading an overclaimer to its fair share must not starve it.
      if (ev.after > ev.before + eps) {
        add("credit-honest-floor", ev.container,
            fmt("greedy throttle raised the limit: %.6f -> %.6f", ev.before,
                ev.after));
      }
      if (ev.after < cfg.min_cores - eps) {
        add("credit-honest-floor", ev.container,
            fmt("greedy throttle to %.6f cores below the %.6f floor",
                ev.after, cfg.min_cores));
      }
      if (const auto rt = rt_floor_track_.find(ev.container);
          rt != rt_floor_track_.end() && ev.after < rt->second - eps) {
        add("rt-floor", ev.container,
            fmt("greedy throttle to %.6f cores below the admitted "
                "%.6f-core reservation floor",
                ev.after, rt->second));
      }
      break;

    case obs::EventKind::kShardAdvertise:
    case obs::EventKind::kBorrowRequest:
    case obs::EventKind::kBorrowGrant:
    case obs::EventKind::kBorrowReturn:
    case obs::EventKind::kShardPoolResize:
      // Cross-shard borrowing is validated by the sharded control plane's
      // own conservation tests; counted here for the trace totals only.
      break;

    case obs::EventKind::kRtAdmitted:
      // `after` is the reservation floor; `detail` packs (runtime << 32) |
      // period in microseconds — both must be present for a valid spec.
      if (ev.after <= eps) {
        add("rt-admission-conservation", ev.container,
            fmt("admission with a %.6f-core floor (want > 0)", ev.after,
                0.0));
      }
      if ((ev.detail >> 32) < 1 || (ev.detail & 0xffffffff) < 1) {
        add("rt-admission-conservation", ev.container,
            fmt("admission detail packs runtime %.0f us, period %.0f us "
                "(want both >= 1)",
                static_cast<double>(ev.detail >> 32),
                static_cast<double>(ev.detail & 0xffffffff)));
      }
      rt_floor_track_[ev.container] = ev.after;
      break;

    case obs::EventKind::kRtRejected:
      // detail is the rejection reason: 0 node bound, 1 pool bound, 2 bw
      // bound, 3 state (crashed / unknown / dead node / double admit).
      if (ev.detail < 0 || ev.detail > 3) {
        add("rt-admission-conservation", ev.container,
            fmt("rejection with reason %.0f (want 0..3)",
                static_cast<double>(ev.detail), 0.0));
      }
      break;

    case obs::EventKind::kRtEvicted: {
      if (ev.detail < 0 || ev.detail > 2) {
        add("rt-evict-explicit", ev.container,
            fmt("eviction with reason %.0f (want 0..2)",
                static_cast<double>(ev.detail), 0.0));
      }
      // `before` reports the floor the eviction releases; an eviction seen
      // for a container the trace admitted must release that exact floor.
      const auto rt = rt_floor_track_.find(ev.container);
      if (rt != rt_floor_track_.end()) {
        if (std::abs(ev.before - rt->second) > eps) {
          add("rt-floor", ev.container,
              fmt("eviction releases %.6f cores but the admitted floor "
                  "was %.6f",
                  ev.before, rt->second));
        }
        rt_floor_track_.erase(rt);
      }
      break;
    }

    case obs::EventKind::kDeadlineMiss: {
      // detail is the core-time (us) still owed at the deadline: a miss
      // with nothing owed is no miss. `before` is the reservation floor the
      // node-side deadline model was admitted with.
      if (ev.detail < 1) {
        add("rt-allocator-miss", ev.container,
            fmt("deadline miss with %.0f us remaining (want >= 1)",
                static_cast<double>(ev.detail), 0.0));
      }
      if (ev.before <= eps) {
        add("rt-allocator-miss", ev.container,
            fmt("deadline miss with a %.6f-core floor (want > 0)", ev.before,
                0.0));
      }
      // The no-deadline-miss guarantee: an ADMITTED container may only miss
      // through its own overrun or enforcement lag (RPC loss, fail-static
      // windows) — never because the book reclaimed it below its floor. A
      // miss while the controller's shadow book holds the container under
      // the floor is an allocator decision causing the miss.
      const auto rt = rt_floor_track_.find(ev.container);
      if (rt != rt_floor_track_.end() &&
          escra_.app().is_member(ev.container)) {
        const double book = escra_.app().member_cores(ev.container);
        if (book < rt->second - eps) {
          add("rt-allocator-miss", ev.container,
              fmt3("deadline miss while the book holds %.6f cores below "
                   "the %.6f-core floor (%.0f us still owed)",
                   book, rt->second, static_cast<double>(ev.detail)));
        }
      }
      break;
    }
  }
}

void InvariantChecker::sweep() {
  ++sweeps_;
  const double eps = kCpuEps;
  core::DistributedContainer& app = escra_.app();
  core::Controller& controller = escra_.controller();

  // Per-node CPU conservation: the scheduler's max-min fair grant is capped
  // at the node's core count, whatever limits the allocator handed out.
  for (const auto& node : cluster_.nodes()) {
    const double used = node->scheduler().last_slice_usage_cores();
    if (used > node->config().cores + eps) {
      add("node-cpu-conservation", 0,
          fmt3("node %.0f scheduled %.6f cores on %.6f",
               static_cast<double>(node->id()), used, node->config().cores));
    }
  }

  // Pool book of record: 0 <= allocated <= limit for both resources.
  if (app.cpu_allocated() < -eps ||
      app.cpu_allocated() > app.cpu_limit() + eps) {
    add("pool-conservation", 0,
        fmt("cpu allocated %.6f outside [0, %.6f]", app.cpu_allocated(),
            app.cpu_limit()));
  }
  if (app.mem_allocated() < 0 || app.mem_allocated() > app.mem_limit()) {
    add("pool-conservation", 0,
        fmt("mem allocated %.0f outside [0, %.0f]",
            static_cast<double>(app.mem_allocated()),
            static_cast<double>(app.mem_limit())));
  }
  if (app.bw_allocated() < -0.5 ||
      app.bw_allocated() > app.bw_limit() + 0.5) {
    add("pool-conservation", 0,
        fmt("bw allocated %.0f outside [0, %.0f]", app.bw_allocated(),
            app.bw_limit()));
  }

  // Walk every container once: shadow-limit sums, applied cgroup limits,
  // and per-cgroup internal consistency.
  double shadow_cpu_sum = 0.0;
  double actual_cpu_sum = 0.0;
  double inflight_slack = 0.0;
  std::size_t registered = 0;
  for (cluster::Container* container : cluster_.containers()) {
    const cfs::CfsCgroup& cpu = container->cpu_cgroup();
    const memcg::MemCgroup& mem = container->mem_cgroup();

    if (!cpu.bandwidth_state_valid()) {
      add("cfs-state", container->id(),
          fmt3("bandwidth state invalid: remaining %.0f, quota %.0f, "
               "burst %.0f",
               static_cast<double>(cpu.runtime_remaining()),
               static_cast<double>(cpu.quota()),
               static_cast<double>(cpu.burst())));
    }
    if (!mem.state_valid()) {
      add("memcg-state", container->id(),
          fmt("memcg state invalid: usage %.0f, limit %.0f",
              static_cast<double>(mem.usage()),
              static_cast<double>(mem.limit())));
    }
    // charge <= limit, except force-charged residency: a restart charges the
    // base footprint unconditionally (as Linux accounts already-resident
    // pages), which legitimately exceeds a limit reclamation shrank.
    if (mem.usage() > mem.limit() && mem.usage() > container->resident()) {
      add("memcg-charge-le-limit", container->id(),
          fmt3("usage %.0f exceeds limit %.0f and resident %.0f",
               static_cast<double>(mem.usage()),
               static_cast<double>(mem.limit()),
               static_cast<double>(container->resident())));
    }

    if (controller.is_registered(container->id())) {
      ++registered;
      const double shadow = app.member_cores(container->id());
      shadow_cpu_sum += shadow;
      actual_cpu_sum += cpu.limit_cores();
      // A container with a limit-update RPC in flight (issued but not yet
      // applied — possibly dropped and retransmitting, or stranded behind a
      // partition) may legitimately hold more cgroup capacity than its
      // shadow limit says: the pool has already re-committed the freed
      // share. The allowance is exactly the current divergence, so it
      // vanishes the moment the update lands.
      const auto track = cpu_track_.find(container->id());
      if (track != cpu_track_.end() && track->second.inflight > 0) {
        inflight_slack += std::max(0.0, cpu.limit_cores() - shadow);
      }
    }
  }

  // Registered members' shadow limits must sum to the pool's allocated
  // figure (each registered container is a member, so a mismatch means the
  // two books diverged).
  if (registered == controller.registered_count()) {
    const double tol = eps * static_cast<double>(registered + 1);
    if (std::abs(shadow_cpu_sum - app.cpu_allocated()) > tol) {
      add("pool-conservation", 0,
          fmt("member shadow limits sum to %.6f but pool says %.6f",
              shadow_cpu_sum, app.cpu_allocated()));
    }
  }

  // CPU conservation over *applied* limits. Capacity freed by a shrink
  // decision re-enters the pool at decide time but leaves the cgroup only
  // when the (retransmitted-until-acked) RPC lands, so the applied sum may
  // transiently exceed the global limit by the summed divergence of exactly
  // those containers with an update in flight — no more.
  if (actual_cpu_sum >
      app.cpu_limit() + inflight_slack +
          eps * static_cast<double>(registered + 1)) {
    add("cpu-conservation", 0,
        fmt3("applied cgroup limits sum to %.6f cores > global %.6f "
             "(+%.6f in-flight divergence allowed)",
             actual_cpu_sum, app.cpu_limit(), inflight_slack));
  }

  // Gauges mirror the books of record.
  const obs::Observer::Handles& h = obs_.h;
  if (static_cast<std::size_t>(h.containers_active->value()) !=
      controller.registered_count()) {
    add("gauge-containers-active", 0,
        fmt("gauge %.0f != registry %.0f", h.containers_active->value(),
            static_cast<double>(controller.registered_count())));
  }
  if (std::abs(h.pool_cpu_allocated->value() - app.cpu_allocated()) > eps ||
      std::abs(h.pool_cpu_unallocated->value() - app.cpu_unallocated()) >
          eps) {
    add("gauge-pool", 0,
        fmt("cpu gauges (%.6f, %.6f) diverge from pool",
            h.pool_cpu_allocated->value(), h.pool_cpu_unallocated->value()));
  }
  if (std::abs(h.pool_mem_allocated->value() -
               static_cast<double>(app.mem_allocated())) > 0.5 ||
      std::abs(h.pool_mem_unallocated->value() -
               static_cast<double>(app.mem_unallocated())) > 0.5) {
    add("gauge-pool", 0,
        fmt("mem gauges (%.0f, %.0f) diverge from pool",
            h.pool_mem_allocated->value(), h.pool_mem_unallocated->value()));
  }
  if (app.bw_limit() > 0.0 &&
      (std::abs(h.pool_bw_allocated->value() - app.bw_allocated()) > 0.5 ||
       std::abs(h.pool_bw_unallocated->value() - app.bw_unallocated()) >
           0.5)) {
    add("gauge-pool", 0,
        fmt("bw gauges (%.0f, %.0f) diverge from pool",
            h.pool_bw_allocated->value(), h.pool_bw_unallocated->value()));
  }

  // Real-time admission conservation. The controller's admitted set is the
  // book of record here: recovery re-installation (crash/resync, HA
  // takeover) is deliberately traceless, so the tracked set is re-armed
  // from introspection each sweep — and entries for containers no longer
  // admitted (evicted during a window the trace could not observe) are
  // dropped the same way. A crashed controller holds no soft RT state and
  // enforces nothing, so the sync pauses rather than erasing live floors.
  if (!controller.crashed()) {
    for (auto it = rt_floor_track_.begin(); it != rt_floor_track_.end();) {
      if (!controller.rt_admitted(it->first)) {
        it = rt_floor_track_.erase(it);
      } else {
        ++it;
      }
    }
    const double rt_tol = eps * static_cast<double>(controller.rt_count() + 1);
    double floor_sum = 0.0;
    for (const auto& node : cluster_.nodes()) {
      double node_floor = 0.0;
      for (cluster::Container* c : node->containers()) {
        if (!controller.rt_admitted(c->id())) continue;
        const double floor = controller.rt_floor_of(c->id());
        rt_floor_track_[c->id()] = floor;
        node_floor += floor;
        floor_sum += floor;
      }
      // Per-node utilization bound: the deadline scheduler's guarantee
      // holds only while the node's reservation density stays under it.
      if (node_floor > core::kRtUtilBound * node->config().cores + rt_tol) {
        add("rt-admission-conservation", 0,
            fmt3("node %.0f admitted floors sum to %.6f cores above the "
                 "utilization bound %.6f",
                 static_cast<double>(node->id()), node_floor,
                 core::kRtUtilBound * node->config().cores));
      }
    }
    // Pool bound against non-borrowed RT capacity, and internal
    // consistency: the reserved total is exactly the sum of the floors.
    if (controller.rt_reserved_cores() >
        core::kRtUtilBound * controller.rt_capacity() + rt_tol) {
      add("rt-admission-conservation", 0,
          fmt3("reserved %.6f cores above the pool bound %.6f "
               "(rt capacity %.6f)",
               controller.rt_reserved_cores(),
               core::kRtUtilBound * controller.rt_capacity(),
               controller.rt_capacity()));
    }
    if (std::abs(controller.rt_reserved_cores() - floor_sum) > rt_tol) {
      add("rt-admission-conservation", 0,
          fmt("reserved total %.6f != sum of admitted floors %.6f",
              controller.rt_reserved_cores(), floor_sum));
    }
    if (std::abs(h.rt_reserved_cores->value() -
                 controller.rt_reserved_cores()) > eps) {
      add("rt-admission-conservation", 0,
          fmt("gauge %.6f != reserved book %.6f",
              h.rt_reserved_cores->value(), controller.rt_reserved_cores()));
    }
  }

  // Bandwidth conservation against the live shaper (attach_bw). Each
  // shaped container is counted at the larger of its applied shaper rate
  // and its shadow book rate, so a grant decided but not yet landed (or a
  // shrink in flight) stays charged against the NIC on both books — the
  // controller's admission clamp guarantees the sum never exceeds NIC
  // capacity through drops, retransmits, and crash/resync cycles.
  if (bw_shaper_ != nullptr) {
    std::map<std::uint32_t, double> node_rate_sum;
    bw_shaper_->for_each_attachment([&](std::uint32_t id,
                                        std::uint32_t node) {
      const double applied = bw_shaper_->container_rate(id);
      // Registration and book membership can briefly diverge across a
      // controller crash (registry rebuilt from resync while fail-static
      // attachments persist), so both are required before reading the book.
      const double book = controller.is_registered(id) && app.is_member(id)
                              ? app.member_bw(id)
                              : 0.0;
      node_rate_sum[node] += std::max(applied, book);
      if (controller.is_registered(id) && book > 0.0 &&
          book < core::kBwMinRate - 0.5) {
        add("bw-floor", id,
            fmt("shaped member rate %.0f bytes/s below the %.0f admission "
                "floor",
                book, core::kBwMinRate));
      }
    });
    for (const auto& [node, sum] : node_rate_sum) {
      const double nic = bw_shaper_->node_nic_bps(node);
      if (nic > 0.0 && sum > nic + 0.5) {
        add("bw-nic-conservation", 0,
            fmt3("node %.0f rate limits sum to %.0f bytes/s on a %.0f "
                 "bytes/s NIC",
                 static_cast<double>(node), sum, nic));
      }
    }
  }

  check_credits();
  check_counters();
  check_network();
}

void InvariantChecker::check_credits() {
  if (credits_ == nullptr) return;
  const core::CreditLedger& lg = *credits_;

  // Exact conservation: every micro-credit ever minted is either burned or
  // outstanding in some account — integer arithmetic, no tolerance.
  std::int64_t sum = 0;
  for (const auto& [id, acct] : lg.accounts()) sum += acct.micro;
  if (lg.minted_micro() != lg.burned_micro() + lg.outstanding_micro()) {
    add("credit-conservation", 0,
        "minted " + std::to_string(lg.minted_micro()) + " != burned " +
            std::to_string(lg.burned_micro()) + " + outstanding " +
            std::to_string(lg.outstanding_micro()));
  }
  if (sum != lg.outstanding_micro()) {
    add("credit-conservation", 0,
        "outstanding total " + std::to_string(lg.outstanding_micro()) +
            " != sum of balances " + std::to_string(sum));
  }

  // Honest floor: the defense must punish overclaimers without inverting
  // fairness. If, sweep after sweep, some member in good standing sits
  // below its fair share and throttling while a credit-exhausted member
  // holds cores above fair share, the defense is feeding the attacker with
  // the honest tenant's cycles. Transient inversions are expected (grants
  // in flight, decay grace); twenty consecutive sweeps (~2 s) is not.
  // The defense acts only through a live control plane: a crashed
  // (fail-static) Controller cannot run settle sweeps, and a member on a
  // dead-quarantined node is deliberately skipped by settle_credits (a
  // frozen share is not the tenant's choice). Pause the streak — rather
  // than reset it — while either holds, so a flapping fault can neither
  // trip the rule nor mask a genuine inversion.
  core::Controller& floor_controller = escra_.controller();
  bool defense_paralyzed = floor_controller.crashed();
  if (!defense_paralyzed) {
    for (const auto& node : cluster_.nodes()) {
      if (floor_controller.node_dead(node->id())) {
        defense_paralyzed = true;
        break;
      }
    }
  }
  if (defense_paralyzed) return;
  core::DistributedContainer& app = escra_.app();
  const std::size_t members = app.member_count();
  if (members == 0) {
    starve_streak_ = 0;
    return;
  }
  const double fair = app.cpu_limit() / static_cast<double>(members);
  const double tol = core::kCreditTolerance;
  bool overclaimer = false;
  bool starving_honest = false;
  std::uint32_t over_id = 0;
  std::uint32_t starved_id = 0;
  for (const auto& [id, acct] : lg.accounts()) {
    if (!app.is_member(id)) continue;
    const double cores = app.member_cores(id);
    if (acct.micro <= 0 && cores > fair * (1.0 + tol) + kCpuEps) {
      overclaimer = true;
      over_id = id;
    }
    if (acct.micro > 0 && cores < fair * (1.0 - tol) - kCpuEps) {
      const auto it = last_throttle_.find(id);
      if (it != last_throttle_.end() &&
          sim_.now() - it->second <= 2 * config_.sweep_interval) {
        starving_honest = true;
        starved_id = id;
      }
    }
  }
  if (overclaimer && starving_honest) {
    ++starve_streak_;
  } else {
    starve_streak_ = 0;
  }
  constexpr int kStarveSweeps = 20;
  if (starve_streak_ >= kStarveSweeps) {
    add("credit-honest-floor", starved_id,
        "member starved below fair share " + std::to_string(fair) +
            " cores for 20 consecutive sweeps while credit-exhausted member " +
            std::to_string(over_id) + " held cores above it");
    starve_streak_ = 0;
  }
}

void InvariantChecker::check_counters() {
  const obs::Observer::Handles& h = obs_.h;
  const auto seen = [this](obs::EventKind kind) {
    return seen_[static_cast<std::size_t>(kind)];
  };
  struct Pair {
    const char* what;
    std::uint64_t counter_delta;
    std::uint64_t trace_count;
  };
  const Pair pairs[] = {
      {"allocator.cpu_grants vs cpu-grant events",
       h.cpu_grants->value() - base_cpu_grants_,
       seen(obs::EventKind::kCpuGrant)},
      {"allocator.cpu_shrinks vs cpu-shrink events",
       h.cpu_shrinks->value() - base_cpu_shrinks_,
       seen(obs::EventKind::kCpuShrink)},
      {"allocator.mem_grants vs mem-grant-on-oom events",
       h.mem_grants->value() - base_mem_grants_,
       seen(obs::EventKind::kMemGrantOnOom)},
      {"controller.rpcs_issued vs rpc-issued events",
       h.rpcs_issued->value() - base_rpcs_issued_,
       seen(obs::EventKind::kRpcIssued)},
      {"controller.rpcs_applied vs rpc-applied events",
       h.rpcs_applied->value() - base_rpcs_applied_,
       seen(obs::EventKind::kRpcApplied)},
      {"containers.registered_total vs container-registered events",
       h.registrations->value() - base_registrations_,
       seen(obs::EventKind::kContainerRegistered)},
      {"containers.deregistered_total vs container-killed events",
       h.deregistrations->value() - base_deregistrations_,
       seen(obs::EventKind::kContainerKilled)},
      {"cfs.throttled_periods_total vs throttle-observed events",
       h.cfs_throttled_periods->value() - base_throttled_periods_,
       seen(obs::EventKind::kThrottleObserved)},
      {"reclaim.bytes_total vs reclaim event details",
       h.reclaim_bytes->value() - base_reclaim_bytes_,
       static_cast<std::uint64_t>(reclaim_bytes_seen_)},
      {"controller.retransmits vs retransmit events",
       h.retransmits->value() - base_retransmits_,
       seen(obs::EventKind::kRetransmit)},
      {"agent.duplicates_suppressed vs duplicate-suppressed events",
       h.dup_suppressed->value() - base_dup_suppressed_,
       seen(obs::EventKind::kDuplicateSuppressed)},
      {"controller.resyncs vs resync events",
       h.resyncs->value() - base_resyncs_, seen(obs::EventKind::kResync)},
      {"controller.nodes_declared_dead vs node-dead events",
       h.nodes_dead->value() - base_nodes_dead_,
       seen(obs::EventKind::kNodeDead)},
      {"controller.nodes_recovered vs node-alive events",
       h.nodes_alive->value() - base_nodes_alive_,
       seen(obs::EventKind::kNodeAlive)},
      {"agent.fail_static_entries vs fail-static enter events",
       h.fail_static_entries->value() - base_fail_static_,
       fail_static_entries_seen_},
      {"fault.injected vs fault-injected events",
       h.faults_injected->value() - base_faults_injected_,
       seen(obs::EventKind::kFaultInjected)},
      {"fault.cleared vs fault-cleared events",
       h.faults_cleared->value() - base_faults_cleared_,
       seen(obs::EventKind::kFaultCleared)},
      {"ha.elections vs leader-elected events",
       h.ha_elections->value() - base_ha_elections_,
       seen(obs::EventKind::kLeaderElected)},
      {"ha.fenced_updates vs epoch-fenced events",
       h.ha_fenced_updates->value() - base_ha_fenced_,
       seen(obs::EventKind::kEpochFenced)},
      {"ha.wal_lag_events vs wal-lag events",
       h.ha_wal_lag_events->value() - base_ha_wal_lag_,
       seen(obs::EventKind::kWalLag)},
      {"bw.throttle_events vs bw-throttled events",
       h.bw_throttle_events->value() - base_bw_throttles_,
       seen(obs::EventKind::kBwThrottled)},
      {"controller.bw_saturation_events vs bw-saturation events",
       h.bw_saturation->value() - base_bw_saturation_,
       seen(obs::EventKind::kBwSaturation)},
      {"allocator.bw_grants vs bw-grant events",
       h.bw_grants->value() - base_bw_grants_,
       seen(obs::EventKind::kBwGrant)},
      {"allocator.bw_shrinks vs bw-shrink events",
       h.bw_shrinks->value() - base_bw_shrinks_,
       seen(obs::EventKind::kBwShrink)},
      {"controller.telemetry_rejected vs telemetry-rejected events",
       h.telemetry_rejected->value() - base_telemetry_rejected_,
       seen(obs::EventKind::kTelemetryRejected)},
      {"controller.credit_charges vs credit-charge events",
       h.credit_charges->value() - base_credit_charges_,
       seen(obs::EventKind::kCreditCharge)},
      {"controller.credit_refunds vs credit-refund events",
       h.credit_refunds->value() - base_credit_refunds_,
       seen(obs::EventKind::kCreditRefund)},
      {"controller.greedy_throttles vs greedy-throttle events",
       h.greedy_throttles->value() - base_greedy_throttles_,
       seen(obs::EventKind::kGreedyThrottle)},
      {"controller.rt_admitted vs rt-admitted events",
       h.rt_admitted->value() - base_rt_admitted_,
       seen(obs::EventKind::kRtAdmitted)},
      {"controller.rt_rejected vs rt-rejected events",
       h.rt_rejected->value() - base_rt_rejected_,
       seen(obs::EventKind::kRtRejected)},
      {"controller.rt_evicted vs rt-evicted events",
       h.rt_evicted->value() - base_rt_evicted_,
       seen(obs::EventKind::kRtEvicted)},
      {"cfs.deadline_misses vs deadline-miss events",
       h.deadline_misses->value() - base_deadline_misses_,
       seen(obs::EventKind::kDeadlineMiss)},
  };
  for (const Pair& p : pairs) {
    if (p.counter_delta != p.trace_count) {
      add("counter-consistency", 0,
          std::string(p.what) + ": counter advanced " +
              std::to_string(p.counter_delta) + ", trace saw " +
              std::to_string(p.trace_count));
    }
  }
}

void InvariantChecker::check_network() {
  for (int i = 0; i < net::kChannelCount; ++i) {
    const net::Channel channel = net::kAllChannels[i];
    const net::ChannelStats& stats = net_.stats(channel);
    const NetBaseline& nb = net_base_[i];
    if (nb.bytes != nullptr &&
        stats.bytes != nb.bytes->value() + nb.bytes_offset) {
      add("net-obs-consistency", 0,
          std::string("net.") + net::channel_name(channel) +
              ".bytes: transport " + std::to_string(stats.bytes) +
              " != mirror " +
              std::to_string(nb.bytes->value() + nb.bytes_offset));
    }
    if (nb.messages != nullptr &&
        stats.messages != nb.messages->value() + nb.messages_offset) {
      add("net-obs-consistency", 0,
          std::string("net.") + net::channel_name(channel) +
              ".messages: transport " + std::to_string(stats.messages) +
              " != mirror " +
              std::to_string(nb.messages->value() + nb.messages_offset));
    }
  }
  if (net_dropped_ != nullptr &&
      net_.dropped_messages() != net_dropped_->value() + net_dropped_offset_) {
    add("net-obs-consistency", 0,
        "net.dropped_datagrams: transport " +
            std::to_string(net_.dropped_messages()) + " != mirror " +
            std::to_string(net_dropped_->value() + net_dropped_offset_));
  }
  if (net_duplicated_ != nullptr &&
      net_.duplicated_messages() !=
          net_duplicated_->value() + net_duplicated_offset_) {
    add("net-obs-consistency", 0,
        "net.duplicated_messages: transport " +
            std::to_string(net_.duplicated_messages()) + " != mirror " +
            std::to_string(net_duplicated_->value() + net_duplicated_offset_));
  }
  // Byte accounting across the transport: every egressed byte is either
  // delivered (ingress) or dropped, never both and never lost to the books.
  if (net_.egress_bytes() != net_.ingress_bytes() + net_.dropped_bytes()) {
    add("net-byte-accounting", 0,
        "egress " + std::to_string(net_.egress_bytes()) + " != ingress " +
            std::to_string(net_.ingress_bytes()) + " + dropped " +
            std::to_string(net_.dropped_bytes()));
  }
}

std::string InvariantChecker::report() const {
  if (ok()) {
    return "invariants ok: " + std::to_string(events_checked_) +
           " events, " + std::to_string(sweeps_) + " sweeps, 0 violations\n";
  }
  std::string out = std::to_string(violations_.size() + dropped_violations_) +
                    " invariant violation(s):\n";
  for (const Violation& v : violations_) {
    out += "  t=" + std::to_string(v.time) + "us [" + v.rule + "]";
    if (v.container != 0) out += " container " + std::to_string(v.container);
    out += ": " + v.detail + "\n";
  }
  if (dropped_violations_ > 0) {
    out += "  (+" + std::to_string(dropped_violations_) +
           " further violations not retained)\n";
  }
  return out;
}

}  // namespace escra::check
