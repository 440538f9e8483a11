// System-wide invariant checker (escra_check).
//
// Attaches to a live EscraSystem through the obs hook points (PR 1's
// Observer) and validates the conservation laws the paper's claims rest on,
// continuously: at every recorded control-plane decision (via the
// TraceBuffer record hook) and at every CFS period boundary (via a periodic
// sweep on the simulation clock).
//
// Rules enforced
//   per event (as each decision is recorded):
//     - trace-time-monotonic   event times never go backwards, and every
//                              event is stamped with the current sim time
//     - cpu-grant              a grant raises the limit and stays within the
//                              Distributed Container's global CPU limit
//     - cpu-floor              a shrink never cuts below config.min_cores
//     - mem-grant-covers       a pre-OOM grant covers the reported shortfall
//                              (otherwise the retried charge kills a
//                              container the allocator judged grantable)
//     - mem-reclaim            reclamation shrinks, respects min_mem, and
//                              reports freed bytes consistently
//   per sweep (every kSweepInterval, one CFS period):
//     - node-cpu-conservation  per-node scheduled core-time <= node cores
//     - cpu-conservation       sum of *applied* cgroup CPU limits over
//                              registered containers <= global limit, plus
//                              per-container slack for containers with a
//                              limit-update RPC in flight (issued, possibly
//                              retransmitting, not yet applied) of exactly
//                              the container's current cgroup-vs-shadow
//                              divergence — so the bound self-tightens to
//                              the plain global limit as updates land, and
//                              stays sound through drops, duplicates,
//                              partitions, and crash/resync cycles without
//                              ever being relaxed to vacuity
//     - pool-conservation      0 <= allocated <= limit for both resources,
//                              and the member shadow limits sum to allocated
//     - cfs-state              every cgroup's bandwidth state is internally
//                              consistent (CfsCgroup::bandwidth_state_valid)
//     - memcg-charge-le-limit  usage <= limit, except for force-charged
//                              residency (restart into a reclaimed limit)
//     - counter-consistency    obs counters mirror the decision trace
//                              one-for-one (grants, shrinks, RPCs,
//                              retransmits, suppressed duplicates, resyncs,
//                              node death/recovery, fail-static entries,
//                              fault injections/clears, ...)
//     - fault-accounting       fault windows are well-formed (clears never
//                              outnumber injections)
//     - no-split-brain         per-(container, resource) applied update
//                              sequences strictly increase (epoch packed in
//                              the high bits): two leaders can never both
//                              land limits on the same slot — the fenced
//                              epoch's updates are discarded, so divergent
//                              limits are never applied. Reset per node on
//                              agent-crash fault windows (a crash clears the
//                              agent's seq table and fence by design).
//     - epoch-monotonic        leader elections claim strictly increasing
//                              epochs; WAL-lag traces carry positive lag
//     - net-obs-consistency    src/net ChannelStats and the mirrored
//                              net.<channel>.bytes/messages counters agree
//     - gauge-*                pool occupancy / active-container gauges
//                              match the book of record
//   real-time class (mixed criticality; armed automatically — RT events
//   appear only when Controller::admit_rt is used):
//     - rt-floor               no allocator decision (shrink, greedy-decay
//                              throttle) lands an admitted RT container
//                              below its reservation floor, and an eviction
//                              reports the floor it releases exactly
//     - rt-allocator-miss      a deadline miss while the controller's book
//                              holds the admitted container below its floor
//                              is allocator-caused — the never-reclaim
//                              guarantee was broken (misses with the floor
//                              honored are the tenant's own overrun, or RPC
//                              loss delaying enforcement, and are allowed)
//     - rt-evict-explicit      an admitted RT container is never killed or
//                              silently dropped without a same-instant
//                              kRtEvicted decision explaining the revoke
//     - rt-admission-conservation
//                              per node, admitted floors sum within
//                              kRtUtilBound x node cores; pool-wide the
//                              reserved total stays within kRtUtilBound x
//                              non-borrowed RT capacity, matches the
//                              per-container floors, and mirrors the
//                              controller.rt_reserved_cores gauge
//
// Overhead contract: the checker piggybacks on the existing nullable hooks —
// with no checker (and no observer) attached, every instrumentation site
// remains a single null-pointer test; attaching is strictly additive.
//
//   obs::Observer observer;
//   escra.attach_observer(observer);          // checker requires this first
//   check::InvariantChecker checker(escra, network, observer);
//   simulation.run_until(...);
//   if (!checker.ok()) std::puts(checker.report().c_str());
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bw/shaper.h"
#include "core/credit_ledger.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace escra::core {
class EscraSystem;
}
namespace escra::cluster {
class Cluster;
}

namespace escra::check {

// One invariant breach. `rule` is the stable rule name listed above;
// `detail` is a human-readable description with the offending values.
struct Violation {
  sim::TimePoint time = 0;
  std::string rule;
  std::uint32_t container = 0;  // 0 = not container-specific
  std::string detail;
};

// Violations a checker stores; beyond this they are counted but not
// retained. Shared with ShardInvariantChecker.
inline constexpr std::size_t kMaxViolations = 64;
// Absolute tolerance for CPU-core comparisons (doubles).
inline constexpr double kCpuEps = 1e-6;
// Sweep cadence of both checkers: the CFS period, so system-wide checks run
// at every period boundary.
inline constexpr sim::Duration kSweepInterval = sim::milliseconds(100);
static_assert(kSweepInterval > 0, "sweep interval must be positive");

class InvariantChecker {
 public:
  // The observer must already be attached to `escra`
  // (EscraSystem::attach_observer) — the checker validates the decision
  // stream that attachment produces and throws std::invalid_argument
  // otherwise. Installs itself as the observer's TraceBuffer record hook
  // (replacing any previous hook) and schedules the periodic sweep; both are
  // undone by the destructor. The checker must not outlive any of its
  // arguments.
  InvariantChecker(core::EscraSystem& escra, net::Network& network,
                   obs::Observer& observer);
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Runs a full sweep immediately (in addition to the periodic schedule).
  void check_now() { sweep(); }

  // Arms the bandwidth-conservation sweep against a live shaper (call when
  // the system runs with EscraSystem::enable_bandwidth):
  //   - bw-nic-conservation   per node, the summed per-container rate limits
  //                           (counting each container at the larger of its
  //                           applied shaper rate and its shadow book rate,
  //                           so in-flight slots stay accounted) never
  //                           exceed the node's NIC capacity
  //   - bw-floor              every shaped member's granted rate stays at or
  //                           above the kBwMinRate admission floor
  //   - pool/gauge checks     the bandwidth pool book and its obs gauges,
  //                           same rules as CPU/memory
  void attach_bw(const bw::ClusterShaper& shaper) { bw_shaper_ = &shaper; }

  // Arms the credit-ledger rules (Karma defense; call when the system runs
  // with config.credit_defense, passing controller().credits()):
  //   - credit-conservation    minted == burned + outstanding, exactly
  //                            (integer micro-credits), and the maintained
  //                            outstanding total equals the sum of balances
  //   - credit-honest-floor    the defense never inverts fairness: a member
  //                            in good standing (positive balance) must not
  //                            sit starved below its fair share while
  //                            throttling, sweep after sweep, while a
  //                            credit-exhausted member holds cores above
  //                            fair share the whole time
  void attach_credits(const core::CreditLedger& ledger) { credits_ = &ledger; }

  bool ok() const { return violations_.empty() && dropped_violations_ == 0; }
  const std::vector<Violation>& violations() const { return violations_; }
  // Violations observed but not retained (beyond kMaxViolations).
  std::uint64_t dropped_violations() const { return dropped_violations_; }
  std::uint64_t sweeps() const { return sweeps_; }
  std::uint64_t events_checked() const { return events_checked_; }

  // Human-readable multi-line summary ("ok" or one line per violation).
  std::string report() const;

 private:
  void on_event(const obs::TraceEvent& event);
  void sweep();
  void check_counters();
  void check_network();
  void check_credits();
  void add(const std::string& rule, std::uint32_t container,
           std::string detail);

  core::EscraSystem& escra_;
  net::Network& net_;
  obs::Observer& obs_;
  cluster::Cluster& cluster_;
  sim::Simulation& sim_;
  sim::EventHandle sweep_event_;

  // --- per-event state ---
  sim::TimePoint last_event_time_ = 0;
  std::uint64_t events_checked_ = 0;
  std::uint64_t seen_[obs::kEventKindCount] = {};
  std::int64_t reclaim_bytes_seen_ = 0;
  std::uint64_t fail_static_entries_seen_ = 0;
  // Per-container CPU limit-update RPC tracking. `inflight` counts issues
  // without a matching apply; an apply of the *latest* issue clears the
  // count outright (the slot protocol supersedes older updates, so the
  // newest apply means the cgroup holds the controller's newest intent). A
  // resync also clears it: the controller just reconciled, and any residual
  // divergence gets its own corrective kRpcIssued. While inflight > 0 the
  // sweep grants the container slack equal to max(0, cgroup - shadow);
  // converged containers contribute zero, so the bound never goes vacuous.
  struct CpuTrack {
    int inflight = 0;
    obs::EventId latest_issue = 0;
  };
  std::unordered_map<std::uint32_t, CpuTrack> cpu_track_;

  // Split-brain detection (controller HA): the newest applied sequence per
  // (container, resource) slot, from kRpcApplied's detail field. Sequences
  // pack the controller epoch in the high bits, so "strictly increasing"
  // simultaneously rules out stale duplicates and any apply from a deposed
  // (lower) epoch after a higher epoch has landed one. Entries are dropped
  // for a node when an agent-crash fault window opens there: the crash
  // legitimately zeroes the agent's own seq table and epoch fence.
  struct AppliedSeq {
    std::uint64_t seq = 0;
    std::uint32_t node = 0;  // trace node tag (node id + 1)
  };
  std::unordered_map<std::uint64_t, AppliedSeq> applied_seq_;
  std::uint64_t last_elected_epoch_ = 0;

  // Counter values captured at construction (the checker may attach to a
  // system that has already been running), one per kCounterRows row.
  std::vector<std::uint64_t> counter_base_;

  // Admitted RT containers and their reservation floors, tracked from
  // kRtAdmitted/kRtEvicted events and re-armed from controller introspection
  // every sweep (recovery re-installation after a crash/resync or takeover
  // is deliberately traceless — exactly-once admission events — so the
  // event stream alone under-reports the live admitted set).
  std::unordered_map<std::uint32_t, double> rt_floor_track_;

  const bw::ClusterShaper* bw_shaper_ = nullptr;
  const core::CreditLedger* credits_ = nullptr;
  // Honest-floor bookkeeping: when each container last reported a throttled
  // period (kThrottleObserved), and how many consecutive sweeps the
  // inversion (starving honest member + overclaiming broke member) held.
  std::unordered_map<std::uint32_t, sim::TimePoint> last_throttle_;
  int starve_streak_ = 0;
  // When each container was last reclaimed (kReclaim): a pre-OOM grant may
  // land below the stale applied limit only when an emergency reclaim
  // shrank the same container in the same instant.
  std::unordered_map<std::uint32_t, sim::TimePoint> last_reclaim_;

  // net ChannelStats vs obs counter offsets (attach_metrics only mirrors
  // traffic sent after attachment, so the two differ by a constant).
  struct NetBaseline {
    const obs::Counter* bytes = nullptr;
    const obs::Counter* messages = nullptr;
    std::uint64_t bytes_offset = 0;
    std::uint64_t messages_offset = 0;
  };
  NetBaseline net_base_[net::kChannelCount];
  const obs::Counter* net_dropped_ = nullptr;
  std::uint64_t net_dropped_offset_ = 0;
  const obs::Counter* net_duplicated_ = nullptr;
  std::uint64_t net_duplicated_offset_ = 0;

  std::vector<Violation> violations_;
  std::uint64_t dropped_violations_ = 0;
  std::uint64_t sweeps_ = 0;
};

}  // namespace escra::check
