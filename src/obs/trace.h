// Structured control-plane decision trace (escra_obs).
//
// A bounded ring buffer of typed control-plane events: every allocation
// decision Escra makes (CPU grant/shrink, OOM memory grant, reclamation
// resize), the telemetry observation that triggered it, and the RPC that
// carried it to the node — each stamped with simulated time, container and
// node ids, the limit before and after, and a *causal link* to the event
// that triggered it. The chain
//
//     ThrottleObserved -> CpuGrant -> RpcIssued -> RpcApplied
//
// answers "why did container X get limit Y" with the full telemetry-to-
// cgroup path and its per-stage latency, the instrumented counterpart of
// the paper's sub-second control-loop claim (Sections IV, VI-I).
//
// Event ids are assigned in record order by the deterministic simulation,
// so two identical-seed runs produce byte-identical JSONL exports. At
// capacity the oldest event is evicted (its id is never reused; causal
// walks simply stop when a cause has been evicted).
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace escra::obs {

enum class EventKind : std::uint8_t {
  kThrottleObserved,     // CFS period ended throttled (telemetry fire site)
  kCpuGrant,             // allocator raised a CPU limit
  kCpuShrink,            // allocator lowered a CPU limit
  kMemGrantOnOom,        // allocator raised a memory limit pre-OOM
  kReclaim,              // reclamation pass shrank a memory limit
  kContainerRegistered,  // container joined the Distributed Container
  kContainerKilled,      // container left (reaped, killed, or released)
  kRpcIssued,            // Controller -> Agent limit-update RPC sent
  kRpcApplied,           // Agent applied the limit to the cgroup
  // Reliability layer (fault tolerance). RpcIssued/RpcApplied/Retransmit
  // carry the resource in `before`: 0 = CPU, 1 = memory.
  kRetransmit,           // unacked limit update re-sent (detail = attempt #)
  kDuplicateSuppressed,  // Agent discarded a stale/duplicate update by seq
  kResync,               // reconciliation re-adopted / corrected a container
  kFailStatic,           // Agent entered (detail=1) / left (detail=0)
                         // fail-static local fallback
  kNodeDead,             // Controller declared a node dead (missed heartbeats)
  kNodeAlive,            // a dead node's heartbeats resumed
  kFaultInjected,        // FaultInjector opened a fault window (detail = kind)
  kFaultCleared,         // FaultInjector closed a fault window (detail = kind)
  // Controller HA (warm-standby replication, src/ha).
  kLeaderElected,        // a standby took over leadership (detail = new epoch,
                         // before = old epoch, after = replayed WAL slots)
  kEpochFenced,          // Agent rejected an update from a fenced (deposed)
                         // epoch (detail = rejected seq)
  kWalLag,               // a standby's acked WAL cursor fell behind the
                         // leader's log (detail = lag in records)
  // Bandwidth plane (src/bw). RpcIssued/RpcApplied/Retransmit use
  // `before` = 2 for bandwidth slots; Bw* limits are in bytes/s.
  kBwThrottled,          // a shaper queue formed for a container (data
                         // plane; before = rate limit, detail = queue depth)
  kBwSaturation,         // Controller observed a saturated period in the
                         // bandwidth telemetry (detail = queue depth)
  kBwGrant,              // allocator raised a bandwidth limit
  kBwShrink,             // allocator lowered a bandwidth limit
  // Adversarial-tenant defense (src/adv + credit ledger in the Controller).
  kTelemetryRejected,    // ingest dropped a physically-impossible reading
                         // (before = resource, detail = reported value)
  kCreditCharge,         // settle sweep debited credits for above-fair-share
                         // allocation (before/after = balance, detail =
                         // above-share millicores)
  kCreditRefund,         // settle sweep minted credits for below-fair-share
                         // allocation (before/after = balance, detail =
                         // below-share millicores)
  kGreedyThrottle,       // credit-exhausted container decayed toward its
                         // static fair share (before/after = CPU limit)
  // Sharded control plane (src/shard). Borrow events carry the resource in
  // `before` (0 = CPU, 1 = memory, matching the Rpc* convention; the plane
  // pools no bandwidth), the amount in `after` (cores / bytes), and pack
  // the peer shard id and the per-pair borrow sequence into `detail` as
  // (peer << 48) | seq. The recording shard itself is carried by the
  // event's `shard` field (stamped at merged export from buffer
  // provenance, or pre-set by the recorder).
  kShardAdvertise,       // periodic surplus advertisement broadcast (before =
                         // CPU surplus cores, after = memory surplus bytes,
                         // detail = 0)
  kBorrowRequest,        // hot shard asked a peer for pool headroom
  kBorrowGrant,          // lender shrank its pool and granted the request
  kBorrowReturn,         // borrower shrank its pool to hand capacity back
  kShardPoolResize,      // a shard's pool slice changed size (before/after =
                         // old/new limit in the resource's unit, detail =
                         // resource)
  // Real-time container class (mixed criticality). RT reservations are
  // (runtime, deadline, period) triples; the admitted CPU floor is
  // runtime / min(deadline, period) cores.
  kRtAdmitted,           // admission control accepted an RT reservation
                         // (after = admitted floor in cores, detail =
                         // runtime us packed with period us as
                         // (runtime_us << 32) | period_us)
  kRtRejected,           // admission control refused an RT reservation
                         // (after = requested floor, detail = 0 node bound,
                         // 1 pool bound, 3 not registered / already
                         // admitted; 2 is unused)
  kRtEvicted,            // an admitted RT reservation was revoked by an
                         // explicit controller decision (node death,
                         // deregistration) — never silently (before =
                         // admitted floor, detail = reason: 0 released,
                         // 1 node dead/quarantined, 2 operator)
  kDeadlineMiss,         // an admitted RT container's periodic job ran past
                         // its deadline (before = admitted floor, after =
                         // shadow CPU limit at the miss, detail = core-time
                         // still owed at the deadline, us)
};
inline constexpr int kEventKindCount = 37;

const char* event_kind_name(EventKind kind);
std::optional<EventKind> event_kind_from_name(std::string_view name);

// 0 means "no event" (e.g. a root cause).
using EventId = std::uint64_t;

struct TraceEvent {
  EventId id = 0;  // assigned by TraceBuffer::record
  sim::TimePoint time = 0;
  EventKind kind = EventKind::kThrottleObserved;
  std::uint32_t container = 0;  // 0 = not container-specific
  std::uint32_t node = 0;       // node id + 1; 0 = unknown/none
  // Limit before/after the event, in the resource's natural unit: cores for
  // CPU events, bytes for memory events; 0 when not a limit change.
  double before = 0.0;
  double after = 0.0;
  EventId cause = 0;  // the event this one is a direct consequence of
  // Kind-specific extra: unused runtime (ThrottleObserved, us), shortfall
  // (MemGrantOnOom, bytes), freed bytes (Reclaim), wire bytes (Rpc*).
  std::int64_t detail = 0;
  // Owning controller shard + 1; 0 = unsharded/none. Stamped by
  // export_merged_jsonl from buffer provenance (each shard records into its
  // own Observer), so single-controller exports are unchanged byte-for-byte:
  // export_jsonl only emits the field when it is nonzero.
  std::uint32_t shard = 0;
};

class TraceBuffer {
 public:
  // Invoked (when set) with every event right after it is recorded, id
  // assigned. Used by src/check to validate events as they happen; the
  // hot-path cost when unset is one pointer test per record.
  using RecordHook = std::function<void(const TraceEvent&)>;

  explicit TraceBuffer(std::size_t capacity = 1 << 16);

  // Appends the event (evicting the oldest if full), assigns its id, and
  // returns it. The passed event's `id` field is ignored.
  EventId record(TraceEvent event);

  // Replaces the record hook; pass nullptr (default) to clear it. The hook
  // must not record into this buffer (no reentrancy guard).
  void set_record_hook(RecordHook hook) { record_hook_ = std::move(hook); }

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  // Total events ever recorded / evicted from the ring.
  std::uint64_t recorded() const { return next_id_ - 1; }
  std::uint64_t evicted() const { return evicted_; }

  // Event by id; nullptr if never recorded or already evicted. O(1): ids
  // are dense, so the id maps straight to a ring position.
  const TraceEvent* find(EventId id) const;
  // Events oldest-first; index 0 is the oldest still buffered.
  const TraceEvent& at(std::size_t index) const;

  // --- causal queries ---

  // The causal chain ending at `id`, root first. Stops (at the oldest
  // retained link) when a cause has been evicted or is 0.
  std::vector<TraceEvent> chain(EventId id) const;

  // All buffered events touching a container, oldest first.
  std::vector<TraceEvent> for_container(std::uint32_t container) const;

  // The newest buffered event satisfying (kind, container); nullopt if none.
  std::optional<TraceEvent> last(EventKind kind, std::uint32_t container) const;

  // --- export / import ---

  // One JSON object per line, fields in fixed order, %.17g doubles: output
  // depends only on the recorded events, so identical-seed runs export
  // byte-identical files.
  void export_jsonl(std::ostream& out) const;

  // Parses a file produced by export_jsonl (used by the escra-trace CLI).
  // Throws std::runtime_error on malformed lines. The `shard` field is
  // optional (absent in pre-shard exports; parsed when present).
  static TraceBuffer import_jsonl(std::istream& in);

 private:
  std::size_t index_of(EventId id) const;

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;  // ring_[(start_ + i) % capacity_]
  std::size_t start_ = 0;
  EventId next_id_ = 1;
  std::uint64_t evicted_ = 0;
  RecordHook record_hook_;
};

// Merges per-shard trace buffers into one deterministic JSONL stream
// (src/shard: each shard records into its own Observer; this is the export
// the escra-trace --shard view reads). Events are interleaved by
// (time, shard) with intra-buffer order preserved, re-assigned dense ids in
// merge order, causal links remapped within their own shard's buffer (cross
// buffer causality does not exist), and stamped with shard = buffer index
// + 1. Identical-seed runs produce byte-identical merged exports.
void export_merged_jsonl(const std::vector<const TraceBuffer*>& shards,
                         std::ostream& out);

}  // namespace escra::obs
