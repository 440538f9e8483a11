// Sharded control plane: N controller shards over one cluster.
//
// A single Escra controller ingests every container's per-period telemetry;
// past a few thousand nodes that one seat becomes the scaling wall. This
// plane partitions the container population across `shards` full
// controller instances (each a core::EscraSystem with its own Resource
// Allocator, Distributed Container pool slice, registry, and retransmit
// machinery) and keeps three properties the rest of the tree depends on:
//
//   1. App-affine routing. A consistent-hash router (shard_router.h) maps
//      each *application* to exactly one shard, so app-level aggregate
//      limits never straddle shards and every allocator decision is made
//      against a complete pool. Telemetry needs no routing tier at run
//      time: registration pins a container to its shard's controller, and
//      the per-node Agents talk to it like any single controller.
//
//   2. Cross-shard pool borrowing. The global CPU/memory pools are sliced
//      evenly at construction; a periodic advertise tick (fixed shard
//      order, gated off when shards == 1) lets each shard broadcast its
//      surplus, and a hot shard borrows headroom from the best advertiser
//      over sequenced, idempotent RPCs (request/grant, return/ack — the
//      same at-most-once discipline as the Controller's desired-state
//      slots: per-pair monotonic sequence numbers, receiver-side caches,
//      exponential-backoff retransmit). A lender shrinks its slice before
//      the grant travels and a returner shrinks before the notice travels,
//      so at every instant
//
//          sum(shard pool slices) + in-flight transfers == cluster pool
//
//      exactly for memory (whole bytes) and to 1e-6 for CPU/bandwidth —
//      the invariant src/check/shard_checker.h sweeps.
//
//   3. Determinism. All shards step in the one sim clock; every loop
//      iterates shards in index order; identical seeds give byte-identical
//      merged traces at any shard count, and sweep_parallel() fans the
//      allocator passes of disjoint shards across worker threads with a
//      serial, shard-ordered apply phase, so --jobs never changes a byte.
//      With shards == 1 the plane is decision-stream-identical to a bare
//      EscraSystem (tests/differential_test.cc proves it).
//
// Each shard gets its *own* obs::Observer (attach_observer(shard, obs));
// export_merged_trace() interleaves the per-shard buffers into one
// deterministic JSONL stream with events stamped by owning shard. HA is
// per shard: enable_ha() gives every shard its own warm-standby group on a
// disjoint standby-endpoint band, so one shard's failover never disturbs
// another's decision stream.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/escra.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "shard/shard_router.h"
#include "sim/event_queue.h"

namespace escra::shard {

struct ShardPlaneConfig {
  int shards = 1;
  // A shard borrows when its unallocated pool drops below low_frac of its
  // slice, and asks for enough to refill to a fixed target fraction
  // (kTargetFrac in sharded_control_plane.cc).
  double low_frac = 0.05;
  // Per-shard EscraSystem tunables (κ/γ/Υ, periods, memory and bandwidth).
  core::EscraConfig escra;
};

class ShardedControlPlane {
 public:
  // Slices `global_cpu_cores` / `global_mem` evenly across the shards
  // (memory's integer remainder goes to shard 0, so the cluster total is
  // exact) and builds one EscraSystem per shard on the shared simulation,
  // network, and cluster.
  ShardedControlPlane(sim::Simulation& sim, net::Network& net,
                      cluster::Cluster& cluster, double global_cpu_cores,
                      memcg::Bytes global_mem,
                      ShardPlaneConfig config = ShardPlaneConfig{});
  ~ShardedControlPlane();

  ShardedControlPlane(const ShardedControlPlane&) = delete;
  ShardedControlPlane& operator=(const ShardedControlPlane&) = delete;

  // Deploys the application on its owning shard (router-chosen by
  // spec.name); Eq. 1-2 initial limits come from that shard's pool slice.
  std::vector<cluster::Container*> deploy(const core::AppSpec& spec);

  // Takes over already-created containers as one application named `app`,
  // managed by the owning shard.
  void manage(const std::string& app,
              const std::vector<cluster::Container*>& containers);

  // Starts every shard's control loops (shard index order) and, when
  // shards > 1, the advertise/borrow tick.
  void start();
  void stop();

  // Per-shard observability: each shard records decisions into its own
  // Observer (the per-shard InvariantChecker attachment point). The
  // observer must outlive the plane.
  void attach_observer(int shard, obs::Observer& observer);

  // Interleaves the attached shards' trace buffers into one deterministic
  // JSONL stream (obs::export_merged_jsonl), events stamped with their
  // owning shard. Shards without an observer contribute nothing.
  void export_merged_trace(std::ostream& out) const;

  // Arms a warm-standby HA group per shard (call after start()). Shard i's
  // k-th standby, replacements after a takeover included, answers at
  // net::standby_endpoint(i + k * shard_count()): the shards interleave, so
  // partitions and failovers stay per shard.
  void enable_ha(int standbys);
  ha::HaControlPlane& ha(int shard);
  bool ha_enabled() const { return ha_enabled_; }

  // Deterministic parallel allocator sweep, the bench/shard_scale engine:
  // phase 1 runs each shard's telemetry batch through its own allocator on
  // a sweep::parallel_map worker (disjoint shards touch disjoint state),
  // phase 2 applies the collected decisions serially in shard order
  // through Controller::apply_cpu_decision. Returns an FNV-1a checksum of
  // the merged (cgroup, before, after) decision stream — byte-identical at
  // any `jobs`. `by_shard` must have shard_count() entries.
  std::uint64_t sweep_parallel(
      const std::vector<std::vector<core::CpuStatsMsg>>& by_shard, int jobs);

  // --- introspection (tests, benchmarks, tools, src/check) ---
  int shard_count() const { return static_cast<int>(shards_.size()); }
  core::EscraSystem& shard(int i) { return *shards_.at(i).escra; }
  const core::EscraSystem& shard(int i) const { return *shards_.at(i).escra; }
  const ShardRouter& router() const { return router_; }
  const ShardPlaneConfig& config() const { return config_; }
  sim::Simulation& simulation() { return sim_; }

  int shard_of_app(std::string_view app) const {
    return router_.shard_for_app(app);
  }
  // Owning shard of a container deployed/managed through this plane; -1 if
  // unknown to the plane.
  int shard_of_container(cluster::ContainerId id) const;

  // RT admission routed to the container's owning shard: the reservation
  // debits that shard's base slice (set_rt_capacity pins the bound to the
  // non-borrowed base, so borrowed pool never backs an RT floor). Rejects
  // with kRejectedState when the plane does not know the container.
  core::Controller::RtAdmit admit_rt(cluster::ContainerId id,
                                     const cfs::RtSpec& spec,
                                     double bw_bps = 0.0) {
    const int s = shard_of_container(id);
    if (s < 0) return core::Controller::RtAdmit::kRejectedState;
    return shards_[s].escra->controller().admit_rt(id, spec, bw_bps);
  }

  // Cluster-wide pool totals captured at construction (the conservation
  // right-hand side) and the transfer amounts currently on the wire.
  double cluster_cpu_limit() const { return cluster_cpu_limit_; }
  memcg::Bytes cluster_mem_limit() const { return cluster_mem_limit_; }
  double cluster_bw_limit() const { return cluster_bw_limit_; }
  double inflight_cpu() const { return inflight_[0]; }
  double inflight_mem() const { return inflight_[1]; }
  double inflight_bw() const { return inflight_[2]; }

  std::uint64_t adverts_sent() const { return adverts_sent_; }
  std::uint64_t borrows_requested() const { return borrows_requested_; }
  std::uint64_t borrows_granted() const { return borrows_granted_; }
  std::uint64_t borrows_returned() const { return borrows_returned_; }
  std::uint64_t borrow_retransmits() const { return borrow_retransmits_; }
  std::uint64_t pool_resizes() const { return pool_resizes_; }

 private:
  // Resource axes of the borrow protocol; indexes inflight_[] and the
  // per-resource pending slots. Matches the trace convention (Rpc* /
  // Borrow* events carry 0 = CPU, 1 = memory, 2 = bandwidth in `before`).
  static constexpr int kResCpu = 0;
  static constexpr int kResMem = 1;
  static constexpr int kResBw = 2;
  static constexpr int kResCount = 3;

  // Latest surplus advertisement heard from a peer. Amounts are in the
  // resource's natural unit; memory surplus is always whole bytes.
  struct Advert {
    double surplus[kResCount] = {0.0, 0.0, 0.0};
    bool heard = false;
  };

  // The one outstanding borrow-or-return op a shard may have per resource.
  struct Pending {
    bool active = false;
    bool is_return = false;
    int peer = -1;
    std::uint64_t seq = 0;
    double amount = 0.0;  // requested (borrow) or shipped (return)
    sim::Duration backoff = 0;
    sim::EventHandle timer;
  };

  // Lender-side idempotency cache: the grant computed for the newest
  // request sequence from one (borrower, resource) stream. A retransmitted
  // request re-reads it; the response leg reads it as its payload.
  struct GrantCache {
    std::uint64_t seq = 0;
    double granted = 0.0;
  };

  struct ShardState {
    std::unique_ptr<core::EscraSystem> escra;
    obs::Observer* observer = nullptr;
    std::unique_ptr<ha::HaControlPlane> ha;
    std::vector<Advert> heard;  // indexed by peer shard
    Pending pending[kResCount];
    // Per-peer monotonic sequence for ops this shard originates (shared
    // across resources and op types; per-(peer, resource) streams are
    // serialized, so they see strictly increasing sequences).
    std::map<int, std::uint64_t> next_seq;
    std::map<std::pair<int, int>, GrantCache> grant_cache;  // (peer, res)
    // Receiver-side exactly-once ledger for return notices: the newest
    // applied sequence per (returner, resource).
    std::map<std::pair<int, int>, std::uint64_t> return_applied;
    // What this shard currently owes each lender, per resource — the
    // return pass repays these balances.
    std::map<std::pair<int, int>, double> owed;  // (lender, res)
  };

  bool crashed(int s) const { return shards_[s].escra->crashed(); }
  double limit_of(int s, int res) const;
  double unalloc_of(int s, int res) const;
  // Resizes shard s's pool slice for `res`, recording kShardPoolResize.
  void resize_pool(int s, int res, double new_limit, std::uint64_t cause);
  double lendable_surplus(int s, int res) const;

  void advertise_tick();
  void broadcast_adverts(int s);
  void maybe_return(int s);
  void maybe_borrow(int s);
  void send_borrow(int s, int res);
  void send_return(int s, int res);
  void arm_retransmit(int s, int res);
  void on_retransmit_timer(int s, int res, std::uint64_t seq);

  obs::EventId record_event(int s, obs::EventKind kind, double before,
                            double after, std::int64_t detail,
                            obs::EventId cause = 0);
  void bump(int s, obs::Counter* obs::Observer::Handles::* handle);
  static std::int64_t pack_detail(int peer, std::uint64_t seq) {
    return (static_cast<std::int64_t>(peer) << 48) |
           static_cast<std::int64_t>(seq & 0xffffffffffffULL);
  }

  sim::Simulation& sim_;
  net::Network& net_;
  cluster::Cluster& cluster_;
  ShardPlaneConfig config_;
  ShardRouter router_;
  std::vector<ShardState> shards_;
  std::unordered_map<cluster::ContainerId, int> owner_;
  sim::EventHandle advert_loop_;
  bool started_ = false;
  bool ha_enabled_ = false;

  double cluster_cpu_limit_ = 0.0;
  memcg::Bytes cluster_mem_limit_ = 0;
  double cluster_bw_limit_ = 0.0;
  // Transfer amounts shipped but not yet landed, per resource (memory held
  // as whole bytes in the double — exact up to 2^53).
  double inflight_[kResCount] = {0.0, 0.0, 0.0};

  std::uint64_t adverts_sent_ = 0;
  std::uint64_t borrows_requested_ = 0;
  std::uint64_t borrows_granted_ = 0;
  std::uint64_t borrows_returned_ = 0;
  std::uint64_t borrow_retransmits_ = 0;
  std::uint64_t pool_resizes_ = 0;
};

}  // namespace escra::shard
