#include "shard/sharded_control_plane.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/messages.h"
#include "sweep/runner.h"

namespace escra::shard {

using core::Resource;

namespace {

// Smallest transfer worth shipping: whole bytes for memory, a nano-core /
// nano-bps for the continuous resources (below that the pool math is noise).
double min_transfer(Resource res) {
  return res == Resource::kMem ? 1.0 : 1e-9;
}

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t double_bits(double d) {
  std::uint64_t v = 0;
  std::memcpy(&v, &d, sizeof v);
  return v;
}

// Cadence of the surplus-advertisement / borrow / return tick. Off the
// CFS period on purpose: borrowing is pool maintenance, not a control
// loop, and 500 ms keeps its traffic negligible next to telemetry.
constexpr sim::Duration kAdvertiseInterval = sim::milliseconds(500);
// Fraction of a shard's pool slice it always withholds from lending —
// headroom for its own next scale-up burst.
constexpr double kReserveFrac = 0.10;
// A borrower asks for enough to refill its unallocated pool to this
// fraction of its slice.
constexpr double kTargetFrac = 0.15;
// A borrower starts repaying once its unallocated pool exceeds
// kReturnFrac of its slice (hysteresis: target < return keeps a
// borrow/return pair from oscillating every tick).
constexpr double kReturnFrac = 0.40;
static_assert(kTargetFrac < kReturnFrac,
              "a refilled borrower must not qualify to repay at once");

}  // namespace

ShardedControlPlane::ShardedControlPlane(sim::Simulation& sim,
                                         net::Network& net,
                                         cluster::Cluster& cluster,
                                         double global_cpu_cores,
                                         memcg::Bytes global_mem,
                                         ShardPlaneConfig config)
    : sim_(sim),
      net_(net),
      cluster_(cluster),
      config_(config),
      router_(config.shards) {
  if (config_.shards < 1)
    throw std::invalid_argument("ShardedControlPlane: shards < 1");
  const int n = config_.shards;
  const double cpu_slice = global_cpu_cores / n;
  const memcg::Bytes mem_slice = global_mem / n;
  const memcg::Bytes mem_remainder = global_mem % n;
  shards_.resize(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    // Shard 0 absorbs the integer remainder, so the memory slices sum to
    // the global pool exactly.
    const memcg::Bytes mem = mem_slice + (s == 0 ? mem_remainder : 0);
    shards_[s].escra = std::make_unique<core::EscraSystem>(
        sim_, net_, cluster_, cpu_slice, mem, config_.escra);
    // RT admissions debit the shard's own base slice, never borrowed pool:
    // a loan is recallable, a reservation is not.
    shards_[s].escra->controller().set_rt_capacity(cpu_slice);
    shards_[s].heard.resize(static_cast<std::size_t>(n));
    cluster_cpu_limit_ += cpu_slice;
    cluster_mem_limit_ += mem;
  }
}

ShardedControlPlane::~ShardedControlPlane() {
  if (started_) stop();
}

std::vector<cluster::Container*> ShardedControlPlane::deploy(
    const core::AppSpec& spec) {
  const int s = router_.shard_for_app(spec.name);
  core::EscraSystem& escra = *shards_[s].escra;
  std::vector<cluster::Container*> out;
  if (escra.controller().registered_count() == 0) {
    // First application on this shard: exact Eq. 1-2 over the slice, so a
    // one-shard plane is indistinguishable from the bare controller.
    out = escra.deploy(spec);
  } else {
    // Later applications join like serverless pods: creation-time defaults,
    // then the late-join registration path (grant clamped to whatever the
    // slice still holds — possibly zero until earlier apps shed slack).
    out.reserve(spec.containers.size());
    for (const cluster::ContainerSpec& cs : spec.containers) {
      cluster::Container& c = cluster_.create_container(
          cs, config_.escra.late_join_cores, config_.escra.late_join_mem);
      escra.adopt(c);
      out.push_back(&c);
    }
  }
  for (cluster::Container* c : out) owner_[c->id()] = s;
  return out;
}

void ShardedControlPlane::manage(
    const std::string& app,
    const std::vector<cluster::Container*>& containers) {
  const int s = router_.shard_for_app(app);
  core::EscraSystem& escra = *shards_[s].escra;
  if (escra.controller().registered_count() == 0) {
    escra.manage(containers);
  } else {
    for (cluster::Container* c : containers) escra.adopt(*c);
  }
  for (cluster::Container* c : containers) owner_[c->id()] = s;
}

void ShardedControlPlane::start() {
  if (started_) return;
  started_ = true;
  for (auto& state : shards_) state.escra->start();
  if (shard_count() > 1) {
    advert_loop_ = sim_.schedule_every(
        sim_.now() + kAdvertiseInterval, kAdvertiseInterval,
        [this] { advertise_tick(); });
  }
}

void ShardedControlPlane::stop() {
  if (!started_) return;
  started_ = false;
  sim_.cancel(advert_loop_);
  for (auto& state : shards_) {
    for (auto& p : state.pending) sim_.cancel(p.timer);
    if (state.ha) state.ha->stop();
    state.escra->stop();
  }
}

void ShardedControlPlane::attach_observer(int s, obs::Observer& observer) {
  shards_.at(s).observer = &observer;
  shards_[s].escra->attach_observer(observer);
}

void ShardedControlPlane::export_merged_trace(std::ostream& out) const {
  // Shards without an observer contribute an empty buffer, so buffer index
  // == shard index and the merged events' shard stamps stay truthful.
  static const obs::TraceBuffer kEmpty{1};
  std::vector<const obs::TraceBuffer*> buffers;
  buffers.reserve(shards_.size());
  for (const auto& state : shards_)
    buffers.push_back(state.observer ? &state.observer->trace() : &kEmpty);
  obs::export_merged_jsonl(buffers, out);
}

void ShardedControlPlane::enable_ha(int standbys) {
  if (!started_)
    throw std::logic_error("ShardedControlPlane::enable_ha before start()");
  for (int s = 0; s < shard_count(); ++s) {
    ha::HaConfig config;
    config.standbys = standbys;
    config.endpoint_base = s;
    config.endpoint_stride = shard_count();
    shards_[s].ha = std::make_unique<ha::HaControlPlane>(*shards_[s].escra,
                                                         net_, config);
    shards_[s].ha->start();
  }
  ha_enabled_ = true;
}

ha::HaControlPlane& ShardedControlPlane::ha(int s) {
  auto& plane = shards_.at(s).ha;
  if (!plane) throw std::logic_error("ShardedControlPlane: HA not enabled");
  return *plane;
}

int ShardedControlPlane::shard_of_container(cluster::ContainerId id) const {
  const auto it = owner_.find(id);
  return it == owner_.end() ? -1 : it->second;
}

// --- pool slice accessors -------------------------------------------------

double ShardedControlPlane::limit_of(int s, Resource res) const {
  core::DistributedContainer& app = shards_[s].escra->app();
  switch (res) {
    case Resource::kCpu: return app.cpu_limit();
    case Resource::kMem: return static_cast<double>(app.mem_limit());
    default: return app.bw_limit();
  }
}

double ShardedControlPlane::unalloc_of(int s, Resource res) const {
  core::DistributedContainer& app = shards_[s].escra->app();
  switch (res) {
    case Resource::kCpu: return app.cpu_unallocated();
    case Resource::kMem: return static_cast<double>(app.mem_unallocated());
    default: return app.bw_unallocated();
  }
}

void ShardedControlPlane::resize_pool(int s, Resource res, double new_limit,
                                      std::uint64_t cause) {
  core::DistributedContainer& app = shards_[s].escra->app();
  const double old_limit = limit_of(s, res);
  switch (res) {
    case Resource::kCpu: app.set_cpu_limit(new_limit); break;
    case Resource::kMem: app.set_mem_limit(std::llround(new_limit)); break;
    default: app.set_bw_limit(new_limit); break;
  }
  ++pool_resizes_;
  bump(s, &obs::Observer::Handles::shard_pool_resizes);
  record_event(s, obs::EventKind::kShardPoolResize, old_limit, new_limit,
               static_cast<std::int64_t>(res), cause);
}

double ShardedControlPlane::lendable_surplus(int s, Resource res) const {
  double surplus = unalloc_of(s, res) - kReserveFrac * limit_of(s, res);
  if (res == Resource::kCpu) {
    // Admitted RT floors are promised capacity even while the unallocated
    // figure still covers them (a floor not yet drawn is still owed):
    // lending it out would let a later raise_to_rt_floor find the pool dry.
    surplus -= shards_[s].escra->controller().rt_reserved_cores();
  }
  if (surplus <= 0.0) return 0.0;
  return res == Resource::kMem ? std::floor(surplus) : surplus;
}

// --- advertise / borrow / return tick -------------------------------------

void ShardedControlPlane::advertise_tick() {
  // Fixed shard iteration order: the tick's decision sequence (and hence
  // the whole borrow event stream) depends only on the sim clock and the
  // shard states, never on container-map iteration or thread scheduling.
  for (int s = 0; s < shard_count(); ++s) {
    if (crashed(s)) continue;  // a dead leader neither lends nor borrows
    broadcast_adverts(s);
    maybe_return(s);
    maybe_borrow(s);
  }
}

void ShardedControlPlane::broadcast_adverts(int s) {
  Advert advert;
  advert.heard = true;
  for (std::size_t r = 0; r < core::kResources; ++r)
    advert.surplus[r] = lendable_surplus(s, static_cast<Resource>(r));
  ++adverts_sent_;
  bump(s, &obs::Observer::Handles::shard_adverts);
  record_event(
      s, obs::EventKind::kShardAdvertise,
      advert.surplus[ix(Resource::kCpu)],
      advert.surplus[ix(Resource::kMem)],
      static_cast<std::int64_t>(advert.surplus[ix(Resource::kBw)]));
  for (int peer = 0; peer < shard_count(); ++peer) {
    if (peer == s) continue;
    // Fire-and-forget datagram: a lost advert just delays borrowing one
    // tick, so it rides the droppable leg of kShardControl.
    net_.send_to(net::Channel::kShardControl, net::shard_endpoint(s),
                 net::shard_endpoint(peer), core::kShardAdvertWireBytes,
                 [this, s, peer, advert] {
                   if (!crashed(peer)) shards_[peer].heard[s] = advert;
                 });
  }
}

void ShardedControlPlane::maybe_return(int s) {
  ShardState& state = shards_[s];
  for (std::size_t r = 0; r < core::kResources; ++r) {
    const auto res = static_cast<Resource>(r);
    if (state.pending[ix(res)].active) continue;
    // Largest outstanding debt first; ties go to the lowest lender id so
    // the repayment order is deterministic.
    int lender = -1;
    double owed = 0.0;
    for (const auto& [key, amount] : state.owed) {
      if (key.second != res || amount < min_transfer(res)) continue;
      if (amount > owed) {
        owed = amount;
        lender = key.first;
      }
    }
    if (lender < 0) continue;
    const double limit = limit_of(s, res);
    if (unalloc_of(s, res) <= kReturnFrac * limit) continue;
    double amount = std::min(owed, lendable_surplus(s, res));
    if (res == Resource::kMem) amount = std::floor(amount);
    if (amount < min_transfer(res)) continue;

    const std::uint64_t seq = ++state.next_seq[lender];
    auto owed_it = state.owed.find({lender, res});
    owed_it->second -= amount;
    if (owed_it->second < min_transfer(res)) state.owed.erase(owed_it);

    ++borrows_returned_;
    bump(s, &obs::Observer::Handles::shard_borrow_returns);
    const obs::EventId ev =
        record_event(s, obs::EventKind::kBorrowReturn, static_cast<double>(res),
                     amount, pack_detail(lender, seq));
    // Shrink-before-raise: the capacity leaves this shard's slice the
    // instant the notice ships, so the conservation sum never double
    // counts it while the notice (or its retransmits) are in flight.
    resize_pool(s, res, limit - amount, ev);
    inflight_[ix(res)] += amount;

    Pending& p = state.pending[ix(res)];
    p.active = true;
    p.is_return = true;
    p.peer = lender;
    p.seq = seq;
    p.amount = amount;
    p.backoff = core::kRpcRetryTimeout;
    send_return(s, res);
    arm_retransmit(s, res);
  }
}

void ShardedControlPlane::maybe_borrow(int s) {
  ShardState& state = shards_[s];
  for (std::size_t r = 0; r < core::kResources; ++r) {
    const auto res = static_cast<Resource>(r);
    if (state.pending[ix(res)].active) continue;
    const double limit = limit_of(s, res);
    if (limit <= 0.0) continue;  // resource not armed on this shard
    const double unalloc = unalloc_of(s, res);
    if (unalloc >= config_.low_frac * limit) continue;
    double want = kTargetFrac * limit - unalloc;
    if (res == Resource::kMem) want = std::ceil(want);
    if (want < min_transfer(res)) continue;
    // Best advertiser: highest advertised surplus, ties to the lowest
    // shard id. Currently-dead peers are skipped (their adverts are stale
    // and the request leg would only burn retransmits).
    int peer = -1;
    double best = 0.0;
    for (int candidate = 0; candidate < shard_count(); ++candidate) {
      if (candidate == s || crashed(candidate)) continue;
      const Advert& advert = state.heard[candidate];
      if (!advert.heard) continue;
      if (advert.surplus[ix(res)] > best) {
        best = advert.surplus[ix(res)];
        peer = candidate;
      }
    }
    if (peer < 0 || best < min_transfer(res)) continue;

    const std::uint64_t seq = ++state.next_seq[peer];
    ++borrows_requested_;
    bump(s, &obs::Observer::Handles::shard_borrow_requests);
    record_event(s, obs::EventKind::kBorrowRequest, static_cast<double>(res),
                 want, pack_detail(peer, seq));
    Pending& p = state.pending[ix(res)];
    p.active = true;
    p.is_return = false;
    p.peer = peer;
    p.seq = seq;
    p.amount = want;
    p.backoff = core::kRpcRetryTimeout;
    send_borrow(s, res);
    arm_retransmit(s, res);
  }
}

void ShardedControlPlane::send_borrow(int s, Resource res) {
  const Pending& p = shards_[s].pending[ix(res)];
  const int peer = p.peer;
  const std::uint64_t seq = p.seq;
  const double want = p.amount;
  net_.rpc_to(
      net::shard_endpoint(s), net::shard_endpoint(peer),
      core::kBorrowRequestRpcBytes, core::kBorrowGrantRespBytes,
      // Request leg, runs at the lender. Returns false when the lender's
      // seat is down (no process to answer); duplicates of the same
      // sequence re-read the cached grant, never shrink the pool twice.
      [this, s, peer, res, seq, want]() -> bool {
        if (crashed(peer)) return false;
        GrantCache& cache = shards_[peer].grant_cache[{s, res}];
        if (seq > cache.seq) {
          // Fresh request: grant against the *current* surplus (the
          // advert the borrower acted on may be a tick stale).
          const double limit = limit_of(peer, res);
          double granted = std::min(want, lendable_surplus(peer, res));
          if (res == Resource::kMem) granted = std::floor(granted);
          if (granted < min_transfer(res)) granted = 0.0;
          cache.seq = seq;
          cache.granted = granted;
          if (granted > 0.0) {
            ++borrows_granted_;
            bump(peer, &obs::Observer::Handles::shard_borrow_grants);
            const obs::EventId ev =
                record_event(peer, obs::EventKind::kBorrowGrant,
                             static_cast<double>(res), granted,
                             pack_detail(s, seq));
            resize_pool(peer, res, limit - granted, ev);
            inflight_[ix(res)] += granted;
          }
        }
        return true;
      },
      // Response leg, runs back at the borrower: apply the grant once.
      [this, s, res, seq] {
        Pending& p = shards_[s].pending[ix(res)];
        if (!p.active || p.is_return || p.seq != seq) return;  // stale/dup
        if (crashed(s)) return;  // hold: a retransmit re-asks the cache
        const int peer = p.peer;
        const auto it = shards_[peer].grant_cache.find({s, res});
        if (it == shards_[peer].grant_cache.end() || it->second.seq != seq)
          return;
        sim_.cancel(p.timer);
        p = Pending{};
        const double granted = it->second.granted;
        if (granted > 0.0) {
          resize_pool(s, res, limit_of(s, res) + granted, 0);
          inflight_[ix(res)] -= granted;
          shards_[s].owed[{peer, res}] += granted;
        }
      });
}

void ShardedControlPlane::send_return(int s, Resource res) {
  const Pending& p = shards_[s].pending[ix(res)];
  const int peer = p.peer;
  const std::uint64_t seq = p.seq;
  const double amount = p.amount;
  net_.rpc_to(
      net::shard_endpoint(s), net::shard_endpoint(peer),
      core::kBorrowReturnRpcBytes, core::kBorrowReturnAckBytes,
      // Return notice at the receiving lender: applied exactly once per
      // sequence, duplicates just re-ack.
      [this, s, peer, res, seq, amount]() -> bool {
        if (crashed(peer)) return false;
        std::uint64_t& applied = shards_[peer].return_applied[{s, res}];
        if (seq > applied) {
          applied = seq;
          resize_pool(peer, res, limit_of(peer, res) + amount, 0);
          inflight_[ix(res)] -= amount;
        }
        return true;
      },
      // Ack back at the returner: close the op.
      [this, s, res, seq] {
        Pending& p = shards_[s].pending[ix(res)];
        if (p.active && p.is_return && p.seq == seq) {
          sim_.cancel(p.timer);
          p = Pending{};
        }
      });
}

void ShardedControlPlane::arm_retransmit(int s, Resource res) {
  Pending& p = shards_[s].pending[ix(res)];
  p.timer = sim_.schedule_after(
      p.backoff, [this, s, res, seq = p.seq] {
        on_retransmit_timer(s, res, seq);
      });
}

void ShardedControlPlane::on_retransmit_timer(int s, Resource res,
                                              std::uint64_t seq) {
  Pending& p = shards_[s].pending[ix(res)];
  if (!p.active || p.seq != seq) return;  // op completed meanwhile
  p.backoff = std::min(p.backoff * 2, core::kRpcBackoffMax);
  if (!crashed(s)) {
    // A crashed originator can't transmit; keep the timer alive so the op
    // resumes (idempotently, against the receiver caches) after restart.
    ++borrow_retransmits_;
    bump(s, &obs::Observer::Handles::shard_borrow_retransmits);
    if (p.is_return)
      send_return(s, res);
    else
      send_borrow(s, res);
  }
  arm_retransmit(s, res);
}

// --- parallel sweep --------------------------------------------------------

std::uint64_t ShardedControlPlane::sweep_parallel(
    const std::vector<std::vector<core::CpuStatsMsg>>& by_shard, int jobs) {
  if (by_shard.size() != shards_.size())
    throw std::invalid_argument(
        "ShardedControlPlane::sweep_parallel: batch count != shard count");
  struct Decision {
    cfs::CgroupId cgroup = 0;
    double before = 0.0;
    double after = 0.0;
    sim::TimePoint fire = 0;
  };
  // Phase 1: every shard's allocator pass on a worker thread. Shards own
  // disjoint allocator/pool/observer state, so the only sharing is
  // read-only config — results land by shard index, independent of
  // scheduling.
  auto decisions = sweep::parallel_map<std::vector<Decision>>(
      shards_.size(), jobs, [this, &by_shard](std::size_t i) {
        std::vector<Decision> out;
        const int s = static_cast<int>(i);
        if (crashed(s)) return out;
        core::EscraSystem& sys = *shards_[i].escra;
        out.reserve(by_shard[i].size());
        for (const core::CpuStatsMsg& msg : by_shard[i]) {
          if (!sys.allocator().knows(msg.cgroup)) continue;
          const double before = sys.app().member_cores(msg.cgroup);
          const auto cores = sys.allocator().on_cpu_stats(msg);
          if (cores)
            out.push_back({msg.cgroup, before, *cores, msg.period_end});
        }
        return out;
      });
  // Phase 2: serial, shard-ordered apply — limit RPCs, trace events, and
  // retransmit slots are born in a deterministic order regardless of how
  // phase 1 was scheduled.
  std::uint64_t checksum = 14695981039346656037ULL;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    core::Controller& controller = shards_[i].escra->controller();
    for (const Decision& d : decisions[i]) {
      controller.apply_cpu_decision(d.cgroup, d.before, d.after, d.fire);
      checksum = fnv1a_mix(checksum, d.cgroup);
      checksum = fnv1a_mix(checksum, double_bits(d.before));
      checksum = fnv1a_mix(checksum, double_bits(d.after));
    }
  }
  return checksum;
}

// --- observability helpers -------------------------------------------------

obs::EventId ShardedControlPlane::record_event(int s, obs::EventKind kind,
                                               double before, double after,
                                               std::int64_t detail,
                                               obs::EventId cause) {
  obs::Observer* observer = shards_[s].observer;
  if (!observer) return 0;
  obs::TraceEvent event;
  event.time = sim_.now();
  event.kind = kind;
  event.before = before;
  event.after = after;
  event.cause = cause;
  event.detail = detail;
  event.shard = static_cast<std::uint32_t>(s) + 1;
  return observer->record(event);
}

void ShardedControlPlane::bump(int s,
                               obs::Counter* obs::Observer::Handles::* handle) {
  obs::Observer* observer = shards_[s].observer;
  if (observer && observer->h.*handle) (observer->h.*handle)->inc();
}

}  // namespace escra::shard
