#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "app/benchmarks.h"
#include "app/service_graph.h"
#include "bw/shaper.h"
#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "exp/microservice.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "workload/arrivals.h"
#include "workload/load_generator.h"

namespace escra_bench {
namespace {

using namespace escra;

// Length of one traced run_until slice (and of every slice in bare reps,
// so both kinds drive the engine identically).
constexpr sim::Duration kSlice = sim::milliseconds(100);

// Memory reclaim cadence of the seconds-long CPU workloads: the paper's
// 5 s sweep would never run inside their timed span.
constexpr sim::Duration kShortReclaim = sim::seconds(1);

// The channels whose bytes are control-plane overhead: telemetry, memory
// events, limit-update RPCs, bandwidth telemetry and HA replication.
constexpr net::Channel kControlChannels[] = {
    net::Channel::kCpuTelemetry, net::Channel::kMemoryEvent,
    net::Channel::kControlRpc, net::Channel::kBwTelemetry,
    net::Channel::kHaReplication};

std::int64_t elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// net::Shaper decorator that times every shaping decision the network asks
// the bandwidth layer for (traced reps only; bare reps wire the
// ClusterShaper directly).
class TimedShaper final : public net::Shaper {
 public:
  TimedShaper(net::Shaper& inner, Spans& spans)
      : inner_(inner), spans_(spans) {}
  bool shape_egress(std::uint32_t container, std::size_t bytes,
                    std::function<void()> release) override {
    ChildTimer t(&spans_, Child::kShape);
    return inner_.shape_egress(container, bytes, std::move(release));
  }
  bool shape_ingress(std::uint32_t container, std::size_t bytes,
                     std::function<void()> release) override {
    ChildTimer t(&spans_, Child::kShape);
    return inner_.shape_ingress(container, bytes, std::move(release));
  }

 private:
  net::Shaper& inner_;
  Spans& spans_;
};

// A fresh system for one rep (or one paper_grid cell). Members are
// destroyed in reverse order: the checker and the HA plane detach first,
// the observer outlives the system it is attached to, and the simulation
// goes last.
struct Rig {
  sim::Simulation sim;
  net::Network network{sim};
  cluster::Cluster k8s{sim};
  std::unique_ptr<bw::ClusterShaper> shaper;
  std::unique_ptr<TimedShaper> timed_shaper;
  std::unique_ptr<obs::Observer> observer;
  std::unique_ptr<core::EscraSystem> escra;
  std::unique_ptr<ha::HaControlPlane> ha;
  std::unique_ptr<check::InvariantChecker> checker;
};

void attach_observer(Rig& rig) {
  rig.observer = std::make_unique<obs::Observer>();
  rig.escra->attach_observer(*rig.observer);
  rig.network.attach_metrics(rig.observer->metrics());
}

void attach_checker(Rig& rig) {
  rig.checker = std::make_unique<check::InvariantChecker>(
      *rig.escra, rig.network, *rig.observer);
  if (rig.shaper) rig.checker->attach_bw(*rig.shaper);
  if (rig.escra->config().credit_defense) {
    rig.checker->attach_credits(rig.escra->controller().credits());
  }
}

Counts snapshot(Rig& rig) {
  Counts c{};
  c[kSimEvents] = rig.sim.executed_events();
  c[kNetMessages] = rig.network.total_messages();
  c[kNetBytes] = rig.network.total_bytes();
  for (const net::Channel ch : kControlChannels) {
    c[kNetControlBytes] += rig.network.stats(ch).bytes;
  }
  c[kNetDropped] = rig.network.dropped_messages();
  for (const cluster::Container* k : rig.k8s.containers()) {
    c[kMemcgCharges] += k->mem_cgroup().charge_count();
    c[kMemcgOomKills] += k->oom_kill_count();
  }
  core::Controller& ctl = rig.escra->controller();
  const core::ResourceAllocator& alloc = rig.escra->allocator();
  c[kMemcgOomEvents] = ctl.oom_events();
  c[kMemcgOomRescues] = ctl.oom_rescues();
  c[kStatsIngested] = ctl.stats_received();
  c[kLimitUpdates] = ctl.limit_updates_sent();
  c[kRetransmits] = ctl.retransmits();
  c[kCpuGrants] = alloc.cpu_scale_ups();
  c[kCpuShrinks] = alloc.cpu_scale_downs();
  c[kMemGrants] = alloc.mem_grants();
  c[kMemDenies] = alloc.mem_denies();
  c[kBwGrants] = alloc.bw_scale_ups();
  c[kBwShrinks] = alloc.bw_scale_downs();
  if (rig.observer) {
    const obs::Observer::Handles& h = rig.observer->h;
    c[kCfsPeriods] = h.cfs_periods->value();
    c[kCfsThrottled] = h.cfs_throttled_periods->value();
    c[kTelemetryRejected] = h.telemetry_rejected->value();
    c[kBatchedRpcs] = h.batched_rpcs->value();
    c[kBatchEntries] = h.batch_entries->value();
    c[kAgentApplies] = h.agent_limit_applies->value();
    c[kDupSuppressed] = h.dup_suppressed->value();
    c[kBwThrottleEvents] = h.bw_throttle_events->value();
    c[kTraceEvents] = rig.observer->trace().recorded();
    c[kTraceEvicted] = rig.observer->trace().evicted();
  }
  if (rig.ha) {
    c[kWalAppends] = rig.ha->wal_appends();
    c[kFailovers] = rig.ha->failovers();
  }
  return c;
}

// Whole-rep decision fingerprint plus a digest of every final limit.
Fingerprint fingerprint(Rig& rig) {
  const Counts c = snapshot(rig);
  Fingerprint fp;
  fp.cpu_ups = c[kCpuGrants];
  fp.cpu_downs = c[kCpuShrinks];
  fp.mem_grants = c[kMemGrants];
  fp.mem_denies = c[kMemDenies];
  fp.bw_ups = c[kBwGrants];
  fp.bw_downs = c[kBwShrinks];
  fp.stats = c[kStatsIngested];
  fp.limit_updates = c[kLimitUpdates];
  fp.retransmits = c[kRetransmits];
  fp.oom_events = c[kMemcgOomEvents];
  fp.oom_rescues = c[kMemcgOomRescues];
  fp.oom_kills = c[kMemcgOomKills];
  fp.net_messages = c[kNetMessages];
  fp.net_bytes = c[kNetBytes];
  fp.wal_appends = c[kWalAppends];
  fp.failovers = c[kFailovers];
  fp.events = c[kSimEvents];
  for (const cluster::Container* k : rig.k8s.containers()) {
    fp.mix(k->id());
    fp.mix_double(k->cpu_cgroup().limit_cores());
    fp.mix(static_cast<std::uint64_t>(k->mem_cgroup().limit()));
    if (rig.shaper) fp.mix_double(rig.shaper->container_rate(k->id()));
  }
  return fp;
}

// Runs [from, to] in kSlice run_until slices; when traced, each slice is a
// span that the slice's child calls aggregate into. Sets the rep's run_s,
// slice_s and pending_max.
void run_slices(sim::Simulation& sim, sim::TimePoint from, sim::TimePoint to,
                Spans* spans, int parent, RepResult& r) {
  const auto t0 = Clock::now();
  auto slice_start = t0;
  r.slice_s.reserve(r.slice_s.size() +
                    static_cast<std::size_t>((to - from + kSlice - 1) / kSlice));
  for (sim::TimePoint t = from; t < to;) {
    t = std::min(to, t + kSlice);
    int span = -1;
    if (spans != nullptr) {
      span = spans->open("slice", parent, sim.now());
      spans->set_current(span);
    }
    sim.run_until(t);
    if (spans != nullptr) {
      spans->close(span);
      spans->set_current(parent);
    }
    const auto slice_end = Clock::now();
    r.slice_s.push_back(
        std::chrono::duration<double>(slice_end - slice_start).count());
    slice_start = slice_end;
    r.pending_max = std::max<std::uint64_t>(r.pending_max, sim.pending_events());
  }
  r.run_s = seconds_since(t0);
}

// One generator firing. Timing every firing would cost more than the
// firing itself, so traced reps time one in Spans::kTickSample and count
// the rest. The recorded time is exclusive: the submit and shaping calls a
// firing makes are children of their own.
template <typename F>
void tick(Spans* spans, F&& body) {
  if (spans == nullptr) {
    body();
  } else if (!spans->sample_tick()) {
    spans->count_child(Child::kTick);
    body();
  } else {
    const auto inner = [spans] {
      return spans->occupied_ns(Child::kSubmit) +
             spans->occupied_ns(Child::kShape);
    };
    const std::int64_t inner0 = inner();
    const auto t0 = Clock::now();
    body();
    const std::int64_t total = elapsed_ns(t0);
    spans->add_child(Child::kTick, total - (inner() - inner0));
  }
}

// Per-second absolute slack, sampled exactly as exp/microservice.cc does
// (pooled over containers, after `from`).
class SlackSampler {
 public:
  SlackSampler(sim::Simulation& sim,
               const std::vector<cluster::Container*>& containers,
               sim::TimePoint from)
      : containers_(containers), prev_(containers.size(), 0) {
    sim.schedule_every(sim::kSecond, sim::kSecond, [this, &sim, from] {
      const bool measuring = sim.now() > from;
      for (std::size_t i = 0; i < containers_.size(); ++i) {
        const sim::Duration consumed =
            containers_[i]->cpu_cgroup().total_consumed();
        const double used = static_cast<double>(consumed - prev_[i]) /
                            static_cast<double>(sim::kSecond);
        prev_[i] = consumed;
        if (!measuring) continue;
        cpu.add(std::max(0.0, containers_[i]->cpu_cgroup().limit_cores() - used));
        mem.add(std::max(0.0,
                         static_cast<double>(containers_[i]->mem_cgroup().slack()) /
                             static_cast<double>(memcg::kMiB)));
      }
    });
  }
  SlackSampler(const SlackSampler&) = delete;
  SlackSampler& operator=(const SlackSampler&) = delete;

  void summarize(RepResult& r) const {
    r.cpu_slack_mean = {cpu.mean()};
    r.mem_slack_mean = {mem.mean()};
    r.cpu_slack_p50 = {cpu.median()};
    r.mem_slack_p50 = {mem.median()};
  }

  sim::SampleSet cpu;
  sim::SampleSet mem;

 private:
  std::vector<cluster::Container*> containers_;
  std::vector<sim::Duration> prev_;
};

// Work-item accounting for the single-system workloads: an item counts
// when it is due inside [from, to); its latency runs from when it was due
// (open loop: the generator fires on schedule) to its completion.
struct Sink {
  sim::Simulation* sim = nullptr;
  sim::TimePoint from = 0;
  sim::TimePoint to = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t latency_sum_us = 0;
  std::vector<std::int32_t> latency_us;

  // The completion for an item due at `due`: a pointer and a timestamp,
  // small enough for std::function's inline storage.
  cluster::Container::Completion completion(sim::TimePoint due) {
    Sink* self = nullptr;
    if (due >= from && due < to) {
      ++attempted;
      self = this;
    }
    return [self, due](bool ok) {
      if (self == nullptr || !ok) return;
      const sim::Duration lat = self->sim->now() - due;
      ++self->completed;
      self->latency_sum_us += static_cast<std::uint64_t>(lat);
      self->latency_us.push_back(static_cast<std::int32_t>(lat));
    };
  }
};

void submit(Spans* spans, Sink& sink, cluster::Container& c,
            sim::Duration cost, memcg::Bytes mem) {
  ChildTimer t(spans, Child::kSubmit);
  c.submit(cost, mem, sink.completion(sink.sim->now()));
}

// Lognormal work costs for one generator, drawn during set-up: drawing
// them on the timed path would make the benchmark's input generator, not
// the system, a large share of the timed span.
class CostTape {
 public:
  CostTape(sim::Rng& rng, std::size_t n, double median_ms, double sigma) {
    costs_.reserve(std::max<std::size_t>(n, 1));
    for (std::size_t i = 0; i < std::max<std::size_t>(n, 1); ++i) {
      const double ms = rng.lognormal(std::log(median_ms), sigma);
      costs_.push_back(std::max<std::int32_t>(
          1, static_cast<std::int32_t>(ms * 1000.0)));
    }
  }
  // The next cost in draw order (wrapping if a generator outruns its
  // count, which the firing counts in install() rule out).
  sim::Duration next() { return costs_[next_++ % costs_.size()]; }

 private:
  std::vector<std::int32_t> costs_;
  std::size_t next_ = 0;
};

// Firings of a periodic generator started at `start` up to `end`.
std::size_t firings(sim::TimePoint start, sim::Duration period,
                    sim::TimePoint end) {
  return start > end ? 0 : static_cast<std::size_t>((end - start) / period) + 1;
}

// Exact order-statistic percentile of integer microseconds, in ms.
double percentile_ms(std::vector<std::int32_t>& v, double p) {
  if (v.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  double b = a;
  if (lo + 1 < v.size()) {
    b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                          v.end());
  }
  return (a + (b - a) * (rank - static_cast<double>(lo))) / 1000.0;
}

// Observed-rep outputs shared by every workload: layer counts over the
// timed span, the loop profile, and the checker's verdict.
void collect_observed(Rig& rig, const Counts& before, RepResult& r) {
  if (!rig.observer) return;
  const Counts after = snapshot(rig);
  for (int i = 0; i < kCountN; ++i) r.counts[i] = after[i] - before[i];
  r.loop_us.merge(
      rig.observer->profiler().histogram(obs::LoopStage::kEndToEnd));
  if (rig.checker) {
    rig.checker->check_now();
    r.check_sweeps = rig.checker->sweeps();
    r.check_violations =
        rig.checker->violations().size() + rig.checker->dropped_violations();
    if (!rig.checker->ok()) r.check_report = rig.checker->report();
  }
}

// --- single-system workloads ----------------------------------------------

struct ClusterConfig {
  int nodes = 0;
  int per_node = 0;
  double node_cores = 20.0;
  double cpu_per_container = 2.0;  // global pool = this x containers
  memcg::Bytes mem_per_container = 512 * memcg::kMiB;
  sim::Duration warmup = sim::seconds(1);  // part of set-up
  sim::Duration timed = sim::seconds(3);
  // Items due in the last `drain` of the timed span are not counted, so
  // every counted item has time to finish.
  sim::Duration drain = sim::milliseconds(500);
  double rpc_loss = 0.02;
  core::EscraConfig escra;
  double bw_per_container = 0.0;  // bytes/s of pool per container; 0 = off
  int standbys = 0;
  sim::TimePoint kill_leader_at = 0;  // 0 = never
};

// Generator state of one rep; owned by the rep, destroyed before the rig.
struct Generators {
  virtual ~Generators() = default;
};

class ClusterWorkload : public Workload {
 public:
  ClusterWorkload(ClusterConfig config, std::uint64_t seed)
      : config_(std::move(config)), seed_(seed) {}

  RepResult run(RunKind kind, Spans* spans) override;
  IsoShape iso_shape() const override {
    return {config_.nodes, config_.per_node, config_.node_cores};
  }
  int wal_replicas() const override {
    return config_.standbys > 0 ? config_.standbys + 1 : 0;
  }

 protected:
  struct Topology {
    std::vector<cluster::Node*> nodes;
    std::vector<cluster::Container*> members;  // node-major order
  };
  // Arms the workload's generators (inside set-up). Draw every random
  // input from `rng`.
  virtual std::unique_ptr<Generators> install(Rig& rig, const Topology& topo,
                                              Sink& sink, Spans* spans,
                                              sim::Rng& rng) = 0;
  // The end of the rep's simulated run.
  sim::TimePoint end() const { return config_.warmup + config_.timed; }

  ClusterConfig config_;
  std::uint64_t seed_;
};

RepResult ClusterWorkload::run(RunKind kind, Spans* spans) {
  const ClusterConfig& c = config_;
  RepResult r;
  int rep_span = 0;
  int setup_span = 0;
  if (spans != nullptr) {
    rep_span = spans->open("rep", 0, 0);
    setup_span = spans->open("setup", rep_span, 0);
    spans->set_current(setup_span);
  }
  const auto t0 = Clock::now();
  auto rig = std::make_unique<Rig>();
  sim::Rng root(seed_);
  rig->network.set_fault_rng(root.fork());
  rig->network.set_drop_rate(net::Channel::kControlRpc, c.rpc_loss);

  Topology topo;
  for (int n = 0; n < c.nodes; ++n) {
    topo.nodes.push_back(
        &rig->k8s.add_node(cluster::NodeConfig{.cores = c.node_cores}));
  }
  const int total = c.nodes * c.per_node;
  rig->escra = std::make_unique<core::EscraSystem>(
      rig->sim, rig->network, rig->k8s, c.cpu_per_container * total,
      c.mem_per_container * total, c.escra);
  if (kind != RunKind::kBare) attach_observer(*rig);
  if (c.bw_per_container > 0.0) {
    rig->shaper = std::make_unique<bw::ClusterShaper>(rig->sim);
    for (const cluster::Node* node : topo.nodes) {
      rig->shaper->add_node(node->id(), node->config().nic_bps);
    }
    net::Shaper* wired = rig->shaper.get();
    if (spans != nullptr) {
      rig->timed_shaper = std::make_unique<TimedShaper>(*rig->shaper, *spans);
      wired = rig->timed_shaper.get();
    }
    rig->network.set_shaper(wired);
    if (rig->observer) rig->shaper->set_observer(rig->observer.get());
    rig->escra->enable_bandwidth(*rig->shaper, c.bw_per_container * total);
  }
  topo.members.reserve(static_cast<std::size_t>(total));
  for (int n = 0; n < c.nodes; ++n) {
    for (int k = 0; k < c.per_node; ++k) {
      cluster::ContainerSpec spec;
      spec.name = "c" + std::to_string(n) + "_" + std::to_string(k);
      spec.max_parallelism = 4.0;
      spec.base_memory = 64 * memcg::kMiB;
      topo.members.push_back(&rig->k8s.create_container(
          spec, 1.0, 256 * memcg::kMiB, topo.nodes[static_cast<std::size_t>(n)]));
    }
  }
  rig->escra->manage(topo.members);
  rig->escra->start();
  if (c.standbys > 0) {
    ha::HaConfig hcfg;
    hcfg.standbys = c.standbys;
    rig->ha = std::make_unique<ha::HaControlPlane>(*rig->escra, rig->network,
                                                   hcfg);
    rig->ha->start();
    if (c.kill_leader_at > 0) {
      ha::HaControlPlane* plane = rig->ha.get();
      rig->sim.schedule_at(c.kill_leader_at, [plane, spans] {
        ChildTimer t(spans, Child::kHaKill);
        plane->kill_leader();
      });
    }
  }

  Sink sink;
  sink.sim = &rig->sim;
  sink.from = c.warmup;
  sink.to = c.warmup + c.timed - c.drain;
  SlackSampler slack(rig->sim, topo.members, c.warmup);
  const std::unique_ptr<Generators> gens =
      install(*rig, topo, sink, spans, root);
  if (kind == RunKind::kChecked) attach_checker(*rig);

  rig->sim.run_until(c.warmup);
  const Counts before = snapshot(*rig);
  r.setup_s = seconds_since(t0);
  if (spans != nullptr) {
    spans->close(setup_span);
    spans->set_current(rep_span);
  }
  run_slices(rig->sim, c.warmup, c.warmup + c.timed, spans, rep_span, r);
  r.sim_s = sim::to_seconds(c.timed);
  if (spans != nullptr) spans->close(rep_span);

  r.attempted = sink.attempted;
  r.failed = sink.attempted - sink.completed;
  r.latency_samples = sink.latency_us.size();
  r.p50_ms = {percentile_ms(sink.latency_us, 50.0)};
  r.p999_ms = {percentile_ms(sink.latency_us, 99.9)};
  slack.summarize(r);
  const Counts after = snapshot(*rig);
  r.control_bytes =
      static_cast<double>(after[kNetControlBytes] - before[kNetControlBytes]);
  r.container_seconds = static_cast<double>(total) * r.sim_s;
  r.fp = fingerprint(*rig);
  r.fp.attempted = sink.attempted;
  r.fp.completed = sink.completed;
  r.fp.latency_sum_us = sink.latency_sum_us;
  collect_observed(*rig, before, r);
  r.cell_ms = {(r.setup_s + r.run_s) * 1e3};
  return r;
}

// firehose: 64 nodes x 64 containers, each with a 1 ms usage probe (the
// in-kernel event source); every 32nd firing submits lognormal(4 ms) work.
// The full control loop runs under 2% control-RPC loss. The event engine
// carries most of the work, on cheap per-container events.
class Firehose final : public ClusterWorkload {
 public:
  Firehose(std::uint64_t seed, bool quick)
      : ClusterWorkload(make_config(quick), seed) {}

  std::string verify(const RepResult& ref) override {
    if (ref.fp.cpu_ups + ref.fp.cpu_downs == 0) return "no CPU decisions";
    if (ref.attempted == 0) return "no work items";
    return "";
  }

 private:
  static ClusterConfig make_config(bool quick) {
    ClusterConfig c;
    c.nodes = quick ? 8 : 64;
    c.per_node = quick ? 16 : 64;
    c.node_cores = 80.0;
    c.timed = quick ? sim::milliseconds(600) : sim::seconds(3);
    c.warmup = quick ? sim::milliseconds(400) : sim::seconds(1);
    c.drain = sim::milliseconds(300);
    c.escra.reclaim_interval = kShortReclaim;
    return c;
  }

  struct Probe {
    cluster::Container* container = nullptr;
    std::uint32_t ticks = 0;
    CostTape costs;
  };
  struct State final : Generators {
    std::vector<Probe> probes;
  };

  std::unique_ptr<Generators> install(Rig& rig, const Topology& topo,
                                      Sink& sink, Spans* spans,
                                      sim::Rng& rng) override {
    auto state = std::make_unique<State>();
    std::vector<sim::Rng> rngs;
    for (std::size_t i = 0; i < topo.members.size(); ++i) rngs.push_back(rng.fork());
    std::vector<sim::TimePoint> starts;
    state->probes.reserve(topo.members.size());
    for (std::size_t i = 0; i < topo.members.size(); ++i) {
      starts.push_back(static_cast<sim::TimePoint>(1 + rngs[i].uniform_int(0, 999)));
      const std::size_t n = firings(starts[i], sim::milliseconds(1), end()) / 32;
      state->probes.push_back({topo.members[i], 0, CostTape(rngs[i], n, 4.0, 0.8)});
    }
    for (std::size_t i = 0; i < state->probes.size(); ++i) {
      Probe& p = state->probes[i];
      rig.sim.schedule_every(starts[i], sim::milliseconds(1), [&p, &sink, spans] {
        tick(spans, [&] {
          if (++p.ticks % 32 == 0) {
            submit(spans, sink, *p.container, p.costs.next(), 2 * memcg::kMiB);
          }
        });
      });
    }
    return state;
  }
};

// control_storm: 256 nodes x 32 containers. Work arrives on 20 ms ticks in
// 500 ms on/off duty cycles, phase-offset per container, under 2% RPC
// loss, so demand moves every CFS period and the allocator issues limit
// updates each period: the most telemetry ingest, allocator decisions,
// batched RPCs and Agent applies per simulated second of the four
// workloads, with 8x fewer engine events than firehose.
class ControlStorm final : public ClusterWorkload {
 public:
  ControlStorm(std::uint64_t seed, bool quick)
      : ClusterWorkload(make_config(quick), seed) {}

  std::string verify(const RepResult& ref) override {
    if (ref.fp.cpu_ups == 0 || ref.fp.cpu_downs == 0) {
      return "no CPU grants or shrinks";
    }
    if (ref.fp.retransmits == 0) return "no retransmits under RPC loss";
    return "";
  }

 private:
  static ClusterConfig make_config(bool quick) {
    ClusterConfig c;
    c.nodes = quick ? 16 : 256;
    c.per_node = quick ? 16 : 32;
    c.node_cores = 20.0;
    c.timed = quick ? sim::milliseconds(600) : sim::seconds(3);
    c.warmup = quick ? sim::milliseconds(400) : sim::seconds(1);
    c.escra.reclaim_interval = kShortReclaim;
    return c;
  }

  static constexpr sim::Duration kTick = sim::milliseconds(20);
  static constexpr int kBatch = 3;

  struct Stream {
    cluster::Container* container = nullptr;
    int phase = 0;
    CostTape costs;
  };
  struct State final : Generators {
    std::vector<Stream> streams;
  };

  static bool on(sim::TimePoint t, int phase) {
    return ((t / sim::milliseconds(500)) + phase) % 2 == 0;
  }

  std::unique_ptr<Generators> install(Rig& rig, const Topology& topo,
                                      Sink& sink, Spans* spans,
                                      sim::Rng& rng) override {
    auto state = std::make_unique<State>();
    std::vector<sim::Rng> rngs;
    for (std::size_t i = 0; i < topo.members.size(); ++i) rngs.push_back(rng.fork());
    std::vector<sim::TimePoint> starts;
    state->streams.reserve(topo.members.size());
    for (std::size_t i = 0; i < topo.members.size(); ++i) {
      const int phase = static_cast<int>(i);
      // Microsecond phases: completions land on 10 ms scheduler slices, so
      // whole-millisecond phases would quantize every latency to 1 ms.
      starts.push_back(sim::milliseconds(1) + rngs[i].uniform_int(0, 19'999));
      std::size_t n = 0;
      for (sim::TimePoint t = starts[i]; t <= end(); t += kTick) {
        if (on(t, phase)) n += kBatch;
      }
      state->streams.push_back(
          {topo.members[i], phase, CostTape(rngs[i], n, 4.0, 0.8)});
    }
    sim::Simulation* simp = &rig.sim;
    for (std::size_t i = 0; i < state->streams.size(); ++i) {
      Stream& s = state->streams[i];
      rig.sim.schedule_every(starts[i], kTick, [&s, &sink, spans, simp] {
        tick(spans, [&] {
          if (!on(simp->now(), s.phase)) return;
          for (int b = 0; b < kBatch; ++b) {
            submit(spans, sink, *s.container, s.costs.next(), 2 * memcg::kMiB);
          }
        });
      });
    }
    return state;
  }
};

// write_mix: 32 nodes x 16 containers under 2% RPC loss, exercising the
// memory and bandwidth arms and the HA WAL instead of CPU reads:
//   - each container grows a resident cache by 4 MiB every 50 ms up to
//     +96 MiB, then drops it (pre-OOM rescues after every reclaim sweep);
//   - each container sends a 20 KB message every 10 ms to its peer on the
//     next node, and a rotating eighth of the senders run 8x hot (the
//     bandwidth arm reclaims from the cold and grants to the hot); the
//     receiver processes each message as a work item, and the item's
//     latency runs from the send to the end of that processing;
//   - bandwidth shaping with bw_gamma 1 MB/s and the credit defense on;
//   - 2 warm standbys stream the WAL and the leader is killed inside the
//     timed span, between reclaim sweeps (once every container's limit has
//     absorbed a full cache cycle, so no rescue is needed while the seat is
//     vacant and no work item fails).
class WriteMix final : public ClusterWorkload {
 public:
  WriteMix(std::uint64_t seed, bool quick)
      : ClusterWorkload(make_config(quick), seed) {}

  std::string verify(const RepResult& ref) override {
    if (ref.fp.mem_grants == 0) return "no memory grants";
    if (ref.fp.bw_ups == 0 || ref.fp.bw_downs == 0) {
      return "no bandwidth grants or shrinks";
    }
    if (ref.fp.wal_appends == 0) return "no WAL appends";
    if (ref.fp.failovers != 1) {
      return "expected exactly 1 failover, saw " +
             std::to_string(ref.fp.failovers);
    }
    return "";
  }

 private:
  static ClusterConfig make_config(bool quick) {
    ClusterConfig c;
    c.nodes = quick ? 4 : 32;
    c.per_node = quick ? 8 : 16;
    c.node_cores = 20.0;
    c.warmup = sim::seconds(1);
    c.timed = sim::seconds(7);
    c.escra.bw_gamma = 1.0e6;
    c.escra.credit_defense = true;
    // Hot senders need 16 MB/s and cold ones 2 MB/s: the pool holds about
    // twice the demand, so backlogs clear once the arm has moved the rate.
    c.bw_per_container = 8.0e6;
    c.drain = sim::milliseconds(1500);
    c.escra.reclaim_interval = sim::seconds(2);
    c.standbys = 2;
    // Reclaim sweeps run at 2, 4 and 6 s, and each sweep's rescue wave
    // settles within one 1.2 s cache cycle. The kill at 5.5 s falls in the
    // quiet window; the new leader's first sweep runs 2 s after takeover.
    c.kill_leader_at = sim::milliseconds(5500);
    return c;
  }

  static constexpr memcg::Bytes kCacheStep = 4 * memcg::kMiB;
  static constexpr memcg::Bytes kCacheMax = 96 * memcg::kMiB;
  static constexpr std::size_t kMessageBytes = 20'000;

  static constexpr sim::Duration kSendPeriod = sim::milliseconds(10);

  struct Writer {
    cluster::Container* container = nullptr;
    cluster::Container* peer = nullptr;
    net::EndpointId from = 0;
    net::EndpointId to = 0;
    std::size_t index = 0;
    memcg::Bytes cache = 0;
    Sink* sink = nullptr;
    Spans* spans = nullptr;
    sim::TimePoint cache_start = 0;
    sim::TimePoint send_start = 0;
    // Processing cost at the peer of each message this writer sends.
    std::unique_ptr<CostTape> costs;
  };
  struct State final : Generators {
    std::vector<Writer> writers;
  };

  std::unique_ptr<Generators> install(Rig& rig, const Topology& topo,
                                      Sink& sink, Spans* spans,
                                      sim::Rng& rng) override {
    auto state = std::make_unique<State>();
    const std::size_t per_node = static_cast<std::size_t>(config_.per_node);
    const std::size_t n_nodes = topo.nodes.size();
    state->writers.reserve(topo.members.size());
    std::vector<sim::Rng> rngs;
    for (std::size_t i = 0; i < topo.members.size(); ++i) rngs.push_back(rng.fork());
    for (std::size_t i = 0; i < topo.members.size(); ++i) {
      const std::size_t node = i / per_node;
      const std::size_t peer_node = (node + 1) % n_nodes;
      Writer w;
      w.container = topo.members[i];
      w.peer = topo.members[peer_node * per_node + i % per_node];
      w.from = static_cast<net::EndpointId>(topo.nodes[node]->id());
      w.to = static_cast<net::EndpointId>(topo.nodes[peer_node]->id());
      w.index = i;
      w.sink = &sink;
      w.spans = spans;
      w.cache_start = sim::milliseconds(1 + rngs[i].uniform_int(0, 49));
      w.send_start = static_cast<sim::TimePoint>(1 + rngs[i].uniform_int(0, 9'999));
      w.costs = std::make_unique<CostTape>(
          rngs[i], firings(w.send_start, kSendPeriod, end()), 0.5, 0.5);
      state->writers.push_back(std::move(w));
    }
    sim::Simulation* simp = &rig.sim;
    net::Network* netp = &rig.network;
    for (Writer& w : state->writers) {
      rig.sim.schedule_every(w.cache_start, sim::milliseconds(50), [&w, spans] {
        tick(spans, [&] {
          if (w.cache < kCacheMax) {
            w.container->adjust_resident(kCacheStep);
            w.cache += kCacheStep;
          } else {
            w.container->adjust_resident(-w.cache);
            w.cache = 0;
          }
        });
      });
      rig.sim.schedule_every(
          w.send_start, kSendPeriod, [&w, simp, netp] {
            tick(w.spans, [&] {
              const std::size_t rotation =
                  static_cast<std::size_t>(simp->now() / sim::kSecond);
              const bool hot = (w.index + rotation) % 8 == 0;
              const std::size_t bytes = hot ? 8 * kMessageBytes : kMessageBytes;
              Writer* wp = &w;
              const sim::TimePoint sent = simp->now();
              // Two words: fits std::function's inline storage.
              netp->send_flow(net::Channel::kAppData, w.from, w.to,
                              w.container->id(), w.peer->id(), bytes,
                              [wp, sent] {
                                ChildTimer t(wp->spans, Child::kSubmit);
                                wp->peer->submit(
                                    wp->costs->next(), 64 * memcg::kKiB,
                                    wp->sink->completion(sent));
                              });
            });
          });
    }
    return state;
  }
};

// --- paper_grid -------------------------------------------------------------

// The paper's 16 Escra cells (four applications under four load shapes,
// each with 3 x 20-core workers, 10 s app-ready, 5 s warmup and 60 s
// measured), at 3 seeds derived from the run's seed. Each cell mirrors
// exp::run_microservice step for step so the benchmark can attach an
// observer and a checker and time set-up on its own; verify() re-runs the
// reference cells through run_microservice and requires identical results.
class PaperGrid final : public Workload {
 public:
  PaperGrid(std::uint64_t seed, bool quick) {
    sim::Rng root(seed);
    const int seeds = quick ? 1 : 3;
    std::vector<app::Benchmark> apps = {
        app::Benchmark::kTrainTicket, app::Benchmark::kTeastore,
        app::Benchmark::kHipster, app::Benchmark::kMedia};
    std::vector<workload::WorkloadKind> loads = {
        workload::WorkloadKind::kFixed, workload::WorkloadKind::kExp,
        workload::WorkloadKind::kBurst, workload::WorkloadKind::kAlibaba};
    if (quick) {
      apps = {app::Benchmark::kTeastore, app::Benchmark::kHipster};
      loads = {workload::WorkloadKind::kFixed, workload::WorkloadKind::kBurst};
      base_.app_ready_delay = sim::seconds(2);
      base_.warmup = sim::seconds(2);
      base_.duration = sim::seconds(6);
    }
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t cell_seed = root.engine()();
      for (const app::Benchmark a : apps) {
        for (const workload::WorkloadKind l : loads) {
          cells_.push_back({a, l, cell_seed});
        }
      }
    }
    verify_cells_ = apps.size() * loads.size();
  }

  RepResult run(RunKind kind, Spans* spans) override {
    RepResult r;
    r.slice_s.reserve(cells_.size() * static_cast<std::size_t>(
                                          (base_.duration + kDrainTail) / kSlice));
    outcomes_.clear();
    int rep_span = 0;
    if (spans != nullptr) rep_span = spans->open("rep", 0, 0);
    for (const Cell& cell : cells_) {
      r.add_cell(run_cell(cell, kind, spans, rep_span));
    }
    if (spans != nullptr) spans->close(rep_span);
    return r;
  }

  std::string verify(const RepResult& ref) override;

  // The largest cell: TrainTicket's 68 containers on the 3 workers.
  IsoShape iso_shape() const override { return {3, 23, 20.0}; }

 private:
  // Simulated time each cell runs past the end of its load, as
  // run_microservice does.
  static constexpr sim::Duration kDrainTail = sim::seconds(5);

  struct Cell {
    app::Benchmark app;
    workload::WorkloadKind load;
    std::uint64_t seed;
  };
  // What run_microservice reports for a cell, for the cross-check.
  struct Outcome {
    double p50 = 0, p999 = 0, cpu_p50 = 0, mem_p50 = 0;
    std::uint64_t succeeded = 0, failed = 0, limit_updates = 0,
                  telemetry = 0, oom_kills = 0;
  };

  exp::MicroserviceConfig config_for(const Cell& cell) const {
    exp::MicroserviceConfig cfg = base_;
    cfg.benchmark = cell.app;
    cfg.workload = cell.load;
    cfg.policy = exp::PolicyKind::kEscra;
    cfg.seed = cell.seed;
    return cfg;
  }

  RepResult run_cell(const Cell& cell, RunKind kind, Spans* spans,
                     int parent);

  exp::MicroserviceConfig base_;
  std::vector<Cell> cells_;
  std::size_t verify_cells_ = 0;
  std::vector<Outcome> outcomes_;  // of the last rep, in cell order
};

RepResult PaperGrid::run_cell(const Cell& cell, RunKind kind, Spans* spans,
                              int parent) {
  const exp::MicroserviceConfig config = config_for(cell);
  RepResult r;
  int cell_span = 0;
  int setup_span = 0;
  if (spans != nullptr) {
    cell_span = spans->open("cell", parent, 0);
    setup_span = spans->open("setup", cell_span, 0);
    spans->set_current(setup_span);
  }
  const auto t0 = Clock::now();
  auto rig = std::make_unique<Rig>();
  for (int i = 0; i < config.worker_nodes; ++i) {
    rig->k8s.add_node(cluster::NodeConfig{
        .cores = config.node_cores,
        .memory_capacity = config.node_mem,
        .scheduler_slice = config.escra.cfs_period / 10,
        .cfs_period = config.escra.cfs_period});
  }
  sim::Rng root(config.seed);
  app::Application application(rig->k8s, app::make_benchmark(config.benchmark),
                               root.fork(), /*initial_cores=*/2.0,
                               /*initial_mem=*/512 * memcg::kMiB);
  const std::vector<cluster::Container*>& containers = application.containers();
  const double global_cpu =
      config.node_cores * static_cast<double>(config.worker_nodes);
  const auto global_mem = static_cast<memcg::Bytes>(
      static_cast<double>(config.node_mem) * config.worker_nodes);
  rig->escra = std::make_unique<core::EscraSystem>(
      rig->sim, rig->network, rig->k8s, global_cpu, global_mem, config.escra);
  if (kind != RunKind::kBare) attach_observer(*rig);
  rig->escra->manage(containers);
  rig->escra->start();

  const sim::TimePoint load_start = config.app_ready_delay;
  const sim::TimePoint measure_start = load_start + config.warmup;
  const sim::TimePoint load_end = measure_start + config.duration;
  const sim::TimePoint run_end = load_end + kDrainTail;
  const auto duration_s =
      static_cast<std::size_t>(sim::to_seconds(load_end)) + 1;
  workload::LoadGenerator loadgen(
      rig->sim,
      workload::make_workload(config.workload, root.fork(), duration_s),
      [&application, spans](workload::LoadGenerator::Done done) {
        tick(spans, [&] {
          ChildTimer t(spans, Child::kSubmit);
          application.submit_request(std::move(done));
        });
      },
      config.request_timeout);
  loadgen.run(load_start, load_end);
  SlackSampler slack(rig->sim, containers, measure_start);
  rig->sim.schedule_at(measure_start, [&loadgen] { loadgen.reset_measurements(); });
  if (kind == RunKind::kChecked) attach_checker(*rig);

  rig->sim.run_until(measure_start);
  const Counts before = snapshot(*rig);
  r.setup_s = seconds_since(t0);
  if (spans != nullptr) {
    spans->close(setup_span);
    spans->set_current(cell_span);
  }
  run_slices(rig->sim, measure_start, run_end, spans, cell_span, r);
  r.sim_s = sim::to_seconds(run_end - measure_start);
  if (spans != nullptr) {
    spans->close(cell_span);
    spans->set_current(parent);
  }

  const sim::Histogram& lat = loadgen.latency();
  Outcome o;
  o.p50 = static_cast<double>(lat.percentile(50)) / 1000.0;
  o.p999 = static_cast<double>(lat.percentile(99.9)) / 1000.0;
  o.cpu_p50 = slack.cpu.median();
  o.mem_p50 = slack.mem.median();
  o.succeeded = loadgen.succeeded();
  o.failed = loadgen.failed();
  o.limit_updates = rig->escra->controller().limit_updates_sent();
  o.telemetry = rig->network.stats(net::Channel::kCpuTelemetry).messages;
  for (const cluster::Container* c : containers) o.oom_kills += c->oom_kill_count();
  outcomes_.push_back(o);

  // Requests still unanswered at the end (neither succeeded nor failed)
  // count as failed too.
  const std::uint64_t answered = o.succeeded + o.failed;
  r.attempted = std::max(loadgen.issued(), answered);
  r.failed = r.attempted - o.succeeded;
  r.latency_samples = lat.count();
  r.p50_ms = {o.p50};
  r.p999_ms = {o.p999};
  slack.summarize(r);
  const Counts after = snapshot(*rig);
  r.control_bytes =
      static_cast<double>(after[kNetControlBytes] - before[kNetControlBytes]);
  r.container_seconds = static_cast<double>(containers.size()) * r.sim_s;
  r.fp = fingerprint(*rig);
  r.fp.attempted = r.attempted;
  r.fp.completed = o.succeeded;
  r.fp.mix_double(o.p50);
  r.fp.mix_double(o.p999);
  collect_observed(*rig, before, r);
  r.cell_ms = {(r.setup_s + r.run_s) * 1e3};
  if (o.succeeded == 0) r.vacuous = "a cell completed no requests";
  if (r.fp.cpu_ups + r.fp.cpu_downs == 0) r.vacuous = "a cell made no CPU decisions";
  return r;
}

std::string PaperGrid::verify(const RepResult& ref) {
  if (!ref.vacuous.empty()) return ref.vacuous;
  for (std::size_t i = 0; i < verify_cells_ && i < outcomes_.size(); ++i) {
    const exp::RunResult m = exp::run_microservice(config_for(cells_[i]));
    const Outcome& o = outcomes_[i];
    const bool same = m.p50_latency_ms == o.p50 &&
                      m.p999_latency_ms == o.p999 &&
                      m.cpu_slack_cores.median() == o.cpu_p50 &&
                      m.mem_slack_mib.median() == o.mem_p50 &&
                      m.succeeded == o.succeeded && m.failed == o.failed &&
                      m.limit_updates == o.limit_updates &&
                      m.telemetry_msgs == o.telemetry &&
                      m.oom_kills == o.oom_kills;
    if (!same) {
      return std::string("cell ") + m.app_name + "/" + m.workload_name +
             " differs from exp::run_microservice (p999 " +
             std::to_string(o.p999) + " vs " +
             std::to_string(m.p999_latency_ms) + ", succeeded " +
             std::to_string(o.succeeded) + " vs " +
             std::to_string(m.succeeded) + ")";
    }
  }
  return "";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"firehose", "control_storm",
                                                  "paper_grid", "write_mix"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick) {
  const std::uint64_t root = derive_seed(seed, name);
  if (name == "firehose") return std::make_unique<Firehose>(root, quick);
  if (name == "control_storm") return std::make_unique<ControlStorm>(root, quick);
  if (name == "paper_grid") return std::make_unique<PaperGrid>(root, quick);
  if (name == "write_mix") return std::make_unique<WriteMix>(root, quick);
  return nullptr;
}

}  // namespace escra_bench
