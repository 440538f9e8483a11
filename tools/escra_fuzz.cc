// escra-fuzz: deterministic scenario fuzzer for the invariant checker.
//
//   escra-fuzz [options]
//
//     --runs N            scenarios to run                    (default 100)
//     --seed S            base seed; run i uses seed S + i    (default 1)
//     --jobs N            worker threads; 0 = hardware        (default 1)
//     --trace-tail N      trace events dumped on a violation  (default 200)
//     --repro-out FILE    write the first run's generated scenario as JSON;
//                         if a violation occurs, the violating run's
//                         scenario is written there instead
//     --fault-profile     overlay a seed-derived fault schedule on every
//                         scenario (partitions, agent/controller crashes,
//                         RPC drop/duplicate/delay faults); the checker runs
//                         with its fault-aware in-flight tracking, so a
//                         clean exit means the invariants held *through*
//                         the faults. Fault draws are appended after all
//                         scenario draws, so a seed's scenario is identical
//                         with and without this flag.
//     --standbys N        attach a warm-standby replicated controller (N
//                         standbys) to tenant 0 of every scenario
//     --bw                overlay the bandwidth plane: a ClusterShaper over
//                         every node, tenant 0's bandwidth arm
//                         (enable_bandwidth) with a seed-derived NIC size,
//                         global pool, and tunables, plus background
//                         attributed send_flow streams between tenant 0's
//                         containers so both token-bucket directions see
//                         load. The checker runs with the bandwidth
//                         invariants armed (pool conservation, per-NIC rate
//                         sums, grant floors, counter<->trace consistency).
//                         Bandwidth draws use a dedicated rng stream, so a
//                         seed's scenario is identical with and without
//                         this flag.
//     --leader-churn      use the leader-churn fault profile instead of the
//                         default: permanent leader kills dominate and
//                         probabilistic faults may hit the HA replication
//                         channel (implies --fault-profile; requires
//                         --standbys >= 1). Like --fault-profile, the
//                         scenario draws are unchanged, so a seed's scenario
//                         is identical with and without this flag.
//     --greedy            overlay an adversarial tenant: credit_defense on
//                         tenant 0, a seed-derived workload::GreedyTenant
//                         (strategy, lie fraction, impossible-report
//                         fraction, cadences) forging telemetry from a
//                         subset of tenant 0's containers, and the credit
//                         invariants (conservation, honest floor) armed on
//                         the checker. Greedy draws use a dedicated rng
//                         stream, so a seed's scenario is identical with
//                         and without this flag. The sweep is additionally
//                         non-vacuous: at least one credit charge and one
//                         forged report/phantom event must land across the
//                         whole sweep or the exit status is 1. Composes
//                         with --fault-profile, --standbys/--leader-churn
//                         (credit balances must survive takeover), and any
//                         --jobs count byte-identically.
//     --rt                overlay the mixed-criticality real-time class: a
//                         seed-derived admission plan against tenant 0 (a
//                         subset of its containers, each with a
//                         deadline = period reservation, period a multiple
//                         of 100ms, utilization <= 0.3) admitted mid-run
//                         through the Controller's utilization-bound tests,
//                         with a fraction of the reservations revoked later
//                         by operator eviction. The checker runs with the
//                         RT invariants armed (never-reclaim floors,
//                         explicit-eviction-before-kill, admission
//                         conservation, allocator-caused deadline misses
//                         are violations). RT draws use a dedicated rng
//                         stream, so a seed's scenario is identical with
//                         and without this flag. The sweep is additionally
//                         non-vacuous: at least one reservation must be
//                         admitted across the whole sweep or the exit
//                         status is 1 (tenant-caused misses — overrun, RPC
//                         loss — are reported but allowed; a miss while the
//                         allocator books the container below its floor is
//                         a violation). Composes with --fault-profile,
//                         --standbys/--leader-churn (the admitted set must
//                         survive takeover), --greedy (greedy tenants must
//                         not starve RT floors), --shards (admission debits
//                         the owning shard's slice), and any --jobs count
//                         byte-identically.
//     --shards N          run every scenario through a sharded control
//                         plane (shard::ShardedControlPlane, N shards)
//                         instead of per-tenant EscraSystems: each tenant
//                         plan becomes an application routed to its shard
//                         by consistent hashing, every shard gets its own
//                         observer and InvariantChecker, and the
//                         cross-shard conservation checker
//                         (check::ShardInvariantChecker) sweeps the
//                         borrow protocol's pool identity through the
//                         whole run. The scenario draws are untouched, so
//                         a seed's scenario is identical with and without
//                         this flag. Composes with --fault-profile,
//                         --standbys/--leader-churn (per-shard warm
//                         standbys; shard 0 takes the faults), --rt,
//                         and any --jobs count byte-identically; --bw and
//                         --greedy are per-tenant overlays and are
//                         rejected. With N >= 2 the sweep is additionally
//                         non-vacuous: at least one cross-shard borrow
//                         grant must land across the whole sweep or the
//                         exit status is 1.
//     --force-overgrant   plant a violation: mid-run, set one container's
//                         CPU cgroup directly past the global limit,
//                         bypassing the allocator (checker must catch it)
//     --rss-check         assert a flat memory footprint: resident set after
//                         the full sweep must not exceed the post-warmup
//                         baseline by more than a small slack (guards the
//                         event-engine pools against leaks); forces --jobs 1
//     --quiet             only print failures and the final summary
//
// Runs are fanned out across a sweep::Runner thread pool (--jobs). Every
// observable output is independent of the job count: outcomes are
// aggregated in seed order, violation reports are buffered per run and
// printed in that order, and each scenario owns its Simulation and Rng, so
// --jobs 8 prints byte-for-byte what --jobs 1 prints.
//
// Each run derives everything — cluster topology, tenant count, Escra
// tunables, workload mix (steady request streams, batch bursts, resident-
// memory spikes, a late joiner), telemetry loss — from a single sim::Rng
// seeded with S + i, runs a short simulation with an InvariantChecker
// attached to every tenant, and reports any violation with the seed, the
// generated scenario config, and the tail of the decision trace. Because
// the scenario is a pure function of its seed, a failure replays
// byte-identically with:
//
//   escra-fuzz --seed <printed seed> --runs 1 [--force-overgrant]
//
// Exit status: 0 all runs clean, 1 violations found, 2 usage error.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "adv/greedy.h"
#include "bw/shaper.h"
#include "cfs/rt.h"
#include "check/invariant_checker.h"
#include "check/shard_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "fault/fault_injector.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "shard/sharded_control_plane.h"
#include "sim/rng.h"
#include "sweep/runner.h"

using namespace escra;

namespace {

struct Options {
  std::uint64_t runs = 100;
  std::uint64_t seed = 1;
  int jobs = 1;
  std::size_t trace_tail = 200;
  std::string repro_out;
  bool fault_profile = false;
  int standbys = 0;
  bool leader_churn = false;
  bool bw = false;
  bool greedy = false;
  bool rt = false;
  int shards = 0;
  bool force_overgrant = false;
  bool rss_check = false;
  bool quiet = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: escra-fuzz [--runs N] [--seed S] [--jobs N]\n"
               "                  [--trace-tail N] [--repro-out FILE]\n"
               "                  [--fault-profile] [--standbys N]\n"
               "                  [--leader-churn] [--bw] [--greedy] [--rt]\n"
               "                  [--shards N]\n"
               "                  [--force-overgrant] [--rss-check] [--quiet]\n");
}

// Strict numeric parsing: the whole token must be consumed, so "12abc" and
// "" are rejected instead of silently truncated.
std::uint64_t parse_u64(const std::string& flag, const char* text) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    throw std::runtime_error(flag + " needs an unsigned integer, got '" +
                             text + "'");
  }
  if (used != std::strlen(text)) {
    throw std::runtime_error(flag + " needs an unsigned integer, got '" +
                             text + "'");
  }
  return value;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--runs") {
      opts.runs = parse_u64(flag, next());
    } else if (flag == "--seed") {
      opts.seed = parse_u64(flag, next());
    } else if (flag == "--jobs") {
      opts.jobs = static_cast<int>(parse_u64(flag, next()));
    } else if (flag == "--trace-tail") {
      opts.trace_tail = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--repro-out") {
      opts.repro_out = next();
    } else if (flag == "--fault-profile") {
      opts.fault_profile = true;
    } else if (flag == "--standbys") {
      opts.standbys = static_cast<int>(parse_u64(flag, next()));
    } else if (flag == "--leader-churn") {
      opts.leader_churn = true;
      opts.fault_profile = true;
    } else if (flag == "--bw") {
      opts.bw = true;
    } else if (flag == "--greedy") {
      opts.greedy = true;
    } else if (flag == "--rt") {
      opts.rt = true;
    } else if (flag == "--shards") {
      opts.shards = static_cast<int>(parse_u64(flag, next()));
    } else if (flag == "--force-overgrant") {
      opts.force_overgrant = true;
    } else if (flag == "--rss-check") {
      opts.rss_check = true;
    } else if (flag == "--quiet") {
      opts.quiet = true;
    } else if (flag == "--help" || flag == "-h") {
      return std::nullopt;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return opts;
}

// --- scenario generation -------------------------------------------------
//
// A Scenario is a pure function of its seed: generation draws from the rng
// in one fixed order, so the same seed always yields the same scenario (and
// the same per-component child rngs, via fork()).

struct ContainerPlan {
  double parallelism = 4.0;
  std::int64_t base_mem = 64 * memcg::kMiB;
  std::int64_t startup_cpu_ms = 0;
  double rate_per_s = 50.0;      // request arrival rate
  double cpu_cost_ms = 5.0;      // lognormal median per-request core-ms
  double cpu_cost_sigma = 0.4;
  std::int64_t mem_per_item = 2 * memcg::kMiB;
  bool bursty = false;           // batch submits instead of a steady stream
  double resident_spike_p = 0.0; // per-second chance of a residency spike
};

struct TenantPlan {
  double global_cpu = 8.0;
  std::int64_t global_mem = memcg::kGiB;
  core::EscraConfig cfg;
  std::vector<ContainerPlan> containers;
  bool late_joiner = false;  // one extra container adopted mid-run
};

struct Scenario {
  std::uint64_t seed = 0;
  int nodes = 1;
  double cores_per_node = 16.0;
  double loss_rate = 0.0;
  double duration_s = 4.0;
  // Overlay a seed-derived fault schedule (set from --fault-profile, not
  // drawn: a seed's scenario is byte-identical with and without faults).
  bool fault_profile = false;
  // Warm-standby replicated controller on tenant 0 (set from --standbys /
  // --leader-churn after generation, for the same reason).
  int standbys = 0;
  bool leader_churn = false;
  // Bandwidth overlay on tenant 0 (set from --bw; its draws come from a
  // dedicated rng stream inside run_scenario, never from the scenario rng).
  bool bw = false;
  // Adversarial overlay on tenant 0 (set from --greedy; like --bw, its
  // draws come from a dedicated rng stream, never from the scenario rng).
  bool greedy = false;
  // Real-time admission plan against tenant 0 (set from --rt; like --bw,
  // its draws come from a dedicated rng stream, never from the scenario
  // rng).
  bool rt = false;
  // Sharded control plane with this many shards (set from --shards, not
  // drawn: only the control-plane topology changes, never the scenario).
  int shards = 0;
  std::vector<TenantPlan> tenants;
};

Scenario generate(std::uint64_t seed) {
  sim::Rng rng(seed);
  Scenario s;
  s.seed = seed;
  s.nodes = static_cast<int>(rng.uniform_int(1, 4));
  s.cores_per_node = static_cast<double>(rng.uniform_int(4, 32));
  s.loss_rate = rng.chance(0.3) ? rng.uniform(0.0, 0.2) : 0.0;
  s.duration_s = rng.uniform(2.0, 8.0);

  const int tenants = static_cast<int>(rng.uniform_int(1, 2));
  for (int t = 0; t < tenants; ++t) {
    TenantPlan tp;
    tp.global_cpu =
        rng.uniform(2.0, s.nodes * s.cores_per_node / tenants + 2.0);
    tp.global_mem = rng.uniform_int(256, 2048) * memcg::kMiB;

    core::EscraConfig& cfg = tp.cfg;
    cfg.kappa = rng.uniform(0.4, 1.0);
    cfg.gamma = rng.uniform(0.05, 0.5);
    cfg.upsilon = static_cast<double>(rng.uniform_int(5, 40));
    cfg.window_periods = static_cast<std::size_t>(rng.uniform_int(2, 8));
    cfg.min_cores = rng.uniform(0.02, 0.1);
    cfg.delta = rng.uniform_int(16, 128) * memcg::kMiB;
    cfg.reclaim_interval = sim::seconds(rng.uniform_int(1, 5));
    cfg.sigma = rng.uniform(0.0, 0.4);
    cfg.oom_grant = rng.uniform_int(4, 32) * memcg::kMiB;
    cfg.min_mem = rng.uniform_int(8, 32) * memcg::kMiB;
    cfg.late_join_cores = rng.uniform(0.5, 2.0);
    cfg.late_join_mem = rng.uniform_int(64, 512) * memcg::kMiB;

    const int containers = static_cast<int>(rng.uniform_int(1, 6));
    for (int c = 0; c < containers; ++c) {
      ContainerPlan cp;
      cp.parallelism = static_cast<double>(rng.uniform_int(1, 8));
      cp.base_mem = rng.uniform_int(16, 128) * memcg::kMiB;
      cp.startup_cpu_ms = rng.chance(0.5) ? rng.uniform_int(0, 1000) : 0;
      cp.rate_per_s = rng.uniform(10.0, 400.0);
      cp.cpu_cost_ms = rng.uniform(0.5, 20.0);
      cp.cpu_cost_sigma = rng.uniform(0.1, 0.8);
      cp.mem_per_item = rng.uniform_int(256, 8192) * memcg::kKiB;
      cp.bursty = rng.chance(0.25);
      cp.resident_spike_p = rng.chance(0.3) ? rng.uniform(0.05, 0.5) : 0.0;
      tp.containers.push_back(cp);
    }
    tp.late_joiner = rng.chance(0.4);
    s.tenants.push_back(tp);
  }
  return s;
}

// The scenario a sweep runs for `seed`: generated from the seed, with the
// overlays set from the command line, never drawn.
Scenario scenario_for(const Options& opts, std::uint64_t seed) {
  Scenario s = generate(seed);
  s.fault_profile = opts.fault_profile;
  s.standbys = opts.standbys;
  s.leader_churn = opts.leader_churn;
  s.bw = opts.bw;
  s.greedy = opts.greedy;
  s.rt = opts.rt;
  s.shards = opts.shards;
  return s;
}

void append_kv(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", key, value);
  out += buf;
}

std::string to_json(const Scenario& s) {
  std::string out = "{\n  ";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "\"seed\": %" PRIu64 ", \"nodes\": %d, ", s.seed, s.nodes);
  out += buf;
  append_kv(out, "cores_per_node", s.cores_per_node);
  out += ", ";
  append_kv(out, "loss_rate", s.loss_rate);
  out += ", ";
  append_kv(out, "duration_s", s.duration_s);
  out += ", ";
  out += s.fault_profile ? "\"fault_profile\": true"
                         : "\"fault_profile\": false";
  std::snprintf(buf, sizeof(buf), ", \"standbys\": %d, ", s.standbys);
  out += buf;
  out += s.leader_churn ? "\"leader_churn\": true"
                        : "\"leader_churn\": false";
  out += s.bw ? ", \"bw\": true" : ", \"bw\": false";
  out += s.greedy ? ", \"greedy\": true" : ", \"greedy\": false";
  out += s.rt ? ", \"rt\": true" : ", \"rt\": false";
  std::snprintf(buf, sizeof(buf), ", \"shards\": %d", s.shards);
  out += buf;
  out += ",\n  \"tenants\": [";
  for (std::size_t t = 0; t < s.tenants.size(); ++t) {
    const TenantPlan& tp = s.tenants[t];
    out += t == 0 ? "{\n    " : ", {\n    ";
    append_kv(out, "global_cpu", tp.global_cpu);
    out += ", ";
    append_kv(out, "global_mem", static_cast<double>(tp.global_mem));
    out += ", ";
    out += tp.late_joiner ? "\"late_joiner\": true" : "\"late_joiner\": false";
    out += ",\n    \"config\": {";
    append_kv(out, "kappa", tp.cfg.kappa);
    out += ", ";
    append_kv(out, "gamma", tp.cfg.gamma);
    out += ", ";
    append_kv(out, "upsilon", tp.cfg.upsilon);
    out += ", ";
    append_kv(out, "window_periods",
              static_cast<double>(tp.cfg.window_periods));
    out += ", ";
    append_kv(out, "min_cores", tp.cfg.min_cores);
    out += ", ";
    append_kv(out, "delta", static_cast<double>(tp.cfg.delta));
    out += ", ";
    append_kv(out, "reclaim_interval_us",
              static_cast<double>(tp.cfg.reclaim_interval));
    out += ", ";
    append_kv(out, "sigma", tp.cfg.sigma);
    out += ", ";
    append_kv(out, "oom_grant", static_cast<double>(tp.cfg.oom_grant));
    out += ", ";
    append_kv(out, "min_mem", static_cast<double>(tp.cfg.min_mem));
    out += ", ";
    append_kv(out, "late_join_cores", tp.cfg.late_join_cores);
    out += ", ";
    append_kv(out, "late_join_mem", static_cast<double>(tp.cfg.late_join_mem));
    out += "},\n    \"containers\": [";
    for (std::size_t c = 0; c < tp.containers.size(); ++c) {
      const ContainerPlan& cp = tp.containers[c];
      out += c == 0 ? "{" : ", {";
      append_kv(out, "parallelism", cp.parallelism);
      out += ", ";
      append_kv(out, "base_mem", static_cast<double>(cp.base_mem));
      out += ", ";
      append_kv(out, "startup_cpu_ms",
                static_cast<double>(cp.startup_cpu_ms));
      out += ", ";
      append_kv(out, "rate_per_s", cp.rate_per_s);
      out += ", ";
      append_kv(out, "cpu_cost_ms", cp.cpu_cost_ms);
      out += ", ";
      append_kv(out, "cpu_cost_sigma", cp.cpu_cost_sigma);
      out += ", ";
      append_kv(out, "mem_per_item", static_cast<double>(cp.mem_per_item));
      out += ", ";
      out += cp.bursty ? "\"bursty\": true" : "\"bursty\": false";
      out += ", ";
      append_kv(out, "resident_spike_p", cp.resident_spike_p);
      out += "}";
    }
    out += "]\n  }";
  }
  out += "]\n}\n";
  return out;
}

// --- scenario execution --------------------------------------------------

// The generators below re-arm themselves through a shared std::function.
// The function holds only a weak reference to itself; the strong one rides
// in the pending event, so the last event (fired or dropped with the
// simulation) frees the generator instead of leaking a self-cycle.
auto fire(std::shared_ptr<std::function<void()>> tick) {
  return [tick = std::move(tick)] { (*tick)(); };
}

// Steady stream: exponential inter-arrivals. Bursty: the same mean load
// delivered as batches of 10-50 items at exponential batch intervals.
void schedule_arrivals(sim::Simulation& sim, cluster::Container& container,
                       const ContainerPlan& plan,
                       std::shared_ptr<sim::Rng> rng, sim::TimePoint end) {
  const double batch_mean = plan.bursty ? 25.0 : 1.0;
  const double batch_rate = plan.rate_per_s / batch_mean;  // batches per s
  const double mu = std::log(plan.cpu_cost_ms);
  const auto next_gap = [rng, batch_rate] {
    return std::max<sim::Duration>(
        1, static_cast<sim::Duration>(1e6 / batch_rate *
                                      rng->exponential(1.0)));
  };
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [&sim, &container, plan, rng, end, mu, next_gap,
           self = std::weak_ptr(tick)] {
    if (sim.now() > end) return;
    const std::int64_t batch =
        plan.bursty ? rng->uniform_int(10, 50) : 1;
    for (std::int64_t i = 0; i < batch; ++i) {
      const double cost_ms = rng->lognormal(mu, plan.cpu_cost_sigma);
      container.submit(
          std::max<sim::Duration>(
              1, static_cast<sim::Duration>(cost_ms * 1000.0)),
          plan.mem_per_item, [](bool) {});
    }
    sim.schedule_after(next_gap(), fire(self.lock()));
  };
  sim.schedule_after(next_gap(), fire(tick));
}

void schedule_resident_spikes(sim::Simulation& sim,
                              cluster::Container& container,
                              const ContainerPlan& plan,
                              std::shared_ptr<sim::Rng> rng,
                              sim::TimePoint end) {
  if (plan.resident_spike_p <= 0.0) return;
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [&sim, &container, plan, rng, end, self = std::weak_ptr(tick)] {
    if (sim.now() > end) return;
    if (rng->chance(plan.resident_spike_p) && container.running()) {
      // Load or drop a cache: grow residency, shrink it again later.
      const memcg::Bytes spike = rng->uniform_int(8, 64) * memcg::kMiB;
      container.adjust_resident(spike);
      sim.schedule_after(
          sim::seconds(1),
          [&container, spike] {
            if (container.running()) container.adjust_resident(-spike);
          });
    }
    sim.schedule_after(sim::kSecond, fire(self.lock()));
  };
  sim.schedule_after(sim::kSecond, fire(tick));
}

// Background data-plane load for the --bw overlay: a steady attributed
// send_flow stream between two tenant-0 containers, endpoints resolved to
// the owning nodes at send time. Both the sender's egress lane and the
// receiver's ingress lane see the bytes, so the shaper queues, throttle
// telemetry, and the allocator's bandwidth arm all get exercised.
void schedule_bw_traffic(sim::Simulation& sim, net::Network& net,
                         cluster::Cluster& k8s, cluster::ContainerId from,
                         cluster::ContainerId to, double rate_per_s,
                         std::int64_t bytes, std::shared_ptr<sim::Rng> rng,
                         sim::TimePoint end) {
  const auto next_gap = [rng, rate_per_s] {
    return std::max<sim::Duration>(
        1, static_cast<sim::Duration>(1e6 / rate_per_s *
                                      rng->exponential(1.0)));
  };
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [&sim, &net, &k8s, from, to, bytes, next_gap, end,
           self = std::weak_ptr(tick)] {
    if (sim.now() > end) return;
    cluster::Node* src = k8s.node_of(from);
    cluster::Node* dst = k8s.node_of(to);
    if (src != nullptr && dst != nullptr) {
      net.send_flow(net::Channel::kAppData,
                    static_cast<net::EndpointId>(src->id()),
                    static_cast<net::EndpointId>(dst->id()), from, to,
                    static_cast<std::size_t>(bytes), [] {});
    }
    sim.schedule_after(next_gap(), fire(self.lock()));
  };
  sim.schedule_after(next_gap(), fire(tick));
}

// --rt overlay: the admission plan — which tenant-0 containers declare a
// reservation, the (runtime, deadline, period) triple, when the admission
// lands, and whether an operator revokes it later — is pre-drawn from the
// dedicated rt rng before the run starts, so scheduled-callback ordering
// never perturbs the draw sequence and --jobs stays byte-identical.
// Reservations are deliberately conservative (deadline = period, period a
// multiple of 100ms, utilization <= 0.3): the sweep probes whether the
// allocator honors floors it admitted, not whether admission control
// rejects infeasible contracts (the rejection paths get exercised anyway
// when small nodes or small pools run out of RT headroom).
struct RtPlanEntry {
  std::size_t member = 0;        // index into tenant 0's initial containers
  cfs::RtSpec spec;
  sim::TimePoint admit_at = 0;
  sim::TimePoint evict_at = 0;   // 0: reservation held until teardown
};

std::vector<RtPlanEntry> draw_rt_plan(sim::Rng& rng, std::size_t members,
                                      sim::TimePoint end) {
  std::vector<RtPlanEntry> plan;
  for (std::size_t m = 0; m < members; ++m) {
    // Seed-derived subset, at least one container (the greedy attach idiom).
    if (!rng.chance(0.5) && !(plan.empty() && m + 1 == members)) continue;
    RtPlanEntry e;
    e.member = m;
    e.spec.period = sim::milliseconds(100 * rng.uniform_int(1, 5));
    e.spec.deadline = e.spec.period;  // implicit deadlines: floor = util
    e.spec.runtime = std::max<sim::Duration>(
        1, static_cast<sim::Duration>(rng.uniform(0.05, 0.3) *
                                      static_cast<double>(e.spec.period)));
    e.admit_at = rng.uniform_int(sim::milliseconds(50), end / 2);
    if (rng.chance(0.3)) {
      e.evict_at = rng.uniform_int(e.admit_at + e.spec.period, end);
    }
    plan.push_back(e);
  }
  return plan;
}

struct RunOutcome {
  bool violated = false;
  // --greedy non-vacuity accounting, summed across the sweep in main().
  std::uint64_t greedy_attacks = 0;   // forged reports + phantom OOM events
  std::uint64_t credit_charges = 0;
  // --shards non-vacuity accounting: cross-shard borrow grants this run.
  std::uint64_t borrow_grants = 0;
  // --rt non-vacuity accounting: reservations admitted/rejected and
  // deadline misses observed this run (allocator-caused misses are checker
  // violations; these totals report the tenant-caused remainder).
  std::uint64_t rt_admissions = 0;
  std::uint64_t rt_rejections = 0;
  std::uint64_t rt_misses = 0;
  std::string report;
  // Full diagnostic text for a violation (report, scenario JSON, trace
  // tail, replay line), buffered so parallel runs never interleave output:
  // main prints these in seed order.
  std::string failure_text;
  std::uint64_t events = 0;
  std::uint64_t sweeps = 0;
};

std::string trace_tail_to_string(const obs::TraceBuffer& trace,
                                 std::size_t tail) {
  const std::size_t n = std::min(tail, trace.size());
  char buf[256];
  std::snprintf(buf, sizeof(buf), "last %zu trace events:\n", n);
  std::string out = buf;
  for (std::size_t i = trace.size() - n; i < trace.size(); ++i) {
    const obs::TraceEvent& e = trace.at(i);
    std::snprintf(buf, sizeof(buf),
                  "  #%" PRIu64 " t=%" PRId64 "us %-20s c=%u n=%u "
                  "before=%.6g after=%.6g cause=%" PRIu64 " detail=%" PRId64
                  "\n",
                  e.id, e.time, obs::event_kind_name(e.kind), e.container,
                  e.node, e.before, e.after, e.cause, e.detail);
    out += buf;
  }
  return out;
}

// The control-plane topology a scenario runs under. By default every tenant
// plan gets its own EscraSystem, observer and InvariantChecker. With
// --shards N the same scenario — same cluster, same container plans, same
// workload rng draws in the same order — runs under one
// shard::ShardedControlPlane over the summed tenant pools instead, with
// each tenant plan managed as one application ("t0", "t1", ...) routed to
// its shard by consistent hashing. Every shard gets its own observer and
// InvariantChecker (network counter rules stay dormant: net metrics are
// global, not per shard), and the cross-shard conservation checker sweeps
// the borrow protocol's pool identity through the whole run. Tenant-level
// Escra tunables collapse to tenant 0's config: the plane runs one
// EscraConfig for all shards. run_scenario builds and drives everything
// else the same way under both; it asks the topology only what follows.
class ControlPlane {
 public:
  ControlPlane(const Scenario& s, sim::Simulation& sim, net::Network& net,
               cluster::Cluster& k8s)
      : sim_(sim), net_(net), k8s_(k8s) {
    if (s.shards == 0) return;
    double total_cpu = 0.0;
    memcg::Bytes total_mem = 0;
    for (const TenantPlan& tp : s.tenants) {
      total_cpu += tp.global_cpu;
      total_mem += tp.global_mem;
    }
    shard::ShardPlaneConfig pcfg;
    pcfg.shards = s.shards;
    pcfg.escra = s.tenants.front().cfg;
    plane_.emplace(sim, net, k8s, total_cpu, total_mem, pcfg);
    // Attached before manage(), so registration events land in the trace.
    for (int sh = 0; sh < s.shards; ++sh) {
      observers_.push_back(std::make_unique<obs::Observer>());
      plane_->attach_observer(sh, *observers_.back());
    }
  }
  // Scheduled callbacks hold its address.
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Before tenant t's containers exist: its own system and observer (tenant
  // 0's observer also carries the network counters). The plane has both
  // already.
  void open_tenant(std::size_t t, const TenantPlan& tp,
                   const core::EscraConfig& cfg) {
    if (plane_) return;
    systems_.push_back(std::make_unique<core::EscraSystem>(
        sim_, net_, k8s_, tp.global_cpu, tp.global_mem, cfg));
    observers_.push_back(std::make_unique<obs::Observer>());
    systems_.back()->attach_observer(*observers_.back());
    if (t == 0) net_.attach_metrics(observers_.back()->metrics());
  }

  // Tenant t's initial containers. A tenant's own system starts at once and
  // is checked from then on; the plane starts in start().
  void manage(std::size_t t, const std::vector<cluster::Container*>& members) {
    if (plane_) {
      plane_->manage(app_name(t), members);
      return;
    }
    core::EscraSystem& escra = *systems_[t];
    escra.manage(members);
    escra.start();
    checkers_.push_back(
        std::make_unique<check::InvariantChecker>(escra, net_, *observers_[t]));
  }

  // A pod created mid-run, as the Container Watcher would deliver it. Under
  // the plane, re-managing the same application pins the late joiner to the
  // owning shard's controller.
  void adopt(std::size_t t, cluster::Container& late) {
    if (plane_) {
      plane_->manage(app_name(t), {&late});
    } else {
      systems_[t]->adopt(late);
    }
  }

  // After every tenant is managed: the plane starts, and each shard gets
  // its checker plus the cross-shard one.
  void start() {
    if (!plane_) return;
    plane_->start();
    for (int sh = 0; sh < plane_->shard_count(); ++sh) {
      checkers_.push_back(std::make_unique<check::InvariantChecker>(
          plane_->shard(sh), net_, *observers_[sh]));
    }
    shard_checker_.emplace(*plane_);
  }

  // RT reservations go to tenant 0's controller, or through the plane so
  // each debits its owning shard's base slice. A crashed leader or an
  // unknown id degrades to a counted rejection, never a fault.
  void admit_rt(cluster::ContainerId id, const cfs::RtSpec& spec) {
    if (plane_) {
      plane_->admit_rt(id, spec);
    } else {
      systems_.front()->controller().admit_rt(id, spec);
    }
  }
  void evict_rt(cluster::ContainerId id) {
    if (!plane_) {
      systems_.front()->controller().evict_rt(id, /*reason=*/2);
    } else if (const int sh = plane_->shard_of_container(id); sh >= 0) {
      plane_->shard(sh).controller().evict_rt(id, /*reason=*/2);
    }
  }

  // Warm standbys on tenant 0, or per shard on disjoint endpoint bands.
  // Called after start(), so the bootstrap snapshots cover every
  // registered container.
  void enable_ha(int standbys) {
    if (plane_) {
      plane_->enable_ha(standbys);
      return;
    }
    ha::HaConfig cfg;
    cfg.standbys = standbys;
    ha_.emplace(*systems_.front(), net_, cfg);
    ha_->start();
  }

  // The control plane crash faults hit: tenant 0's, or shard 0's.
  core::EscraSystem& fault_target() {
    return plane_ ? plane_->shard(0) : *systems_.front();
  }
  // The CPU pool a planted over-grant must exceed.
  double cpu_limit() {
    return plane_ ? plane_->cluster_cpu_limit()
                  : systems_.front()->app().cpu_limit();
  }

  // Tenant t's own system, observer and checker. Only the per-tenant
  // topology has them: --shards rejects the overlays that ask.
  core::EscraSystem& tenant(std::size_t t) { return *systems_[t]; }
  obs::Observer& observer(std::size_t t) { return *observers_[t]; }
  check::InvariantChecker& checker(std::size_t t) { return *checkers_[t]; }

  // After the run: the counters the sweep totals, summed over every
  // observer, and every checker's final sweep.
  void collect(RunOutcome& outcome) {
    for (const auto& o : observers_) {
      outcome.credit_charges += o->h.credit_charges->value();
      outcome.rt_admissions += o->h.rt_admitted->value();
      outcome.rt_rejections += o->h.rt_rejected->value();
      outcome.rt_misses += o->h.deadline_misses->value();
    }
    for (const auto& c : checkers_) {
      c->check_now();
      outcome.events += c->events_checked();
      outcome.sweeps += c->sweeps();
      if (!c->ok()) {
        outcome.violated = true;
        outcome.report += c->report();
      }
    }
    if (!plane_) return;
    outcome.borrow_grants = plane_->borrows_granted();
    shard_checker_->check_now();
    outcome.sweeps += shard_checker_->sweeps();
    if (!shard_checker_->ok()) {
      outcome.violated = true;
      outcome.report += shard_checker_->report();
    }
  }

  // The trace tails behind a violation: tenant 0's, or every shard's, since
  // each shard records its own decisions.
  std::string trace_tails(std::size_t tail) const {
    if (!plane_) return trace_tail_to_string(observers_.front()->trace(), tail);
    std::string out;
    for (std::size_t sh = 0; sh < observers_.size(); ++sh) {
      out += "shard " + std::to_string(sh) + " ";
      out += trace_tail_to_string(observers_[sh]->trace(), tail);
    }
    return out;
  }

 private:
  static std::string app_name(std::size_t t) { return "t" + std::to_string(t); }

  sim::Simulation& sim_;
  net::Network& net_;
  cluster::Cluster& k8s_;
  // Destroyed bottom-up: the standbys and checkers go first, then the plane
  // and the systems, and the observers they record into last.
  std::vector<std::unique_ptr<obs::Observer>> observers_;
  std::vector<std::unique_ptr<core::EscraSystem>> systems_;
  std::optional<shard::ShardedControlPlane> plane_;
  std::vector<std::unique_ptr<check::InvariantChecker>> checkers_;
  std::optional<check::ShardInvariantChecker> shard_checker_;
  std::optional<ha::HaControlPlane> ha_;
};

RunOutcome run_scenario(const Scenario& s, bool force_overgrant,
                        std::size_t trace_tail) {
  sim::Rng root(s.seed ^ 0x9e3779b97f4a7c15ULL);  // workload stream
  sim::Simulation simulation;
  net::Network network(simulation);
  cluster::Cluster k8s(simulation);
  for (int n = 0; n < s.nodes; ++n) {
    k8s.add_node(cluster::NodeConfig{.cores = s.cores_per_node});
  }
  if (s.loss_rate > 0.0) network.set_loss(s.loss_rate, root.fork());
  // No jitter: reordered control RPCs would legitimately break the
  // conservation invariants the checker enforces (FIFO per channel is part
  // of the modelled transport contract).

  // Bandwidth overlay: drawn from a dedicated stream (like the fault
  // schedule) so the scenario itself is byte-identical without --bw. The
  // NIC is sized generously against the per-container grant floor, so a
  // clean exit means conservation held because the controller enforced it,
  // not because the floor was unsatisfiable. Declared before the control
  // plane so the shaper outlives the controllers that reference it.
  std::optional<sim::Rng> bw_rng;
  std::optional<bw::ClusterShaper> shaper;
  double bw_global = 0.0;
  if (s.bw) {
    bw_rng.emplace(s.seed ^ 0xb3a4d71dc0deULL);
    const double nic_bps =
        static_cast<double>(bw_rng->uniform_int(25, 100)) * 1.0e6;
    bw_global = bw_rng->uniform(5.0e6, 0.5 * s.nodes * nic_bps);
    shaper.emplace(simulation);
    for (int n = 0; n < s.nodes; ++n) {
      shaper->add_node(static_cast<std::uint32_t>(n), nic_bps);
    }
    network.set_shaper(&*shaper);
  }

  ControlPlane plane(s, simulation, network, k8s);
  // Adversarial overlay: drawn from a dedicated stream (like --bw and the
  // fault schedule) so the scenario itself is byte-identical without
  // --greedy. The tenant object is built after tenant 0 starts (it needs the
  // live Controller) and destroyed before the control plane and the cluster
  // (its teardown restores truthful telemetry on the containers it forged).
  std::optional<sim::Rng> greedy_rng;
  std::optional<workload::GreedyTenant> greedy;
  if (s.greedy) greedy_rng.emplace(s.seed ^ 0x64eed7c0deULL);
  const sim::TimePoint end = sim::seconds_f(s.duration_s);
  std::vector<cluster::ContainerId> rt_candidates;

  for (std::size_t t = 0; t < s.tenants.size(); ++t) {
    const TenantPlan& tp = s.tenants[t];
    core::EscraConfig cfg = tp.cfg;
    // The adversarial overlay fights a defended control plane: the point of
    // the sweep is that the credit machinery holds its invariants under
    // arbitrary scenarios, not that lying is profitable.
    if (s.greedy && t == 0) cfg.credit_defense = true;
    if (s.bw && t == 0) {
      // Tenant 0 runs the bandwidth arm; its tunables come from the
      // dedicated bw stream so the base config draws stay untouched.
      cfg.bw_kappa = bw_rng->uniform(0.4, 1.0);
      cfg.bw_gamma = bw_rng->uniform(0.5e6, 4.0e6);
      cfg.bw_upsilon = static_cast<double>(bw_rng->uniform_int(5, 40));
    }
    plane.open_tenant(t, tp, cfg);
    if (s.bw && t == 0) {
      shaper->set_observer(&plane.observer(0));
      plane.tenant(0).enable_bandwidth(*shaper, bw_global);
    }

    std::vector<cluster::Container*> members;
    for (std::size_t c = 0; c < tp.containers.size(); ++c) {
      const ContainerPlan& cp = tp.containers[c];
      cluster::ContainerSpec spec;
      spec.name = "t" + std::to_string(t) + "-c" + std::to_string(c);
      spec.max_parallelism = cp.parallelism;
      spec.base_memory = cp.base_mem;
      spec.startup_cpu = sim::milliseconds(cp.startup_cpu_ms);
      cluster::Container& container =
          k8s.create_container(spec, 1.0, 256 * memcg::kMiB);
      members.push_back(&container);
      if (t == 0) rt_candidates.push_back(container.id());
      auto rng = std::make_shared<sim::Rng>(root.fork());
      schedule_arrivals(simulation, container, cp, rng, end);
      schedule_resident_spikes(simulation, container, cp,
                               std::make_shared<sim::Rng>(root.fork()), end);
    }
    plane.manage(t, members);

    if (s.bw && t == 0) {
      plane.checker(0).attach_bw(*shaper);
      // Ring of attributed streams: container i pushes to container i+1,
      // so every shaped container carries egress and ingress load.
      for (std::size_t c = 0; c < members.size(); ++c) {
        schedule_bw_traffic(
            simulation, network, k8s, members[c]->id(),
            members[(c + 1) % members.size()]->id(),
            bw_rng->uniform(20.0, 120.0), bw_rng->uniform_int(2, 48) * 1024,
            std::make_shared<sim::Rng>(bw_rng->fork()), end);
      }
    }

    if (s.greedy && t == 0) {
      core::Controller& controller = plane.tenant(0).controller();
      plane.checker(0).attach_credits(controller.credits());
      workload::GreedyProfile gp;
      gp.strategy = static_cast<workload::GreedyStrategy>(
          greedy_rng->uniform_int(0, 3));
      gp.lie_fraction = greedy_rng->uniform(0.5, 1.0);
      gp.impossible_fraction =
          greedy_rng->chance(0.4) ? greedy_rng->uniform(0.05, 0.5) : 0.0;
      gp.phantom_interval =
          sim::milliseconds(greedy_rng->uniform_int(100, 600));
      gp.phantom_shortfall = greedy_rng->uniform_int(2, 32) * memcg::kMiB;
      gp.rotate_interval =
          sim::milliseconds(greedy_rng->uniform_int(300, 1500));
      greedy.emplace(simulation, controller, gp, greedy_rng->fork());
      // Colluders need the whole pool of accomplices; the other strategies
      // corrupt a seed-derived subset (at least one container).
      bool any = false;
      for (std::size_t c = 0; c < members.size(); ++c) {
        if (gp.strategy == workload::GreedyStrategy::kColluding ||
            greedy_rng->chance(0.5) || (!any && c + 1 == members.size())) {
          greedy->attach(*members[c]);
          any = true;
        }
      }
      greedy->start(sim::milliseconds(200));
    }

    if (tp.late_joiner) {
      // A pod created mid-run and adopted: it draws late-join defaults from
      // whatever the pool still holds.
      ControlPlane* plane_ptr = &plane;
      cluster::Cluster* cluster = &k8s;
      sim::Simulation* sim_ptr = &simulation;
      const std::string name = "t" + std::to_string(t) + "-late";
      ContainerPlan cp = tp.containers.front();
      auto rng = std::make_shared<sim::Rng>(root.fork());
      simulation.schedule_at(
          end / 2, [plane_ptr, cluster, sim_ptr, t, name, cp, rng, end] {
            cluster::ContainerSpec spec;
            spec.name = name;
            spec.max_parallelism = cp.parallelism;
            spec.base_memory = cp.base_mem;
            cluster::Container& late =
                cluster->create_container(spec, 0.5, 128 * memcg::kMiB);
            plane_ptr->adopt(t, late);
            schedule_arrivals(*sim_ptr, late, cp, rng, end);
          });
    }
  }
  // Same-instant events fire in the order they were scheduled, so each step
  // keeps its place: a tenant's own system started inside the loop, the
  // plane starts once after it, and the overlays below come after both.
  plane.start();

  // Real-time overlay: the pre-drawn admission plan against tenant 0's
  // containers. Admissions land mid-run, after the checkers are armed, so
  // every kRtAdmitted/kRtEvicted rides the trace and the never-reclaim
  // floor is enforced from the first decision.
  if (s.rt) {
    sim::Rng rt_rng(s.seed ^ 0xdead11e5c0deULL);
    ControlPlane* plane_ptr = &plane;
    for (const RtPlanEntry& e : draw_rt_plan(rt_rng, rt_candidates.size(),
                                             end)) {
      const cluster::ContainerId id = rt_candidates[e.member];
      const cfs::RtSpec spec = e.spec;
      simulation.schedule_at(e.admit_at, [plane_ptr, id, spec] {
        plane_ptr->admit_rt(id, spec);
      });
      if (e.evict_at > 0) {
        simulation.schedule_at(e.evict_at,
                               [plane_ptr, id] { plane_ptr->evict_rt(id); });
      }
    }
  }

  if (s.standbys > 0) plane.enable_ha(s.standbys);

  // Fault overlay: a deterministic schedule drawn from a seed-derived rng
  // *after* all scenario draws (a dedicated stream, so scenarios stay
  // byte-identical without it). Partitions act network-wide; crash faults
  // target tenant 0's control plane (shard 0's under --shards), whose
  // observer records the windows.
  std::optional<fault::FaultInjector> injector;
  if (s.fault_profile) {
    network.set_fault_rng(sim::Rng(s.seed ^ 0x5eedf417c0deULL));
    injector.emplace(simulation, network, plane.fault_target());
    sim::Rng fault_rng(s.seed ^ 0xfa017a5c4ed01eULL);
    injector->schedule_random(fault_rng, end,
                              s.leader_churn
                                  ? fault::FaultInjector::leader_churn_profile()
                                  : fault::FaultInjector::Profile{},
                              s.nodes);
  }

  if (force_overgrant) {
    // Planted violation: write a CPU limit past the whole pool straight into
    // a cgroup, bypassing the allocator and the Distributed Container pool —
    // the over-commit Escra must never produce, so some checker must flag it
    // whichever tenant or shard owns the container. Planted mid-period so
    // the next sweep (at the period boundary) sees it before any corrective
    // RPC.
    ControlPlane* plane_ptr = &plane;
    cluster::Cluster* cluster = &k8s;
    simulation.schedule_at(
        end / 2 + sim::milliseconds(50), [plane_ptr, cluster] {
          cluster::Container* victim = cluster->containers().front();
          victim->cpu_cgroup().set_limit_cores(plane_ptr->cpu_limit() * 2.0 +
                                               4.0);
        });
  }

  simulation.run_until(end);

  RunOutcome outcome;
  if (greedy) {
    outcome.greedy_attacks = greedy->lies_told() + greedy->phantom_ooms();
  }
  plane.collect(outcome);
  if (outcome.violated) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "seed %" PRIu64 ": INVARIANT VIOLATION\n",
                  s.seed);
    outcome.failure_text = buf;
    outcome.failure_text += outcome.report;
    outcome.failure_text += "scenario config:\n";
    outcome.failure_text += to_json(s);
    outcome.failure_text += plane.trace_tails(trace_tail);
    char shard_flags[32] = "";
    if (s.shards > 0) {
      std::snprintf(shard_flags, sizeof(shard_flags), " --shards %d",
                    s.shards);
    }
    char standby_flags[48] = "";
    if (s.standbys > 0) {
      std::snprintf(standby_flags, sizeof(standby_flags), " --standbys %d%s",
                    s.standbys, s.leader_churn ? " --leader-churn" : "");
    }
    std::snprintf(buf, sizeof(buf),
                  "replay: escra-fuzz --seed %" PRIu64
                  " --runs 1%s%s%s%s%s%s%s\n",
                  s.seed, shard_flags,
                  s.fault_profile && !s.leader_churn ? " --fault-profile" : "",
                  standby_flags, s.bw ? " --bw" : "",
                  s.greedy ? " --greedy" : "", s.rt ? " --rt" : "",
                  force_overgrant ? " --force-overgrant" : "");
    outcome.failure_text += buf;
  }
  return outcome;
}

// Resident set size in KiB, from /proc/self/statm (Linux).
long current_rss_kib() {
  std::ifstream statm("/proc/self/statm");
  long total_pages = 0, resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return -1;
  const long page_bytes = sysconf(_SC_PAGESIZE);
  return resident_pages * (page_bytes > 0 ? page_bytes : 4096) / 1024;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    const auto parsed = parse_args(argc, argv);
    if (!parsed.has_value()) {
      usage();
      return 2;
    }
    opts = *parsed;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }

  if (opts.leader_churn && opts.standbys < 1) {
    std::fprintf(stderr,
                 "error: --leader-churn requires --standbys >= 1 (a killed "
                 "leader never restarts; only a standby takes the seat)\n");
    return 2;
  }

  // Overlay conflicts are rejected up front, and the error names the exact
  // conflicting pair (not the whole compatibility matrix): a CI log line
  // must say which two flags fought, so the fix is obvious from the message
  // alone. First active pair wins when several flags conflict at once.
  struct Conflict {
    bool active;
    const char* a;
    const char* b;
    const char* why;
  };
  const Conflict conflicts[] = {
      {opts.shards > 0 && opts.bw, "--shards", "--bw",
       "the bandwidth plane is a per-tenant overlay and is not supported "
       "under sharding"},
      {opts.shards > 0 && opts.greedy, "--shards", "--greedy",
       "the adversarial tenant is a per-tenant overlay and is not supported "
       "under sharding"},
  };
  for (const Conflict& c : conflicts) {
    if (c.active) {
      std::fprintf(stderr, "error: %s conflicts with %s (%s)\n", c.a, c.b,
                   c.why);
      return 2;
    }
  }

  if (!opts.repro_out.empty()) {
    // The first run's scenario is written up front (generation is a pure
    // function of the seed, so no need to wait for the run itself).
    std::ofstream out(opts.repro_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", opts.repro_out.c_str());
      return 2;
    }
    out << to_json(scenario_for(opts, opts.seed));
    if (!opts.quiet) {
      std::printf("scenario for seed %" PRIu64 " written to %s\n", opts.seed,
                  opts.repro_out.c_str());
    }
  }

  // RSS flatness needs one run at a time and a stable warmup point, so the
  // check pins the sweep to a single worker.
  const int jobs = opts.rss_check ? 1 : opts.jobs;
  constexpr std::uint64_t kRssWarmupRuns = 5;
  long rss_baseline_kib = -1;

  const std::vector<RunOutcome> outcomes =
      sweep::parallel_map<RunOutcome>(opts.runs, jobs, [&](std::size_t i) {
        RunOutcome outcome =
            run_scenario(scenario_for(opts, opts.seed + i),  // wrapping is fine
                         opts.force_overgrant, opts.trace_tail);
        if (opts.rss_check && i + 1 == kRssWarmupRuns) {
          rss_baseline_kib = current_rss_kib();
        }
        return outcome;
      });

  // Aggregate in seed order: totals, progress lines, and failure output are
  // identical regardless of the job count.
  std::uint64_t violations = 0;
  std::uint64_t total_events = 0;
  std::uint64_t total_sweeps = 0;
  std::uint64_t total_attacks = 0;
  std::uint64_t total_charges = 0;
  std::uint64_t total_grants = 0;
  std::uint64_t total_rt_admissions = 0;
  std::uint64_t total_rt_rejections = 0;
  std::uint64_t total_rt_misses = 0;
  bool wrote_violation_repro = false;
  for (std::uint64_t i = 0; i < opts.runs; ++i) {
    const RunOutcome& outcome = outcomes[i];
    total_events += outcome.events;
    total_sweeps += outcome.sweeps;
    total_attacks += outcome.greedy_attacks;
    total_charges += outcome.credit_charges;
    total_grants += outcome.borrow_grants;
    total_rt_admissions += outcome.rt_admissions;
    total_rt_rejections += outcome.rt_rejections;
    total_rt_misses += outcome.rt_misses;
    if (outcome.violated) {
      ++violations;
      std::fputs(outcome.failure_text.c_str(), stderr);
      // The first violating run's scenario takes over the repro file: CI
      // uploads it as the repro artifact.
      if (!opts.repro_out.empty() && !wrote_violation_repro) {
        std::ofstream out(opts.repro_out);
        if (out) {
          out << to_json(scenario_for(opts, opts.seed + i));
          wrote_violation_repro = true;
          std::fprintf(stderr,
                       "violating scenario (seed %" PRIu64 ") written to %s\n",
                       opts.seed + i, opts.repro_out.c_str());
        }
      }
    }
    if (!opts.quiet && (i + 1) % 100 == 0) {
      std::printf("%" PRIu64 "/%" PRIu64 " runs, %" PRIu64 " violation(s)\n",
                  i + 1, opts.runs, violations);
    }
  }
  std::printf("escra-fuzz: %" PRIu64 " run(s), %" PRIu64
              " decision event(s) checked, %" PRIu64 " sweep(s), %" PRIu64
              " violation(s)\n",
              opts.runs, total_events, total_sweeps, violations);

  if (opts.greedy) {
    // Non-vacuity: a sweep where no telemetry was forged, or where the
    // forging never cost anybody a credit, proves nothing about the credit
    // invariants — fail loudly rather than report a hollow pass.
    std::printf("escra-fuzz: greedy overlay: %" PRIu64
                " forged/phantom event(s), %" PRIu64 " credit charge(s)\n",
                total_attacks, total_charges);
    if (total_attacks == 0 || total_charges == 0) {
      std::fprintf(stderr,
                   "escra-fuzz: VACUOUS GREEDY SWEEP (%" PRIu64
                   " attacks, %" PRIu64 " charges)\n",
                   total_attacks, total_charges);
      return 1;
    }
  }

  if (opts.rt) {
    // Non-vacuity: a sweep where admission control never admitted a single
    // reservation proves nothing about the never-reclaim floors or the
    // deadline guarantees — fail loudly rather than report a hollow pass.
    // Allocator-caused misses are checker violations (rt-allocator-miss),
    // so a clean sweep already implies zero of them; the misses printed
    // here are the tenant-caused remainder (overrun, RPC loss), which the
    // guarantee explicitly permits.
    std::printf("escra-fuzz: rt overlay: %" PRIu64 " admission(s), %" PRIu64
                " rejection(s), %" PRIu64 " deadline miss(es)\n",
                total_rt_admissions, total_rt_rejections, total_rt_misses);
    if (total_rt_admissions == 0) {
      std::fprintf(stderr, "escra-fuzz: VACUOUS RT SWEEP (0 reservations "
                           "admitted across all runs)\n");
      return 1;
    }
  }

  if (opts.shards > 0) {
    // Non-vacuity (N >= 2): a sweep where no shard ever ran dry enough to
    // borrow, or no lender ever granted, proves nothing about the borrow
    // protocol's conservation story — fail loudly rather than report a
    // hollow pass. (Scenarios draw at most 2 tenants, so with N >= 2 at
    // least one shard hosts no app and sits on a fully lendable slice
    // while the app-hosting shards start fully allocated.)
    std::printf("escra-fuzz: shard overlay: %d shard(s), %" PRIu64
                " cross-shard borrow grant(s)\n",
                opts.shards, total_grants);
    if (opts.shards >= 2 && total_grants == 0) {
      std::fprintf(stderr, "escra-fuzz: VACUOUS SHARD SWEEP (0 borrow "
                           "grants across all runs)\n");
      return 1;
    }
  }

  if (opts.rss_check) {
    // Flat-footprint guard: every run frees its Simulation (node pool,
    // batches, callbacks), so after a short allocator warmup the resident
    // set must stop growing. A leak in the engine's recycling shows up here
    // as monotonic growth across the sweep.
    const long rss_final_kib = current_rss_kib();
    constexpr long kSlackKib = 8 * 1024;
    std::printf("escra-fuzz: rss after warmup %ld KiB, after all runs %ld "
                "KiB (slack %ld KiB)\n",
                rss_baseline_kib, rss_final_kib, kSlackKib);
    if (rss_baseline_kib < 0 || rss_final_kib < 0) {
      std::fprintf(stderr, "error: could not read /proc/self/statm\n");
      return 2;
    }
    if (opts.runs <= kRssWarmupRuns) {
      std::fprintf(stderr, "error: --rss-check needs --runs > %" PRIu64 "\n",
                   kRssWarmupRuns);
      return 2;
    }
    if (rss_final_kib > rss_baseline_kib + kSlackKib) {
      std::fprintf(stderr,
                   "escra-fuzz: RSS GREW %ld KiB across the sweep (limit %ld)\n",
                   rss_final_kib - rss_baseline_kib, kSlackKib);
      return 1;
    }
  }
  return violations == 0 ? 0 : 1;
}
