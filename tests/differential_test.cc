// Differential tests.
//
// 1) Against the static baseline: for a workload that never triggers a
//    control event (no throttling, unused runtime below gamma, no OOMs, no
//    reclaimable slack), Escra must behave exactly like static allocation —
//    the Eq. 1-2 initial limits are the final limits, and the allocator
//    makes zero decisions. Any drift here means Escra acts without an
//    event, contradicting the paper's event-driven design.
//
// 2) The canonical 64-node / 256-container scenario (bench/sim_throughput's
//    e2e case) under faults (2% RPC loss, leader failover mid-batch): the
//    coalesced per-node limit RPCs must stay exactly reproducible
//    run-to-run, keep every invariant green, and end converged.
//
// 3) Sharded vs single controller: a ShardedControlPlane at --shards 1 is
//    the same EscraSystem behind a router, so its decision stream must be
//    *byte-identical* to the unsharded controller on the canonical
//    scenario. Multi-shard runs cannot match the single controller decision
//    for decision (each shard allocates from its slice), but must be
//    byte-identical run-to-run and keep cross-shard pool conservation
//    green.
//
// 4) Across commits: FNV-1a digests of two canonical raw traces (clean, and
//    2% RPC loss with a leader failover) are pinned to constants, so a
//    refactor that claims to keep behaviour can prove it byte for byte; the
//    clean run must also coalesce a node's per-period updates. The request
//    path (application graph, container queues, node scheduler) is
//    pinned the same way through exp::run_microservice results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/static_policy.h"
#include "check/invariant_checker.h"
#include "check/shard_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "exp/microservice.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "shard/sharded_control_plane.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace escra {
namespace {

using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

// 2 containers, Eq. 1 gives 2.0 / 2 = 1.0 core each; Eq. 2 gives
// 640 MiB * (1 - sigma 0.2) / 2 = 256 MiB each.
constexpr double kGlobalCpu = 2.0;
constexpr memcg::Bytes kGlobalMem = 640 * kMiB;
constexpr double kExpectedCores = 1.0;
constexpr memcg::Bytes kExpectedMem = 256 * kMiB;

// Base memory keeps every limit within usage + delta (210 + 50 >= 256 MiB),
// so periodic reclamation has nothing to take.
constexpr memcg::Bytes kBaseMem = 210 * kMiB;

struct Rig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  std::vector<cluster::Container*> containers;

  Rig() {
    k8s.add_node({.cores = 8.0});
    for (int i = 0; i < 2; ++i) {
      cluster::ContainerSpec spec;
      spec.name = "svc" + std::to_string(i);
      spec.base_memory = kBaseMem;
      spec.max_parallelism = 4.0;
      containers.push_back(&k8s.create_container(spec, 1.0, 256 * kMiB));
    }
  }

  // A 9 ms item every 10 ms from t = 1 ms: 90% utilization in every CFS
  // period — never throttled (no scale-up event), unused 0.1 core below the
  // default gamma 0.2 (no scale-down event), zero memory per item.
  void drive_steady() {
    for (cluster::Container* c : containers) {
      sim.schedule_every(milliseconds(1), milliseconds(10), [c] {
        c->submit(milliseconds(9), 0, [](bool) {});
      });
    }
  }
};

TEST(DifferentialTest, EventFreeWorkloadMatchesStaticBaseline) {
  Rig escra_rig;
  core::EscraSystem escra(escra_rig.sim, escra_rig.net, escra_rig.k8s,
                          kGlobalCpu, kGlobalMem);
  obs::Observer observer;
  escra.attach_observer(observer);
  escra.manage(escra_rig.containers);
  escra.start();
  escra_rig.drive_steady();
  escra_rig.sim.run_until(seconds(5));

  Rig static_rig;
  baselines::StaticPolicy policy(
      static_rig.containers,
      {{kExpectedCores, kExpectedMem}, {kExpectedCores, kExpectedMem}},
      /*multiplier=*/1.0);
  policy.start();
  static_rig.drive_steady();
  static_rig.sim.run_until(seconds(5));

  // Final limits agree exactly: Escra never moved off the Eq. 1-2 values.
  for (std::size_t i = 0; i < escra_rig.containers.size(); ++i) {
    EXPECT_DOUBLE_EQ(escra_rig.containers[i]->cpu_cgroup().limit_cores(),
                     static_rig.containers[i]->cpu_cgroup().limit_cores());
    EXPECT_EQ(escra_rig.containers[i]->mem_cgroup().limit(),
              static_rig.containers[i]->mem_cgroup().limit());
    EXPECT_DOUBLE_EQ(escra_rig.containers[i]->cpu_cgroup().limit_cores(),
                     kExpectedCores);
    EXPECT_EQ(escra_rig.containers[i]->mem_cgroup().limit(), kExpectedMem);
  }

  // And the allocator was a strict no-op: no grants, shrinks, OOM rescues,
  // or reclaimed bytes — only the two registrations hit the trace.
  EXPECT_EQ(observer.h.cpu_grants->value(), 0u);
  EXPECT_EQ(observer.h.cpu_shrinks->value(), 0u);
  EXPECT_EQ(observer.h.mem_grants->value(), 0u);
  EXPECT_EQ(observer.h.reclaim_bytes->value(), 0u);
  EXPECT_EQ(observer.h.oom_events->value(), 0u);
  EXPECT_EQ(observer.h.registrations->value(), 2u);

  // The workload itself behaved identically under both policies.
  for (cluster::Container* c : escra_rig.containers) {
    EXPECT_EQ(c->oom_kill_count(), 0u);
  }
  for (cluster::Container* c : static_rig.containers) {
    EXPECT_EQ(c->oom_kill_count(), 0u);
  }
}

// --- the canonical scenario ------------------------------------------------

struct CanonicalOptions {
  double rpc_drop = 0.0;
  bool failover = false;  // kill the leader mid-batch at t = 1 s
  int shards = 0;         // 0 = bare EscraSystem, >=1 = ShardedControlPlane
  int apps = 1;           // contiguous app groups (sharded runs only)
};

struct CanonicalRun {
  std::vector<std::tuple<sim::TimePoint, int, std::uint32_t, std::uint32_t,
                         double, double, std::int64_t>>
      canonical_trace;  // (time, kind, container, node, before, after, detail)
  std::string filtered_metrics;
  std::string raw_trace;  // for run-to-run byte equality
  std::vector<double> cpu_limits;
  std::vector<memcg::Bytes> mem_limits;
  bool checker_ok = false;
  std::string checker_report;
  std::uint64_t retransmits = 0;
  std::uint64_t batched_rpcs = 0;
  std::uint64_t batch_entries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t borrow_grants = 0;
  std::size_t registered = 0;
};

// The canonical 64-node, 256-container cluster from bench/sim_throughput's
// e2e case (shortened to 2 simulated seconds), with observer + invariant
// checker attached.
CanonicalRun run_canonical(const CanonicalOptions& opt) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  constexpr int kNodes = 64;
  constexpr int kContainersPerNode = 4;
  for (int n = 0; n < kNodes; ++n) {
    k8s.add_node(cluster::NodeConfig{.cores = 20.0});
  }
  core::EscraConfig cfg;
  // Either one bare EscraSystem or a ShardedControlPlane over the identical
  // pool — built in the same order so `--shards 1` replays the exact event
  // schedule of the unsharded controller.
  std::optional<core::EscraSystem> bare;
  std::optional<shard::ShardedControlPlane> plane;
  if (opt.shards == 0) {
    bare.emplace(sim, network, k8s, 512.0, 256LL * memcg::kGiB, cfg);
  } else {
    shard::ShardPlaneConfig pcfg;
    pcfg.shards = opt.shards;
    pcfg.escra = cfg;
    plane.emplace(sim, network, k8s, 512.0, 256LL * memcg::kGiB, pcfg);
  }
  const int observer_count = opt.shards == 0 ? 1 : opt.shards;
  std::vector<std::unique_ptr<obs::Observer>> observers;
  for (int s = 0; s < observer_count; ++s) {
    observers.push_back(std::make_unique<obs::Observer>(
        obs::Observer::Config{.trace_capacity = 1 << 20}));
  }
  obs::Observer& observer = *observers[0];
  if (bare) {
    bare->attach_observer(observer);
  } else {
    for (int s = 0; s < opt.shards; ++s) {
      plane->attach_observer(s, *observers[s]);
    }
  }
  // Net metrics live on observer 0 only; the other shards' checkers skip the
  // net-consistency rules (their registries have no net.* counters).
  network.attach_metrics(observer.metrics());
  std::vector<std::unique_ptr<check::InvariantChecker>> checkers;
  if (bare) {
    checkers.push_back(
        std::make_unique<check::InvariantChecker>(*bare, network, observer));
  } else {
    for (int s = 0; s < opt.shards; ++s) {
      checkers.push_back(std::make_unique<check::InvariantChecker>(
          plane->shard(s), network, *observers[s]));
    }
  }
  std::optional<check::ShardInvariantChecker> shard_checker;
  if (plane) shard_checker.emplace(*plane);

  if (opt.rpc_drop > 0.0) {
    network.set_fault_rng(sim::Rng(0xbe4cfULL));
    network.set_drop_rate(net::Channel::kControlRpc, opt.rpc_drop);
  }

  sim::Rng root(0xe5c7a64ULL);
  std::vector<cluster::Container*> members;
  for (int c = 0; c < kNodes * kContainersPerNode; ++c) {
    cluster::ContainerSpec spec;
    spec.name = "c" + std::to_string(c);
    spec.max_parallelism = 4.0;
    spec.base_memory = 64 * memcg::kMiB;
    members.push_back(&k8s.create_container(spec, 1.0, 256 * memcg::kMiB));
  }
  if (bare) {
    bare->manage(members);
    bare->start();
  } else {
    // Contiguous app groups; apps == 1 keeps the whole cluster in one app,
    // which at shards == 1 routes everything to shard 0's full-pool slice.
    const int apps = std::max(1, opt.apps);
    const std::size_t per = members.size() / apps;
    for (int a = 0; a < apps; ++a) {
      std::vector<cluster::Container*> group(
          members.begin() + a * per,
          a + 1 == apps ? members.end() : members.begin() + (a + 1) * per);
      plane->manage(apps == 1 ? std::string("canonical")
                              : "app" + std::to_string(a),
                    group);
    }
    plane->start();
  }

  std::optional<ha::HaControlPlane> ha;
  if (opt.failover) {
    if (bare) {
      ha::HaConfig hcfg;
      hcfg.standbys = 1;
      ha.emplace(*bare, network, hcfg);
      ha->start();
    } else {
      plane->enable_ha(1);
    }
    // Land inside the decision tick: at t = 1 s + 80 us the telemetry has
    // been ingested and this period's limit updates are on the wire
    // (issued, flushed, not yet delivered) — the takeover happens
    // mid-batch, with per-entry acks still in flight.
    sim.schedule_at(sim::seconds(1) + sim::microseconds(230), [&] {
      if (ha) {
        ha->kill_leader();
      } else {
        plane->ha(0).kill_leader();
      }
    });
  }

  struct Stream {
    cluster::Container* container;
    int phase;
    sim::Rng rng;
  };
  std::vector<Stream> streams;
  streams.reserve(members.size());
  int idx = 0;
  for (cluster::Container* c : members) {
    streams.push_back({c, idx++, root.fork()});
  }
  for (Stream& s : streams) {
    sim::Simulation* simp = &sim;
    sim.schedule_every(
        milliseconds(1 + s.rng.uniform_int(0, 19)), milliseconds(20),
        [&s, simp] {
          const bool on =
              ((simp->now() / milliseconds(500)) + s.phase) % 2 == 0;
          const int batch = on ? 3 : 0;
          for (int b = 0; b < batch; ++b) {
            const double cost_ms = s.rng.lognormal(std::log(4.0), 0.8);
            s.container->submit(
                std::max<sim::Duration>(
                    1, static_cast<sim::Duration>(cost_ms * 1000.0)),
                2 * memcg::kMiB, [](bool) {});
          }
        });
  }
  sim.run_until(seconds(2));

  CanonicalRun r;
  for (const auto& obs_ptr : observers) {
    const obs::TraceBuffer& trace = obs_ptr->trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const obs::TraceEvent& e = trace.at(i);
      r.canonical_trace.emplace_back(e.time, static_cast<int>(e.kind),
                                     e.container, e.node, e.before, e.after,
                                     e.detail);
    }
  }
  // Canonicalize: within one timestamp, order is a scheduling artifact of
  // how deliveries were grouped; across timestamps it is behavior.
  std::stable_sort(r.canonical_trace.begin(), r.canonical_trace.end());
  std::ostringstream raw;
  if (plane && opt.shards > 1) {
    plane->export_merged_trace(raw);
  } else {
    // Shard 0's buffer alone — at shards <= 1 this is the whole story and
    // stays byte-comparable with the unsharded export.
    observer.trace().export_jsonl(raw);
  }
  r.raw_trace = raw.str();
  // The CSV is column-oriented (one header row, one value row). Drop the
  // wire-accounting columns (net.* and the batch coalescing counters) and
  // keep every decision counter.
  std::ostringstream metrics;
  observer.metrics().export_csv(metrics, sim.now());
  std::istringstream lines(metrics.str());
  std::string header, values;
  std::getline(lines, header);
  std::getline(lines, values);
  const auto split = [](const std::string& row) {
    std::vector<std::string> cells;
    std::istringstream ss(row);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    return cells;
  };
  const std::vector<std::string> names = split(header);
  const std::vector<std::string> cells = split(values);
  for (std::size_t i = 0; i < names.size() && i < cells.size(); ++i) {
    if (names[i].rfind("net.", 0) == 0 ||
        names[i] == "controller.batched_rpcs" ||
        names[i] == "controller.batch_entries") {
      continue;
    }
    r.filtered_metrics += names[i] + "=" + cells[i] + "\n";
  }
  for (const cluster::Container* c : members) {
    r.cpu_limits.push_back(c->cpu_cgroup().limit_cores());
    r.mem_limits.push_back(c->mem_cgroup().limit());
  }
  r.checker_ok = true;
  for (const auto& c : checkers) {
    if (!c->ok()) {
      r.checker_ok = false;
      r.checker_report += c->report();
    }
  }
  if (shard_checker && !shard_checker->ok()) {
    r.checker_ok = false;
    r.checker_report += shard_checker->report();
  }
  if (r.checker_ok) r.checker_report = "ok";
  if (bare) {
    r.retransmits = bare->controller().retransmits();
    r.failovers = ha ? ha->failovers() : 0;
    r.registered = bare->controller().registered_count();
  } else {
    for (int s = 0; s < opt.shards; ++s) {
      r.retransmits += plane->shard(s).controller().retransmits();
      r.registered += plane->shard(s).controller().registered_count();
    }
    r.failovers = plane->ha_enabled() ? plane->ha(0).failovers() : 0;
    r.borrow_grants = plane->borrows_granted();
  }
  r.batched_rpcs = observer.h.batched_rpcs->value();
  r.batch_entries = observer.h.batch_entries->value();
  return r;
}

TEST(DifferentialTest, CanonicalRunsAreReproducibleAndSoundUnderRpcLoss) {
  const CanonicalRun a = run_canonical({.rpc_drop = 0.02});
  const CanonicalRun b = run_canonical({.rpc_drop = 0.02});
  EXPECT_TRUE(a.checker_ok) << a.checker_report;
  EXPECT_GT(a.retransmits, 0u) << "2% loss must force retransmits";
  // Determinism survives the fault path: byte-identical reruns.
  EXPECT_EQ(a.raw_trace, b.raw_trace);
  EXPECT_EQ(a.cpu_limits, b.cpu_limits);
  EXPECT_EQ(a.mem_limits, b.mem_limits);
  EXPECT_EQ(a.registered, 256u);
}

// --- sharded vs single controller -----------------------------------------

TEST(DifferentialTest, SingleShardPlaneMatchesBareController) {
  const CanonicalRun bare = run_canonical({});
  const CanonicalRun sharded = run_canonical({.shards = 1});

  EXPECT_TRUE(bare.checker_ok) << bare.checker_report;
  EXPECT_TRUE(sharded.checker_ok) << sharded.checker_report;
  EXPECT_EQ(sharded.registered, 256u);
  EXPECT_EQ(sharded.borrow_grants, 0u)
      << "a single shard has nobody to borrow from";

  // Byte-identical, not merely equivalent: same events, same instants, same
  // values, same ids — the shard layer at N = 1 adds nothing.
  EXPECT_EQ(bare.raw_trace, sharded.raw_trace);
  EXPECT_EQ(bare.canonical_trace, sharded.canonical_trace);
  EXPECT_EQ(bare.filtered_metrics, sharded.filtered_metrics);
  EXPECT_EQ(bare.cpu_limits, sharded.cpu_limits);
  EXPECT_EQ(bare.mem_limits, sharded.mem_limits);
}

TEST(DifferentialTest, MultiShardCanonicalRunsAreByteReproducible) {
  const CanonicalOptions opt{.shards = 4, .apps = 32};
  const CanonicalRun a = run_canonical(opt);
  const CanonicalRun b = run_canonical(opt);

  EXPECT_TRUE(a.checker_ok) << a.checker_report;
  EXPECT_TRUE(b.checker_ok) << b.checker_report;
  EXPECT_EQ(a.registered, 256u);
  // The merged trace (all four shards, stable cross-shard order, re-assigned
  // ids) is byte-identical across runs.
  EXPECT_EQ(a.raw_trace, b.raw_trace);
  EXPECT_EQ(a.cpu_limits, b.cpu_limits);
  EXPECT_EQ(a.mem_limits, b.mem_limits);
}

TEST(DifferentialTest, MultiShardSurvivesShardLeaderFailover) {
  const CanonicalOptions opt{.failover = true, .shards = 4, .apps = 32};
  const CanonicalRun a = run_canonical(opt);
  const CanonicalRun b = run_canonical(opt);

  EXPECT_TRUE(a.checker_ok) << a.checker_report;
  EXPECT_EQ(a.failovers, 1u);
  EXPECT_EQ(a.registered, 256u) << "takeover must rebuild shard 0's registry";
  EXPECT_EQ(a.raw_trace, b.raw_trace);
  EXPECT_EQ(a.cpu_limits, b.cpu_limits);
  EXPECT_EQ(a.mem_limits, b.mem_limits);
}

// --- decision stream pinned across commits ---------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Every other comparison here runs within one build (sharded vs bare, run
// vs run); this one compares against digests recorded from an earlier
// commit, so a refactor that claims "same behaviour" is checked byte for
// byte. A change that alters behaviour on purpose must update the constants
// (and say why in its description).
TEST(DifferentialTest, CanonicalTraceDigestsArePinned) {
  const CanonicalRun clean = run_canonical({});
  const CanonicalRun faulted =
      run_canonical({.rpc_drop = 0.02, .failover = true});
  EXPECT_TRUE(clean.checker_ok) << clean.checker_report;
  EXPECT_TRUE(faulted.checker_ok) << faulted.checker_report;
  EXPECT_GT(clean.batched_rpcs, 0u);
  EXPECT_GT(clean.batch_entries, clean.batched_rpcs)
      << "coalescing must actually group a node's per-period updates";
  EXPECT_EQ(faulted.failovers, 1u);
  EXPECT_EQ(fnv1a(clean.raw_trace), 0xea8ad9691a9c7d95ULL);
  EXPECT_EQ(fnv1a(faulted.raw_trace), 0x0a6642c7e1e1443aULL);
}

// The request path end to end: short paper cells under Escra, the VPA
// eviction path and the static OOM path, each hashed over the results a
// refactor of the application, container or scheduler layers must keep.
struct RequestPathCell {
  const char* name;
  app::Benchmark benchmark;
  workload::WorkloadKind workload;
  exp::PolicyKind policy;
  std::uint64_t digest;
};

std::uint64_t request_path_digest(const exp::RunResult& r) {
  std::ostringstream out;
  out << std::hexfloat << r.succeeded << ' ' << r.failed << ' '
      << r.p50_latency_ms << ' ' << r.p99_latency_ms << ' '
      << r.p999_latency_ms << ' ' << r.oom_kills << ' ' << r.evictions << ' '
      << r.limit_updates << ' ' << r.telemetry_msgs << ' '
      << r.cpu_slack_cores.median() << ' ' << r.mem_slack_mib.median();
  return fnv1a(out.str());
}

TEST(DifferentialTest, RequestPathDigestsArePinned) {
  const RequestPathCell cells[] = {
      {"teastore-burst-escra", app::Benchmark::kTeastore,
       workload::WorkloadKind::kBurst, exp::PolicyKind::kEscra,
       0x420358a72d75a5b0ULL},
      {"trainticket-alibaba-escra", app::Benchmark::kTrainTicket,
       workload::WorkloadKind::kAlibaba, exp::PolicyKind::kEscra,
       0xc66dcef1008a21acULL},
      {"hipster-burst-vpa", app::Benchmark::kHipster,
       workload::WorkloadKind::kBurst, exp::PolicyKind::kVpa,
       0xf12c66224204efa3ULL},
      {"media-fixed-static-1.0x", app::Benchmark::kMedia,
       workload::WorkloadKind::kFixed, exp::PolicyKind::kStatic,
       0xb1045afc1ca1f119ULL},
  };
  for (const RequestPathCell& cell : cells) {
    SCOPED_TRACE(cell.name);
    exp::MicroserviceConfig cfg;
    cfg.benchmark = cell.benchmark;
    cfg.workload = cell.workload;
    cfg.policy = cell.policy;
    cfg.static_multiplier = 1.0;
    cfg.duration = seconds(20);
    cfg.seed = 7;
    const exp::RunResult r = exp::run_microservice(cfg);
    EXPECT_GT(r.succeeded, 0u);
    // Each cell must exercise the path it stands for, or its pin is vacuous.
    if (cell.policy == exp::PolicyKind::kStatic) {
      EXPECT_GT(r.oom_kills, 0u);
    }
    if (cell.policy == exp::PolicyKind::kVpa) {
      EXPECT_GT(r.evictions, 0u);
    }
    EXPECT_EQ(request_path_digest(r), cell.digest)
        << std::hex << "0x" << request_path_digest(r);
  }
}

TEST(DifferentialTest, CanonicalRunSurvivesLeaderFailoverMidBatch) {
  const CanonicalRun a = run_canonical({.failover = true});
  const CanonicalRun b = run_canonical({.failover = true});
  EXPECT_TRUE(a.checker_ok) << a.checker_report;
  EXPECT_EQ(a.failovers, 1u);
  EXPECT_EQ(a.registered, 256u) << "takeover must rebuild the registry";
  EXPECT_EQ(a.raw_trace, b.raw_trace) << "failover schedule is deterministic";
  EXPECT_EQ(a.cpu_limits, b.cpu_limits);
  EXPECT_EQ(a.mem_limits, b.mem_limits);
}

}  // namespace
}  // namespace escra
