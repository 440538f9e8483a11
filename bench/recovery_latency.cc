// Recovery latency (MTTR) under control-plane faults — the measurement
// behind the fail-static and the replicated-controller claims: a dead
// Controller must not hurt running containers, a restarted one must
// reconverge in well under a second, and a permanently killed leader must
// be replaced by a warm standby in well under a second, without the
// cluster ever noticing.
//
// Runs of the TeaStore graph (3 nodes, fixed 200 req/s, identical seeds):
//   baseline          no faults — the reference trajectory
//   controller-crash  Controller dies at 15 s, restarts at 20 s and rebuilds
//                     by resyncing every Agent (the restart-resync path)
//   partition         node 1 severed from the Controller for 15 s .. 18 s
//   agent-crash       node 1's Agent dies at 15 s, restarts at 18 s
//   ha-failover       two warm standbys stream the leader's WAL; the leader
//                     is killed for good at 15 s, a standby's lease
//                     watchdog fires and takes the seat by replaying its
//                     replica — no resync (run twice, see below)
//
// MTTR is measured from the decision trace, not by comparing instantaneous
// limit trajectories: the per-container limits oscillate by design (the
// kappa/upsilon loop hunts around demand), so two runs decorrelate in phase
// after any perturbation and instantaneous deltas never settle. What
// recovery actually means is that the control plane is serving the affected
// containers again, so:
//
//   MTTR = time from fault clearance until every affected container has
//          been reconciled (a kResync re-adoption or a kRpcApplied limit
//          update landing on its Agent after the clearance instant)
//
// with "affected" = every container for a Controller crash, the faulted
// node's containers otherwise. Two further checks close the loop:
//   - decisions resume: at least one allocator grant/shrink lands on an
//     affected container after clearance;
//   - the limits return to the normal operating envelope: the faulted
//     run's time-averaged aggregate CPU limit over the post-recovery tail
//     is within 25% of the never-faulted baseline's (identical seed and
//     workload, so the averages — unlike the instantaneous values — are
//     directly comparable).
// For the controller-crash run the fail-static guarantee is verified
// directly: while the Controller is down no managed container's memory
// limit drops below its crash-time value and no managed container is
// OOM-killed.
//
// The leader kill compares the controller-crash run (restart-resync) with
// the ha-failover run. Blackout is measured from the kill instant to the
// first kRpcApplied landing on an Agent once the control plane is back (the
// restart instant, or the first kLeaderElected) — the longest the cluster
// went without a working control plane. The HA timeline decomposes further:
//   detection  kill -> kLeaderElected   (lease timeout + watchdog grid)
//   MTTR       kLeaderElected -> first kRpcApplied (takeover to first
//              reallocation: the new leader is provably moving cgroups)
// and the warm-standby guarantees are asserted on it: exactly one
// failover, MTTR under one simulated second, a blackout shorter than
// restart-resync's, zero OOM kills, zero fail-static entries (takeover
// beats the Agents' 500 ms lease watchdog, so no node ever freezes) and
// zero fenced updates (the old leader is dead, not partitioned — nothing
// stale survives to fence). Determinism is asserted by running the
// identical-seed ha-failover run twice and comparing an FNV-1a digest over
// every 100 ms aggregate-limit sample and every trace event: byte-identical
// or the bench fails.
//
//   recovery_latency [--assert]
//
// With --assert the process exits non-zero unless every check passes —
// this is the mode CI runs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/benchmarks.h"
#include "app/service_graph.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "fault/fault_injector.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "workload/load_generator.h"

using namespace escra;

namespace {

constexpr std::uint64_t kSeed = 7;
constexpr double kRateRps = 200.0;
constexpr sim::TimePoint kLoadStart = sim::seconds(2);
constexpr sim::TimePoint kLoadEnd = sim::seconds(38);
constexpr sim::TimePoint kRunEnd = sim::seconds(40);
constexpr sim::Duration kSampleInterval = sim::milliseconds(100);
constexpr sim::TimePoint kFaultStart = sim::seconds(15);
constexpr sim::Duration kRestartDowntime = sim::seconds(5);
constexpr cluster::NodeId kFaultNode = 1;
constexpr sim::Duration kNodeFaultDuration = sim::seconds(3);
constexpr int kStandbys = 2;
constexpr sim::Duration kMttrTarget = sim::seconds(1);
// Post-recovery tail for the aggregate-limit envelope comparison.
constexpr sim::Duration kEnvelopeSettle = sim::seconds(2);
constexpr double kEnvelopeTol = 0.25;

enum class Scenario {
  kBaseline,
  kControllerCrash,
  kPartition,
  kAgentCrash,
  kHaFailover,
};

const char* scenario_name(Scenario s) {
  static constexpr const char* kNames[] = {
      "baseline", "controller-crash", "partition", "agent-crash",
      "ha-failover"};
  return kNames[static_cast<int>(s)];
}

// When the fault clears (restart / heal time) — recovery is measured from
// here.
sim::TimePoint fault_clear(Scenario s) {
  if (s == Scenario::kControllerCrash) return kFaultStart + kRestartDowntime;
  if (s == Scenario::kPartition || s == Scenario::kAgentCrash) {
    return kFaultStart + kNodeFaultDuration;
  }
  return kFaultStart;
}

struct RunResult {
  // Aggregate CPU limit (cores, all containers), sampled every
  // kSampleInterval from t=0.
  std::vector<double> agg_cpu;
  std::vector<sim::TimePoint> sample_times;
  std::uint64_t total_oom_kills = 0;

  // Per affected container: first post-clearance reconcile (kResync or
  // kRpcApplied). Missing entry = never reconciled.
  std::vector<std::uint32_t> affected;
  std::map<std::uint32_t, sim::TimePoint> first_reconcile;
  // First post-clearance allocator decision (grant/shrink) on an affected
  // container; 0 = none.
  sim::TimePoint first_decision = 0;

  // Controller-crash fail-static bookkeeping.
  std::uint64_t oom_kills_in_window = 0;
  bool mem_dropped_below_fail_static = false;

  std::uint64_t retransmits = 0;
  std::uint64_t resyncs = 0;

  // Leader-kill timeline and the warm-standby guarantees.
  std::uint64_t fail_static_entries = 0;
  std::uint64_t fenced_updates = 0;
  std::uint64_t failovers = 0;
  std::uint64_t final_epoch = 0;
  std::uint64_t replayed_slots = 0;
  sim::TimePoint elected = 0;      // first kLeaderElected, else 0
  sim::TimePoint first_apply = 0;  // first kRpcApplied once back, else 0

  // FNV-1a over every aggregate-limit sample and trace event: two
  // identical-seed runs must produce the same digest bit for bit.
  std::uint64_t digest = 1469598103934665603ULL;
};

void mix(RunResult& r, std::uint64_t v) {
  r.digest ^= v;
  r.digest *= 1099511628211ULL;
}

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

// Prints "  FAIL: <fmt>" unless `held`; returns `held`.
template <typename... Args>
bool check(bool held, const char* fmt, Args... args) {
  if (!held) {
    std::printf("  FAIL: ");
    std::printf(fmt, args...);
    std::printf("\n");
  }
  return held;
}

// Mean of the aggregate CPU limit over [from, to).
double mean_agg(const RunResult& r, sim::TimePoint from, sim::TimePoint to) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < r.sample_times.size(); ++i) {
    if (r.sample_times[i] < from || r.sample_times[i] >= to) continue;
    sum += r.agg_cpu[i];
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

RunResult run_scenario(Scenario scenario) {
  sim::Simulation simulation;
  net::Network network(simulation);
  cluster::Cluster k8s(simulation);
  for (int i = 0; i < 3; ++i) k8s.add_node({});

  sim::Rng root(kSeed);
  app::Application application(k8s, app::make_teastore(), root.fork(),
                               /*initial_cores=*/1.0,
                               /*initial_mem=*/512 * memcg::kMiB);
  core::EscraSystem escra(simulation, network, k8s, /*global_cpu=*/12.0,
                          /*global_mem=*/8 * memcg::kGiB);
  obs::Observer observer;
  escra.attach_observer(observer);
  escra.manage(application.containers());
  escra.start();

  // Declared after the system: destroyed first, detaching its hook.
  std::optional<ha::HaControlPlane> ha;
  if (scenario == Scenario::kHaFailover) {
    ha.emplace(escra, network, ha::HaConfig{.standbys = kStandbys});
    ha->start();
  }

  fault::FaultInjector injector(simulation, network, escra);
  switch (scenario) {
    case Scenario::kBaseline:
      break;
    case Scenario::kControllerCrash:
      injector.inject_controller_crash(kFaultStart, kRestartDowntime);
      break;
    case Scenario::kPartition:
      injector.inject_partition(kFaultNode, kFaultStart, kNodeFaultDuration);
      break;
    case Scenario::kAgentCrash:
      injector.inject_agent_crash(kFaultNode, kFaultStart,
                                  kNodeFaultDuration);
      break;
    case Scenario::kHaFailover:
      injector.inject_leader_kill(kFaultStart);
      break;
  }

  workload::LoadGenerator loadgen(
      simulation, std::make_unique<workload::FixedArrivals>(kRateRps),
      [&application](workload::LoadGenerator::Done done) {
        application.submit_request(std::move(done));
      });
  loadgen.run(kLoadStart, kLoadEnd);

  RunResult result;
  const auto& containers = application.containers();
  const sim::TimePoint clear = fault_clear(scenario);

  // Fail-static bookkeeping: freeze the memory limits the instant before
  // the Controller dies, then watch the whole downtime window.
  std::vector<memcg::Bytes> fail_static_mem;
  std::uint64_t kills_at_crash = 0;
  if (scenario == Scenario::kControllerCrash) {
    simulation.schedule_at(kFaultStart - 1, [&] {
      for (const cluster::Container* c : containers) {
        fail_static_mem.push_back(c->mem_cgroup().limit());
        kills_at_crash += c->oom_kill_count();
      }
    });
    simulation.schedule_at(clear - 1, [&] {
      std::uint64_t kills_now = 0;
      for (const cluster::Container* c : containers) {
        kills_now += c->oom_kill_count();
      }
      result.oom_kills_in_window = kills_now - kills_at_crash;
    });
  }

  simulation.schedule_every(0, kSampleInterval, [&] {
    result.sample_times.push_back(simulation.now());
    double agg = 0.0;
    for (std::size_t i = 0; i < containers.size(); ++i) {
      agg += containers[i]->cpu_cgroup().limit_cores();
      if (scenario == Scenario::kControllerCrash &&
          simulation.now() > kFaultStart && simulation.now() < clear &&
          i < fail_static_mem.size() &&
          containers[i]->mem_cgroup().limit() < fail_static_mem[i]) {
        result.mem_dropped_below_fail_static = true;
      }
    }
    result.agg_cpu.push_back(agg);
  });

  simulation.run_until(kRunEnd);

  for (const cluster::Container* c : containers) {
    result.total_oom_kills += c->oom_kill_count();
  }
  result.retransmits = escra.controller().retransmits();
  result.resyncs = escra.controller().resyncs();
  if (ha.has_value()) {
    result.failovers = ha->failovers();
    result.final_epoch = ha->epoch();
  }

  // Affected set: everything for a Controller crash, the faulted node's
  // containers otherwise.
  for (const cluster::Container* c : containers) {
    const cluster::Node* node = k8s.node_of(c->id());
    if (scenario == Scenario::kControllerCrash ||
        (node != nullptr && node->id() == kFaultNode)) {
      result.affected.push_back(c->id());
    }
  }

  // One scan of the decision trace: the digest, the leader-kill timeline
  // and the recovery signals. The control plane is back at the restart
  // instant, or at the first kLeaderElected.
  for (const double agg : result.agg_cpu) mix(result, bits(agg));
  sim::TimePoint back = scenario == Scenario::kControllerCrash ? clear : 0;
  const obs::TraceBuffer& trace = observer.trace();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceEvent& ev = trace.at(i);
    for (const std::uint64_t v :
         {ev.id, static_cast<std::uint64_t>(ev.time),
          static_cast<std::uint64_t>(ev.kind),
          static_cast<std::uint64_t>(ev.container),
          static_cast<std::uint64_t>(ev.node), bits(ev.before),
          bits(ev.after), ev.cause, static_cast<std::uint64_t>(ev.detail)}) {
      mix(result, v);
    }
    // Recovery signals count on affected containers after clearance.
    const bool recovering =
        ev.time >= clear &&
        std::find(result.affected.begin(), result.affected.end(),
                  ev.container) != result.affected.end();
    switch (ev.kind) {
      case obs::EventKind::kFailStatic:
        if (ev.detail != 0) ++result.fail_static_entries;
        break;
      case obs::EventKind::kEpochFenced:
        ++result.fenced_updates;
        break;
      case obs::EventKind::kLeaderElected:
        if (result.elected == 0) {
          result.elected = ev.time;
          back = ev.time;
          result.replayed_slots = static_cast<std::uint64_t>(ev.after);
        }
        break;
      case obs::EventKind::kRpcApplied:
        if (result.first_apply == 0 && back != 0 && ev.time >= back) {
          result.first_apply = ev.time;
        }
        [[fallthrough]];
      case obs::EventKind::kResync:
        if (recovering) result.first_reconcile.emplace(ev.container, ev.time);
        break;
      case obs::EventKind::kCpuGrant:
      case obs::EventKind::kCpuShrink:
        if (recovering && result.first_decision == 0) {
          result.first_decision = ev.time;
        }
        break;
      default:
        break;
    }
  }
  return result;
}

// Prints the MTTR, decisions-resumed, envelope and (controller crash)
// fail-static checks of one faulted run; returns whether all held.
bool report_recovery(Scenario scenario, const RunResult& r,
                     const RunResult& baseline) {
  const sim::TimePoint clear = fault_clear(scenario);

  // MTTR: slowest affected container's first post-clearance reconcile.
  sim::Duration mttr = -1;
  std::size_t reconciled = 0;
  for (const std::uint32_t id : r.affected) {
    const auto it = r.first_reconcile.find(id);
    if (it == r.first_reconcile.end()) continue;
    ++reconciled;
    mttr = std::max(mttr, it->second - clear);
  }
  const bool mttr_ok =
      reconciled == r.affected.size() && mttr >= 0 && mttr < kMttrTarget;
  const bool decisions_resumed = r.first_decision != 0;

  const double base_mean =
      mean_agg(baseline, clear + kEnvelopeSettle, kLoadEnd);
  const double fault_mean = mean_agg(r, clear + kEnvelopeSettle, kLoadEnd);
  const bool envelope_ok =
      base_mean > 0.0 &&
      std::abs(fault_mean - base_mean) <= kEnvelopeTol * base_mean;

  std::printf("%-18s MTTR %.3f s (%zu/%zu containers reconciled, clear at "
              "%gs)\n",
              scenario_name(scenario),
              mttr < 0 ? sim::to_seconds(kRunEnd - clear)
                       : sim::to_seconds(mttr),
              reconciled, r.affected.size(), sim::to_seconds(clear));
  std::printf("  decisions resumed %s%s; aggregate limit %.2f vs baseline "
              "%.2f cores (tol %.0f%%); %llu retransmits, %llu resyncs, "
              "oom-kills %llu\n",
              decisions_resumed ? "at " : "NEVER",
              decisions_resumed
                  ? (std::to_string(sim::to_seconds(r.first_decision)) + "s")
                        .c_str()
                  : "",
              fault_mean, base_mean, kEnvelopeTol * 100.0,
              static_cast<unsigned long long>(r.retransmits),
              static_cast<unsigned long long>(r.resyncs),
              static_cast<unsigned long long>(r.total_oom_kills));
  bool ok = check(mttr_ok,
                  "reconcile did not complete within %.1f s of clearance",
                  sim::to_seconds(kMttrTarget));
  ok &= check(decisions_resumed && envelope_ok,
              "post-recovery control loop degraded");
  if (scenario == Scenario::kControllerCrash) {
    const bool fail_static_held =
        !r.mem_dropped_below_fail_static && r.oom_kills_in_window == 0;
    std::printf("  fail-static: %s (%llu oom-kills during downtime, "
                "limits %s)\n",
                fail_static_held ? "held" : "VIOLATED",
                static_cast<unsigned long long>(r.oom_kills_in_window),
                r.mem_dropped_below_fail_static
                    ? "dropped below crash-time values"
                    : "never below crash-time values");
    if (!fail_static_held) ok = false;
  }
  return ok;
}

// Prints the leader-kill comparison — the controller-crash run as the
// restart-resync reference against the two identical-seed ha-failover
// runs — and returns whether every warm-standby check held.
bool report_failover(const RunResult& restart, const RunResult& ha,
                     const RunResult& ha2) {
  const double restart_blackout =
      restart.first_apply != 0
          ? sim::to_seconds(restart.first_apply - kFaultStart)
          : sim::to_seconds(kRunEnd - kFaultStart);
  std::printf("\nleader killed at %gs: restart after %g s downtime vs %d warm "
              "standbys\n",
              sim::to_seconds(kFaultStart), sim::to_seconds(kRestartDowntime),
              kStandbys);
  std::printf("%-18s blackout %6.3f s  (downtime %g s + resync; "
              "%llu fail-static entries, %llu resyncs, %llu oom-kills)\n",
              "restart-resync", restart_blackout,
              sim::to_seconds(kRestartDowntime),
              static_cast<unsigned long long>(restart.fail_static_entries),
              static_cast<unsigned long long>(restart.resyncs),
              static_cast<unsigned long long>(restart.total_oom_kills));

  const bool elected = ha.elected != 0;
  const double detection =
      elected ? sim::to_seconds(ha.elected - kFaultStart) : -1.0;
  const double mttr = elected && ha.first_apply != 0
                          ? sim::to_seconds(ha.first_apply - ha.elected)
                          : -1.0;
  const double blackout = elected && ha.first_apply != 0
                              ? sim::to_seconds(ha.first_apply - kFaultStart)
                              : -1.0;
  std::printf("%-18s blackout %6.3f s  (detection %.1f ms + takeover MTTR "
              "%.1f ms; %llu slot(s) replayed, epoch -> %llu)\n",
              scenario_name(Scenario::kHaFailover), blackout, detection * 1e3,
              mttr * 1e3, static_cast<unsigned long long>(ha.replayed_slots),
              static_cast<unsigned long long>(ha.final_epoch));
  std::printf("%-18s %llu fail-static entries, %llu fenced updates, "
              "%llu resyncs, %llu oom-kills, %llu failover(s)\n", "",
              static_cast<unsigned long long>(ha.fail_static_entries),
              static_cast<unsigned long long>(ha.fenced_updates),
              static_cast<unsigned long long>(ha.resyncs),
              static_cast<unsigned long long>(ha.total_oom_kills),
              static_cast<unsigned long long>(ha.failovers));

  bool ok = check(elected && ha.failovers == 1,
                  "expected exactly one takeover (saw %llu)",
                  static_cast<unsigned long long>(ha.failovers));
  ok &= check(mttr >= 0.0 && mttr < sim::to_seconds(kMttrTarget),
              "takeover-to-first-reallocation MTTR %.3f s not under %.1f s",
              mttr, sim::to_seconds(kMttrTarget));
  ok &= check(blackout >= 0.0 && blackout < restart_blackout,
              "HA blackout %.3f s not shorter than the restart-resync %.3f s",
              blackout, restart_blackout);
  ok &= check(ha.total_oom_kills == 0, "%llu oom-kills during clean failover",
              static_cast<unsigned long long>(ha.total_oom_kills));
  ok &= check(ha.fail_static_entries == 0,
              "%llu fail-static entries — takeover lost the race against "
              "the agent lease watchdog",
              static_cast<unsigned long long>(ha.fail_static_entries));
  ok &= check(ha.fenced_updates == 0,
              "%llu fenced updates in a clean (non-partitioned) failover",
              static_cast<unsigned long long>(ha.fenced_updates));
  ok &= check(ha.digest == ha2.digest,
              "identical-seed HA runs diverged (digest %016llx vs %016llx)",
              static_cast<unsigned long long>(ha.digest),
              static_cast<unsigned long long>(ha2.digest));
  if (ha.digest == ha2.digest) {
    std::printf("%-18s determinism: identical-seed rerun byte-identical "
                "(digest %016llx)\n", "",
                static_cast<unsigned long long>(ha.digest));
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool assert_mode = argc == 2 && std::strcmp(argv[1], "--assert") == 0;
  if (argc > 2 || (argc == 2 && !assert_mode)) {
    std::fprintf(stderr, "usage: recovery_latency [--assert]\n");
    return 2;
  }

  std::printf("recovery_latency: TeaStore, 3 nodes, fixed %g req/s, "
              "fault at %gs\n\n",
              kRateRps, sim::to_seconds(kFaultStart));

  const RunResult baseline = run_scenario(Scenario::kBaseline);
  std::printf("%-18s oom-kills %llu (%zu samples)\n",
              scenario_name(Scenario::kBaseline),
              static_cast<unsigned long long>(baseline.total_oom_kills),
              baseline.sample_times.size());

  bool ok = baseline.total_oom_kills == 0;
  const RunResult crash = run_scenario(Scenario::kControllerCrash);
  ok &= report_recovery(Scenario::kControllerCrash, crash, baseline);
  for (const Scenario scenario : {Scenario::kPartition, Scenario::kAgentCrash}) {
    ok &= report_recovery(scenario, run_scenario(scenario), baseline);
  }

  ok &= report_failover(crash, run_scenario(Scenario::kHaFailover),
                        run_scenario(Scenario::kHaFailover));

  if (assert_mode && !ok) {
    std::fprintf(stderr, "\nrecovery_latency: FAILED\n");
    return 1;
  }
  std::printf("\nrecovery_latency: %s\n", ok ? "ok" : "degraded (see above)");
  return 0;
}
