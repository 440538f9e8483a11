// Adversarial-tenant fairness benchmark: what a lying tenant extracts from
// the κ/Υ loop, and what the Karma-style credit defense claws back.
//
// Three arms over one pool (8 cores, 4 members, 2 x 16-core nodes), same
// seed, same honest traffic:
//
//   baseline  four honest members: steady load plus staggered 6-wide
//             bursts whose per-job latency is the honest experience;
//   attack    member 0 stops doing real work and forges its telemetry
//             stream instead (workload::GreedyTenant, inflated-usage
//             strategy), defense off: the scale-up arm funds it until it
//             holds the pool and honest bursts have nowhere to grow;
//   defense   identical attack with config.credit_defense on: the settle
//             sweep bleeds the liar's balance, the Υ-gate stops funding it
//             above fair share, and the decay walks it back down.
//
// Reported per arm: honest burst p50/p99, long/short-term Jain over member
// allocations (exp::FairnessMeter), pool utilization, the liar's capture
// ratio (mean cores / static fair share), and deterministic event counts.
// Asserted, not just reported (the benchmark is a regression test):
//
//   - attack arm: the liar captures >= 2x its fair share and honest p99
//     degrades by >= 1.5x over baseline;
//   - defense arm: honest p99 recovers to within 10% of baseline, long-term
//     Jain recovers to within 10% of baseline, pool utilization stays
//     within 5% of baseline, and the InvariantChecker (credit rules armed)
//     finds nothing.
//
// All three arms are deterministic, so under --check BASELINE.json
// (bench/gate.h) every number must match the committed baseline byte for
// byte.
//
//   adv_fairness [--out FILE] [--check FILE] [--quick]

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "adv/greedy.h"
#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "exp/fairness.h"
#include "gate.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/event_queue.h"
#include "sim/histogram.h"
#include "sim/rng.h"

using namespace escra;

namespace {

constexpr double kPoolCores = 8.0;
constexpr int kMembers = 4;
constexpr std::uint64_t kSeed = 0xadf41235ULL;

struct ArmResult {
  std::int64_t honest_p50_us = 0;
  std::int64_t honest_p99_us = 0;
  std::uint64_t honest_jobs = 0;
  double jain_long = 0.0;
  double jain_short = 0.0;
  double utilization = 0.0;
  double capture = 0.0;  // member 0's mean cores / static fair share
  std::uint64_t lies = 0;
  std::uint64_t credit_charges = 0;
  std::uint64_t greedy_throttles = 0;
  std::uint64_t events = 0;  // determinism anchor
  std::string checker_report;  // empty = ok (defense arm only)
};

// Steady load plus a staggered burst per honest container: every burst
// submits 6 parallel jobs and needs ~6 cores to finish at nominal latency —
// exactly the headroom a pool-hoarding liar removes.
void drive_honest(sim::Simulation& sim, cluster::Container* c, int phase,
                  sim::Histogram* latency) {
  sim.schedule_every(sim::milliseconds(100 + phase), sim::milliseconds(100),
                     [c] { c->submit(sim::milliseconds(50), 0, nullptr); });
  sim.schedule_every(sim::milliseconds(2000 + 650 * phase),
                     sim::milliseconds(2000), [&sim, c, latency] {
                       for (int j = 0; j < 6; ++j) {
                         const sim::TimePoint t0 = sim.now();
                         c->submit(sim::milliseconds(100), 0,
                                   [&sim, t0, latency](bool ok) {
                                     if (ok) {
                                       latency->record(std::max<sim::TimePoint>(
                                           1, sim.now() - t0));
                                     }
                                   });
                       }
                     });
}

ArmResult run_arm(bool attack, bool defense, sim::Duration horizon) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  core::EscraConfig cfg;
  cfg.credit_defense = defense;
  core::EscraSystem escra(sim, network, k8s, kPoolCores,
                          4LL * memcg::kGiB, cfg);
  for (int n = 0; n < 2; ++n) k8s.add_node({.cores = 16.0});

  std::vector<cluster::Container*> members;
  cluster::ContainerSpec spec;
  spec.base_memory = 96 * memcg::kMiB;
  spec.max_parallelism = 8.0;
  for (int i = 0; i < kMembers; ++i) {
    spec.name = "m" + std::to_string(i);
    members.push_back(&k8s.create_container(spec, 1.0, 512 * memcg::kMiB));
  }
  obs::Observer observer;
  escra.attach_observer(observer);
  escra.manage(members);
  escra.start();

  check::InvariantChecker checker(escra, network, observer);
  if (defense) checker.attach_credits(escra.controller().credits());

  sim::Histogram honest_latency;
  for (int i = 1; i < kMembers; ++i) {
    drive_honest(sim, members[i], i, &honest_latency);
  }

  workload::GreedyTenant liar(sim, escra.controller(),
                              workload::GreedyProfile{}, sim::Rng(kSeed));
  if (attack) {
    liar.attach(*members[0]);
    liar.start(sim::milliseconds(100));
  } else {
    drive_honest(sim, members[0], 0, &honest_latency);
  }

  exp::FairnessMeter meter(sim, escra.app());
  meter.track(members[0]->id(), /*greedy=*/true);
  for (int i = 1; i < kMembers; ++i) meter.track(members[i]->id(), false);
  meter.start(sim::seconds(5));  // skip the cold-start transient

  sim.run_until(horizon);
  checker.check_now();

  const exp::FairnessReport fr = meter.report();
  ArmResult r;
  r.honest_p50_us = honest_latency.percentile(50);
  r.honest_p99_us = honest_latency.percentile(99);
  r.honest_jobs = honest_latency.count();
  r.jain_long = fr.jain_long_term;
  r.jain_short = fr.jain_short_term;
  r.utilization = fr.cpu_utilization;
  r.capture = fr.greedy_capture;
  r.lies = liar.lies_told();
  r.credit_charges = observer.h.credit_charges->value();
  r.greedy_throttles = observer.h.greedy_throttles->value();
  r.events = sim.executed_events();
  if (!checker.ok()) r.checker_report = checker.report();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const gate::Flags flags = gate::parse_flags(argc, argv, "adv_fairness");
  const sim::Duration horizon =
      flags.quick ? sim::seconds(30) : sim::seconds(60);
  const ArmResult base = run_arm(/*attack=*/false, /*defense=*/false, horizon);
  const ArmResult atk = run_arm(/*attack=*/true, /*defense=*/false, horizon);
  const ArmResult def = run_arm(/*attack=*/true, /*defense=*/true, horizon);

  int rc = gate::publish(
      "adv_fairness",
      {
          gate::exact("baseline_p50_us", base.honest_p50_us),
          gate::exact("baseline_p99_us", base.honest_p99_us),
          gate::exact("baseline_jain_long", base.jain_long, 4),
          gate::exact("baseline_utilization", base.utilization, 4),
          gate::exact("baseline_events", base.events),
          gate::exact("attack_p50_us", atk.honest_p50_us),
          gate::exact("attack_p99_us", atk.honest_p99_us),
          gate::exact("attack_jain_long", atk.jain_long, 4),
          gate::exact("attack_capture", atk.capture, 2),
          gate::exact("attack_lies", atk.lies),
          gate::exact("attack_events", atk.events),
          gate::exact("defense_p50_us", def.honest_p50_us),
          gate::exact("defense_p99_us", def.honest_p99_us),
          gate::exact("defense_jain_long", def.jain_long, 4),
          gate::exact("defense_utilization", def.utilization, 4),
          gate::exact("defense_capture", def.capture, 2),
          gate::exact("defense_credit_charges", def.credit_charges),
          gate::exact("defense_greedy_throttles", def.greedy_throttles),
          gate::exact("defense_events", def.events),
          gate::exact("p99_recovery",
                      def.honest_p99_us > 0
                          ? static_cast<double>(atk.honest_p99_us) /
                                static_cast<double>(def.honest_p99_us)
                          : 0.0,
                      2),
      },
      flags);

  const auto fail = [&rc](const char* msg) {
    std::fprintf(stderr, "adv_fairness: %s\n", msg);
    rc = 1;
  };
  char msg[256];

  // The attack works with the defense off: >= 2x fair-share capture from
  // pure telemetry forgery, and the honest tail pays for it.
  if (atk.lies == 0) fail("attack arm told no lies (vacuous)");
  if (atk.capture < 2.0) {
    std::snprintf(msg, sizeof(msg),
                  "attack capture %.2f < 2.0 x fair share", atk.capture);
    fail(msg);
  }
  if (static_cast<double>(atk.honest_p99_us) <
      1.5 * static_cast<double>(base.honest_p99_us)) {
    std::snprintf(msg, sizeof(msg),
                  "attack did not degrade honest p99 (%" PRId64
                  " us vs baseline %" PRId64 " us)",
                  atk.honest_p99_us, base.honest_p99_us);
    fail(msg);
  }

  // The defense un-does it: honest tail and long-term fairness back within
  // 10% of the all-honest baseline, utilization within 5%, no invariant
  // violations.
  if (def.credit_charges == 0) fail("defense arm never charged (vacuous)");
  if (def.greedy_throttles == 0) fail("defense arm never decayed the liar");
  if (static_cast<double>(def.honest_p99_us) >
      1.10 * static_cast<double>(base.honest_p99_us)) {
    std::snprintf(msg, sizeof(msg),
                  "defense honest p99 %" PRId64
                  " us not within 10%% of baseline %" PRId64 " us",
                  def.honest_p99_us, base.honest_p99_us);
    fail(msg);
  }
  if (def.jain_long < 0.90 * base.jain_long) {
    std::snprintf(msg, sizeof(msg),
                  "defense long-term Jain %.3f not within 10%% of baseline "
                  "%.3f",
                  def.jain_long, base.jain_long);
    fail(msg);
  }
  // One-sided: the defense must not waste pool capacity. (It may *raise*
  // measured utilization — pinning the liar at fair share keeps that slice
  // allocated where the baseline's κ loop would have reclaimed it.)
  if (def.utilization < 0.95 * base.utilization) {
    std::snprintf(msg, sizeof(msg),
                  "defense utilization %.3f lost more than 5%% vs baseline "
                  "%.3f",
                  def.utilization, base.utilization);
    fail(msg);
  }
  if (!def.checker_report.empty()) {
    std::fprintf(stderr, "adv_fairness: invariant violations in defense arm:\n%s",
                 def.checker_report.c_str());
    rc = 1;
  }
  return rc;
}
