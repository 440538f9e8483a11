// Mixed-criticality benchmark: admitted real-time reservations against a
// node saturated by best-effort neighbors.
//
// One pool (6 cores, 6 members, one 8-core node), same seed, same traffic:
// members 0 and 1 are "critical" — each runs a 30 ms / 200 ms periodic job
// (a 0.15-core density floor); members 2..5 are best-effort saturators
// whose FIFO demand (~16 cores of steady submissions) permanently exceeds
// the pool. Two arms:
//
//   unprotected  the critical containers run the deadline job model but
//                hold NO reservation: the κ loop reclaims them between
//                jobs, the saturators absorb every grant, and the jobs
//                miss — this arm proves the pressure is real, so the rt
//                arm's zero can't be vacuous;
//   rt           the same containers are admitted through
//                Controller::admit_rt at 1 s: the floor enters the book,
//                the allocator never reclaims below it, and the RT lane's
//                strict priority turns the floor into met deadlines.
//
// Asserted, not just reported (the benchmark is a regression test):
//
//   - unprotected arm: >= 1 deadline miss (saturation actually bites);
//   - rt arm: both admissions succeed, ZERO deadline misses across every
//     admitted container, the best-effort neighbors still complete work
//     (the node stays saturated — reservations degrade, never starve,
//     their neighbors), and the InvariantChecker finds nothing;
//   - both arms: pool utilization >= 90% (the floors don't strand pool).
//
// Both arms are deterministic, so under --check BASELINE.json
// (bench/gate.h) every number must match the committed baseline byte for
// byte.
//
//   rt_mixed [--out FILE] [--check FILE] [--quick]

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "cfs/rt.h"
#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "exp/fairness.h"
#include "gate.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/event_queue.h"

using namespace escra;

namespace {

// 14 members over 6 cores puts the fair share (~0.43 cores) strictly below
// the 0.5-core reservation floor: without a reservation the κ loop's
// fairness itself is what starves the deadline job — the sharpest version
// of the mixed-criticality problem, since no tenant is misbehaving.
constexpr double kPoolCores = 6.0;
constexpr int kMembers = 14;
constexpr int kCritical = 2;  // members 0..kCritical-1 run the RT job

cfs::RtSpec critical_spec() {
  cfs::RtSpec spec;
  spec.runtime = sim::milliseconds(100);
  spec.deadline = sim::milliseconds(200);
  spec.period = sim::milliseconds(200);
  return spec;
}

// Best-effort saturation: every 100 ms each saturator queues four 100 ms
// jobs — ~4 cores of standing demand per member, ~16 across the pool's 6.
// Whatever the critical floors don't hold, these absorb instantly.
void drive_saturator(sim::Simulation& sim, cluster::Container* c, int phase,
                     std::uint64_t* completed) {
  sim.schedule_every(sim::milliseconds(100 + 7 * phase),
                     sim::milliseconds(100), [c, completed] {
                       for (int j = 0; j < 4; ++j) {
                         c->submit(sim::milliseconds(100), 0,
                                   [completed](bool ok) {
                                     if (ok) ++*completed;
                                   });
                       }
                     });
}

struct ArmResult {
  std::uint64_t misses = 0;         // summed over the critical members
  std::uint64_t jobs_released = 0;  // RT jobs the deadline model released
  std::uint64_t jobs_completed = 0;
  std::uint64_t be_completed = 0;  // best-effort submissions that finished
  std::uint64_t admitted = 0;      // rt arm: reservations accepted
  double reserved_cores = 0.0;
  double utilization = 0.0;
  std::uint64_t events = 0;        // determinism anchor
  std::string checker_report;      // empty = ok
};

ArmResult run_arm(bool reserve, sim::Duration horizon) {
  sim::Simulation sim;
  net::Network network(sim);
  cluster::Cluster k8s(sim);
  core::EscraSystem escra(sim, network, k8s, kPoolCores, 4LL * memcg::kGiB,
                          core::EscraConfig{});
  k8s.add_node({.cores = 8.0});

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

  ArmResult r;
  if (reserve) {
    // Admission through the controller: the floor is booked, the WAL image
    // carries it, and the allocator's reclaim paths stop at it.
    sim.schedule_at(sim::seconds(1), [&escra, &members, &r] {
      for (int i = 0; i < kCritical; ++i) {
        if (escra.admit_rt(*members[i], critical_spec()) ==
            core::Controller::RtAdmit::kAdmitted) {
          ++r.admitted;
        }
      }
    });
  } else {
    // Deadline job model armed, no reservation: the control loop sees an
    // ordinary best-effort member and reclaims it the moment it idles.
    sim.schedule_at(sim::seconds(1), [&members] {
      for (int i = 0; i < kCritical; ++i) {
        members[i]->set_rt(critical_spec());
      }
    });
  }
  for (int i = kCritical; i < kMembers; ++i) {
    drive_saturator(sim, members[i], i, &r.be_completed);
  }

  exp::FairnessMeter meter(sim, escra.app());
  for (int i = 0; i < kMembers; ++i) {
    meter.track(members[i]->id(), /*greedy=*/false);
  }
  meter.start(sim::seconds(5));  // skip the cold-start transient

  sim.run_until(horizon);
  checker.check_now();

  for (int i = 0; i < kCritical; ++i) {
    r.misses += members[i]->deadline_misses();
    r.jobs_released += members[i]->rt_jobs_released();
    r.jobs_completed += members[i]->rt_jobs_completed();
  }
  r.reserved_cores = escra.rt_reserved_cores();
  r.utilization = meter.report().cpu_utilization;
  r.events = sim.executed_events();
  if (!checker.ok()) r.checker_report = checker.report();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const gate::Flags flags = gate::parse_flags(argc, argv, "rt_mixed");
  const sim::Duration horizon =
      flags.quick ? sim::seconds(20) : sim::seconds(60);
  const ArmResult un = run_arm(/*reserve=*/false, horizon);
  const ArmResult rt = run_arm(/*reserve=*/true, horizon);

  int rc = gate::publish(
      "rt_mixed",
      {
          gate::exact("unprotected_misses", un.misses),
          gate::exact("unprotected_jobs_released", un.jobs_released),
          gate::exact("unprotected_be_completed", un.be_completed),
          gate::exact("unprotected_utilization", un.utilization, 4),
          gate::exact("unprotected_events", un.events),
          gate::exact("rt_admitted", rt.admitted),
          gate::exact("rt_reserved_cores", rt.reserved_cores, 2),
          gate::exact("rt_misses", rt.misses),
          gate::exact("rt_jobs_released", rt.jobs_released),
          gate::exact("rt_jobs_completed", rt.jobs_completed),
          gate::exact("rt_be_completed", rt.be_completed),
          gate::exact("rt_utilization", rt.utilization, 4),
          gate::exact("rt_events", rt.events),
      },
      flags);

  const auto fail = [&rc](const char* msg) {
    std::fprintf(stderr, "rt_mixed: %s\n", msg);
    rc = 1;
  };
  char msg[256];

  // The saturation is real: without a reservation the deadline jobs miss.
  if (un.jobs_released == 0) fail("unprotected arm released no jobs (vacuous)");
  if (un.misses == 0) {
    fail("unprotected arm missed no deadlines — saturation isn't biting, "
         "the rt arm's zero would be vacuous");
  }

  // The reservation holds: every admission lands, no admitted container
  // misses a deadline, and the best-effort neighbors keep completing work.
  if (rt.admitted != kCritical) {
    std::snprintf(msg, sizeof(msg),
                  "rt arm admitted %" PRIu64 "/%d reservations", rt.admitted,
                  kCritical);
    fail(msg);
  }
  if (rt.jobs_released == 0) fail("rt arm released no jobs (vacuous)");
  if (rt.misses != 0) {
    std::snprintf(msg, sizeof(msg),
                  "rt arm missed %" PRIu64 " deadline(s) — the reservation "
                  "did not hold under saturation",
                  rt.misses);
    fail(msg);
  }
  if (rt.be_completed == 0) {
    fail("rt arm starved its best-effort neighbors completely");
  }
  for (const ArmResult* arm : {&un, &rt}) {
    if (arm->utilization < 0.90) {
      std::snprintf(msg, sizeof(msg),
                    "%s arm pool utilization %.3f < 0.90 — capacity stranded",
                    arm == &un ? "unprotected" : "rt", arm->utilization);
      fail(msg);
    }
  }
  if (!rt.checker_report.empty()) {
    std::fprintf(stderr, "rt_mixed: invariant violations in rt arm:\n%s",
                 rt.checker_report.c_str());
    rc = 1;
  }
  return rc;
}
