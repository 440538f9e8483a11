// Cold-start scale benchmark: one million containers through the dense
// hot-state control plane.
//
// The tables in the paper stop at hundreds of containers; this bench checks
// that the interned-slot layout (core::ContainerIndex + struct-of-arrays
// state in the DistributedContainer and ResourceAllocator) keeps cold start
// linear and memory flat at cluster-operator scale:
//
//   - register_per_s: rate of interning + registering 1M containers into the
//     DistributedContainer pool and the allocator's sliding windows,
//   - stats_per_s: rate of per-period CPU telemetry ingestion across the
//     full population (dense slot lookup + windowed stats, no map probes),
//   - teardown_per_s: rate of deregistering every container (slot release,
//     generation bump, pool refund),
//   - rss_mib: resident set after the run (reads /proc/self/statm).
//
// With --rss-check the whole cold start repeats several times in-process;
// after a warmup the resident set must plateau (the ContainerIndex free-list
// reuses slots, so steady-state churn allocates nothing). Under --check
// BASELINE.json (bench/gate.h) the container count must match exactly,
// register_per_s is a floor 25% below the baseline, and rss_mib a ceiling
// 25% above it.
//
//   coldstart_scale [--out FILE] [--check FILE] [--quick] [--rss-check]

#include <chrono>
#include <cinttypes>
#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#endif
#include <cstdio>
#include <fstream>

#include "core/allocator.h"
#include "core/config.h"
#include "core/container_index.h"
#include "core/distributed_container.h"
#include "core/messages.h"
#include "gate.h"

using namespace escra;

namespace {

double wall_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Resident set in KiB via /proc/self/statm (same source escra-fuzz's
// --rss-check uses). Returns 0 where /proc is unavailable; callers treat
// that as "cannot measure", not "zero bytes".
long current_rss_kib() {
#if defined(__GLIBC__)
  // Hand freed arena chunks back to the kernel first: a 1M-container run
  // fragments the main arena enough that glibc's retention (and khugepaged
  // back-fill) would otherwise show up as phantom RSS growth between
  // byte-identical runs.
  malloc_trim(0);
#endif
  std::ifstream statm("/proc/self/statm");
  if (!statm) return 0;
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  const long page_kib = 4;  // x86-64 / aarch64 default page size
  return resident_pages * page_kib;
}

struct Results {
  double register_per_s = 0.0;
  double stats_per_s = 0.0;
  double teardown_per_s = 0.0;
};

// One full cold start: register `n` containers, feed `periods` rounds of
// CPU telemetry across the whole population, then tear everything down.
// Returns a checksum so the optimizer cannot discard the work.
std::uint64_t cold_start(std::uint64_t n, int periods, Results* r) {
  core::EscraConfig config;
  // Pool sized so every registration succeeds: 0.1 cores / 16 MiB each.
  core::DistributedContainer app(/*cpu_limit_cores=*/0.1 * static_cast<double>(n) + 64.0,
                                 /*mem_limit=*/static_cast<memcg::Bytes>(n) * 16 * memcg::kMiB +
                                     memcg::kGiB);
  core::ResourceAllocator allocator(config, app);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t id = 0; id < n; ++id) {
    allocator.register_container(static_cast<std::uint32_t>(id), 0.1,
                                 16 * memcg::kMiB);
  }
  if (r != nullptr) {
    r->register_per_s = static_cast<double>(n) / wall_seconds(t0);
  }

  // Per-period telemetry across the full population: every sample takes the
  // dense slot path (index find + windows_[slot]); every third container
  // reports a throttle so the scale-up arm runs against the shared pool.
  std::uint64_t checksum = 0;
  const auto t1 = std::chrono::steady_clock::now();
  core::CpuStatsMsg stats;
  stats.quota = config.cfs_period / 10;
  for (int p = 0; p < periods; ++p) {
    stats.period_end = static_cast<sim::TimePoint>((p + 1)) * config.cfs_period;
    for (std::uint64_t id = 0; id < n; ++id) {
      stats.cgroup = static_cast<std::uint32_t>(id);
      stats.throttled = (id + static_cast<std::uint64_t>(p)) % 3 == 0;
      stats.unused = stats.throttled ? 0 : config.cfs_period / 20;
      if (allocator.on_cpu_stats(stats).has_value()) ++checksum;
    }
  }
  if (r != nullptr) {
    r->stats_per_s = static_cast<double>(n) * periods / wall_seconds(t1);
  }

  const auto t2 = std::chrono::steady_clock::now();
  for (std::uint64_t id = 0; id < n; ++id) {
    allocator.deregister_container(static_cast<std::uint32_t>(id));
  }
  if (r != nullptr) {
    r->teardown_per_s = static_cast<double>(n) / wall_seconds(t2);
  }
  checksum += app.member_count();
  return checksum;
}

// --- RSS plateau check -----------------------------------------------------

// Repeats the cold start in-process. The first kWarmupRuns grow the
// allocator arenas; after that the resident set must stay within kSlackKib
// of the post-warmup reading — the ContainerIndex free-list hands back the
// same slots every iteration, so steady state allocates nothing new.
int rss_check(std::uint64_t n, int periods, int total_runs) {
  constexpr int kWarmupRuns = 2;
  constexpr long kSlackKib = 8 * 1024;
  long plateau_kib = 0;
  for (int run = 0; run < total_runs; ++run) {
    cold_start(n, periods, nullptr);
    const long rss = current_rss_kib();
    if (rss == 0) {
      std::fprintf(stderr, "coldstart_scale: /proc/self/statm unavailable; "
                           "skipping RSS check\n");
      return 0;
    }
    if (run == kWarmupRuns - 1) {
      plateau_kib = rss;
    } else if (run >= kWarmupRuns && rss > plateau_kib + kSlackKib) {
      std::fprintf(stderr,
                   "coldstart_scale: RSS GREW — %ld KiB on run %d vs "
                   "%ld KiB plateau (+%ld KiB slack)\n",
                   rss, run + 1, plateau_kib, kSlackKib);
      return 1;
    }
    std::printf("coldstart_scale: run %d/%d rss %ld KiB\n", run + 1,
                total_runs, rss);
  }
  std::printf("coldstart_scale: RSS flat across %d runs of %" PRIu64
              " containers (plateau %ld KiB)\n",
              total_runs, n, plateau_kib);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const gate::Flags flags =
      gate::parse_flags(argc, argv, "coldstart_scale", "--rss-check");
  const std::uint64_t n = flags.quick ? 50'000 : 1'000'000;
  const int periods = flags.quick ? 2 : 4;

  if (flags.own_switch) {
    return rss_check(n, periods, flags.quick ? 4 : 6);
  }

  Results r;
  cold_start(n, periods, &r);
  const double rss_mib = static_cast<double>(current_rss_kib()) / 1024.0;

  return gate::publish("coldstart_scale",
                       {
                           gate::exact("containers", n),
                           gate::floor("register_per_s", r.register_per_s),
                           gate::report("stats_per_s", r.stats_per_s),
                           gate::report("teardown_per_s", r.teardown_per_s),
                           gate::ceiling("rss_mib", rss_mib, 1),
                       },
                       flags);
}
