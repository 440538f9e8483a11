// Section VI-I: Escra microbenchmarks and overheads.
//   1. Network overhead: peak/mean control-plane bandwidth for the
//      32-container MediaMicroservice (paper: 12.06 Mbps peak at 32
//      containers, dominated by per-container CPU telemetry, scaling
//      linearly with container count).
//   2. Controller/Resource-Allocator capacity: real wall-clock cost of
//      processing one telemetry statistic end-to-end (ingest -> windowed
//      stats -> decision), converted into containers manageable per core at
//      a 100 ms report period (paper: 1,192 containers per core; 23,859 per
//      20-core node).
//   3. Stat-gap scaling: mean time between successive statistics from the
//      same container as the container count grows (paper: sublinear).

#include <chrono>
#include <cstdio>

#include "core/allocator.h"
#include "core/distributed_container.h"
#include "exp/microservice.h"
#include "exp/report.h"
#include "net/network.h"
#include "sim/rng.h"

using namespace escra;

namespace {

// Telemetry volume and bandwidth for an N-container application.
void network_overhead() {
  exp::print_section("Network overhead (Escra control plane)");
  std::vector<std::vector<std::string>> rows;
  for (const auto& [bench_name, benchmark] :
       {std::pair{"hipster-shop(11)", app::Benchmark::kHipster},
        std::pair{"media(32)", app::Benchmark::kMedia},
        std::pair{"train-ticket(68)", app::Benchmark::kTrainTicket}}) {
    exp::MicroserviceConfig cfg;
    cfg.benchmark = benchmark;
    cfg.workload = workload::WorkloadKind::kBurst;
    cfg.policy = exp::PolicyKind::kEscra;
    cfg.duration = sim::seconds(60);
    const exp::RunResult r = exp::run_microservice(cfg);
    rows.push_back({bench_name, exp::fmt(r.peak_net_mbps, 3),
                    exp::fmt(r.mean_net_mbps, 3),
                    std::to_string(r.telemetry_msgs),
                    std::to_string(r.limit_updates)});
  }
  exp::print_table({"application", "peak Mbps", "mean Mbps", "telemetry msgs",
                    "limit updates"},
                   rows);
  std::printf(
      "(paper: 12.06 Mbps peak at 32 containers on its kernel-socket wire\n"
      " format; absolute numbers differ with framing, but overhead must\n"
      " scale ~linearly with container count, dominated by telemetry)\n");
}

// Wall-clock microbenchmark of the allocator's per-statistic decision cost.
void controller_capacity() {
  exp::print_section("Controller + Resource Allocator capacity");
  constexpr int kContainers = 1024;
  constexpr int kStatsPerContainer = 200;
  core::EscraConfig config;
  core::DistributedContainer app(4096.0, 1024LL * memcg::kGiB);
  core::ResourceAllocator alloc(config, app);
  for (int i = 0; i < kContainers; ++i) {
    alloc.register_container(static_cast<std::uint32_t>(i + 1), 1.0,
                             256 * memcg::kMiB);
  }
  sim::Rng rng(1);
  // Pre-generate a realistic stat mix: ~10% throttled, varied unused.
  std::vector<core::CpuStatsMsg> stats;
  stats.reserve(kContainers * kStatsPerContainer);
  for (int s = 0; s < kStatsPerContainer; ++s) {
    for (int i = 0; i < kContainers; ++i) {
      core::CpuStatsMsg m;
      m.cgroup = static_cast<std::uint32_t>(i + 1);
      m.quota = sim::milliseconds(100);
      m.throttled = rng.chance(0.1);
      m.unused = m.throttled
                     ? 0
                     : static_cast<sim::Duration>(rng.uniform(0.0, 100000.0));
      stats.push_back(m);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::size_t decisions = 0;
  for (const core::CpuStatsMsg& m : stats) {
    decisions += alloc.on_cpu_stats(m).has_value() ? 1 : 0;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const double ns_per_stat = static_cast<double>(elapsed) /
                             static_cast<double>(stats.size());
  // One stat per container per 100 ms period -> 10 stats/s/container.
  const double containers_per_core = 1e9 / ns_per_stat / 10.0;
  std::printf("  processed %zu stats (%zu decisions) in %.1f ms\n",
              stats.size(), decisions, static_cast<double>(elapsed) / 1e6);
  std::printf("  %.0f ns per statistic -> %.0f containers per core at a\n"
              "  100 ms report period; %.0f per 20-core node\n",
              ns_per_stat, containers_per_core, 20.0 * containers_per_core);
  std::printf("(paper: 1,192 containers/core, 23,859 per 20-core node —\n"
              " including gRPC and socket costs our model does not pay)\n");
}

// Mean gap between consecutive stats of one container as the fleet grows.
void stat_gap_scaling() {
  exp::print_section("Mean inter-statistic gap vs container count");
  std::vector<std::vector<std::string>> rows;
  for (const int n : {8, 32, 128, 512}) {
    // All containers report once per period; the controller serializes
    // processing, so the gap is period + queueing that grows sublinearly
    // while processing capacity holds.
    core::EscraConfig config;
    core::DistributedContainer app(4096.0, 1024LL * memcg::kGiB);
    core::ResourceAllocator alloc(config, app);
    for (int i = 0; i < n; ++i) {
      alloc.register_container(static_cast<std::uint32_t>(i + 1), 1.0,
                               256 * memcg::kMiB);
    }
    const auto start = std::chrono::steady_clock::now();
    constexpr int kRounds = 2000;
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < n; ++i) {
        core::CpuStatsMsg m;
        m.cgroup = static_cast<std::uint32_t>(i + 1);
        m.quota = sim::milliseconds(100);
        m.unused = 10000;
        alloc.on_cpu_stats(m);
      }
    }
    const auto elapsed_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    // Gap = report period + per-round processing backlog contribution.
    const double processing_per_round_us =
        static_cast<double>(elapsed_ns) / 1e3 / kRounds;
    rows.push_back({std::to_string(n),
                    exp::fmt(100000.0 + processing_per_round_us, 1),
                    exp::fmt(processing_per_round_us, 2)});
  }
  exp::print_table(
      {"containers", "mean stat gap (us)", "processing share (us)"}, rows);
  std::printf("(paper: the gap grows sublinearly with the container count)\n");
}

}  // namespace

int main() {
  network_overhead();
  controller_capacity();
  stat_gap_scaling();
  return 0;
}
