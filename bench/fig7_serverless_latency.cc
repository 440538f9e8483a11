// Figure 7: serverless latency CDFs (Section VI-G).
//   (a) ImageProcess per-request latency, OpenWhisk vs OpenWhisk+Escra
//       (1 request / 0.8 s for 10 minutes, 4 iterations each starting cold).
//   (b) GridSearch whole-job latency for OpenWhisk, OpenWhisk+Escra with the
//       same resources, and OpenWhisk+Escra with 80% of the resource limits.

#include <cstdio>

#include "exp/report.h"
#include "exp/serverless.h"

using namespace escra;

int main() {
  exp::print_section("Figure 7a: ImageProcess request latency CDF (ms)");
  for (const auto mode :
       {exp::ServerlessMode::kOpenWhisk, exp::ServerlessMode::kEscra}) {
    const exp::ImageProcessResult r = exp::run_image_process(mode);
    exp::print_latency_cdf(exp::serverless_mode_name(mode), r.latency, 15);
    std::printf("   n=%llu fail=%llu cold-starts=%llu mean=%.0fms p99=%.0fms\n",
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.cold_starts),
                r.mean_latency_ms,
                static_cast<double>(r.latency.percentile(99)) / 1000.0);
  }
  std::printf(
      "(paper: +Escra mean 1.99 s vs 2.12 s alone; similar 99th%%ile tails)\n");

  exp::print_section("Figure 7b: GridSearch application latency CDF (s)");
  for (const auto mode :
       {exp::ServerlessMode::kOpenWhisk, exp::ServerlessMode::kEscra,
        exp::ServerlessMode::kEscraReduced}) {
    exp::GridSearchConfig cfg;
    cfg.mode = mode;
    const exp::GridSearchResult r = exp::run_grid_search(cfg);
    exp::print_cdf(exp::serverless_mode_name(mode), r.job_latency_s, 10);
    std::printf("   mean=%.1fs  p99=%.1fs  task-failures=%llu\n",
                r.mean_latency_s, r.job_latency_s.percentile(99),
                static_cast<unsigned long long>(r.tasks_failed));
  }
  std::printf(
      "(paper: ~300 s mean for cases 1 and 2; ~1%% higher for the 80%% case;\n"
      " Escra+OpenWhisk slightly better at the 99th percentile)\n");
  return 0;
}
