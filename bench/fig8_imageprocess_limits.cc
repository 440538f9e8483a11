// Figure 8: aggregate CPU and memory *limits* for ImageProcess, averaged per
// second over four test iterations, for OpenWhisk alone and OpenWhisk+Escra
// — plus the savings series (OpenWhisk limit minus Escra+OpenWhisk limit),
// i.e. subfigures (a)-(d) of the paper.

#include <cstdio>

#include "exp/report.h"
#include "exp/serverless.h"

using namespace escra;

int main() {
  const exp::ImageProcessResult ow =
      exp::run_image_process(exp::ServerlessMode::kOpenWhisk);
  const exp::ImageProcessResult es =
      exp::run_image_process(exp::ServerlessMode::kEscra);

  exp::print_section(
      "Figure 8: ImageProcess aggregate limits per second (4-iteration mean)");
  std::printf("%8s %12s %12s %12s %14s %14s %14s\n", "time_s", "ow_cpu",
              "escra_cpu", "cpu_saving", "ow_mem_MiB", "escra_mem_MiB",
              "mem_saving");
  const std::size_t n = std::min(ow.limits.size(), es.limits.size());
  for (std::size_t i = 0; i < n; i += 10) {  // one row per 10 s
    const auto& a = ow.limits[i];
    const auto& b = es.limits[i];
    std::printf("%8.0f %12.2f %12.2f %12.2f %14.1f %14.1f %14.1f\n",
                a.t_seconds, a.cpu_limit_cores, b.cpu_limit_cores,
                a.cpu_limit_cores - b.cpu_limit_cores, a.mem_limit_mib,
                b.mem_limit_mib, a.mem_limit_mib - b.mem_limit_mib);
  }

  std::printf("\nmeans over the run:\n");
  exp::print_table(
      {"config", "cpu limit (vCPU)", "mem limit (MiB)"},
      {{"openwhisk", exp::fmt(ow.mean_cpu_limit_cores, 2),
        exp::fmt(ow.mean_mem_limit_mib, 0)},
       {"escra-openwhisk", exp::fmt(es.mean_cpu_limit_cores, 2),
        exp::fmt(es.mean_mem_limit_mib, 0)},
       {"savings", exp::fmt(ow.mean_cpu_limit_cores - es.mean_cpu_limit_cores, 2),
        exp::fmt(ow.mean_mem_limit_mib - es.mean_mem_limit_mib, 0)}});
  std::printf(
      "(paper: OpenWhisk averages ~12 vCPU vs ~7 with Escra — ~5 vCPU saved —\n"
      " and ~1550 MiB of memory saved for identical workloads)\n");
  return 0;
}
