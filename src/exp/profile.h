// Application profiling pass (Section VI-B).
//
// "We estimated the resources needed ... by profiling each container and
// measuring maximum CPU and memory usage." The profile runs the application
// under a representative load (a fixed 350 req/s, below the evaluation's
// Fixed 400 req/s) with generous limits and records, per container, the
// peak 1-second CPU usage (cores) and peak memory usage — the 1-second
// aggregation deliberately mirrors what cAdvisor-style tooling gives an
// operator, smoothing away the sub-second spikes that later cause throttles
// under static limits.
//
// The static baseline sets limits to multiplier x these peaks; Autopilot
// initializes from them; Escra's Distributed Container global limits are
// the same aggregate budget as the static-1.5x deployment, so every policy
// works from an identical resource envelope.
#pragma once

#include <vector>

#include "app/benchmarks.h"
#include "memcg/mem_cgroup.h"

namespace escra::exp {

struct ContainerProfile {
  double peak_cores = 0.0;
  memcg::Bytes peak_mem = 0;
};

struct ProfileResult {
  std::vector<ContainerProfile> containers;  // in Application container order

  double total_peak_cores() const;
  memcg::Bytes total_peak_mem() const;
};

// Profiles an arbitrary service graph (one fresh simulation; not cached):
// 30 s of serving time under 8-core / 2 GiB per-container limits, after a
// 10 s warm-up skip.
ProfileResult profile_graph(const app::GraphSpec& graph);

// Profiles a built-in benchmark application. Results are memoized per
// benchmark for the lifetime of the process (each bench binary profiles each
// app once).
const ProfileResult& profile_benchmark(app::Benchmark benchmark);

}  // namespace escra::exp
