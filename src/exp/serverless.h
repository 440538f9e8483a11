// Serverless experiment harness (Sections VI-F..VI-H): ImageProcess and
// GridSearch on OpenWhisk alone vs OpenWhisk + Escra (and + Escra at 80%
// of the resource limits, for GridSearch). Produces the latency
// distributions of Figure 7 and the aggregate-limit time series of
// Figures 8 and 9.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/histogram.h"
#include "sim/stats.h"

namespace escra::exp {

enum class ServerlessMode {
  kOpenWhisk,      // static per-pod limits (1 vCPU / 256 MiB)
  kEscra,          // + Escra, same global resource envelope
  kEscraReduced,   // + Escra with 80% of the global limits (GridSearch case 3)
};

const char* serverless_mode_name(ServerlessMode mode);

// One point of the aggregate-limit time series (Figures 8 and 9).
struct LimitPoint {
  double t_seconds = 0.0;
  double cpu_limit_cores = 0.0;
  double mem_limit_mib = 0.0;
};

// ---------------------------------------------------------------- ImageProcess

struct ImageProcessResult {
  sim::Histogram latency;             // per-invocation end-to-end, us
  std::vector<LimitPoint> limits;     // per second, averaged over iterations
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cold_starts = 0;
  double mean_latency_ms = 0.0;
  double mean_cpu_limit_cores = 0.0;  // time-averaged aggregate limit
  double mean_mem_limit_mib = 0.0;
};

// Four 10-minute iterations at one request every 0.8 s, each from a cold
// pool of at most 16 pods on 3 worker nodes (Section VI-F, Y = 35).
ImageProcessResult run_image_process(ServerlessMode mode);

// ------------------------------------------------------------------ GridSearch

// Each run is one 960-task job over at most 115 pods on 4 worker nodes
// (Section VI-F, Y = 20).
struct GridSearchConfig {
  ServerlessMode mode = ServerlessMode::kOpenWhisk;
  int runs = 10;  // paper uses 50; the CDF shape stabilizes well before that
};

struct GridSearchResult {
  sim::SampleSet job_latency_s;       // one make-span per run
  std::vector<LimitPoint> limits;     // per second, from the first run
  double mean_latency_s = 0.0;
  double mean_cpu_limit_cores = 0.0;
  double mean_mem_limit_mib = 0.0;
  std::uint64_t tasks_failed = 0;
};

GridSearchResult run_grid_search(const GridSearchConfig& config);

}  // namespace escra::exp
