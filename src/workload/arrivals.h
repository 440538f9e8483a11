// Request arrival processes (Section VI-A).
//
// The paper loads each microservice with one of four open-loop workloads:
//   Fixed    — constant 400 requests/second,
//   Exp      — Poisson arrivals with lambda = 300 req/s,
//   Burst    — fixed 50 req/s plus a 10-second Poisson burst (lambda = 600)
//              every 20 seconds,
//   Alibaba  — a datacenter trace sped up 10x, 56-548 req/s.
//
// The Alibaba trace itself is not redistributable, so `AlibabaArrivals`
// replays a synthetic per-second rate series with the published envelope:
// a diurnal swing across the 56-548 range, plus noise and occasional spikes
// (see make_alibaba_rates).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace escra::workload {

// An open-loop arrival process: yields successive inter-arrival gaps.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  // Time from the arrival at `now` until the next arrival.
  virtual sim::Duration next_gap(sim::TimePoint now) = 0;
};

// Constant-rate arrivals.
class FixedArrivals final : public ArrivalProcess {
 public:
  explicit FixedArrivals(double req_per_sec);
  sim::Duration next_gap(sim::TimePoint now) override;

 private:
  sim::Duration gap_;
};

// Poisson arrivals.
class ExpArrivals final : public ArrivalProcess {
 public:
  ExpArrivals(double lambda_req_per_sec, sim::Rng rng);
  sim::Duration next_gap(sim::TimePoint now) override;

 private:
  double lambda_;
  sim::Rng rng_;
};

// Base fixed rate with periodic Poisson bursts: the paper's 50 req/s plus a
// 10-second lambda = 600 burst every 20 seconds.
class BurstArrivals final : public ArrivalProcess {
 public:
  explicit BurstArrivals(sim::Rng rng);
  sim::Duration next_gap(sim::TimePoint now) override;

 private:
  sim::Rng rng_;
};

// Piecewise-per-second rate replay with Poisson arrivals inside each second.
class TraceArrivals final : public ArrivalProcess {
 public:
  // `rates[i]` is the request rate during simulated second i; the series
  // wraps around when the run is longer than the trace.
  TraceArrivals(std::vector<double> rates, sim::Rng rng);
  sim::Duration next_gap(sim::TimePoint now) override;

  const std::vector<double>& rates() const { return rates_; }

 private:
  std::vector<double> rates_;
  sim::Rng rng_;
};

// Synthesizes the Alibaba-like rate series: `seconds` entries spanning
// 56-548 req/s (trace sped up 10x), diurnal swing + noise + spikes.
std::vector<double> make_alibaba_rates(std::size_t seconds, sim::Rng& rng);

// Loads a per-second rate series from a file: one req/s value per line
// (blank lines and '#' comments ignored). Lets TraceArrivals replay a real
// datacenter trace — the paper's Alibaba methodology — instead of the
// synthetic envelope. Throws std::runtime_error on unreadable files or
// nonpositive rates.
std::vector<double> load_rate_trace(const std::string& path);

// Writes a rate series in the same format (used to export synthetic traces
// for inspection or reuse).
void save_rate_trace(const std::string& path, const std::vector<double>& rates);

// The paper's four workload distributions.
enum class WorkloadKind { kFixed, kExp, kBurst, kAlibaba };

const char* workload_name(WorkloadKind kind);

// Factory with the paper's parameters.
std::unique_ptr<ArrivalProcess> make_workload(WorkloadKind kind, sim::Rng rng,
                                              std::size_t trace_seconds = 600);

}  // namespace escra::workload
