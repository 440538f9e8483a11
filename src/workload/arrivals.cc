#include "workload/arrivals.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numbers>
#include <stdexcept>
#include <string>

namespace escra::workload {

namespace {
// The Burst workload (Section VI-A): a fixed base rate plus a Poisson burst
// for the first kBurstLength of every kBurstInterval.
constexpr double kBurstBaseRate = 50.0;  // req/s
constexpr double kBurstLambda = 600.0;   // req/s on top of the base
constexpr sim::Duration kBurstLength = sim::seconds(10);
constexpr sim::Duration kBurstInterval = sim::seconds(20);
static_assert(kBurstBaseRate > 0.0 && kBurstLambda > 0.0,
              "BurstArrivals: nonpositive rate");
static_assert(kBurstLength <= kBurstInterval,
              "BurstArrivals: burst longer than interval");

sim::Duration gap_from_rate(double rate_per_sec, sim::Rng& rng) {
  // Poisson process: exponential inter-arrival with mean 1/rate seconds.
  const double gap_s = rng.exponential(rate_per_sec);
  return std::max<sim::Duration>(1, sim::seconds_f(gap_s));
}
}  // namespace

FixedArrivals::FixedArrivals(double req_per_sec) {
  if (req_per_sec <= 0.0) throw std::invalid_argument("FixedArrivals: rate <= 0");
  gap_ = std::max<sim::Duration>(1, sim::seconds_f(1.0 / req_per_sec));
}

sim::Duration FixedArrivals::next_gap(sim::TimePoint) { return gap_; }

ExpArrivals::ExpArrivals(double lambda_req_per_sec, sim::Rng rng)
    : lambda_(lambda_req_per_sec), rng_(rng) {
  if (lambda_ <= 0.0) throw std::invalid_argument("ExpArrivals: lambda <= 0");
}

sim::Duration ExpArrivals::next_gap(sim::TimePoint) {
  return gap_from_rate(lambda_, rng_);
}

BurstArrivals::BurstArrivals(sim::Rng rng) : rng_(rng) {}

sim::Duration BurstArrivals::next_gap(sim::TimePoint now) {
  // A burst occupies the first kBurstLength of every kBurstInterval,
  // starting after the first interval elapses.
  const bool in_burst =
      now >= kBurstInterval && now % kBurstInterval < kBurstLength;
  const double rate =
      in_burst ? kBurstBaseRate + kBurstLambda : kBurstBaseRate;
  return gap_from_rate(rate, rng_);
}

TraceArrivals::TraceArrivals(std::vector<double> rates, sim::Rng rng)
    : rates_(std::move(rates)), rng_(rng) {
  if (rates_.empty()) throw std::invalid_argument("TraceArrivals: empty trace");
  for (const double r : rates_) {
    if (r <= 0.0) throw std::invalid_argument("TraceArrivals: nonpositive rate");
  }
}

sim::Duration TraceArrivals::next_gap(sim::TimePoint now) {
  const auto second = static_cast<std::size_t>(now / sim::kSecond);
  const double rate = rates_[second % rates_.size()];
  return gap_from_rate(rate, rng_);
}

std::vector<double> make_alibaba_rates(std::size_t seconds, sim::Rng& rng) {
  // Envelope from the paper: 56-548 req/s after the 10x speedup. The shape
  // is a compressed diurnal wave (one "day" every ~200 s of sped-up trace)
  // with multiplicative noise and occasional short spikes, which is what a
  // 10x-accelerated production trace looks like at per-second granularity.
  constexpr double kLow = 56.0;
  constexpr double kHigh = 548.0;
  const double mid = (kLow + kHigh) / 2.0;
  const double amp = (kHigh - kLow) / 2.0;
  std::vector<double> rates;
  rates.reserve(seconds);
  double spike = 0.0;
  for (std::size_t s = 0; s < seconds; ++s) {
    const double t = static_cast<double>(s);
    const double diurnal =
        std::sin(2.0 * std::numbers::pi * t / 200.0) +
        0.3 * std::sin(2.0 * std::numbers::pi * t / 47.0);
    double rate = mid + amp * 0.72 * diurnal;
    rate *= 1.0 + rng.normal(0.0, 0.06);
    if (rng.chance(0.02)) spike = rng.uniform(0.2, 0.6);  // short load spike
    rate *= 1.0 + spike;
    spike *= 0.6;  // spikes decay over a few seconds
    rates.push_back(std::clamp(rate, kLow, kHigh));
  }
  return rates;
}

std::vector<double> load_rate_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace " + path);
  std::vector<double> rates;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    double rate = 0.0;
    try {
      rate = std::stod(line.substr(first, last - first + 1));
    } catch (...) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": not a number");
    }
    if (rate <= 0.0) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": nonpositive rate");
    }
    rates.push_back(rate);
  }
  if (rates.empty()) throw std::runtime_error(path + ": empty trace");
  return rates;
}

void save_rate_trace(const std::string& path,
                     const std::vector<double>& rates) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out.precision(12);  // round-trip cleanly through the text format
  out << "# requests per second, one value per simulated second\n";
  for (const double r : rates) out << r << "\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kFixed: return "fixed";
    case WorkloadKind::kExp: return "exp";
    case WorkloadKind::kBurst: return "burst";
    case WorkloadKind::kAlibaba: return "alibaba";
  }
  return "unknown";
}

std::unique_ptr<ArrivalProcess> make_workload(WorkloadKind kind, sim::Rng rng,
                                              std::size_t trace_seconds) {
  switch (kind) {
    case WorkloadKind::kFixed:
      return std::make_unique<FixedArrivals>(400.0);
    case WorkloadKind::kExp:
      return std::make_unique<ExpArrivals>(300.0, rng);
    case WorkloadKind::kBurst:
      return std::make_unique<BurstArrivals>(rng);
    case WorkloadKind::kAlibaba: {
      sim::Rng trace_rng = rng.fork();
      return std::make_unique<TraceArrivals>(
          make_alibaba_rates(trace_seconds, trace_rng), rng);
    }
  }
  throw std::invalid_argument("make_workload: unknown kind");
}

}  // namespace escra::workload
