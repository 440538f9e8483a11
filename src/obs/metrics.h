// Control-plane metrics registry (escra_obs).
//
// Named counters and gauges for the Escra control plane: grants/shrinks per
// second, pool occupancy, per-channel network bytes, OOM rescues. (The
// per-stage control-loop latency the paper's overhead evaluation, Section
// VI-I, reports lives in obs::LoopProfiler's own histograms.) Instrumented
// modules hold raw `Counter*`/`Gauge*` handles obtained at attach time, so
// the hot-path cost when observability is off is a single null-pointer
// check.
//
// Registration is strict: a metric name can be registered exactly once,
// across both metric kinds. Re-registering throws instead of silently
// shadowing the first metric (silent shadowing would split a counter's
// increments across two objects and under-report without any error).
//
// Snapshots: `snapshot()` captures every metric's current value at one
// simulated instant; `start_periodic_snapshots()` schedules capture on the
// simulation clock so a run leaves behind a deterministic time series,
// exportable as CSV.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/time.h"

namespace escra::sim {
class Simulation;
}

namespace escra::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::uint64_t value_ = 0;
};

// Point-in-time value (pool occupancy, pod counts).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  double value_ = 0.0;
};

// One captured instant: (metric name, value) pairs in name order. Counters
// report their count, gauges their value.
struct MetricsSnapshot {
  sim::TimePoint time = 0;
  std::vector<std::pair<std::string, double>> values;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (throws std::invalid_argument on a duplicate name,
  //     regardless of metric kind) ---
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  // --- lookup (nullptr when absent or a different kind) ---
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  bool has(const std::string& name) const;
  std::size_t size() const;

  // --- snapshotting ---
  MetricsSnapshot snapshot(sim::TimePoint now) const;
  // Captures a snapshot every `interval`, first at `interval`, on the
  // simulation clock. Call at most once per registry.
  void start_periodic_snapshots(sim::Simulation& sim, sim::Duration interval);
  // Captures one snapshot now and appends it to the series.
  void capture(sim::TimePoint now);
  const std::vector<MetricsSnapshot>& snapshots() const { return snapshots_; }

  // CSV time series: one column per metric (name order), one row per
  // captured snapshot. When no snapshot was ever captured, emits a single
  // row of the current values at time `now`.
  void export_csv(std::ostream& out, sim::TimePoint now) const;

 private:
  void claim_name(const std::string& name);

  // std::map keeps metric iteration in name order, which makes snapshots and
  // CSV exports deterministic and stable across runs.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::vector<MetricsSnapshot> snapshots_;
  bool periodic_started_ = false;
};

}  // namespace escra::obs
