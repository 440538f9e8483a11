// Per-node CPU scheduler.
//
// Advances simulated CPU execution on one worker node in fixed slices
// (default 10 ms, ten slices per 100 ms CFS period). Each slice it asks every
// attached consumer (container) how many cores of work it could use, grants
// core-time max-min fairly subject to (a) the node's core count and (b) each
// cgroup's remaining CFS runtime, then lets the consumer advance its work by
// the granted core-time. Period boundaries fire each cgroup's telemetry hook.
//
// This reproduces the two CPU-side costs the paper's evaluation hinges on:
// throttling (quota exhausted mid-period while work is queued) and node
// contention (sum of demands exceeding the core count).
#pragma once

#include <cstddef>
#include <vector>

#include "cfs/cgroup.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace escra::cfs {

// Something that consumes CPU through a CFS cgroup (a container).
class CpuConsumer {
 public:
  virtual ~CpuConsumer() = default;

  // The cgroup through which this consumer's runtime is accounted. The
  // scheduler looks it up once, at attach: it must stay the same object
  // while the consumer is attached.
  virtual CfsCgroup& cpu_cgroup() = 0;

  // Number of cores' worth of work the consumer could execute during the
  // next `slice` if unconstrained (bounded by pending work and its own
  // parallelism). May be fractional.
  virtual double cpu_demand(sim::Duration slice) = 0;

  // Advances the consumer's work by `granted` core-time within a slice of
  // length `slice`. `granted <= cpu_demand(slice) * slice` (up to rounding).
  virtual void run_for(sim::Duration granted, sim::Duration slice) = 0;

  // True for an admitted real-time consumer: the scheduler water-fills the
  // RT tier against the full node first, and best-effort consumers share
  // only what remains (the deadline-scheduler model: an RT cgroup's
  // reservation-backed demand is never squeezed by best-effort contention,
  // only by its own quota).
  virtual bool realtime() const { return false; }
};

class NodeCpuScheduler {
 public:
  struct Config {
    double cores = 20.0;                              // node core count
    sim::Duration slice = sim::milliseconds(10);      // scheduling quantum
    sim::Duration period = sim::milliseconds(100);    // CFS period
  };

  NodeCpuScheduler(sim::Simulation& sim, Config config);
  ~NodeCpuScheduler();

  NodeCpuScheduler(const NodeCpuScheduler&) = delete;
  NodeCpuScheduler& operator=(const NodeCpuScheduler&) = delete;

  void attach(CpuConsumer* consumer);
  void detach(CpuConsumer* consumer);

  double cores() const { return config_.cores; }
  sim::Duration period() const { return config_.period; }

  // Node CPU utilization in the last completed slice, in cores.
  double last_slice_usage_cores() const { return last_usage_cores_; }

  // Max-min fair allocation: given demands (cores) and capacity (cores),
  // returns the grant per consumer. Exposed for unit testing.
  static std::vector<double> max_min_fair(const std::vector<double>& demands,
                                          double capacity);
  // The same allocation written into `grant`, with `work` as the
  // water-fill worklist: reusing both buffers across calls allocates
  // nothing once they have grown to the consumer count.
  static void max_min_fair(const std::vector<double>& demands, double capacity,
                           std::vector<double>& grant,
                           std::vector<std::size_t>& work);

 private:
  struct Attached {
    CpuConsumer* consumer;
    CfsCgroup* cgroup;  // consumer->cpu_cgroup(), looked up at attach
  };

  void on_slice();

  sim::Simulation& sim_;
  Config config_;
  std::vector<Attached> consumers_;
  sim::EventHandle tick_;
  sim::Duration into_period_ = 0;
  double last_usage_cores_ = 0.0;
};

}  // namespace escra::cfs
