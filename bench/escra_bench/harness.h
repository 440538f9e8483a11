// Shared machinery of escra_bench: host clocks, the benchmark-side span
// recorder, the per-rep result (fingerprint, modeled outputs, layer counts)
// and the per-run statistics.
//
// Everything here sits outside the library: spans are recorded around the
// calls the benchmark makes into the system, and counts are read through
// the system's public accessors and the obs::Observer handles.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/histogram.h"
#include "sim/time.h"

namespace escra_bench {

namespace sim = escra::sim;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// How one rep is instrumented.
//   kBare      no observer: the host-time end-to-end numbers
//   kObserved  obs::Observer attached: the observer's own cost against
//              kBare (obs.overhead_frac)
//   kTraced    kObserved plus the benchmark's spans: per-layer counts and
//              times (the spans' own cost is spans.overhead_frac)
//   kChecked   kObserved plus a check::InvariantChecker; a violation fails
//              the run (the checker adds sweep events, so executed-event
//              counts are compared among the other kinds only)
enum class RunKind { kBare, kObserved, kTraced, kChecked };

// High-frequency child spans, aggregated per parent slice so the trace stays
// bounded: count, summed and maximum host time.
enum class Child : int { kTick, kSubmit, kShape, kHaKill, kCount };
inline constexpr int kChildCount = static_cast<int>(Child::kCount);

struct ChildAgg {
  std::uint64_t count = 0;  // calls
  std::uint64_t timed = 0;  // calls whose host time was taken (sampled)
  std::int64_t total_ns = 0;
  std::int64_t max_ns = 0;
  // Host seconds spent in all `count` calls, extrapolated from the timed
  // sample when the child is sampled.
  double estimated_s() const;
  void add(const ChildAgg& o);
};

// In-memory span recorder for traced reps. Top-level spans (rep, cell,
// setup, slice) nest by explicit parent index; children aggregate into the
// innermost open slice (or the open setup span).
class Spans {
 public:
  Spans();

  // Opens a span and returns its index. `sim_us` is the simulated instant
  // the span starts at (informational).
  int open(const char* name, int parent, sim::TimePoint sim_us);
  void close(int span);
  // The span children currently aggregate into.
  void set_current(int span) { current_ = span; }

  // Records one timed call of `ns` raw host nanoseconds; the cost of the
  // clock read that timed it is taken off, so the timer's own cost is not
  // charged to the layer it wraps.
  void add_child(Child c, std::int64_t ns);
  // Counts an untimed call of a sampled child (its time is extrapolated
  // from the timed ones).
  void count_child(Child c) { ++spans_[current_].children[idx(c)].count; }
  // Host time the timed calls of a child of the current span occupied so
  // far, their timers included: what an enclosing timer saw of them.
  std::int64_t occupied_ns(Child c) const {
    const ChildAgg& a = spans_[current_].children[idx(c)];
    return a.total_ns + static_cast<std::int64_t>(a.timed) * 2 * clock_ns_;
  }
  // Sampling decision for the per-tick child: one call in kTickSample.
  bool sample_tick() { return (++tick_seq_ & (kTickSample - 1)) == 0; }
  static constexpr std::uint64_t kTickSample = 64;

  // Children summed over the spans named `name` / those spans' durations.
  ChildAgg child_total(Child c, const char* name) const;
  std::vector<double> durations_ms(const char* name) const;

  // Chrome trace-event JSON ("X" events; aggregated children as args).
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  struct Span {
    const char* name = "";
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = -1;  // -1 while open
    sim::TimePoint sim_us = 0;
    std::array<ChildAgg, kChildCount> children{};
  };
  static int idx(Child c) { return static_cast<int>(c); }
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::int64_t clock_ns_ = 0;  // cost of one Clock::now(), calibrated
  std::vector<Span> spans_;
  int current_ = 0;  // span 0 is a catch-all root
  std::uint64_t tick_seq_ = 0;
};

// Times one child call into a layer; a null recorder costs one test.
class ChildTimer {
 public:
  ChildTimer(Spans* spans, Child c) : spans_(spans), c_(c) {
    if (spans_ != nullptr) t0_ = Clock::now();
  }
  ~ChildTimer() {
    if (spans_ != nullptr) {
      spans_->add_child(c_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - t0_)
                                .count());
    }
  }
  ChildTimer(const ChildTimer&) = delete;
  ChildTimer& operator=(const ChildTimer&) = delete;

 private:
  Spans* spans_;
  Child c_;
  Clock::time_point t0_{};
};

// Per-layer counts over a rep's timed span (each is one per_layer metric
// of BENCHMARK.json).
enum Count : int {
  kSimEvents,
  kNetMessages,
  kNetBytes,
  kNetControlBytes,
  kNetDropped,
  kCfsPeriods,
  kCfsThrottled,
  kMemcgCharges,
  kMemcgOomEvents,
  kMemcgOomRescues,
  kMemcgOomKills,
  kStatsIngested,
  kTelemetryRejected,
  kLimitUpdates,
  kBatchedRpcs,
  kBatchEntries,
  kRetransmits,
  kCpuGrants,
  kCpuShrinks,
  kMemGrants,
  kMemDenies,
  kBwGrants,
  kBwShrinks,
  kAgentApplies,
  kDupSuppressed,
  kBwThrottleEvents,
  kWalAppends,
  kFailovers,
  kTraceEvents,
  kTraceEvicted,
  kCountN,
};
using Counts = std::array<std::uint64_t, kCountN>;

// Decision fingerprint of one rep. Every rep of a run sees the same inputs,
// so every field must match the reference rep exactly, whatever the
// instrumentation; `events` is compared between bare and traced reps only.
struct Fingerprint {
  std::uint64_t cpu_ups = 0, cpu_downs = 0, mem_grants = 0, mem_denies = 0,
                bw_ups = 0, bw_downs = 0;
  std::uint64_t stats = 0, limit_updates = 0, retransmits = 0,
                oom_events = 0, oom_rescues = 0, oom_kills = 0;
  std::uint64_t net_messages = 0, net_bytes = 0, wal_appends = 0,
                failovers = 0;
  std::uint64_t attempted = 0, completed = 0, latency_sum_us = 0;
  std::uint64_t limits_digest = 1469598103934665603ULL;  // FNV-1a
  std::uint64_t events = 0;

  void mix(std::uint64_t v) {
    limits_digest ^= v;
    limits_digest *= 1099511628211ULL;
  }
  void mix_double(double v);
  void add(const Fingerprint& o);  // combines cells of one rep
  // "" when equal; otherwise the first differing field.
  std::string diff(const Fingerprint& o, bool compare_events) const;
};

// Everything one rep measured.
struct RepResult {
  double setup_s = 0.0;  // host: construction through the first timed instant
  double run_s = 0.0;    // host: the timed span
  double sim_s = 0.0;    // simulated seconds in the timed span
  // Host seconds of each simulated 100 ms slice of the timed span, in
  // order (cells concatenated in paper_grid): every rep of a run replays
  // the same inputs, so slice i does the same work in every rep.
  std::vector<double> slice_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Modeled outputs, one entry per cell (paper_grid) or one in total.
  std::vector<double> p50_ms, p999_ms;
  std::vector<double> cpu_slack_mean, mem_slack_mean;  // the metrics
  std::vector<double> cpu_slack_p50, mem_slack_p50;    // Fig. 5/6 medians
  std::uint64_t latency_samples = 0;
  double control_bytes = 0.0;       // telemetry/memory/RPC/bw/HA channels
  double container_seconds = 0.0;   // containers x timed simulated seconds
  sim::Histogram loop_us;           // LoopProfiler end-to-end (observed reps)

  Fingerprint fp;
  Counts counts{};                  // observed reps only
  std::uint64_t pending_max = 0;
  std::uint64_t check_sweeps = 0;
  std::uint64_t check_violations = 0;
  std::string check_report;
  std::vector<double> cell_ms;      // host ms per cell (setup + run)
  std::string vacuous;              // non-empty: why the rep proved nothing

  void add_cell(const RepResult& cell);
};

// --- small statistics helpers (0 for an empty set) ---
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mib();
// Returns freed heap to the kernel and resets VmHWM to the current RSS
// (/proc/self/clear_refs), so a later peak_rss_mib() covers only what runs
// after the call. False when the kernel refuses the reset.
bool reset_peak_rss();

// Host speed. A shared host's speed drifts by 10-15% over minutes (turbo
// frequency and co-tenant load), which moves every host time a run
// measures. calibrate() times a fixed event loop in the benchmark's own
// code — a 4096-entry binary-heap timer queue firing into 1 MiB of state,
// the pattern the simulator's engine runs — as the best of 5 passes, so it
// slows when the host slows the simulator and is untouched by changes to
// the library. A host time t measured while the loop took c seconds is
// reported as t * kCalibrationRefS / c: the time at a fixed host speed.
double calibrate();
// The loop's time on an Intel Xeon at 2.1 GHz (Firecracker guest) in a
// quiet period.
inline constexpr double kCalibrationRefS = 0.005;

// Stable 64-bit mix of a seed and a name: each workload's RNG root.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& name);

}  // namespace escra_bench
