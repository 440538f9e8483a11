// escra_bench: the repository's benchmark. One invocation runs one named
// workload for a fixed host-time budget and prints, as its last line, one
// JSON object with the run's correctness verdict and its metrics; it exits 1
// when a correctness check failed.
//
//   escra_bench --workload NAME [--seed N] [--seconds S | --reps N]
//               [--trace 0|1] [--quick] [--trace-out FILE]
//
// Every run starts with one checked reference rep (observer + invariant
// checker; untimed, it doubles as the warm pass) that yields the modeled
// outputs and the decision fingerprint every later rep must reproduce.
//   --trace 0  bare reps for the budget: the end-to-end metrics (host
//              times per-slice best of the reps, scaled to a reference
//              host speed by calibrate())
//   --trace 1  alternating bare / observed / traced / checked reps for the
//              budget, then the isolated layer timings: the per-layer
//              metrics, the per-layer time table and the attachment costs
// bench/escra_bench/run.py builds this binary, drives every workload and
// compares two result files; README.md documents the workloads and metrics.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"
#include "iso.h"
#include "workloads.h"

namespace escra_bench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int reps = 0;  // > 0 replaces the time budget with a rep count
  int trace = 0;
  bool quick = false;
  std::string trace_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: escra_bench --workload NAME [--seed N] "
               "[--seconds S | --reps N] [--trace 0|1] [--quick] "
               "[--trace-out FILE]\nworkloads:");
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::vector<double> field(const std::vector<RepResult>& reps,
                          double (*get)(const RepResult&)) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const RepResult& r : reps) out.push_back(get(r));
  return out;
}

double sim_speed(const RepResult& r) { return ratio(r.sim_s, r.run_s); }
double setup_s(const RepResult& r) { return r.setup_s; }
double run_s(const RepResult& r) { return r.run_s; }

void print_spread(const char* name, const std::vector<double>& v,
                  const char* unit) {
  std::printf("  %-34s %12.6g %-6s [min %.6g, max %.6g, n=%zu]\n", name,
              median(v), unit, min_of(v), max_of(v), v.size());
}

// Pairwise ratios b[i] / a[i] - 1 of alternating reps.
std::vector<double> overheads(const std::vector<double>& a,
                              const std::vector<double>& b) {
  std::vector<double> out;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    out.push_back(ratio(b[i], a[i]) - 1.0);
  }
  return out;
}

// One row of the per-layer time table: an isolated per-op cost times the
// traced count, or a span measured directly in the traced rep.
struct LayerRow {
  const char* layer;
  const char* basis;
  double est_s;
};

class Run {
 public:
  explicit Run(const Options& opt) : opt_(opt) {}

  int execute();

 private:
  void check_rep(const RepResult& rep, const char* kind, std::size_t index,
                 const RepResult& events_ref);
  void fold_slices(RepResult& rep);
  void end_to_end(const RepResult& ref, const std::vector<RepResult>& bare);
  void per_layer(const std::vector<RepResult>& bare,
                 const std::vector<RepResult>& observed,
                 const std::vector<RepResult>& traced,
                 const std::vector<RepResult>& checked, const Iso& iso,
                 int wal_replicas);
  void add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void problem(const std::string& what) {
    problems_.push_back(what);
    std::printf("FAIL: %s\n", what.c_str());
  }
  void print_json() const;

  Options opt_;
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  Spans spans_;  // traced reps (the --trace-out file)
  // Per timed slice, the fastest host time any bare rep took for it.
  std::vector<double> best_slice_s_;
  std::vector<double> calibration_s_;  // calibrate() before each bare rep
};

void Run::check_rep(const RepResult& rep, const char* kind, std::size_t index,
                    const RepResult& events_ref) {
  attempted_ += rep.attempted;
  failed_ += rep.failed;
  const std::string where =
      std::string(kind) + " rep " + std::to_string(index);
  if (!rep.vacuous.empty()) problem(where + ": " + rep.vacuous);
  if (rep.check_violations > 0) {
    problem(where + ": invariant violations\n" + rep.check_report);
  }
  const std::string d = rep.fp.diff(events_ref.fp, true);
  if (!d.empty()) {
    problem(where + " diverged from the reference fingerprint: " + d);
  }
}

// Folds a bare rep's slice times into best_slice_s_, then frees them: kept
// with every rep, they would make the peak RSS grow with the rep count.
void Run::fold_slices(RepResult& rep) {
  if (best_slice_s_.empty()) {
    best_slice_s_ = rep.slice_s;
  } else if (best_slice_s_.size() != rep.slice_s.size()) {
    problem("bare reps ran different numbers of slices");
  } else {
    for (std::size_t i = 0; i < best_slice_s_.size(); ++i) {
      best_slice_s_[i] = std::min(best_slice_s_[i], rep.slice_s[i]);
    }
  }
  std::vector<double>().swap(rep.slice_s);
}

int Run::execute() {
  std::unique_ptr<Workload> w =
      make_workload(opt_.workload, opt_.seed, opt_.quick);
  if (!w) return usage();
  const bool traced_run = opt_.trace == 1;
  std::printf("escra_bench: workload %s, seed %llu, %s, %s\n",
              opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
              traced_run ? "traced (per-layer)" : "bare (end-to-end)",
              opt_.quick ? "quick" : "full size");

  // The reference rep: checked, untimed, and the warm pass.
  RepResult ref = w->run(RunKind::kChecked, nullptr);
  std::vector<double>().swap(ref.slice_s);  // untimed: its slices are unused
  check_rep(ref, "reference", 0, ref);
  const std::string verdict = w->verify(ref);
  if (!verdict.empty()) problem("reference rep: " + verdict);

  std::vector<RepResult> bare, observed, traced, checked;
  const auto t0 = Clock::now();
  // Another rep (or cycle) starts only if one as long as the last still
  // ends inside the budget, so a run overshoots --seconds by little.
  auto last = t0;
  const auto more = [&](std::size_t done, std::size_t min_done) {
    if (opt_.reps > 0) return done < static_cast<std::size_t>(opt_.reps);
    const auto now = Clock::now();
    const double previous = std::chrono::duration<double>(now - last).count();
    last = now;
    return done < min_done || seconds_since(t0) + previous < opt_.seconds;
  };
  if (!traced_run) {
    // peak_rss_mib is the bare system's: leave out the reference rep's
    // observer, checker and (paper_grid) run_microservice cross-check.
    if (!reset_peak_rss()) {
      std::printf("warning: cannot reset VmHWM; peak_rss_mib includes the "
                  "checked reference rep\n");
    }
    while (more(bare.size(), 3)) {
      calibration_s_.push_back(calibrate());
      bare.push_back(w->run(RunKind::kBare, nullptr));
      check_rep(bare.back(), "bare", bare.size(), bare.front());
      fold_slices(bare.back());
    }
  } else {
    while (more(bare.size(), 2)) {
      bare.push_back(w->run(RunKind::kBare, nullptr));
      check_rep(bare.back(), "bare", bare.size(), bare.front());
      observed.push_back(w->run(RunKind::kObserved, nullptr));
      check_rep(observed.back(), "observed", observed.size(), bare.front());
      traced.push_back(w->run(RunKind::kTraced, &spans_));
      check_rep(traced.back(), "traced", traced.size(), bare.front());
      checked.push_back(w->run(RunKind::kChecked, nullptr));
      check_rep(checked.back(), "checked", checked.size(), ref);
    }
  }
  // The checked reference also executed the checker's sweep events; on
  // everything else the bare reps must match it.
  const std::string d = bare.front().fp.diff(ref.fp, false);
  if (!d.empty()) problem("bare reps diverged from the reference: " + d);
  if (!traced_run) {
    end_to_end(ref, bare);
  } else {
    const Iso iso = run_iso(w->iso_shape(), opt_.quick);
    per_layer(bare, observed, traced, checked, iso, w->wal_replicas());
    if (!opt_.trace_out.empty() &&
        !spans_.write(opt_.trace_out, opt_.workload, opt_.seed)) {
      problem("cannot write " + opt_.trace_out);
    }
  }
  if (failed_ > 0) {
    std::printf("note: %llu of %llu work items failed (dropped, refused or "
                "unfinished)\n",
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
  }
  print_json();
  return problems_.empty() ? 0 : 1;
}

void Run::end_to_end(const RepResult& ref, const std::vector<RepResult>& bare) {
  // Best of N at slice granularity (EXPERIMENTS.md's timing methodology):
  // every rep replays the same instruction stream, so the fastest time of
  // each slice is its cost and anything above it is host interference,
  // which a whole rep rarely escapes on a shared host but a slice does.
  const double best_run_s =
      std::accumulate(best_slice_s_.begin(), best_slice_s_.end(), 0.0);
  // Host times at the reference host speed (see calibrate()).
  const double host_scale = ratio(kCalibrationRefS, median(calibration_s_));
  const double speed = ratio(bare.front().sim_s, best_run_s * host_scale);
  const std::vector<double> rep_speed = field(bare, sim_speed);
  const std::vector<double> setup = field(bare, setup_s);
  const double setup_ref = median(setup) * host_scale;
  const double rss = peak_rss_mib();
  const double bytes_per_cs = ratio(ref.control_bytes, ref.container_seconds);

  std::printf("\nend to end (sim_speed: fastest time of each of %zu slices "
              "over %zu bare reps; setup_s: median of the reps; both at the "
              "reference host speed; modeled: the reference rep, identical "
              "in every rep)\n",
              best_slice_s_.size(), bare.size());
  std::printf("  host speed: calibration loop %.4g ms (median of %zu; "
              "reference %.4g ms), host times scaled by %.4f\n",
              median(calibration_s_) * 1e3, calibration_s_.size(),
              kCalibrationRefS * 1e3, host_scale);
  std::printf("  %-34s %12.6g %-6s (unscaled %.6g)\n",
              "sim_speed (simulated s / host s)", speed, "s/s",
              ratio(bare.front().sim_s, best_run_s));
  print_spread("  whole reps, unscaled", rep_speed, "s/s");
  std::printf("  %-34s %12.6g %-6s\n", "setup_s", setup_ref, "s");
  print_spread("  reps, unscaled", setup, "s");
  std::printf("  %-34s %12.6g %s\n", "peak_rss_mib", rss, "MiB");
  std::printf("  %-34s %12.6g %-6s (mean over %zu cells, %llu samples)\n",
              "req_p50_ms", mean(ref.p50_ms), "ms", ref.p50_ms.size(),
              static_cast<unsigned long long>(ref.latency_samples));
  std::printf("  %-34s %12.6g %-6s\n", "req_p999_ms", mean(ref.p999_ms), "ms");
  std::printf("  %-34s %12.6g %-6s (p50 %.4g; per-cell p50 range "
              "%.4g..%.4g)\n",
              "cpu_slack_mean_cores", mean(ref.cpu_slack_mean), "cores",
              mean(ref.cpu_slack_p50), min_of(ref.cpu_slack_p50),
              max_of(ref.cpu_slack_p50));
  std::printf("  %-34s %12.6g %-6s (p50 %.4g; per-cell p50 range "
              "%.4g..%.4g)\n",
              "mem_slack_mean_mib", mean(ref.mem_slack_mean), "MiB",
              mean(ref.mem_slack_p50), min_of(ref.mem_slack_p50),
              max_of(ref.mem_slack_p50));
  std::printf("  %-34s %12.6g %-6s\n", "control_bytes_per_container_s",
              bytes_per_cs, "B/s");
  std::printf("  %-34s p50 %.4g ms, p99 %.4g ms over %llu loops "
              "(LoopProfiler, fire -> cgroup write; reference rep)\n",
              "control loop", static_cast<double>(ref.loop_us.percentile(50)) / 1e3,
              static_cast<double>(ref.loop_us.percentile(99)) / 1e3,
              static_cast<unsigned long long>(ref.loop_us.count()));

  add("sim_speed", speed, "s/s");
  add("setup_s", setup_ref, "s");
  add("peak_rss_mib", rss, "MiB");
  add("req_p50_ms", mean(ref.p50_ms), "ms");
  add("req_p999_ms", mean(ref.p999_ms), "ms");
  add("cpu_slack_mean_cores", mean(ref.cpu_slack_mean), "cores");
  add("mem_slack_mean_mib", mean(ref.mem_slack_mean), "MiB");
  add("control_bytes_per_container_s", bytes_per_cs, "B/s");
}

void Run::per_layer(const std::vector<RepResult>& bare,
                    const std::vector<RepResult>& observed,
                    const std::vector<RepResult>& traced,
                    const std::vector<RepResult>& checked, const Iso& iso,
                    int wal_replicas) {
  const RepResult& t = traced.front();
  const Counts& c = t.counts;
  const auto n = static_cast<double>(traced.size());
  const std::vector<double> bare_s = field(bare, run_s);
  const std::vector<double> observed_s = field(observed, run_s);
  const std::vector<double> traced_s = field(traced, run_s);
  const std::vector<double> checked_s = field(checked, run_s);
  // The rows estimate the system's own time, so they are held against the
  // observed reps' wall: the same work, without the spans' cost.
  const double wall = median(observed_s);
  const auto per_rep = [&](Child ch) {
    return spans_.child_total(ch, "slice").estimated_s() / n;
  };
  const double tick_s = per_rep(Child::kTick);
  const double submit_s = per_rep(Child::kSubmit);
  const double shape_s = per_rep(Child::kShape);
  const double shape_calls =
      static_cast<double>(spans_.child_total(Child::kShape, "slice").count) / n;
  std::vector<double> cell_ms;
  for (const RepResult& r : traced) {
    cell_ms.insert(cell_ms.end(), r.cell_ms.begin(), r.cell_ms.end());
  }
  const std::vector<double> obs_over = overheads(bare_s, observed_s);
  const std::vector<double> spans_over = overheads(observed_s, traced_s);
  const std::vector<double> check_over = overheads(observed_s, checked_s);
  std::uint64_t violations = 0;
  std::uint64_t sweeps = 0;
  for (const RepResult& r : checked) {
    violations += r.check_violations;
    sweeps = std::max(sweeps, r.check_sweeps);
  }
  const auto cnt = [&](Count k) { return static_cast<double>(c[k]); };

  // --- per-layer time table ---
  // Slices per CFS period: every workload's nodes run 10 ms scheduler
  // slices in 100 ms periods.
  constexpr double kSlicesPerPeriod = 10.0;
  const std::vector<LayerRow> rows = {
      {"sim: engine dispatch", "iso sim.fire_ns x sim.events",
       iso.sim_fire_ns * 1e-9 * cnt(kSimEvents)},
      {"net: message send", "iso net.send_ns x net.messages",
       iso.net_send_ns * 1e-9 * cnt(kNetMessages)},
      {"cfs: node scheduler", "iso cfs.slice_ns x consumer-slices",
       iso.cfs_slice_ns * 1e-9 * cnt(kCfsPeriods) * kSlicesPerPeriod},
      {"cluster: container run", "iso cluster.run_ns x consumer-slices",
       iso.cluster_run_ns * 1e-9 * cnt(kCfsPeriods) * kSlicesPerPeriod},
      {"memcg: charge", "iso memcg.charge_ns x memcg.charges",
       iso.memcg_charge_ns * 1e-9 * cnt(kMemcgCharges)},
      {"core.controller: ingest", "iso (ingest - decide) x stats",
       std::max(0.0, iso.controller_ingest_ns - iso.allocator_decide_ns) *
           1e-9 * cnt(kStatsIngested)},
      {"core.allocator: decide", "iso decide x stats + oom x mem decisions",
       (iso.allocator_decide_ns * cnt(kStatsIngested) +
        iso.allocator_oom_ns * (cnt(kMemGrants) + cnt(kMemDenies))) *
           1e-9},
      {"bw: shaper", "span bw.shape (every call timed)", shape_s},
      {"ha: WAL fold", "iso ha.fold_ns x appends x replicas",
       iso.ha_fold_ns * 1e-9 * cnt(kWalAppends) * wal_replicas},
      {"obs: trace record", "iso obs.record_ns x obs.trace_events",
       iso.obs_record_ns * 1e-9 * cnt(kTraceEvents)},
      {"workload: generators", "span workload.tick (1/64 sampled, exclusive)",
       tick_s},
      {"cluster: container submit", "span workload.submit (every call timed)",
       submit_s},
  };
  double attributed = 0.0;
  const LayerRow* dominant = &rows.front();
  for (const LayerRow& r : rows) {
    attributed += r.est_s;
    if (r.est_s > dominant->est_s) dominant = &r;
  }
  const double residual = wall - attributed;
  std::printf("\nper-layer host time of the timed span (wall: median %.4f s "
              "over %zu observed reps; counts and spans: traced reps)\n",
              wall, observed.size());
  std::printf("  %-28s %-44s %10s %7s\n", "layer", "basis", "est s", "share");
  for (const LayerRow& r : rows) {
    std::printf("  %-28s %-44s %10.4f %6.1f%%\n", r.layer, r.basis, r.est_s,
                100.0 * ratio(r.est_s, wall));
  }
  std::printf("  %-28s %-44s %10.4f %6.1f%%\n", "unattributed (residual)",
              "wall - sum of rows", residual, 100.0 * ratio(residual, wall));
  std::printf("  dominant layer: %s\n", dominant->layer);
  if (c[kTraceEvicted] > 0) {
    std::printf("warning: the 64k decision ring evicted %llu events while "
                "%llu were recorded in the timed span (obs.trace_evicted); "
                "the counts above come from counters and are complete, but "
                "a trace export keeps only the newest events\n",
                static_cast<unsigned long long>(c[kTraceEvicted]),
                static_cast<unsigned long long>(c[kTraceEvents]));
  }

  // --- attachment cost ---
  std::printf("\nattachment cost (timed span host s, %zu alternating cycles)\n",
              bare.size());
  print_spread("bare", bare_s, "s");
  print_spread("observer", observed_s, "s");
  print_spread("observer + spans", traced_s, "s");
  print_spread("observer + checker", checked_s, "s");
  print_spread("obs.overhead_frac (observer/bare-1)", obs_over, "");
  print_spread("spans.overhead_frac (spans/observer-1)", spans_over, "");
  print_spread("check.overhead_frac (checker/observer-1)", check_over, "");

  add("sim.events", cnt(kSimEvents), "count");
  add("sim.events_per_s", ratio(cnt(kSimEvents), wall), "1/s");
  add("sim.pending_max", static_cast<double>(t.pending_max), "count");
  add("sim.schedule_ns", iso.sim_schedule_ns, "ns");
  add("sim.cancel_ns", iso.sim_cancel_ns, "ns");
  add("sim.fire_ns", iso.sim_fire_ns, "ns");
  add("run.slice_ms_p50", median(spans_.durations_ms("slice")), "ms");
  add("workload.tick_s", tick_s, "s");
  add("workload.submit_s", submit_s, "s");
  add("exp.cell_ms_p50", median(cell_ms), "ms");
  add("net.messages", cnt(kNetMessages), "count");
  add("net.bytes", cnt(kNetBytes), "B");
  add("net.control_bytes", cnt(kNetControlBytes), "B");
  add("net.dropped_msgs", cnt(kNetDropped), "count");
  add("net.send_ns", iso.net_send_ns, "ns");
  add("net.rpc_ns", iso.net_rpc_ns, "ns");
  add("cfs.periods", cnt(kCfsPeriods), "count");
  add("cfs.throttled_periods", cnt(kCfsThrottled), "count");
  add("cfs.throttle_frac", ratio(cnt(kCfsThrottled), cnt(kCfsPeriods)), "ratio");
  add("cfs.slice_ns", iso.cfs_slice_ns, "ns");
  add("cluster.run_ns", iso.cluster_run_ns, "ns");
  add("memcg.charges", cnt(kMemcgCharges), "count");
  add("memcg.oom_events", cnt(kMemcgOomEvents), "count");
  add("memcg.oom_rescues", cnt(kMemcgOomRescues), "count");
  add("memcg.oom_kills", cnt(kMemcgOomKills), "count");
  add("memcg.rescue_frac", ratio(cnt(kMemcgOomRescues), cnt(kMemcgOomEvents)),
      "ratio");
  add("memcg.charge_ns", iso.memcg_charge_ns, "ns");
  add("controller.stats_ingested", cnt(kStatsIngested), "count");
  add("controller.telemetry_rejected", cnt(kTelemetryRejected), "count");
  add("controller.limit_updates", cnt(kLimitUpdates), "count");
  add("controller.batched_rpcs", cnt(kBatchedRpcs), "count");
  add("controller.batch_entries", cnt(kBatchEntries), "count");
  add("controller.entries_per_rpc", ratio(cnt(kBatchEntries), cnt(kBatchedRpcs)),
      "ratio");
  add("controller.retransmits", cnt(kRetransmits), "count");
  add("controller.retransmit_frac", ratio(cnt(kRetransmits), cnt(kLimitUpdates)),
      "ratio");
  add("controller.ingest_ns", iso.controller_ingest_ns, "ns");
  add("allocator.cpu_grants", cnt(kCpuGrants), "count");
  add("allocator.cpu_shrinks", cnt(kCpuShrinks), "count");
  add("allocator.decision_frac",
      ratio(cnt(kCpuGrants) + cnt(kCpuShrinks), cnt(kStatsIngested)), "ratio");
  add("allocator.mem_grants", cnt(kMemGrants), "count");
  add("allocator.mem_denies", cnt(kMemDenies), "count");
  add("allocator.bw_grants", cnt(kBwGrants), "count");
  add("allocator.bw_shrinks", cnt(kBwShrinks), "count");
  add("allocator.decide_ns", iso.allocator_decide_ns, "ns");
  add("allocator.oom_ns", iso.allocator_oom_ns, "ns");
  add("agent.limit_applies", cnt(kAgentApplies), "count");
  add("agent.dup_suppressed", cnt(kDupSuppressed), "count");
  add("bw.shape_calls", shape_calls, "count");
  add("bw.shape_s", shape_s, "s");
  add("bw.throttle_events", cnt(kBwThrottleEvents), "count");
  add("bw.shape_ns", iso.bw_shape_ns, "ns");
  add("ha.wal_appends", cnt(kWalAppends), "count");
  add("ha.failovers", cnt(kFailovers), "count");
  add("ha.fold_ns", iso.ha_fold_ns, "ns");
  add("obs.trace_events", cnt(kTraceEvents), "count");
  add("obs.trace_evicted", cnt(kTraceEvicted), "count");
  add("obs.overhead_frac", median(obs_over), "ratio");
  add("spans.overhead_frac", median(spans_over), "ratio");
  add("obs.record_ns", iso.obs_record_ns, "ns");
  add("check.sweeps", static_cast<double>(sweeps), "count");
  add("check.violations", static_cast<double>(violations), "count");
  add("check.overhead_frac", median(check_over), "ratio");
  add("check.sweep_us", iso.check_sweep_us, "us");
  add("layers.unattributed_frac", ratio(residual, wall), "ratio");
}

void Run::print_json() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              problems_.empty() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, attempted_)),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(), metrics_[i].value,
                metrics_[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    char* end = nullptr;
    if (flag == "--quick") {
      opt.quick = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--trace-out") {
      opt.trace_out = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (!(opt.seconds > 0.0)) return false;
    } else if (flag == "--reps") {
      opt.reps = static_cast<int>(std::strtol(v, &end, 10));
      if (opt.reps <= 0) return false;
    } else if (flag == "--trace") {
      opt.trace = static_cast<int>(std::strtol(v, &end, 10));
      if (opt.trace != 0 && opt.trace != 1) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  if (!opt.trace_out.empty() && opt.trace != 1) return false;
  return !opt.workload.empty();
}

}  // namespace
}  // namespace escra_bench

int main(int argc, char** argv) {
  escra_bench::Options opt;
  if (!escra_bench::parse(argc, argv, opt)) return escra_bench::usage();
  try {
    return escra_bench::Run(opt).execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "escra_bench: %s\n", e.what());
    return 1;
  }
}
