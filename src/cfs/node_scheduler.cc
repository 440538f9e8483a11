#include "cfs/node_scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace escra::cfs {
namespace {

// One slice's working vectors, indexed like the scheduler's consumers.
struct SliceScratch {
  std::vector<double> demands;
  // Bytes rather than vector<bool>, whose bit proxies make every store a
  // read-modify-write of a shared word.
  std::vector<unsigned char> quota_capped;
  std::vector<double> grants;
  std::vector<double> rt_demands;  // RT tier's demands (two-tier split only)
  std::vector<double> be_grants;   // best-effort tier's grants (ditto)
  std::vector<std::size_t> work;   // max_min_fair's worklist
};

// Shared by every scheduler on the thread rather than kept per node: a fleet
// runs hundreds of nodes' slices back to back, and one buffer they all reuse
// stays in cache where a per-node one would be cold each time its node ran.
thread_local SliceScratch spare_scratch;

}  // namespace

NodeCpuScheduler::NodeCpuScheduler(sim::Simulation& sim, Config config)
    : sim_(sim), config_(config) {
  if (config_.cores <= 0.0) throw std::invalid_argument("node cores <= 0");
  if (config_.slice <= 0 || config_.period <= 0 ||
      config_.period % config_.slice != 0) {
    throw std::invalid_argument("period must be a positive multiple of slice");
  }
  tick_ = sim_.schedule_every(sim_.now() + config_.slice, config_.slice,
                              [this] { on_slice(); });
}

NodeCpuScheduler::~NodeCpuScheduler() { sim_.cancel(tick_); }

void NodeCpuScheduler::attach(CpuConsumer* consumer) {
  if (consumer == nullptr) throw std::invalid_argument("attach: null consumer");
  consumers_.push_back({consumer, &consumer->cpu_cgroup()});
}

void NodeCpuScheduler::detach(CpuConsumer* consumer) {
  std::erase_if(consumers_,
                [consumer](const Attached& a) { return a.consumer == consumer; });
}

std::vector<double> NodeCpuScheduler::max_min_fair(
    const std::vector<double>& demands, double capacity) {
  std::vector<double> grant;
  std::vector<std::size_t> work;
  max_min_fair(demands, capacity, grant, work);
  return grant;
}

void NodeCpuScheduler::max_min_fair(const std::vector<double>& demands,
                                    double capacity, std::vector<double>& grant,
                                    std::vector<std::size_t>& work) {
  grant.assign(demands.size(), 0.0);
  double remaining = capacity;
  work.clear();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i] > 0.0) work.push_back(i);
  }
  // Water-filling: repeatedly hand each unsatisfied consumer an equal share;
  // consumers whose demand is met drop out and return their excess. The
  // worklist is compacted in place (a kept entry never passes its reader).
  while (!work.empty() && remaining > 1e-12) {
    const double share = remaining / static_cast<double>(work.size());
    double given = 0.0;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < work.size(); ++k) {
      const std::size_t i = work[k];
      const double want = demands[i] - grant[i];
      const double take = std::min(want, share);
      grant[i] += take;
      given += take;
      if (demands[i] - grant[i] > 1e-12) work[kept++] = i;
    }
    remaining -= given;
    if (given <= 1e-12) break;  // everyone satisfied
    work.resize(kept);
  }
}

void NodeCpuScheduler::on_slice() {
  const sim::Duration slice = config_.slice;
  const double slice_s = static_cast<double>(slice);
  const std::size_t n = consumers_.size();
  // Taken by move, so a slice nested in a consumer's callback would get
  // empty buffers instead of clobbering these; handed back at the end.
  SliceScratch s = std::move(spare_scratch);

  // 1. Collect demands, capped by each cgroup's remaining runtime. Track
  //    whether quota (not the raw workload) was the binding constraint; that
  //    distinction drives the CFS throttle flag.
  s.demands.resize(n);
  s.quota_capped.resize(n);
  bool any_rt = false;
  for (std::size_t i = 0; i < n; ++i) {
    CpuConsumer& c = *consumers_[i].consumer;
    const double raw = std::max(0.0, c.cpu_demand(slice));
    const double quota_cores =
        static_cast<double>(consumers_[i].cgroup->runtime_remaining()) / slice_s;
    s.demands[i] = std::min(raw, quota_cores);
    s.quota_capped[i] = raw > quota_cores + 1e-12;
    any_rt = any_rt || c.realtime();
  }

  // 2. Two-tier split: the RT tier water-fills against the full node first
  //    (deadline class — best-effort contention can never squeeze it), then
  //    best-effort consumers share max-min fairly what remains. With no RT
  //    consumers attached this reduces bit-for-bit to the flat split.
  if (!any_rt) {
    max_min_fair(s.demands, config_.cores, s.grants, s.work);
  } else {
    // s.demands keeps the best-effort tier; the RT tier moves to rt_demands.
    s.rt_demands.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (consumers_[i].consumer->realtime()) {
        s.rt_demands[i] = s.demands[i];
        s.demands[i] = 0.0;
      }
    }
    max_min_fair(s.rt_demands, config_.cores, s.grants, s.work);
    double rt_used = 0.0;
    for (const double g : s.grants) rt_used += g;
    max_min_fair(s.demands, std::max(0.0, config_.cores - rt_used),
                 s.be_grants, s.work);
    for (std::size_t i = 0; i < n; ++i) {
      if (!consumers_[i].consumer->realtime()) s.grants[i] = s.be_grants[i];
    }
  }

  // 3. Charge runtime and let each consumer advance.
  double used = 0.0;
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    CfsCgroup& cg = *consumers_[i].cgroup;
    auto granted =
        static_cast<sim::Duration>(std::floor(s.grants[i] * slice_s));
    granted = std::min(granted, cg.runtime_remaining());
    cg.consume(granted, s.quota_capped[i] != 0);
    if (granted > 0) consumers_[i].consumer->run_for(granted, slice);
    used += static_cast<double>(granted) / slice_s;
  }
  last_usage_cores_ = used;
  spare_scratch = std::move(s);

  // 4. Period boundary: fire telemetry hooks and refill.
  into_period_ += slice;
  if (into_period_ >= config_.period) {
    into_period_ = 0;
    const sim::TimePoint now = sim_.now();
    for (const Attached& a : consumers_) a.cgroup->end_period(now);
  }
}

}  // namespace escra::cfs
