#include "cluster/container.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace escra::cluster {
namespace {

// run_for's buffer of completions to deliver, empty between calls so its
// capacity is reused instead of allocated every slice. Shared by every
// container on the thread rather than kept per container: a node runs its
// containers back to back, and one buffer they all reuse stays in cache.
thread_local std::vector<Container::Completion> spare_finished;

}  // namespace

Container::Container(sim::Simulation& sim, ContainerId id, ContainerSpec spec,
                     sim::Duration cfs_period, double initial_cores,
                     memcg::Bytes initial_mem_limit)
    : sim_(sim),
      id_(id),
      spec_(std::move(spec)),
      cpu_(id, cfs_period, initial_cores),
      mem_(id, initial_mem_limit) {
  resident_ = spec_.base_memory;
  mem_.force_charge(resident_);
  enqueue_startup_work();
}

Container::~Container() {
  sim_.cancel(rt_release_timer_);
  sim_.cancel(rt_deadline_check_);
}

void Container::set_rt(const cfs::RtSpec& spec) {
  if (!spec.valid()) {
    throw std::invalid_argument("Container::set_rt: invalid RtSpec");
  }
  clear_rt();
  rt_ = spec;
  // Burst = runtime: a job released right at a quota-budget edge draws its
  // full runtime from accumulated burst instead of stalling into the next
  // refill — without this, CFS quantization alone can miss tight deadlines.
  cpu_.set_burst(spec.runtime);
  release_rt_job();
  rt_release_timer_ = sim_.schedule_every(sim_.now() + spec.period, spec.period,
                                          [this] { release_rt_job(); });
}

void Container::clear_rt() {
  if (!rt_.valid()) return;
  sim_.cancel(rt_release_timer_);
  sim_.cancel(rt_deadline_check_);
  rt_ = {};
  rt_job_remaining_ = 0;
  cpu_.set_burst(0);
}

void Container::release_rt_job() {
  if (!rt_.valid() || state_ != State::kRunning) return;
  // deadline <= period (RtSpec::valid), so the previous job's deadline
  // check has already fired; any leftover remainder here was abandoned
  // there and lateness never cascades across jobs.
  rt_job_remaining_ = rt_.runtime;
  ++rt_job_seq_;
  ++rt_jobs_released_;
  const std::uint64_t seq = rt_job_seq_;
  rt_deadline_check_ = sim_.schedule_after(
      rt_.deadline, [this, seq] { check_rt_deadline(seq); });
}

void Container::check_rt_deadline(std::uint64_t job_seq) {
  if (job_seq != rt_job_seq_ || rt_job_remaining_ <= 0) return;
  ++deadline_misses_;
  const sim::Duration remaining = rt_job_remaining_;
  rt_job_remaining_ = 0;  // abandon the late job: one miss per job, no pileup
  if (on_deadline_miss_) on_deadline_miss_(remaining);
}

void Container::enqueue_startup_work() {
  if (spec_.startup_cpu <= 0) return;
  // Warmup burns core-time across the container's worker threads; split it
  // so it can exploit the full parallelism like a real JIT/startup phase.
  const auto lanes = std::max(1, static_cast<int>(spec_.max_parallelism));
  const sim::Duration per_lane = spec_.startup_cpu / lanes;
  for (int i = 0; i < lanes; ++i) {
    WorkItem item;
    item.remaining = std::max<sim::Duration>(per_lane, 1);
    item.mem = 0;
    queue_.push_back(std::move(item));
  }
}

bool Container::submit(sim::Duration cpu_cost, memcg::Bytes mem_footprint,
                       Completion on_done) {
  if (state_ != State::kRunning) return false;
  WorkItem item;
  item.remaining = std::max<sim::Duration>(cpu_cost, 1);
  item.mem = mem_footprint;
  item.on_done = std::move(on_done);
  queue_.push_back(std::move(item));
  return true;
}

void Container::adjust_resident(memcg::Bytes delta) {
  if (state_ != State::kRunning) return;
  if (delta >= 0) {
    const memcg::ChargeResult charge = mem_.try_charge(delta);
    if (charge == memcg::ChargeResult::kOom) {
      oom_kill();
      return;
    }
    if (charge == memcg::ChargeResult::kRescued) stall_for(spec_.oom_rescue_stall);
    resident_ += delta;
  } else {
    const memcg::Bytes release = std::min<memcg::Bytes>(-delta, resident_);
    mem_.uncharge(release);
    resident_ -= release;
  }
}

double Container::cpu_demand(sim::Duration slice) {
  if (state_ != State::kRunning || sim_.now() < stalled_until_) return 0.0;
  const double slice_f = static_cast<double>(slice);
  double demand = 0.0;
  double lanes = spec_.max_parallelism;
  if (rt_job_remaining_ > 0 && lanes > 0.0) {
    // The RT job runs single-threaded on its own lane ahead of FIFO work.
    const double want =
        std::min(static_cast<double>(rt_job_remaining_), slice_f) / slice_f;
    demand += std::min(want, 1.0);
    lanes -= 1.0;
  }
  for (const WorkItem& item : queue_) {
    if (lanes <= 0.0) break;
    const double want =
        std::min(static_cast<double>(item.remaining), slice_f) / slice_f;
    demand += std::min(want, lanes);
    lanes -= 1.0;
  }
  return std::min(demand, spec_.max_parallelism);
}

void Container::run_for(sim::Duration granted, sim::Duration slice) {
  if (state_ != State::kRunning || granted <= 0) return;
  // The RT job is served before any best-effort work: within the container
  // the reservation has strict priority, mirroring the scheduler's RT tier
  // across containers.
  if (rt_job_remaining_ > 0) {
    const sim::Duration give = std::min({rt_job_remaining_, slice, granted});
    rt_job_remaining_ -= give;
    granted -= give;
    if (rt_job_remaining_ == 0) ++rt_jobs_completed_;
    if (granted <= 0) return;
  }
  // Drain FIFO: each item is single-threaded so it can absorb at most
  // `slice` of core-time in one slice; surplus flows to the next item.
  // The completion buffer is taken by move, so a callback that re-enters
  // run_for gets an empty one, and handed back afterwards with its capacity.
  std::vector<Completion> finished = std::move(spare_finished);
  bool oom = false;
  const std::size_t n = queue_.size();
  for (std::size_t i = 0; i < n && granted > 0; ++i) {
    WorkItem& item = queue_[i];
    if (item.remaining == 0) continue;
    if (!item.charged) {
      // The working set is allocated as the request starts executing. This
      // is where the pre-OOM kernel hook fires under memory pressure.
      const memcg::ChargeResult charge = mem_.try_charge(item.mem);
      if (charge == memcg::ChargeResult::kOom) {
        oom = true;
        break;
      }
      if (charge == memcg::ChargeResult::kRescued) {
        stall_for(spec_.oom_rescue_stall);
      }
      item.charged = true;
    }
    const sim::Duration give = std::min({item.remaining, slice, granted});
    item.remaining -= give;
    granted -= give;
    if (item.remaining == 0) {
      mem_.uncharge(item.mem);
      ++completed_;
      finished.push_back(std::move(item.on_done));
    }
  }
  if (!finished.empty()) {
    // Only this call zeroes an item's remaining time, so the queue holds
    // finished items only when it finished some.
    std::erase_if(queue_, [](const WorkItem& w) { return w.remaining == 0; });
  }
  // The OOM killer takes the whole container down: oom_kill() fails every
  // item still queued (including the one whose charge overflowed) and
  // schedules the restart. Items that finished before the overflow have
  // left the queue, so they still complete below.
  if (oom) oom_kill();
  // Invoke completions only after the queue is consistent: callbacks may
  // submit new work here or even OOM-kill this container.
  for (Completion& done : finished) {
    if (done) done(true);
  }
  finished.clear();
  spare_finished = std::move(finished);
}

void Container::stall_for(sim::Duration d) {
  stalled_until_ = std::max(stalled_until_, sim_.now() + d);
}

void Container::oom_kill() {
  if (state_ != State::kRunning) return;
  ++oom_kill_count_;
  kill_common();
}

void Container::evict_restart(double new_cores, memcg::Bytes new_mem_limit) {
  if (state_ != State::kRunning) return;
  ++evictions_;
  cpu_.set_limit_cores(new_cores);
  mem_.set_limit(new_mem_limit);
  kill_common();
}

void Container::kill_common() {
  state_ = State::kRestarting;
  // An in-flight RT job dies with the container: that is a drop (the kill's
  // fault), not a deadline miss (an allocator decision) — cancel the check.
  rt_job_remaining_ = 0;
  sim_.cancel(rt_deadline_check_);
  std::vector<Completion> failed;
  failed.reserve(queue_.size());
  for (WorkItem& item : queue_) {
    ++dropped_;
    failed.push_back(std::move(item.on_done));
  }
  queue_.clear();
  mem_.reset_usage();
  resident_ = 0;
  cpu_.reset_bandwidth();
  sim_.schedule_after(spec_.restart_delay, [this] { finish_restart(); });
  for (Completion& done : failed) {
    if (done) done(false);
  }
}

void Container::finish_restart() {
  state_ = State::kRunning;
  resident_ = spec_.base_memory;
  mem_.force_charge(resident_);
  enqueue_startup_work();
}

}  // namespace escra::cluster
