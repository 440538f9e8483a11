// A container: a CFS cgroup + a memory cgroup + a FIFO work queue.
//
// The application layer submits work items (a request's CPU cost at one
// service, or a serverless action body); the node scheduler drains them
// through the container's CFS quota. Memory is charged per item on submit
// and released on completion, on top of a resident base footprint, so a
// container's usage rises and falls with its in-flight load — the dynamics
// that make static limits wasteful and coarse autoscalers late.
//
// When a charge overflows the memory limit the cgroup's pre-OOM hook runs
// (the Escra rescue path). If no hook is installed, or the hook declines,
// the container is OOM-killed: all queued work fails and the container
// restarts after a cold-start delay — the cost Escra's event-driven scaling
// is designed to avoid.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "cfs/cgroup.h"
#include "cfs/node_scheduler.h"
#include "cfs/rt.h"
#include "memcg/mem_cgroup.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace escra::cluster {

using ContainerId = std::uint32_t;

// Static description of a container (the "YAML" fields that matter here).
struct ContainerSpec {
  std::string name;
  // Worker-thread parallelism: how many cores the container can use at once.
  double max_parallelism = 4.0;
  // Resident memory after start (image + runtime baseline).
  memcg::Bytes base_memory = 64 * memcg::kMiB;
  // Cold restart time after an OOM kill (image pull cached; process restart,
  // reconnects, warmup).
  sim::Duration restart_delay = sim::seconds(3);
  // Stall applied to the whole container while an OOM rescue round-trips to
  // the Controller (orders of magnitude cheaper than the restart).
  sim::Duration oom_rescue_stall = sim::milliseconds(1);
  // Core-time burned right after (re)start — JIT warmup, cache priming,
  // connection setup. This is what inflates profiled "maximum usage" and
  // makes peak-based static limits so much larger than steady-state demand.
  sim::Duration startup_cpu = 0;
};

class Container final : public cfs::CpuConsumer {
 public:
  enum class State { kRunning, kRestarting };

  // Completion callback: ok=true when the work finished, false when it was
  // dropped by an OOM kill.
  using Completion = std::function<void(bool ok)>;

  Container(sim::Simulation& sim, ContainerId id, ContainerSpec spec,
            sim::Duration cfs_period, double initial_cores,
            memcg::Bytes initial_mem_limit);

  ContainerId id() const { return id_; }
  const std::string& name() const { return spec_.name; }
  const ContainerSpec& spec() const { return spec_; }
  State state() const { return state_; }
  bool running() const { return state_ == State::kRunning; }

  // --- application interface ---

  // Enqueues a work item costing `cpu_cost` core-time. `mem_footprint`
  // bytes are charged when the item *starts executing* (a queued request
  // holds a socket, not heap) and released at completion. Returns false
  // (and does not invoke `on_done`) if the container is restarting; returns
  // true and eventually calls `on_done` otherwise. The deferred charge may
  // OOM-kill the container when it fires, in which case `on_done(false)`
  // fires along with every other queued item's callback.
  bool submit(sim::Duration cpu_cost, memcg::Bytes mem_footprint,
              Completion on_done);

  // Adjusts the container's resident memory by `delta` (e.g. a cache or
  // model loaded outside any single request). Can trigger the same OOM path.
  void adjust_resident(memcg::Bytes delta);

  std::size_t queue_depth() const { return queue_.size(); }

  // Resident (non-request) memory currently charged: base footprint plus
  // adjust_resident deltas. Lets the invariant checker distinguish a
  // legitimate usage > limit (force-charged residency after a restart into
  // a reclaimed limit) from an accounting bug.
  memcg::Bytes resident() const { return resident_; }

  // --- cgroups (what the Escra Agent manipulates) ---
  cfs::CfsCgroup& cpu_cgroup() override { return cpu_; }
  const cfs::CfsCgroup& cpu_cgroup() const { return cpu_; }
  memcg::MemCgroup& mem_cgroup() { return mem_; }
  const memcg::MemCgroup& mem_cgroup() const { return mem_; }

  // --- CpuConsumer ---
  double cpu_demand(sim::Duration slice) override;
  void run_for(sim::Duration granted, sim::Duration slice) override;

  // --- lifecycle ---
  std::uint64_t oom_kill_count() const { return oom_kill_count_; }
  std::uint64_t completed_items() const { return completed_; }
  std::uint64_t dropped_items() const { return dropped_; }

  // Stalls the container for `d` (used by the OOM rescue round trip).
  void stall_for(sim::Duration d);

  // Evicts and restarts the container with new limits (how VPA resizes a
  // pod: the pod is killed and recreated, dropping in-flight work). Not
  // counted as an OOM kill.
  void evict_restart(double new_cores, memcg::Bytes new_mem_limit);
  std::uint64_t eviction_count() const { return evictions_; }

  // --- real-time reservation (mixed-criticality class) ---
  //
  // An admitted RT container releases one job of `spec.runtime` core-time
  // every `spec.period`; the job must finish within `spec.deadline` of its
  // release or the miss observer fires (once per job; the late job is then
  // abandoned so misses never cascade). RT work is served *before* the FIFO
  // queue and the scheduler's RT tier serves this container before
  // best-effort peers, so an admitted reservation misses only when its own
  // cgroup quota is held below the floor — an allocator decision. Installing
  // a spec also sets the cgroup's burst to `runtime`, so a job released just
  // before a period refill is never starved by budget-edge quantization.
  ~Container();
  void set_rt(const cfs::RtSpec& spec);
  void clear_rt();
  bool realtime() const override { return rt_.valid(); }
  const cfs::RtSpec& rt() const { return rt_; }  // !valid() when not RT
  using DeadlineMissObserver =
      std::function<void(sim::Duration remaining_runtime)>;
  void set_deadline_miss_observer(DeadlineMissObserver obs) {
    on_deadline_miss_ = std::move(obs);
  }
  std::uint64_t rt_jobs_released() const { return rt_jobs_released_; }
  std::uint64_t rt_jobs_completed() const { return rt_jobs_completed_; }
  std::uint64_t deadline_misses() const { return deadline_misses_; }

 private:
  struct WorkItem {
    sim::Duration remaining = 0;
    memcg::Bytes mem = 0;
    bool charged = false;  // memory charged once execution starts
    Completion on_done;
  };

  void oom_kill();
  void kill_common();  // shared teardown for oom_kill / evict_restart
  void finish_restart();
  void enqueue_startup_work();
  void release_rt_job();
  void check_rt_deadline(std::uint64_t job_seq);

  sim::Simulation& sim_;
  ContainerId id_;
  ContainerSpec spec_;
  cfs::CfsCgroup cpu_;
  memcg::MemCgroup mem_;
  State state_ = State::kRunning;
  std::deque<WorkItem> queue_;
  sim::TimePoint stalled_until_ = 0;
  memcg::Bytes resident_ = 0;
  std::uint64_t oom_kill_count_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;

  // RT reservation state. rt_ is all-zero (invalid) when not admitted.
  cfs::RtSpec rt_;
  sim::EventHandle rt_release_timer_;
  sim::EventHandle rt_deadline_check_;
  sim::Duration rt_job_remaining_ = 0;  // core-time left in the current job
  std::uint64_t rt_job_seq_ = 0;        // current job number (0 = none yet)
  std::uint64_t rt_jobs_released_ = 0;
  std::uint64_t rt_jobs_completed_ = 0;
  std::uint64_t deadline_misses_ = 0;
  DeadlineMissObserver on_deadline_miss_;
};

}  // namespace escra::cluster
