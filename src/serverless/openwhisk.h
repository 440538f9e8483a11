// OpenWhisk-like serverless platform model (Section IV-E / VI-F).
//
// Serverless functions ("user actions") run in per-action pods. An
// invocation reuses a warm idle pod when one exists; otherwise, if the pool
// has room, a new pod cold-starts (container creation + runtime init);
// otherwise the activation queues. Idle pods are reaped after a timeout.
// Every pod is created with the OpenWhisk defaults the paper configures:
// 1 vCPU and 256 MiB per pod.
//
// An action body is modelled as I/O (data-store reads/writes — pure delay,
// no CPU) around a CPU phase that holds a working-set memory charge. This
// mix is what lets Escra cut aggregate CPU limits ~2x without hurting
// latency: pods spend much of their wall time off-CPU.
//
// Escra integration (Section IV-E): pods are ordinary cluster containers,
// so an enabled ContainerWatcher adopts them at creation; a reap callback
// lets the experiment release them from the Distributed Container before
// removal.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace escra::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}

namespace escra::serverless {

// A registered serverless function.
struct ActionSpec {
  std::string name;
  // Pre-CPU I/O (e.g. read input from the data store).
  sim::Duration io_before = sim::milliseconds(80);
  // Mean CPU cost of the body; log-normal jitter with `cpu_sigma`.
  sim::Duration cpu_cost = sim::milliseconds(600);
  double cpu_sigma = 0.25;
  // Post-CPU I/O (e.g. write result).
  sim::Duration io_after = sim::milliseconds(50);
  // Working set charged to the pod for the duration of the body.
  memcg::Bytes working_mem = 120 * memcg::kMiB;
};

// OpenWhisk invoker defaults from the paper's configuration.
inline constexpr double kPodCpu = 1.0;  // 1 vCPU request+limit
inline constexpr memcg::Bytes kPodMem = 256 * memcg::kMiB;  // per-pod memory
// Warm-pod reap.
inline constexpr sim::Duration kPodIdleTimeout = sim::seconds(60);

class OpenWhisk {
 public:
  using Done = std::function<void(bool ok)>;
  // Called just before a pod's container is removed (reap), so Escra can
  // release it from the Distributed Container.
  using PodReapHook = std::function<void(cluster::Container&)>;

  // `max_pods` is the invoker's containerPool: the most pods alive at once.
  OpenWhisk(sim::Simulation& sim, cluster::Cluster& cluster,
            std::size_t max_pods, sim::Rng rng);
  ~OpenWhisk();

  OpenWhisk(const OpenWhisk&) = delete;
  OpenWhisk& operator=(const OpenWhisk&) = delete;

  void register_action(ActionSpec spec);

  // Invokes an action; `done` fires at end-to-end completion (queueing +
  // cold start + I/O + CPU). ok=false if the activation was dropped (pod
  // OOM-killed mid-run).
  void invoke(const std::string& action, Done done);

  void set_pod_reap_hook(PodReapHook hook) { reap_hook_ = std::move(hook); }

  // --- aggregate metrics (the serverless evaluation's main axis) ---
  std::size_t pod_count() const { return pods_.size(); }
  std::size_t busy_pods() const;
  double aggregate_cpu_limit() const;       // Σ pod CPU limits, in cores
  memcg::Bytes aggregate_mem_limit() const; // Σ pod memory limits
  std::uint64_t cold_starts() const { return cold_starts_; }
  std::uint64_t completed() const { return completed_; }
  std::size_t queued() const { return queue_.size(); }

  // Observability: registers openwhisk.* counters/gauges (invocations,
  // cold_starts, completions, pods_reaped, pods, queue_depth) and mirrors
  // platform activity into them. Call at most once per registry.
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  struct Pod {
    cluster::Container* container = nullptr;
    std::string action;
    bool busy = false;
    bool warming = false;  // cold start in progress
    sim::TimePoint idle_since = 0;
    sim::EventHandle reap_timer;
  };
  struct Activation {
    std::string action;
    Done done;
  };

  void start_on_pod(Pod& pod, Activation activation);
  void finish_on_pod(Pod& pod);
  Pod* find_idle_pod(const std::string& action);
  void reap_pod(Pod& pod);
  void arm_reap_timer(Pod& pod);

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  std::size_t max_pods_;
  sim::Rng rng_;
  std::unordered_map<std::string, ActionSpec> actions_;
  std::vector<std::unique_ptr<Pod>> pods_;
  std::deque<Activation> queue_;
  PodReapHook reap_hook_;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t completed_ = 0;

  void sync_pod_gauges();
  obs::Counter* obs_invocations_ = nullptr;
  obs::Counter* obs_cold_starts_ = nullptr;
  obs::Counter* obs_completions_ = nullptr;
  obs::Counter* obs_pods_reaped_ = nullptr;
  obs::Gauge* obs_pods_ = nullptr;
  obs::Gauge* obs_queue_depth_ = nullptr;
};

}  // namespace escra::serverless
