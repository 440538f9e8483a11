#include "serverless/openwhisk.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace escra::serverless {

namespace {
constexpr memcg::Bytes kPodBaseMem = 60 * memcg::kMiB;  // runtime baseline
// Pod creation + runtime init.
constexpr sim::Duration kColdStart = sim::milliseconds(650);
constexpr double kPodParallelism = 1.0;  // one activation per pod at a time
}  // namespace

OpenWhisk::OpenWhisk(sim::Simulation& sim, cluster::Cluster& cluster,
                     std::size_t max_pods, sim::Rng rng)
    : sim_(sim), cluster_(cluster), max_pods_(max_pods), rng_(rng) {}

OpenWhisk::~OpenWhisk() {
  for (auto& pod : pods_) sim_.cancel(pod->reap_timer);
}

void OpenWhisk::attach_metrics(obs::MetricsRegistry& registry) {
  obs_invocations_ = &registry.counter("openwhisk.invocations");
  obs_cold_starts_ = &registry.counter("openwhisk.cold_starts");
  obs_completions_ = &registry.counter("openwhisk.completions");
  obs_pods_reaped_ = &registry.counter("openwhisk.pods_reaped");
  obs_pods_ = &registry.gauge("openwhisk.pods");
  obs_queue_depth_ = &registry.gauge("openwhisk.queue_depth");
  sync_pod_gauges();
}

void OpenWhisk::sync_pod_gauges() {
  if (obs_pods_ == nullptr) return;
  obs_pods_->set(static_cast<double>(pods_.size()));
  obs_queue_depth_->set(static_cast<double>(queue_.size()));
}

void OpenWhisk::register_action(ActionSpec spec) {
  if (spec.name.empty()) throw std::invalid_argument("action: empty name");
  actions_[spec.name] = std::move(spec);
}

OpenWhisk::Pod* OpenWhisk::find_idle_pod(const std::string& action) {
  for (auto& pod : pods_) {
    if (!pod->busy && !pod->warming && pod->action == action &&
        pod->container->running()) {
      return pod.get();
    }
  }
  return nullptr;
}

void OpenWhisk::invoke(const std::string& action, Done done) {
  if (!actions_.contains(action)) {
    throw std::invalid_argument("invoke: unknown action " + action);
  }
  Activation activation{action, std::move(done)};
  if (obs_invocations_ != nullptr) obs_invocations_->inc();

  if (Pod* warm = find_idle_pod(action)) {
    start_on_pod(*warm, std::move(activation));
    return;
  }
  if (pods_.size() < max_pods_) {
    // Cold start: create the pod container now (Escra's Watcher adopts it
    // here; the connection does not delay execution, Section IV-E), then
    // run after the runtime initializes.
    ++cold_starts_;
    if (obs_cold_starts_ != nullptr) obs_cold_starts_->inc();
    cluster::ContainerSpec cs;
    cs.name = action + "-pod-" + std::to_string(pods_.size());
    cs.max_parallelism = kPodParallelism;
    cs.base_memory = kPodBaseMem;
    cs.restart_delay = sim::seconds(2);
    cluster::Container& c =
        cluster_.create_container(cs, kPodCpu, kPodMem);
    auto pod = std::make_unique<Pod>();
    pod->container = &c;
    pod->action = action;
    pod->warming = true;
    Pod* raw = pod.get();
    pods_.push_back(std::move(pod));
    sync_pod_gauges();
    sim_.schedule_after(kColdStart,
                        [this, raw, a = std::move(activation)]() mutable {
                          raw->warming = false;
                          start_on_pod(*raw, std::move(a));
                        });
    return;
  }
  // Pool full: activation queues in the invoker.
  queue_.push_back(std::move(activation));
  sync_pod_gauges();
}

void OpenWhisk::start_on_pod(Pod& pod, Activation activation) {
  pod.busy = true;
  sim_.cancel(pod.reap_timer);
  const ActionSpec& spec = actions_.at(activation.action);

  // Phase 1: input I/O (no CPU held).
  sim_.schedule_after(spec.io_before, [this, &pod, spec,
                                       done = std::move(activation.done)]() mutable {
    // Phase 2: CPU body holding the working set.
    sim::Duration cost = spec.cpu_cost;
    if (spec.cpu_sigma > 0.0) {
      const double sigma = spec.cpu_sigma;
      const double mu =
          std::log(static_cast<double>(spec.cpu_cost)) - sigma * sigma / 2.0;
      cost = std::max<sim::Duration>(
          sim::milliseconds(1),
          static_cast<sim::Duration>(rng_.lognormal(mu, sigma)));
    }
    if (!pod.container->running()) {
      // Pod was killed while this activation was in its I/O phase; fail it
      // now (submit would reject it and the continuation must not be lost).
      finish_on_pod(pod);
      if (done) done(false);
      return;
    }
    const bool accepted = pod.container->submit(
        cost, spec.working_mem,
        [this, &pod, spec, done = std::move(done)](bool ok) mutable {
          if (!ok) {
            finish_on_pod(pod);
            if (done) done(false);
            return;
          }
          // Phase 3: output I/O.
          sim_.schedule_after(spec.io_after,
                              [this, &pod, done = std::move(done)]() mutable {
                                ++completed_;
                                if (obs_completions_ != nullptr) {
                                  obs_completions_->inc();
                                }
                                finish_on_pod(pod);
                                if (done) done(true);
                              });
        });
    if (!accepted) {
      finish_on_pod(pod);
      if (done) done(false);
    }
  });
}

void OpenWhisk::finish_on_pod(Pod& pod) {
  pod.busy = false;
  pod.idle_since = sim_.now();
  // Drain the queue first; otherwise start the idle-reap clock.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->action == pod.action && pod.container->running()) {
      Activation next = std::move(*it);
      queue_.erase(it);
      sync_pod_gauges();
      start_on_pod(pod, std::move(next));
      return;
    }
  }
  arm_reap_timer(pod);
}

void OpenWhisk::arm_reap_timer(Pod& pod) {
  sim_.cancel(pod.reap_timer);
  pod.reap_timer = sim_.schedule_after(kPodIdleTimeout, [this, &pod] {
    if (!pod.busy && !pod.warming) reap_pod(pod);
  });
}

void OpenWhisk::reap_pod(Pod& pod) {
  if (reap_hook_) reap_hook_(*pod.container);
  cluster_.remove_container(*pod.container);
  std::erase_if(pods_, [&](const auto& p) { return p.get() == &pod; });
  if (obs_pods_reaped_ != nullptr) obs_pods_reaped_->inc();
  sync_pod_gauges();
}

std::size_t OpenWhisk::busy_pods() const {
  std::size_t n = 0;
  for (const auto& pod : pods_) {
    if (pod->busy || pod->warming) ++n;
  }
  return n;
}

double OpenWhisk::aggregate_cpu_limit() const {
  double total = 0.0;
  for (const auto& pod : pods_) {
    total += pod->container->cpu_cgroup().limit_cores();
  }
  return total;
}

memcg::Bytes OpenWhisk::aggregate_mem_limit() const {
  memcg::Bytes total = 0;
  for (const auto& pod : pods_) total += pod->container->mem_cgroup().limit();
  return total;
}

}  // namespace escra::serverless
