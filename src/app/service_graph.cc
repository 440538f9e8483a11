#include "app/service_graph.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace escra::app {

std::size_t GraphSpec::total_containers() const {
  std::size_t n = 0;
  for (const ServiceSpec& s : services) n += static_cast<std::size_t>(s.replicas);
  return n;
}

void GraphSpec::validate() const {
  if (services.empty()) throw std::invalid_argument("GraphSpec: no services");
  for (const ServiceSpec& s : services) {
    if (s.replicas < 1) throw std::invalid_argument("GraphSpec: replicas < 1");
    if (s.cpu_per_visit <= 0) {
      throw std::invalid_argument("GraphSpec: cpu_per_visit <= 0");
    }
  }
  for (const EdgeSpec& e : edges) {
    if (e.from >= services.size() || e.to >= services.size()) {
      throw std::invalid_argument("GraphSpec: edge index out of range");
    }
    if (e.to <= e.from) {
      // Topological indexing (to > from) is how we guarantee acyclicity.
      throw std::invalid_argument("GraphSpec: edges must go forward");
    }
    if (e.probability <= 0.0 || e.probability > 1.0) {
      throw std::invalid_argument("GraphSpec: probability out of (0,1]");
    }
  }
}

Application::Application(cluster::Cluster& cluster, GraphSpec spec,
                         sim::Rng rng, double initial_cores,
                         memcg::Bytes initial_mem)
    : cluster_(cluster), spec_(std::move(spec)), rng_(rng) {
  spec_.validate();
  by_service_.resize(spec_.services.size());
  rr_.assign(spec_.services.size(), 0);
  out_edges_.resize(spec_.services.size());
  for (const EdgeSpec& e : spec_.edges) out_edges_[e.from].push_back(&e);

  for (std::size_t s = 0; s < spec_.services.size(); ++s) {
    const ServiceSpec& svc = spec_.services[s];
    // The mean of lognormal(mu, sigma) is exp(mu + sigma^2/2), so this mu
    // gives visits the spec'd mean cost.
    const double sigma = svc.cpu_jitter_sigma;
    visit_mu_.push_back(std::log(static_cast<double>(svc.cpu_per_visit)) -
                        sigma * sigma / 2.0);
    for (int r = 0; r < svc.replicas; ++r) {
      cluster::ContainerSpec cs;
      cs.name = svc.name + "-" + std::to_string(r);
      cs.max_parallelism = svc.max_parallelism;
      cs.base_memory = svc.base_memory;
      cs.restart_delay = svc.restart_delay;
      cs.startup_cpu = svc.startup_cpu;
      cluster::Container& c =
          cluster_.create_container(cs, initial_cores, initial_mem);
      containers_.push_back(&c);
      by_service_[s].push_back(&c);
      start_background(c, svc);
    }
  }
}

void Application::start_background(cluster::Container& container,
                                   const ServiceSpec& svc) {
  if (svc.background_cpu_per_sec <= 0 && svc.gc_cpu <= 0) return;
  sim::Simulation& simulation = cluster_.simulation();
  // Desynchronize containers so GC bursts do not align across the fleet.
  const sim::Duration phase = sim::milliseconds(rng_.uniform_int(0, 999));
  simulation.schedule_every(
      simulation.now() + sim::kSecond + phase, sim::kSecond,
      [this, &container, &svc] {
        if (!container.running()) return;
        if (svc.background_cpu_per_sec > 0) {
          const double jitter = rng_.uniform(0.6, 1.4);
          container.submit(
              static_cast<sim::Duration>(
                  static_cast<double>(svc.background_cpu_per_sec) * jitter),
              0, nullptr);
        }
        if (svc.gc_cpu > 0 && svc.gc_interval > 0 &&
            rng_.chance(static_cast<double>(sim::kSecond) /
                        static_cast<double>(svc.gc_interval))) {
          container.submit(svc.gc_cpu, 0, nullptr);
        }
      });
}

std::vector<cluster::Container*> Application::service_containers(
    std::size_t service) const {
  if (service >= by_service_.size()) {
    throw std::invalid_argument("service_containers: bad index");
  }
  return by_service_[service];
}

cluster::Container& Application::pick_replica(std::size_t service) {
  auto& replicas = by_service_[service];
  const std::size_t start = rr_[service];
  // Prefer a running replica; if all are restarting return the round-robin
  // choice anyway (the submit will fail, which is the correct outcome).
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    cluster::Container* c = replicas[(start + i) % replicas.size()];
    if (c->running()) {
      rr_[service] = (start + i + 1) % replicas.size();
      return *c;
    }
  }
  rr_[service] = (start + 1) % replicas.size();
  return *replicas[start % replicas.size()];
}

void Application::submit_request(Done done) {
  ++started_;
  std::uint32_t ctx;
  if (free_requests_.empty()) {
    ctx = static_cast<std::uint32_t>(requests_.size());
    requests_.emplace_back();
  } else {
    ctx = free_requests_.back();
    free_requests_.pop_back();
  }
  RequestCtx& row = requests_[ctx];
  row.outstanding = 1;
  row.failed = false;
  row.done = std::move(done);
  visit_service(0, ctx);
}

void Application::visit_service(std::uint32_t service, std::uint32_t ctx) {
  const ServiceSpec& svc = spec_.services[service];
  cluster::Container& replica = pick_replica(service);

  // Log-normal visit cost with the configured sigma and the spec'd mean.
  sim::Duration cost = svc.cpu_per_visit;
  if (svc.cpu_jitter_sigma > 0.0) {
    // Clamp the log-normal tail at 8x the mean: real request handlers have
    // bounded work, and an unclamped 4-sigma draw would dominate a whole
    // run's tail latency by itself.
    cost = std::clamp<sim::Duration>(
        static_cast<sim::Duration>(
            rng_.lognormal(visit_mu_[service], svc.cpu_jitter_sigma)),
        sim::microseconds(50), 8 * svc.cpu_per_visit);
  }

  const bool accepted = replica.submit(
      cost, svc.mem_per_visit, [this, service, ctx](bool ok) {
        if (!ok) {
          requests_[ctx].failed = true;
        } else {
          // Fork-join fan-out along outgoing edges.
          for (const EdgeSpec* e : out_edges_[service]) {
            if (e->probability >= 1.0 || rng_.chance(e->probability)) {
              ++requests_[ctx].outstanding;
              visit_service(static_cast<std::uint32_t>(e->to), ctx);
            }
          }
        }
        finish_visit(ctx);
      });
  if (!accepted) {
    // Replica is restarting: the visit never ran.
    requests_[ctx].failed = true;
    finish_visit(ctx);
  }
}

void Application::finish_visit(std::uint32_t ctx) {
  RequestCtx& row = requests_[ctx];
  if (--row.outstanding > 0) return;
  // Recycle the row before reporting: `done` may submit a new request,
  // which can reuse the row or grow (and move) the pool.
  Done done = std::exchange(row.done, nullptr);
  const bool ok = !row.failed;
  free_requests_.push_back(ctx);
  if (done) done(ok);
}

}  // namespace escra::app
