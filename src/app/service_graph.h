// Microservice application model.
//
// An application is a DAG of services. A request enters at service 0 and,
// when a service's work completes, fans out (fork-join) along its outgoing
// edges, each taken with a probability — so different requests exercise
// different subsets of the graph, giving per-container demand the
// heterogeneity that makes static limits hard to set (Section VI-C).
//
// Each service has one or more replica containers; requests are routed
// round-robin. The per-visit CPU cost is log-normally jittered around the
// service's mean, and each visit holds a memory footprint in the container
// for its duration.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "memcg/mem_cgroup.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace escra::app {

struct ServiceSpec {
  std::string name;
  int replicas = 1;
  // Mean core-time one request visit costs at this service.
  sim::Duration cpu_per_visit = sim::milliseconds(2);
  // Log-normal sigma of the visit cost (0 = deterministic). Real service
  // times are heavy-tailed; this is what puts sub-second demand spikes well
  // above any 1-second-smoothed profile.
  double cpu_jitter_sigma = 0.6;
  // Memory held per in-flight visit.
  memcg::Bytes mem_per_visit = 2 * memcg::kMiB;
  // Container runtime parameters for each replica.
  double max_parallelism = 8.0;
  memcg::Bytes base_memory = 96 * memcg::kMiB;
  sim::Duration restart_delay = sim::seconds(3);
  // Startup warmup burn; profiled peaks include it (see exp/profile.h).
  sim::Duration startup_cpu = sim::milliseconds(1500);
  // Steady background CPU (health checks, metrics exporters), core-time
  // per second.
  sim::Duration background_cpu_per_sec = sim::milliseconds(25);
  // Periodic GC-style burst: `gc_cpu` core-time roughly every `gc_interval`.
  // These sub-second spikes are what a 1-second profiler rounds up to, and
  // a major reason profiled "max usage" sits far above typical usage.
  sim::Duration gc_cpu = sim::milliseconds(250);
  sim::Duration gc_interval = sim::seconds(9);
};

struct EdgeSpec {
  std::size_t from = 0;
  std::size_t to = 0;
  double probability = 1.0;
};

struct GraphSpec {
  std::string name;
  std::vector<ServiceSpec> services;  // service 0 is the entry point
  std::vector<EdgeSpec> edges;

  std::size_t total_containers() const;
  void validate() const;  // throws on cycles, bad indices, bad probabilities
};

// A deployed application: containers created in the cluster plus routing.
class Application {
 public:
  using Done = std::function<void(bool ok)>;

  // Creates one container per replica, spread across the cluster's nodes.
  // `initial_cores`/`initial_mem` bootstrap every container (a policy —
  // Escra or a baseline — typically overwrites them immediately).
  Application(cluster::Cluster& cluster, GraphSpec spec, sim::Rng rng,
              double initial_cores, memcg::Bytes initial_mem);

  const GraphSpec& spec() const { return spec_; }
  const std::vector<cluster::Container*>& containers() const {
    return containers_;
  }

  // Containers backing one service.
  std::vector<cluster::Container*> service_containers(std::size_t service) const;

  // Injects one end-to-end request; `done` fires when every reached service
  // visit has completed (ok) or any visit failed (dropped/OOM).
  void submit_request(Done done);

  std::uint64_t requests_started() const { return started_; }

 private:
  // One in-flight request. Rows live in a pool addressed by index, so a
  // visit's completion captures two integers instead of an owning pointer:
  // it fits std::function's inline storage and a visit allocates nothing.
  struct RequestCtx {
    int outstanding = 0;
    bool failed = false;
    Done done;
  };
  void visit_service(std::uint32_t service, std::uint32_t ctx);
  // Ends one visit of request `ctx`; the last one recycles the row and
  // reports the request's outcome.
  void finish_visit(std::uint32_t ctx);
  void start_background(cluster::Container& container, const ServiceSpec& svc);
  cluster::Container& pick_replica(std::size_t service);

  cluster::Cluster& cluster_;
  GraphSpec spec_;
  sim::Rng rng_;
  std::vector<cluster::Container*> containers_;
  std::vector<std::vector<cluster::Container*>> by_service_;
  std::vector<std::size_t> rr_;  // round-robin cursor per service
  std::vector<std::vector<const EdgeSpec*>> out_edges_;
  // Log-normal mu of each service's visit cost (see visit_service).
  std::vector<double> visit_mu_;
  std::vector<RequestCtx> requests_;
  std::vector<std::uint32_t> free_requests_;  // recycled rows of requests_
  std::uint64_t started_ = 0;
};

}  // namespace escra::app
