// EscraSystem: the one-object public API.
//
// Bundles the Distributed Container, Resource Allocator, and Controller
// into a single facade, and plays the Application Deployer and Container
// Watcher (Figure 1 circle 1; Section IV-A) itself. A typical use:
//
//   sim::Simulation simulation;
//   net::Network network(simulation);
//   cluster::Cluster k8s(simulation);
//   k8s.add_node({.cores = 20});
//
//   core::EscraSystem escra(simulation, network, k8s,
//                           /*global_cpu=*/8.0, /*global_mem=*/4 * kGiB);
//   std::vector<cluster::Container*> shop;
//   for (const cluster::ContainerSpec& spec : specs)
//     shop.push_back(&k8s.create_container(spec, 1.0, 512 * kMiB));
//   escra.manage(shop);   // Eq. 1-2 limits
//   escra.start();        // control loops on
//   simulation.run_until(sim::seconds(60));
//
// Containers created later (serverless pods) are picked up automatically
// once `watch()` is enabled.
//
// manage() takes one application's containers (the paper's YAML set) under
// the global application CPU/memory limits the system was built with. Each
// container's initial limits follow Equations 1-2, replacing whatever
// limits it was created with:
//
//     cpu_0 = global_cpu_limit / #containers                      (1)
//     mem_0 = global_mem_limit * (1 - sigma) / #containers        (2)
//
// where σ is the fraction of global memory withheld for OOM events. (The
// paper prints Eq. 2 as `global·σ/n` while describing σ as the *withheld*
// percentage; we follow the description — see DESIGN.md.)
#pragma once

#include <vector>

#include "cluster/cluster.h"
#include "core/allocator.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/distributed_container.h"
#include "net/network.h"
#include "sim/event_queue.h"

namespace escra::core {

class EscraSystem {
 public:
  EscraSystem(sim::Simulation& sim, net::Network& network,
              cluster::Cluster& cluster, double global_cpu_cores,
              memcg::Bytes global_mem, EscraConfig config = EscraConfig{});
  ~EscraSystem();

  EscraSystem(const EscraSystem&) = delete;
  EscraSystem& operator=(const EscraSystem&) = delete;

  // Takes over already-created containers as one application, registering
  // each with the Controller with the Eq. 1-2 initial limits (the Deployer
  // path).
  void manage(const std::vector<cluster::Container*>& containers);

  // Enables the Container Watcher: containers created in the cluster from
  // now on are adopted as late joiners.
  void watch();
  void unwatch();

  // Adopts an already-running container (manual Watcher path).
  void adopt(cluster::Container& container);
  // Releases a container (pod reaped): limits return to the pool.
  void release(cluster::Container& container);

  // Starts the periodic control loops (memory reclamation, liveness checks,
  // Agent heartbeats).
  void start() { controller_.start(); }
  void stop() { controller_.stop(); }

  // Arms bandwidth as a third managed resource: the Distributed Container
  // gains a bandwidth pool of `global_bw_bps`, the Controller keeps the
  // shaper for admission/clamping and starts its telemetry sampler, and
  // subsequent manage() calls grant each container an equal bootstrap rate
  // (the bandwidth analogue of Eq. 1). The shaper must outlive the system
  // and be wired into the Network by the caller (network.set_shaper).
  void enable_bandwidth(bw::ClusterShaper& shaper, double global_bw_bps);
  bool bandwidth_enabled() const { return controller_.bandwidth_enabled(); }

  // Real-time admission (mixed-criticality class): reserves a
  // (runtime, deadline, period) floor for a managed container. The
  // container must already be managed or adopted; see Controller::admit_rt
  // for the utilization-bound tests and the never-reclaim guarantee.
  Controller::RtAdmit admit_rt(cluster::Container& container,
                               const cfs::RtSpec& spec) {
    return controller_.admit_rt(container.id(), spec);
  }
  bool evict_rt(cluster::Container& container, int reason = 2) {
    return controller_.evict_rt(container.id(), reason);
  }
  bool rt_admitted(cluster::ContainerId id) const {
    return controller_.rt_admitted(id);
  }
  double rt_reserved_cores() const { return controller_.rt_reserved_cores(); }

  // Fault injection: kills / revives the Controller process. Soft state
  // (registry, pool accounting, pending retransmits) is lost on crash and
  // rebuilt from the Agents' snapshots on restart; nodes fail static in
  // between (cgroups keep the last applied limits).
  void crash() { controller_.crash(); }
  void restart() { controller_.restart(); }
  bool crashed() const { return controller_.crashed(); }

  // Attaches control-plane observability (decision trace, metrics, loop
  // profiler) to the Controller and the Resource Allocator. Safe before or
  // after manage(); already-registered containers are re-wired. The observer
  // must outlive the system.
  void attach_observer(obs::Observer& observer) {
    controller_.set_observer(&observer);
    allocator_.set_observer(&observer);
  }

  DistributedContainer& app() { return app_; }
  ResourceAllocator& allocator() { return allocator_; }
  Controller& controller() { return controller_; }
  cluster::Cluster& cluster() { return cluster_; }
  const EscraConfig& config() const { return config_; }

 private:
  cluster::Cluster& cluster_;
  EscraConfig config_;
  DistributedContainer app_;
  ResourceAllocator allocator_;
  Controller controller_;
  bool watching_ = false;
};

}  // namespace escra::core
