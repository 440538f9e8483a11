#include "core/escra.h"

#include <stdexcept>

namespace escra::core {

EscraSystem::EscraSystem(sim::Simulation& sim, net::Network& network,
                         cluster::Cluster& cluster, double global_cpu_cores,
                         memcg::Bytes global_mem, EscraConfig config)
    : cluster_(cluster),
      config_(config),
      app_(global_cpu_cores, global_mem),
      allocator_(config_, app_),
      controller_(sim, network, config_, allocator_) {
  if (config_.credit_defense) {
    allocator_.set_credit_ledger(&controller_.credits());
  }
}

EscraSystem::~EscraSystem() { unwatch(); }

void EscraSystem::watch() {
  if (watching_) return;
  watching_ = true;
  cluster_.set_container_observer(
      [this](cluster::Container& c, cluster::Node& node) {
        // Late joiner: zero limits ask the Controller to apply the
        // late-join defaults clamped to the unallocated pool.
        controller_.register_container(c, node, 0.0, 0);
      });
}

void EscraSystem::unwatch() {
  if (!watching_) return;
  watching_ = false;
  cluster_.set_container_observer(nullptr);
}

void EscraSystem::enable_bandwidth(bw::ClusterShaper& shaper,
                                   double global_bw_bps) {
  app_.set_bw_limit(global_bw_bps);
  controller_.enable_bandwidth(shaper);
}

void EscraSystem::manage(const std::vector<cluster::Container*>& containers) {
  if (containers.empty()) throw std::invalid_argument("manage: no containers");
  const auto n = static_cast<double>(containers.size());
  if (bandwidth_enabled() && app_.bw_limit() > 0.0) {
    controller_.set_bw_plan(app_.bw_limit() / n);  // Eq. 1, bandwidth analogue
  }
  const double cores = app_.cpu_limit() / n;  // Eq. 1
  const auto mem = static_cast<memcg::Bytes>(  // Eq. 2
      static_cast<double>(app_.mem_limit()) * (1.0 - config_.sigma) / n);
  for (cluster::Container* c : containers) {
    cluster::Node* node = cluster_.node_of(c->id());
    if (node == nullptr) throw std::invalid_argument("manage: unknown container");
    controller_.register_container(*c, *node, cores, mem);
  }
}

void EscraSystem::adopt(cluster::Container& container) {
  cluster::Node* node = cluster_.node_of(container.id());
  if (node == nullptr) throw std::invalid_argument("adopt: unknown container");
  controller_.register_container(container, *node, 0.0, 0);
}

void EscraSystem::release(cluster::Container& container) {
  controller_.deregister_container(container);
}

}  // namespace escra::core
