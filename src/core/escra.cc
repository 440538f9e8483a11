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

EscraSystem::Bootstrap EscraSystem::bootstrap(std::size_t count) {
  const auto n = static_cast<double>(count);
  if (bandwidth_enabled() && app_.bw_limit() > 0.0) {
    controller_.set_bw_plan(app_.bw_limit() / n);  // Eq. 1, bandwidth analogue
  }
  return {app_.cpu_limit() / n,  // Eq. 1
          static_cast<memcg::Bytes>(static_cast<double>(app_.mem_limit()) *
                                    (1.0 - config_.sigma) / n)};  // Eq. 2
}

std::vector<cluster::Container*> EscraSystem::deploy(const AppSpec& spec) {
  if (spec.containers.empty()) {
    throw std::invalid_argument("deploy: empty application");
  }
  const Bootstrap b = bootstrap(spec.containers.size());
  std::vector<cluster::Container*> deployed;
  deployed.reserve(spec.containers.size());
  for (const cluster::ContainerSpec& cs : spec.containers) {
    cluster::Container& c = cluster_.create_container(cs, b.cores, b.mem);
    controller_.register_container(c, *cluster_.node_of(c.id()), b.cores,
                                   b.mem);
    deployed.push_back(&c);
  }
  return deployed;
}

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
  const Bootstrap b = bootstrap(containers.size());
  for (cluster::Container* c : containers) {
    cluster::Node* node = cluster_.node_of(c->id());
    if (node == nullptr) throw std::invalid_argument("manage: unknown container");
    controller_.register_container(*c, *node, b.cores, b.mem);
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
