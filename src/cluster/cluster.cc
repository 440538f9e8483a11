#include "cluster/cluster.h"

#include <stdexcept>

namespace escra::cluster {

Cluster::Cluster(sim::Simulation& sim) : sim_(sim) {}

Node& Cluster::add_node(NodeConfig config) {
  nodes_.push_back(std::make_unique<Node>(sim_, next_node_id_++, config));
  return *nodes_.back();
}

Container& Cluster::create_container(ContainerSpec spec, double initial_cores,
                                     memcg::Bytes initial_mem_limit,
                                     Node* pin_to) {
  if (nodes_.empty()) throw std::logic_error("create_container: no nodes");
  Node* target = pin_to;
  if (target == nullptr) {
    target = nodes_.front().get();
    for (const auto& n : nodes_) {
      if (n->container_count() < target->container_count()) target = n.get();
    }
  }
  const auto id = static_cast<ContainerId>(placements_.size() + 1);
  placements_.push_back(Placement{
      std::make_unique<Container>(sim_, id, std::move(spec),
                                  target->config().cfs_period, initial_cores,
                                  initial_mem_limit),
      target});
  ++live_;
  Container& c = *placements_.back().container;
  target->attach(c);
  if (observer_) observer_(c, *target);
  return c;
}

void Cluster::remove_container(Container& container) {
  const ContainerId id = container.id();
  if (find_container(id) != &container) return;
  Placement& p = placements_[id - 1];
  p.node->detach(container);
  p = Placement{};  // destroys the container
  --live_;
}

std::vector<Container*> Cluster::containers() const {
  std::vector<Container*> out;
  out.reserve(live_);
  for (const Placement& p : placements_) {
    if (p.container != nullptr) out.push_back(p.container.get());
  }
  return out;
}

}  // namespace escra::cluster
