// The cluster: nodes plus container creation/placement.
//
// Owns every Node and Container. Placement is least-loaded-by-container-
// count (the experiments spread each application's containers across the
// three worker nodes, as in Section VI-A). Container creation notifies an
// observer — the hook Escra's Container Watcher uses to register newly
// deployed containers with the Controller (Section IV-A).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/container.h"
#include "cluster/node.h"
#include "sim/event_queue.h"

namespace escra::cluster {

class Cluster {
 public:
  using ContainerObserver = std::function<void(Container&, Node&)>;

  explicit Cluster(sim::Simulation& sim);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Node& add_node(NodeConfig config = {});

  // Creates a container, places it on the node with the fewest containers
  // (or on `pin_to` if provided), and notifies the observer.
  Container& create_container(ContainerSpec spec, double initial_cores,
                              memcg::Bytes initial_mem_limit,
                              Node* pin_to = nullptr);

  // Permanently removes a container (serverless pods are reaped when idle).
  void remove_container(Container& container);

  void set_container_observer(ContainerObserver obs) { observer_ = std::move(obs); }

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  // Live containers in creation (ascending-id) order.
  std::vector<Container*> containers() const;
  // O(1) lookups by id; nullptr for an unknown or removed container.
  Container* find_container(ContainerId id) const {
    const Placement* p = placement(id);
    return p != nullptr ? p->container.get() : nullptr;
  }
  Node* node_of(ContainerId id) const {
    const Placement* p = placement(id);
    return p != nullptr ? p->node : nullptr;
  }
  std::size_t container_count() const { return live_; }

  sim::Simulation& simulation() { return sim_; }

 private:
  struct Placement {
    std::unique_ptr<Container> container;  // null once removed
    Node* node = nullptr;
  };
  const Placement* placement(ContainerId id) const {
    return id >= 1 && id <= placements_.size() ? &placements_[id - 1]
                                               : nullptr;
  }

  sim::Simulation& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Indexed by id - 1: ids are handed out densely from 1, so the id is the
  // container's position in creation order. A removed container leaves an
  // empty row behind (ids are never reused).
  std::vector<Placement> placements_;
  std::size_t live_ = 0;
  ContainerObserver observer_;
  NodeId next_node_id_ = 0;
};

}  // namespace escra::cluster
