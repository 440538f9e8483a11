// Test helper: builds an application the way every caller of
// EscraSystem::manage and ShardedControlPlane::manage does — create the
// containers in the cluster, then hand them to manage().
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.h"

namespace escra {

// Creates `count` default-spec containers named "<app>/c<i>", each on the
// least-loaded node. The creation limits are placeholders: registration
// writes the managed limits into the cgroups.
inline std::vector<cluster::Container*> create_app(cluster::Cluster& k8s,
                                                   const std::string& app,
                                                   int count) {
  std::vector<cluster::Container*> members;
  for (int i = 0; i < count; ++i) {
    cluster::ContainerSpec spec;
    spec.name = app + "/c" + std::to_string(i);
    members.push_back(&k8s.create_container(spec, 1.0, 512 * memcg::kMiB));
  }
  return members;
}

}  // namespace escra
