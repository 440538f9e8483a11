// The Distributed Container abstraction (Section III).
//
// A Distributed Container groups the containers of one application/tenant —
// possibly spread across nodes — under aggregate CPU and memory limits that
// are enforced *at runtime*, not just at admission like Kubernetes Resource
// Quotas. This class is the Resource Allocator's book of record: it tracks
// the global limits, the sum currently allocated to member containers, and
// therefore the unallocated pool that scale-up decisions draw from.
//
// Class invariant (checked on every mutation):
//     0 <= cpu_allocated() <= cpu_limit()
//     0 <= mem_allocated() <= mem_limit()
//     0 <= bw_allocated() <= bw_limit()   (when bandwidth is enabled)
//
// Bandwidth is optional: bw_limit() is 0 until set_bw_limit() arms it, and
// a member with a zero bandwidth rate is simply unshaped (it consumes none
// of the pool).
#pragma once

#include <cstdint>
#include <vector>

#include "core/container_index.h"
#include "memcg/mem_cgroup.h"

namespace escra::obs {
class Observer;
}

namespace escra::core {

class DistributedContainer {
 public:
  DistributedContainer(double cpu_limit_cores, memcg::Bytes mem_limit);

  // --- global limits (Figure 3, circle 2) ---
  double cpu_limit() const { return cpu_limit_; }
  memcg::Bytes mem_limit() const { return mem_limit_; }
  double bw_limit() const { return bw_limit_; }

  // Arms (or resizes) the aggregate bandwidth pool, bytes/s. Throws if the
  // new limit is below what is already allocated to members.
  void set_bw_limit(double bw_bps);

  // Resizes the aggregate CPU / memory pools (cross-shard borrowing: a
  // lender shard shrinks its slice, the borrower grows its own). Throws if
  // the new limit is below what is already allocated to members — callers
  // must only lend genuine surplus.
  void set_cpu_limit(double cpu_cores);
  void set_mem_limit(memcg::Bytes mem);

  // --- aggregate allocation state (Figure 3, circle 6) ---
  double cpu_allocated() const { return cpu_allocated_; }
  double cpu_unallocated() const { return cpu_limit_ - cpu_allocated_; }
  memcg::Bytes mem_allocated() const { return mem_allocated_; }
  memcg::Bytes mem_unallocated() const { return mem_limit_ - mem_allocated_; }
  double bw_allocated() const { return bw_allocated_; }
  double bw_unallocated() const { return bw_limit_ - bw_allocated_; }

  std::size_t member_count() const { return index_.size(); }
  bool is_member(std::uint32_t container) const {
    return index_.contains(container);
  }

  // --- membership & per-container shadow limits ---

  // Adds a container with the given starting limits. Throws if the grant
  // would exceed a global limit or the container is already a member.
  void add_member(std::uint32_t container, double cores, memcg::Bytes mem);

  // Removes a container, returning its limits to the pool.
  void remove_member(std::uint32_t container);

  // Current shadow limits for a member (what the allocator believes the
  // Agent has been told to apply).
  double member_cores(std::uint32_t container) const;
  memcg::Bytes member_mem(std::uint32_t container) const;

  // Adjusts a member's CPU limit to `cores`, clamped so the aggregate stays
  // within the global limit. Returns the value actually set.
  double set_member_cores(std::uint32_t container, double cores);

  // Adjusts a member's memory limit to `mem`, clamped likewise.
  memcg::Bytes set_member_mem(std::uint32_t container, memcg::Bytes mem);

  // A member's bandwidth rate, bytes/s; 0 means unshaped.
  double member_bw(std::uint32_t container) const;

  // Adjusts a member's bandwidth rate to `bw_bps`, clamped so the aggregate
  // stays within the global bandwidth pool. Returns the value actually set.
  double set_member_bw(std::uint32_t container, double bw_bps);

  // Observability: the observer's pool.cpu/mem/bw_allocated/unallocated
  // gauges are kept in sync on every mutation. Null detaches.
  void set_observer(const obs::Observer* observer);

 private:
  void sync_gauges() const;

  struct Member {
    double cores = 0.0;
    memcg::Bytes mem = 0;
    double bw = 0.0;  // bytes/s; 0 = unshaped
  };
  const Member& member(std::uint32_t container) const;
  Member& member_at(std::uint32_t container, const char* caller);

  double cpu_limit_;
  memcg::Bytes mem_limit_;
  double bw_limit_ = 0.0;  // bytes/s; 0 = bandwidth pool disabled
  double cpu_allocated_ = 0.0;
  memcg::Bytes mem_allocated_ = 0;
  double bw_allocated_ = 0.0;
  // Hot state: member shadow limits in a slot-indexed SoA book. The index
  // interns sparse container ids to dense slots; members_[slot] is valid
  // while the slot is live (intern zero-fills on reuse).
  ContainerIndex index_;
  std::vector<Member> members_;
  const obs::Observer* obs_ = nullptr;
};

}  // namespace escra::core
