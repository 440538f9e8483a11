#include "core/distributed_container.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/observer.h"

namespace escra::core {

DistributedContainer::DistributedContainer(double cpu_limit_cores,
                                           memcg::Bytes mem_limit)
    : cpu_limit_(cpu_limit_cores), mem_limit_(mem_limit) {
  if (cpu_limit_cores <= 0.0 || mem_limit <= 0) {
    throw std::invalid_argument("DistributedContainer: nonpositive limits");
  }
}

void DistributedContainer::add_member(std::uint32_t container, double cores,
                                      memcg::Bytes mem) {
  if (index_.contains(container)) {
    throw std::invalid_argument("add_member: duplicate container");
  }
  if (cores < 0.0 || mem < 0) {
    throw std::invalid_argument("add_member: negative limits");
  }
  if (cpu_allocated_ + cores > cpu_limit_ + 1e-9) {
    throw std::invalid_argument("add_member: CPU grant exceeds global limit");
  }
  if (mem_allocated_ + mem > mem_limit_) {
    throw std::invalid_argument("add_member: memory grant exceeds global limit");
  }
  const std::uint32_t slot = index_.intern(container);
  if (slot >= members_.size()) members_.resize(index_.capacity());
  members_[slot] = Member{cores, mem, 0.0};
  cpu_allocated_ += cores;
  mem_allocated_ += mem;
  sync_gauges();
}

void DistributedContainer::remove_member(std::uint32_t container) {
  const std::uint32_t slot = index_.find(container);
  if (slot == ContainerIndex::kInvalid) {
    throw std::invalid_argument("remove_member: unknown");
  }
  const Member& m = members_[slot];
  cpu_allocated_ -= m.cores;
  mem_allocated_ -= m.mem;
  bw_allocated_ -= m.bw;
  index_.release(container);
  cpu_allocated_ = std::max(0.0, cpu_allocated_);
  mem_allocated_ = std::max<memcg::Bytes>(0, mem_allocated_);
  bw_allocated_ = std::max(0.0, bw_allocated_);
  sync_gauges();
}

void DistributedContainer::set_cpu_limit(double cpu_cores) {
  if (cpu_cores < 0.0) {
    throw std::invalid_argument("set_cpu_limit: negative limit");
  }
  if (cpu_cores + 1e-6 < cpu_allocated_) {
    throw std::invalid_argument("set_cpu_limit: below allocated cores");
  }
  cpu_limit_ = cpu_cores;
  sync_gauges();
}

void DistributedContainer::set_mem_limit(memcg::Bytes mem) {
  if (mem < 0) {
    throw std::invalid_argument("set_mem_limit: negative limit");
  }
  if (mem < mem_allocated_) {
    throw std::invalid_argument("set_mem_limit: below allocated memory");
  }
  mem_limit_ = mem;
  sync_gauges();
}

void DistributedContainer::set_bw_limit(double bw_bps) {
  if (bw_bps < 0.0) {
    throw std::invalid_argument("set_bw_limit: negative limit");
  }
  if (bw_bps + 1e-6 < bw_allocated_) {
    throw std::invalid_argument("set_bw_limit: below allocated bandwidth");
  }
  bw_limit_ = bw_bps;
  sync_gauges();
}

const DistributedContainer::Member& DistributedContainer::member(
    std::uint32_t container) const {
  const std::uint32_t slot = index_.find(container);
  if (slot == ContainerIndex::kInvalid) {
    throw std::invalid_argument("DistributedContainer: unknown member");
  }
  return members_[slot];
}

DistributedContainer::Member& DistributedContainer::member_at(
    std::uint32_t container, const char* caller) {
  const std::uint32_t slot = index_.find(container);
  if (slot == ContainerIndex::kInvalid) {
    throw std::invalid_argument(std::string(caller) + ": unknown member");
  }
  return members_[slot];
}

double DistributedContainer::member_cores(std::uint32_t container) const {
  return member(container).cores;
}

memcg::Bytes DistributedContainer::member_mem(std::uint32_t container) const {
  return member(container).mem;
}

double DistributedContainer::set_member_cores(std::uint32_t container,
                                              double cores) {
  Member& m = member_at(container, "set_member_cores");
  cores = std::max(0.0, cores);
  // Clamp so the application aggregate never exceeds the global limit: this
  // is the runtime enforcement that distinguishes a Distributed Container
  // from an admission-time Resource Quota.
  const double headroom = cpu_limit_ - (cpu_allocated_ - m.cores);
  cores = std::min(cores, headroom);
  cpu_allocated_ += cores - m.cores;
  m.cores = cores;
  sync_gauges();
  return cores;
}

memcg::Bytes DistributedContainer::set_member_mem(std::uint32_t container,
                                                  memcg::Bytes mem) {
  Member& m = member_at(container, "set_member_mem");
  mem = std::max<memcg::Bytes>(0, mem);
  const memcg::Bytes headroom = mem_limit_ - (mem_allocated_ - m.mem);
  mem = std::min(mem, headroom);
  mem_allocated_ += mem - m.mem;
  m.mem = mem;
  sync_gauges();
  return mem;
}

double DistributedContainer::member_bw(std::uint32_t container) const {
  return member(container).bw;
}

double DistributedContainer::set_member_bw(std::uint32_t container,
                                           double bw_bps) {
  Member& m = member_at(container, "set_member_bw");
  bw_bps = std::max(0.0, bw_bps);
  const double headroom = bw_limit_ - (bw_allocated_ - m.bw);
  bw_bps = std::min(bw_bps, std::max(0.0, headroom));
  bw_allocated_ += bw_bps - m.bw;
  m.bw = bw_bps;
  sync_gauges();
  return bw_bps;
}

void DistributedContainer::set_observer(const obs::Observer* observer) {
  obs_ = observer;
  sync_gauges();
}

void DistributedContainer::sync_gauges() const {
  if (obs_ == nullptr) return;
  const obs::Observer::Handles& h = obs_->h;
  h.pool_cpu_allocated->set(cpu_allocated_);
  h.pool_cpu_unallocated->set(cpu_unallocated());
  h.pool_mem_allocated->set(static_cast<double>(mem_allocated_));
  h.pool_mem_unallocated->set(static_cast<double>(mem_unallocated()));
  h.pool_bw_allocated->set(bw_allocated_);
  h.pool_bw_unallocated->set(bw_unallocated());
}

}  // namespace escra::core
