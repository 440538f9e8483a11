// Dense container-slot interning for the control-plane hot path.
//
// Every per-sample structure in the control plane — the Controller's
// registry and desired-state slots, the Agent's managed table, the
// allocator's sliding windows, the Distributed Container's member book —
// used to hash a sparse `cluster::ContainerId` on every lookup. A
// ContainerIndex interns those ids into contiguous u32 *slots* so hot state
// can live in struct-of-arrays vectors indexed directly: one predictable
// load instead of a hash probe, and dense iteration instead of
// unordered_map walk order.
//
// Properties the rest of the tree relies on (locked by
// tests/container_index_test.cc):
//   * Determinism. Slot assignment is a pure function of the intern/release
//     call sequence (LIFO free-list reuse, ascending growth), so identical
//     seeds — and a takeover replaying the same registration order — produce
//     identical slot layouts and identical dense iteration order.
//   * Dense iteration. for_each visits live slots in ascending slot order,
//     skipping holes; after heavy churn the order is still deterministic.
//
// External identities (WAL records, replication events, trace events, the
// `container_id * 4 + resource` slot keys) keep using the stable
// ContainerId — slots are a process-local acceleration, never serialized.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/container.h"

namespace escra::core {

class ContainerIndex {
 public:
  // Sentinel for "no slot". All-ones so a branchless `slot < size` check
  // also rejects it.
  static constexpr std::uint32_t kInvalid = 0xffffffffu;

  // Interns `id`, returning its slot. A known id returns its existing slot;
  // an unknown one takes the most recently freed slot (LIFO) or grows the
  // arrays by one. `created` (optional) reports which case happened so the
  // caller knows to (re)initialize its per-slot state.
  std::uint32_t intern(cluster::ContainerId id, bool* created = nullptr) {
    if (id < id_to_slot_.size() && id_to_slot_[id] != kInvalid) {
      if (created != nullptr) *created = false;
      return id_to_slot_[id];
    }
    if (id >= id_to_slot_.size()) id_to_slot_.resize(id + 1, kInvalid);
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slot_to_id_[slot] = id;
      live_[slot] = 1;
    } else {
      slot = static_cast<std::uint32_t>(slot_to_id_.size());
      slot_to_id_.push_back(id);
      live_.push_back(1);
    }
    id_to_slot_[id] = slot;
    ++size_;
    if (created != nullptr) *created = true;
    return slot;
  }

  // Slot for `id`, or kInvalid if the id is not interned.
  std::uint32_t find(cluster::ContainerId id) const {
    return id < id_to_slot_.size() ? id_to_slot_[id] : kInvalid;
  }

  bool contains(cluster::ContainerId id) const { return find(id) != kInvalid; }

  // Releases `id`'s slot back to the free list. Returns the freed slot
  // (kInvalid if the id was not interned). Per-slot side-table state need
  // not be cleared here: intern reports `created` on reuse so owners reset
  // it then.
  std::uint32_t release(cluster::ContainerId id) {
    const std::uint32_t slot = find(id);
    if (slot == kInvalid) return kInvalid;
    id_to_slot_[id] = kInvalid;
    live_[slot] = 0;
    free_.push_back(slot);
    --size_;
    return slot;
  }

  // Live slot count / total slots ever created (vector length for SoA
  // side tables — index any slot in [0, capacity)).
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slot_to_id_.size(); }

  // Visits every live slot in ascending slot order: fn(slot, id).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint32_t n = static_cast<std::uint32_t>(slot_to_id_.size());
    for (std::uint32_t slot = 0; slot < n; ++slot) {
      if (live_[slot] != 0) fn(slot, slot_to_id_[slot]);
    }
  }

  void clear() {
    id_to_slot_.clear();
    slot_to_id_.clear();
    live_.clear();
    free_.clear();
    size_ = 0;
  }

 private:
  // Direct-mapped id -> slot. Container ids in this tree are small and
  // sequential (Cluster hands them out densely), so a flat vector beats a
  // hash table in both lookup cost and footprint.
  std::vector<std::uint32_t> id_to_slot_;
  std::vector<cluster::ContainerId> slot_to_id_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> free_;  // LIFO: hottest slot reused first
  std::size_t size_ = 0;
};

}  // namespace escra::core
