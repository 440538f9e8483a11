// Deterministic application -> shard router (consistent hashing).
//
// The sharded control plane partitions containers across controller shards
// *by application*: every container of one application lands on the same
// shard, so the Distributed Container's app-level aggregate limits never
// straddle a shard boundary and each shard's Resource Allocator reasons
// over a complete pool. The mapping is a classic consistent-hash ring —
// each shard owns a fixed number of points hashed onto a 64-bit ring, and an
// application maps to the owner of the first point clockwise of its own
// hash. Growing the ring from N to N+1 shards therefore only moves the
// applications the new shard's points capture (~1/(N+1) of them); every
// other application keeps its owner, which is what keeps resharding cheap
// and what tests/shard_test.cc asserts.
//
// Everything is pure arithmetic on the app name (FNV-1a), so the mapping
// is identical across processes, runs, and --jobs settings.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace escra::shard {

class ShardRouter {
 public:
  // `shards` >= 1.
  explicit ShardRouter(int shards);

  // The shard owning `app`, in [0, shard_count()).
  int shard_for_app(std::string_view app) const;

  int shard_count() const { return shards_; }

  // FNV-1a 64-bit, the ring's hash (exposed for tests).
  static std::uint64_t hash(std::string_view s);

 private:
  int shards_;
  // Ring points sorted by hash; ties (astronomically unlikely) resolve to
  // the lower shard id via pair ordering, keeping the ring deterministic.
  std::vector<std::pair<std::uint64_t, int>> ring_;
};

}  // namespace escra::shard
