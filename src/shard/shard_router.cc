#include "shard/shard_router.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace escra::shard {

namespace {
// Ring points per shard (more points = better balance; 64 keeps the
// max/min application load ratio under ~1.3).
constexpr int kVirtualNodes = 64;
}  // namespace

std::uint64_t ShardRouter::hash(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  // Raw FNV-1a mixes into the low bits only; ring placement sorts on the
  // *high* bits, where short, similar keys cluster badly enough that whole
  // shards get zero arc coverage. Murmur3's fmix64 finalizer fixes the
  // avalanche.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

ShardRouter::ShardRouter(int shards) : shards_(shards) {
  if (shards < 1) throw std::invalid_argument("ShardRouter: shards < 1");
  ring_.reserve(static_cast<std::size_t>(shards) * kVirtualNodes);
  for (int s = 0; s < shards; ++s) {
    for (int v = 0; v < kVirtualNodes; ++v) {
      const std::string point =
          "shard-" + std::to_string(s) + "#" + std::to_string(v);
      ring_.emplace_back(hash(point), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int ShardRouter::shard_for_app(std::string_view app) const {
  const std::uint64_t h = hash(app);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, int>& p, std::uint64_t key) {
        return p.first < key;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

}  // namespace escra::shard
