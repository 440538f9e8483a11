// Cross-shard conservation checker (escra_check).
//
// The per-shard story is covered by one InvariantChecker per shard (each
// shard has its own Observer, so the per-event hooks and pool/counter
// sweeps apply unchanged). What no per-shard checker can see is the
// *plane-level* law the borrowing protocol must preserve:
//
//     sum over shards(pool slice limit) + in-flight transfers
//         == cluster pool                          (per resource)
//
// exactly for memory (every transfer is whole bytes) and to kCpuEps for
// CPU / 1e-3 bytes/s for bandwidth. Because lenders and returners shrink
// their slice *before* the grant/notice travels, the identity holds at every
// instant — through drops, duplicated RPC legs, retransmits, and shard
// leader crashes — not just at quiescence. This checker sweeps it on the
// sim clock, plus the plane-level sanity rules:
//
//   - shard-cpu/mem/bw-conservation   the identity above
//   - shard-pool-floor                every slice limit covers its
//                                     allocated sum (never negative)
//   - shard-inflight-floor            in-flight totals never go negative
//                                     (a transfer landed twice)
//   - shard-borrow-counters           grants never outnumber requests and
//                                     sequenced ops imply their sends
//
//   shard::ShardedControlPlane plane(...);
//   check::ShardInvariantChecker checker(plane);
//   simulation.run_until(...);
//   if (!checker.ok()) std::puts(checker.report().c_str());
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "shard/sharded_control_plane.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace escra::check {

class ShardInvariantChecker {
 public:
  explicit ShardInvariantChecker(shard::ShardedControlPlane& plane);
  ~ShardInvariantChecker();

  ShardInvariantChecker(const ShardInvariantChecker&) = delete;
  ShardInvariantChecker& operator=(const ShardInvariantChecker&) = delete;

  // Runs a full sweep immediately (in addition to the periodic schedule).
  void check_now() { sweep(); }

  bool ok() const { return violations_.empty() && dropped_violations_ == 0; }
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t dropped_violations() const { return dropped_violations_; }
  std::uint64_t sweeps() const { return sweeps_; }

  // Human-readable multi-line summary ("ok" or one line per violation).
  std::string report() const;

 private:
  void sweep();
  void add(const std::string& rule, std::string detail);

  shard::ShardedControlPlane& plane_;
  sim::Simulation& sim_;
  sim::EventHandle sweep_event_;

  std::vector<Violation> violations_;
  std::uint64_t dropped_violations_ = 0;
  std::uint64_t sweeps_ = 0;
};

}  // namespace escra::check
