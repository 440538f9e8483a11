// Karma-style credit ledger (strategy-proofness defense, after Karma,
// arXiv:2305.17222).
//
// Escra's κ/Υ loop trusts telemetry: an inflated usage report or a
// fabricated pre-OOM shortfall is rewarded with a bigger slice of the pool.
// The ledger makes sustained overclaiming cost future priority. Each member
// of the Distributed Container holds a credit balance denominated in
// *fair-share-seconds*: one credit buys one second of holding the member's
// full static fair share (pool / member count) on top of that fair share.
// The Controller's settle sweep (every CFS period) mints credits for
// members allocated below their CPU fair share and burns credits for
// members above it (scaled by pool pressure — taking free capacity nobody
// else wants is cheap; taking it from a contended pool costs full price);
// memory held above the memory fair share is charged rent at the same rate,
// so grant blocks farmed through fabricated OOM events keep costing. The
// allocator's grant path refuses to lift a credit-exhausted member above
// its fair share, and the sweep decays a persistently-exhausted overclaimer
// back toward the static fair share — honest bursty tenants keep sub-second
// elasticity, liars degrade to what admission would have given them.
//
// Balances are integer micro-credits so the conservation law the invariant
// checker enforces is exact, not float-approximate:
//
//     minted == burned + outstanding        (outstanding = Σ balances)
//
// holds after every operation by construction: open() mints the initial
// balance, mint() adds (capped), burn() moves balance to burned (balances
// may go negative — debt), close() burns whatever balance remains.
//
// The ledger is Controller soft state: crash() clears it, and under the
// replicated control plane (src/ha) every mutation is WAL-streamed so a
// standby's takeover installs the same balances — a greedy tenant cannot
// launder its debt through a failover.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>

#include "cluster/container.h"

namespace escra::core {

class CreditLedger {
 public:
  // Micro-credits per credit (fair-share-second).
  static constexpr std::int64_t kMicro = 1000000;

  static std::int64_t to_micro(double credits) {
    return static_cast<std::int64_t>(
        std::llround(credits * static_cast<double>(kMicro)));
  }
  static double to_credits(std::int64_t micro) {
    return static_cast<double>(micro) / static_cast<double>(kMicro);
  }

  struct Account {
    std::int64_t micro = 0;        // balance; negative = debt
    std::int32_t above_streak = 0; // consecutive settle sweeps above fair
                                   // share (drives the decay grace)
  };

  // --- membership ---
  // Opens an account with `init_micro` (minted). No-op if already open.
  void open(cluster::ContainerId id, std::int64_t init_micro);
  // Closes the account, burning whatever balance remains. No-op if absent.
  void close(cluster::ContainerId id);
  bool contains(cluster::ContainerId id) const {
    return accounts_.find(id) != accounts_.end();
  }
  std::size_t size() const { return accounts_.size(); }

  // --- balance mutation (settle sweep / OOM charges) ---
  // Balance in micro-credits; 0 for an absent account.
  std::int64_t balance_micro(cluster::ContainerId id) const;
  // Mints up to `micro`, clamped so the balance never exceeds `cap_micro`.
  // Returns the amount actually minted (0 for an absent account).
  std::int64_t mint(cluster::ContainerId id, std::int64_t micro,
                    std::int64_t cap_micro);
  // Burns `micro` from the balance (which may go negative). Returns the
  // amount burned (0 for an absent account).
  std::int64_t burn(cluster::ContainerId id, std::int64_t micro);

  // Above-fair-share streak bookkeeping (decay grace). Both are no-ops /
  // return 0 for an absent account.
  std::int32_t bump_streak(cluster::ContainerId id);
  void reset_streak(cluster::ContainerId id);
  std::int32_t streak(cluster::ContainerId id) const;

  // --- whole-ledger operations (crash / takeover) ---
  void clear();
  // Replaces every account with a replicated balance image (warm-standby
  // takeover) and the burned total with `burned`; the minted total is
  // re-derived as burned + Σ balances, so conservation holds by
  // construction. Streaks reset — the grace restarts under the new leader.
  void install(const std::map<cluster::ContainerId, std::int64_t>& balances,
               std::int64_t burned);

  // --- conservation (invariant checker) ---
  std::int64_t minted_micro() const { return minted_; }
  std::int64_t burned_micro() const { return burned_; }
  // Σ balances, maintained incrementally (exact).
  std::int64_t outstanding_micro() const { return outstanding_; }

  // std::map: deterministic iteration for settle sweeps, images, and
  // replication — identical-seed runs settle in identical order.
  const std::map<cluster::ContainerId, Account>& accounts() const {
    return accounts_;
  }

 private:
  std::map<cluster::ContainerId, Account> accounts_;
  std::int64_t minted_ = 0;
  std::int64_t burned_ = 0;
  std::int64_t outstanding_ = 0;
};

}  // namespace escra::core
