// The Karma-style credit ledger and its settle loop (core/credit_ledger.h,
// Controller::settle_credits): earn below fair share, pay above it, decay
// when broke, conserve every micro-credit — including across an RPC
// retransmit storm (charges are settle-driven, never telemetry-driven) and
// across a leader failover (balances ride the WAL).
#include "core/credit_ledger.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bw/shaper.h"
#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "core/escra.h"
#include "core/messages.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"

namespace escra {
namespace {

using core::CreditLedger;
using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

// --- ledger unit tests ---

TEST(CreditLedgerTest, OpenMintBurnCloseConserves) {
  CreditLedger lg;
  const auto conserved = [&lg] {
    return lg.minted_micro() == lg.burned_micro() + lg.outstanding_micro();
  };
  lg.open(1, CreditLedger::to_micro(2.0));
  lg.open(2, CreditLedger::to_micro(2.0));
  EXPECT_TRUE(conserved());
  EXPECT_EQ(lg.balance_micro(1), CreditLedger::to_micro(2.0));

  lg.mint(1, CreditLedger::to_micro(1.5), CreditLedger::to_micro(30.0));
  lg.burn(2, CreditLedger::to_micro(0.75));
  EXPECT_TRUE(conserved());

  lg.close(1);
  EXPECT_TRUE(conserved());
  EXPECT_FALSE(lg.contains(1));
  EXPECT_EQ(lg.balance_micro(1), 0);

  // Closing a debtor burns the (negative) remainder; conservation holds
  // through the sign.
  lg.burn(2, CreditLedger::to_micro(10.0));
  EXPECT_LT(lg.balance_micro(2), 0);
  lg.close(2);
  EXPECT_TRUE(conserved());
  EXPECT_EQ(lg.outstanding_micro(), 0);
}

TEST(CreditLedgerTest, MintClampsAtCap) {
  CreditLedger lg;
  lg.open(1, CreditLedger::to_micro(2.0));
  const std::int64_t cap = CreditLedger::to_micro(3.0);
  // Room for exactly 1.0 credit; the rest of the mint is refused.
  EXPECT_EQ(lg.mint(1, CreditLedger::to_micro(5.0), cap),
            CreditLedger::to_micro(1.0));
  EXPECT_EQ(lg.balance_micro(1), cap);
  EXPECT_EQ(lg.mint(1, CreditLedger::to_micro(1.0), cap), 0);
  // A deep debtor can mint its way back up to the cap.
  lg.burn(1, CreditLedger::to_micro(10.0));
  EXPECT_EQ(lg.mint(1, CreditLedger::to_micro(2.0), cap),
            CreditLedger::to_micro(2.0));
  EXPECT_EQ(lg.minted_micro(), lg.burned_micro() + lg.outstanding_micro());
}

TEST(CreditLedgerTest, OpenIsIdempotentAndInstallReplaces) {
  CreditLedger lg;
  lg.open(1, CreditLedger::to_micro(2.0));
  lg.open(1, CreditLedger::to_micro(99.0));  // no-op, not a re-mint
  EXPECT_EQ(lg.balance_micro(1), CreditLedger::to_micro(2.0));
  EXPECT_EQ(lg.minted_micro(), CreditLedger::to_micro(2.0));

  const std::map<cluster::ContainerId, std::int64_t> image = {
      {7, CreditLedger::to_micro(1.25)},
      {9, CreditLedger::to_micro(-0.5)},
  };
  const std::int64_t burned = CreditLedger::to_micro(3.25);
  lg.install(image, burned);
  EXPECT_FALSE(lg.contains(1));
  EXPECT_EQ(lg.balance_micro(7), CreditLedger::to_micro(1.25));
  EXPECT_EQ(lg.balance_micro(9), CreditLedger::to_micro(-0.5));
  EXPECT_EQ(lg.outstanding_micro(), CreditLedger::to_micro(0.75));
  EXPECT_EQ(lg.burned_micro(), burned);
  // The minted total is re-derived from the image: burned + outstanding.
  EXPECT_EQ(lg.minted_micro(), CreditLedger::to_micro(4.0));
}

// --- settle-loop tests against a live system ---

core::EscraConfig defense_config() {
  core::EscraConfig cfg;
  cfg.credit_defense = true;
  return cfg;
}

struct CreditRig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  obs::Observer observer;
  std::vector<cluster::Container*> containers;
  core::EscraSystem escra;

  explicit CreditRig(int n = 4, core::EscraConfig cfg = defense_config(),
                     double pool_cores = 8.0)
      : escra(sim, net, k8s, pool_cores, 4 * kGiB, cfg) {
    k8s.add_node({});
    k8s.add_node({});
    cluster::ContainerSpec spec;
    spec.base_memory = 64 * kMiB;
    spec.max_parallelism = 8.0;
    for (int i = 0; i < n; ++i) {
      spec.name = "c" + std::to_string(i);
      containers.push_back(&k8s.create_container(spec, 1.0, 256 * kMiB));
    }
    escra.attach_observer(observer);
    escra.manage(containers);
    escra.start();
  }
};

TEST(CreditSettleTest, IdleMembersEarnUpToTheCap) {
  CreditRig rig;
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  checker.attach_credits(rig.escra.controller().credits());
  // Everyone idle: κ shrinks limits toward the floor, everyone sits below
  // fair share and earns. Long enough for the earliest earner to hit cap.
  rig.sim.run_until(seconds(60));
  const CreditLedger& lg = rig.escra.controller().credits();
  const std::int64_t cap = CreditLedger::to_micro(core::kCreditCap);
  for (const cluster::Container* c : rig.containers) {
    EXPECT_GT(lg.balance_micro(c->id()),
              CreditLedger::to_micro(core::kCreditInit));
    EXPECT_LE(lg.balance_micro(c->id()), cap);
  }
  EXPECT_GT(rig.observer.h.credit_refunds->value(), 0u);
  EXPECT_EQ(rig.observer.h.credit_charges->value(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(CreditSettleTest, SustainedOverclaimChargesThenDecays) {
  CreditRig rig;
  check::InvariantChecker checker(rig.escra, rig.net, rig.observer);
  checker.attach_credits(rig.escra.controller().credits());
  // Container 0 runs hot forever; the others idle. It scales far above its
  // 2-core fair share, burns through its initial credits (the idle pool
  // keeps pressure < 1, but the charge still accrues), and once broke is
  // decayed back toward fair share by the settle sweep.
  cluster::Container* hog = rig.containers[0];
  rig.sim.schedule_every(milliseconds(20), milliseconds(20), [&] {
    hog->submit(milliseconds(150), 0, nullptr);
  });
  rig.sim.run_until(seconds(90));
  const CreditLedger& lg = rig.escra.controller().credits();
  const double fair =
      rig.escra.app().cpu_limit() /
      static_cast<double>(rig.escra.app().member_count());
  EXPECT_GT(rig.observer.h.credit_charges->value(), 0u);
  EXPECT_GT(rig.observer.h.greedy_throttles->value(), 0u);
  EXPECT_LE(lg.balance_micro(hog->id()), 0);
  // Debt is floored at -kCreditCap.
  EXPECT_GE(lg.balance_micro(hog->id()),
            -CreditLedger::to_micro(core::kCreditCap));
  // The decay converged the overclaimer to (roughly) its static fair share.
  EXPECT_LE(rig.escra.app().member_cores(hog->id()),
            fair * (1.0 + core::kCreditTolerance) + 0.35);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(CreditSettleTest, TelemetryRetransmitsNeverCharge) {
  CreditRig rig;
  rig.sim.run_until(seconds(2));
  core::Controller& controller = rig.escra.controller();
  const std::int64_t burned_before = controller.credits().burned_micro();
  const std::uint64_t charges_before = rig.observer.h.credit_charges->value();
  // A duplicated/retransmitted telemetry burst for a busy-looking cgroup:
  // five identical reports land back-to-back with no settle sweep between
  // them (no sim time passes). Decisions may fire; charges must not —
  // settlement is the only charging site, so duplicates are free.
  core::CpuStatsMsg msg;
  msg.cgroup = rig.containers[0]->id();
  msg.period_end = rig.sim.now();
  msg.quota = rig.containers[0]->cpu_cgroup().quota();
  msg.unused = 0;
  msg.throttled = true;
  for (int i = 0; i < 5; ++i) controller.on_cpu_stats(msg);
  EXPECT_EQ(controller.credits().burned_micro(), burned_before);
  EXPECT_EQ(rig.observer.h.credit_charges->value(), charges_before);
}

TEST(CreditSettleTest, ImpossibleTelemetryIsRejectedBeforeTheAllocator) {
  CreditRig rig;
  rig.sim.run_until(seconds(1));
  core::Controller& controller = rig.escra.controller();
  cluster::Container* c = rig.containers[0];
  const double cores_before = rig.escra.app().member_cores(c->id());

  core::CpuStatsMsg msg;
  msg.cgroup = c->id();
  msg.period_end = rig.sim.now();
  // unused > quota: no real cgroup can report this.
  msg.quota = c->cpu_cgroup().quota();
  msg.unused = msg.quota + 1000;
  msg.throttled = false;
  controller.on_cpu_stats(msg);
  // Claimed usage beyond the node's core count (quota says 100 cores were
  // burned in one period on a 20-core node).
  msg.quota = 100 * c->cpu_cgroup().period();
  msg.unused = 0;
  msg.throttled = true;
  controller.on_cpu_stats(msg);

  EXPECT_EQ(rig.observer.h.telemetry_rejected->value(), 2u);
  EXPECT_DOUBLE_EQ(rig.escra.app().member_cores(c->id()), cores_before);
}

// The plausibility clamp's boundary: a saturated node legitimately reports
// usage of exactly its core count, and a saturated flow exactly its NIC
// rate — AT the bound is real telemetry and must be ingested. Epsilon
// ABOVE is physically impossible and must be rejected. Off-by-one here
// either drops honest saturation reports (the loop goes blind exactly when
// pressure peaks) or admits forged ones.
TEST(CreditSettleTest, TelemetryAtThePhysicalBoundIsAccepted) {
  CreditRig rig;
  rig.sim.run_until(seconds(1));
  core::Controller& controller = rig.escra.controller();
  cluster::Container* c = rig.containers[0];
  const sim::Duration period = c->cpu_cgroup().period();

  core::CpuStatsMsg msg;
  msg.cgroup = c->id();
  msg.period_end = rig.sim.now();
  // Exactly node capacity: 20 core-periods burned on the 20-core node.
  msg.quota = 20 * period;
  msg.unused = 0;
  msg.throttled = false;
  controller.on_cpu_stats(msg);
  EXPECT_EQ(rig.observer.h.telemetry_rejected->value(), 0u);

  // One percent of a period above capacity: impossible, rejected.
  msg.quota = 20 * period + period / 100;
  controller.on_cpu_stats(msg);
  EXPECT_EQ(rig.observer.h.telemetry_rejected->value(), 1u);
}

TEST(CreditSettleTest, BwTelemetryAtTheNicRateIsAccepted) {
  CreditRig rig;
  rig.sim.run_until(seconds(1));
  core::Controller& controller = rig.escra.controller();
  const double nic = 1.25e9;  // NodeConfig default

  bw::BwSample sample;
  sample.container = rig.containers[0]->id();
  sample.rate_bps = nic;
  sample.used_bps = nic;  // the link saturated: exactly the NIC rate
  sample.throttled = false;
  controller.on_bw_stats(sample);
  EXPECT_EQ(rig.observer.h.telemetry_rejected->value(), 0u);

  sample.used_bps = nic * (1.0 + 1e-6);  // faster than the wire: forged
  controller.on_bw_stats(sample);
  EXPECT_EQ(rig.observer.h.telemetry_rejected->value(), 1u);
}

// --- failover: balances ride the WAL; conservation survives takeover ---

TEST(CreditHaTest, BalancesSurviveLeaderFailover) {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  obs::Observer observer;
  core::EscraSystem escra{sim, net, k8s, 8.0, 4 * kGiB, defense_config()};
  k8s.add_node({});
  k8s.add_node({});
  std::vector<cluster::Container*> containers;
  cluster::ContainerSpec spec;
  spec.base_memory = 64 * kMiB;
  for (int i = 0; i < 4; ++i) {
    spec.name = "c" + std::to_string(i);
    containers.push_back(&k8s.create_container(spec, 1.0, 256 * kMiB));
  }
  escra.attach_observer(observer);
  escra.manage(containers);
  escra.start();
  std::optional<ha::HaControlPlane> ha;
  ha::HaConfig cfg;
  cfg.standbys = 2;
  ha.emplace(escra, net, cfg);
  ha->start();

  check::InvariantChecker checker(escra, net, observer);
  checker.attach_credits(escra.controller().credits());

  // Idle run: everyone earns above their initial grant, then the leader is
  // killed. If balances did not ride the WAL, the takeover would reopen
  // everyone at kCreditInit.
  std::int64_t balance_at_kill = 0;
  sim.schedule_at(seconds(10), [&] {
    balance_at_kill = escra.controller().credits().balance_micro(
        containers[0]->id());
    ha->kill_leader();
  });
  sim.run_until(seconds(20));

  const CreditLedger& lg = escra.controller().credits();
  EXPECT_GT(balance_at_kill, CreditLedger::to_micro(2.0));
  // Still earning from the replicated balance, not reset to the 2.0 init.
  EXPECT_GE(lg.balance_micro(containers[0]->id()), balance_at_kill);
  EXPECT_EQ(lg.minted_micro(), lg.burned_micro() + lg.outstanding_micro());
  EXPECT_GE(ha->failovers(), 1u);
  EXPECT_TRUE(checker.ok()) << checker.report();
  ha.reset();
}

TEST(CreditHaTest, AttachAfterEarningKeepsTheBalances) {
  // Balances earned before the HA plane attaches are part of the book it
  // seeds: no settle sweep re-emits an account that sits at the cap, so a
  // seed without them would reopen everyone at kCreditInit on takeover.
  CreditRig rig;
  rig.sim.run_until(seconds(90));
  const CreditLedger& lg = rig.escra.controller().credits();
  const cluster::ContainerId id = rig.containers[0]->id();
  const std::int64_t balance_at_attach = lg.balance_micro(id);
  EXPECT_EQ(balance_at_attach, CreditLedger::to_micro(core::kCreditCap));

  std::optional<ha::HaControlPlane> ha;
  ha.emplace(rig.escra, rig.net, ha::HaConfig{.standbys = 2});
  ha->start();
  rig.sim.schedule_at(seconds(91), [&] { ha->kill_leader(); });
  rig.sim.run_until(seconds(93));

  ASSERT_EQ(ha->failovers(), 1u);
  EXPECT_GE(lg.balance_micro(id), balance_at_attach);
  EXPECT_EQ(lg.minted_micro(), lg.burned_micro() + lg.outstanding_micro());
  ha.reset();
}

}  // namespace
}  // namespace escra
