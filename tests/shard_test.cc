// Sharded control plane (src/shard): the consistent-hash router keeps app
// ownership stable as the ring grows; manage() lands whole apps on one
// shard; the borrow/return protocol moves pool headroom to hot shards and
// back with exactly-once effect under drops, duplicates, and retransmits;
// and a shard leader failover never perturbs another shard's decision
// stream.
#include "shard/sharded_control_plane.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/shard_checker.h"
#include "cluster/cluster.h"
#include "create_app.h"
#include "net/network.h"
#include "obs/observer.h"
#include "shard/shard_router.h"
#include "sim/rng.h"

namespace escra {
namespace {

using memcg::kGiB;
using sim::milliseconds;
using sim::seconds;

// --- router ---------------------------------------------------------------

TEST(ShardRouterTest, BalancesAppsAcrossShards) {
  shard::ShardRouter router(4);
  std::vector<int> count(4, 0);
  constexpr int kApps = 2000;
  for (int i = 0; i < kApps; ++i) {
    const int s = router.shard_for_app("app-" + std::to_string(i));
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++count[s];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(count[s], kApps / 10) << "shard " << s << " starved";
  }
}

TEST(ShardRouterTest, GrowingTheRingOnlyMovesAppsToTheNewShard) {
  shard::ShardRouter before(4), after(5);
  constexpr int kApps = 2000;
  int moved = 0;
  for (int i = 0; i < kApps; ++i) {
    const std::string app = "app-" + std::to_string(i);
    const int owner_before = before.shard_for_app(app);
    const int owner_after = after.shard_for_app(app);
    if (owner_before != owner_after) {
      ++moved;
      // Consistent hashing: a reassigned key can only have been captured by
      // one of the new shard's ring points.
      EXPECT_EQ(owner_after, 4) << app;
    }
  }
  // Expected churn is ~1/5 of the keys; anything near full reshuffling
  // means the ring degenerated into modulo hashing.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kApps * 2 / 5);
}

// --- rig ------------------------------------------------------------------

// Finds an app name the router maps to `target` (names are arbitrary; the
// tests need controlled placement).
std::string app_on_shard(const shard::ShardRouter& router, int target,
                         const std::string& prefix) {
  for (int i = 0;; ++i) {
    const std::string name = prefix + std::to_string(i);
    if (router.shard_for_app(name) == target) return name;
  }
}

struct ShardRig {
  sim::Simulation sim;
  net::Network net{sim};
  cluster::Cluster k8s{sim};
  std::vector<std::unique_ptr<obs::Observer>> observers;
  std::optional<shard::ShardedControlPlane> plane;

  explicit ShardRig(int shards, double global_cpu = 8.0,
                    shard::ShardPlaneConfig pcfg = {}) {
    for (int n = 0; n < 4; ++n) k8s.add_node({.cores = 16.0});
    pcfg.shards = shards;
    plane.emplace(sim, net, k8s, global_cpu, memcg::Bytes{4} * kGiB, pcfg);
    for (int s = 0; s < shards; ++s) {
      observers.push_back(std::make_unique<obs::Observer>());
      plane->attach_observer(s, *observers[s]);
    }
  }

  // Creates an application of `containers` containers and hands it to the
  // plane, which registers it with its owning shard.
  std::vector<cluster::Container*> manage_app(const std::string& name,
                                              int containers) {
    const auto members = create_app(k8s, name, containers);
    plane->manage(name, members);
    return members;
  }

  // Saturating load: one 40 ms item per 10 ms per container (demand ~4
  // cores each) until `until`; persistent throttling drives scale-up into
  // a dry pool, which is what makes the owning shard borrow.
  void drive_hot(const std::vector<cluster::Container*>& containers,
                 sim::TimePoint until) {
    for (cluster::Container* c : containers) {
      sim::Simulation* simp = &sim;
      sim.schedule_every(milliseconds(1), milliseconds(10), [c, simp, until] {
        if (simp->now() >= until) return;
        c->submit(milliseconds(40), 0, [](bool) {});
      });
    }
  }
};

// --- placement ------------------------------------------------------------

TEST(ShardPlaneTest, DeployKeepsEveryAppOnExactlyOneShard) {
  ShardRig rig(3);
  std::size_t expected[3] = {0, 0, 0};
  for (int a = 0; a < 9; ++a) {
    const std::string name = "app" + std::to_string(a);
    const int owner = rig.plane->shard_of_app(name);
    const auto members = rig.manage_app(name, 4);
    expected[owner] += members.size();
    for (const cluster::Container* c : members) {
      EXPECT_EQ(rig.plane->shard_of_container(c->id()), owner) << name;
    }
  }
  rig.plane->start();
  rig.sim.run_until(milliseconds(50));  // registrations land
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(rig.plane->shard(s).controller().registered_count(),
              expected[s])
        << "shard " << s;
  }
  EXPECT_EQ(rig.plane->shard_of_container(9999), -1);
}

// --- borrowing ------------------------------------------------------------

TEST(ShardPlaneTest, BorrowMovesHeadroomToTheHotShardAndBack) {
  ShardRig rig(2);
  check::ShardInvariantChecker checker(*rig.plane);
  const auto& router = rig.plane->router();
  const auto hot = rig.manage_app(app_on_shard(router, 0, "hot"), 4);
  rig.manage_app(app_on_shard(router, 1, "idle"), 2);
  const int hot_shard = 0;
  const int idle_shard = 1;
  const double slice = rig.plane->shard(hot_shard).app().cpu_limit();
  EXPECT_DOUBLE_EQ(slice, 4.0);

  rig.plane->start();
  rig.drive_hot(hot, seconds(5));
  rig.sim.run_until(seconds(5));

  // The idle shard's containers scaled down, its surplus was advertised,
  // and the hot shard borrowed real capacity.
  EXPECT_GT(rig.plane->adverts_sent(), 0u);
  EXPECT_GE(rig.plane->borrows_granted(), 1u);
  EXPECT_GT(rig.plane->shard(hot_shard).app().cpu_limit(), slice + 0.1);
  EXPECT_LT(rig.plane->shard(idle_shard).app().cpu_limit(), slice - 0.1);
  const double peak = rig.plane->shard(hot_shard).app().cpu_limit();

  // Load gone: the hot shard's members shrink, its unallocated pool crosses
  // the return threshold, and the debt flows back to the lender.
  rig.sim.run_until(seconds(12));
  EXPECT_GE(rig.plane->borrows_returned(), 1u);
  EXPECT_LT(rig.plane->shard(hot_shard).app().cpu_limit(), peak);
  EXPECT_TRUE(checker.ok()) << checker.report();

  // The merged trace is deterministic in one run, stamps owning shards, and
  // carries the borrow protocol.
  std::ostringstream a, b;
  rig.plane->export_merged_trace(a);
  rig.plane->export_merged_trace(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"shard\":1"), std::string::npos);
  EXPECT_NE(a.str().find("\"shard\":2"), std::string::npos);
  EXPECT_NE(a.str().find("borrow-grant"), std::string::npos);
}

TEST(ShardPlaneTest, BorrowIsExactlyOnceUnderDropsDuplicatesAndHeal) {
  ShardRig rig(2);
  check::ShardInvariantChecker checker(*rig.plane);
  rig.net.set_fault_rng(sim::Rng(0x5ad17ULL));
  // Adverts ride kShardControl datagrams; the borrow/return RPC legs ride
  // the control-RPC path — fault both, plus duplicated legs to hit the
  // receiver-side sequence caches.
  rig.net.set_drop_rate(net::Channel::kShardControl, 0.25);
  rig.net.set_duplicate_rate(net::Channel::kShardControl, 0.25);
  rig.net.set_drop_rate(net::Channel::kControlRpc, 0.2);
  rig.net.set_duplicate_rate(net::Channel::kControlRpc, 0.2);

  const auto& router = rig.plane->router();
  const auto hot = rig.manage_app(app_on_shard(router, 0, "hot"), 4);
  rig.manage_app(app_on_shard(router, 1, "idle"), 2);
  rig.plane->start();
  rig.drive_hot(hot, seconds(6));
  rig.sim.run_until(seconds(6));

  EXPECT_GE(rig.plane->borrows_granted(), 1u);
  EXPECT_GT(rig.plane->borrow_retransmits(), 0u)
      << "25% loss on the borrow channel must force retransmits";

  // Heal and settle: every in-flight op completes (idempotently — the
  // duplicated legs already exercised the receiver caches), after which the
  // ledger must be empty and conservation exact. The settle window covers
  // the slow tail: the hot shard sheds its load-time grants period by
  // period until the return threshold is crossed, then repays the debt.
  rig.net.set_drop_rate(net::Channel::kShardControl, 0.0);
  rig.net.set_duplicate_rate(net::Channel::kShardControl, 0.0);
  rig.net.set_drop_rate(net::Channel::kControlRpc, 0.0);
  rig.net.set_duplicate_rate(net::Channel::kControlRpc, 0.0);
  rig.sim.run_until(seconds(20));

  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_NEAR(rig.plane->inflight_cpu(), 0.0, 1e-9);
  EXPECT_EQ(static_cast<long long>(rig.plane->inflight_mem()), 0);
  const double slices = rig.plane->shard(0).app().cpu_limit() +
                        rig.plane->shard(1).app().cpu_limit();
  EXPECT_NEAR(slices, rig.plane->cluster_cpu_limit(), 1e-9);
  EXPECT_EQ(rig.plane->shard(0).app().mem_limit() +
                rig.plane->shard(1).app().mem_limit(),
            rig.plane->cluster_mem_limit());
}

// --- HA / failover isolation ----------------------------------------------

TEST(ShardPlaneTest, OwnershipAndConservationSurviveShardLeaderChurn) {
  ShardRig rig(2);
  check::ShardInvariantChecker checker(*rig.plane);
  const auto& router = rig.plane->router();
  const auto hot = rig.manage_app(app_on_shard(router, 0, "hot"), 4);
  const auto idle = rig.manage_app(app_on_shard(router, 1, "idle"), 2);
  rig.plane->start();
  rig.plane->enable_ha(1);
  rig.drive_hot(hot, seconds(5));

  // Kill the hot shard's leader mid-borrow-traffic, twice.
  rig.sim.schedule_at(seconds(1) + milliseconds(7),
                      [&] { rig.plane->ha(0).kill_leader(); });
  rig.sim.schedule_at(seconds(3) + milliseconds(3),
                      [&] { rig.plane->ha(0).kill_leader(); });
  rig.sim.run_until(seconds(8));

  EXPECT_EQ(rig.plane->ha(0).failovers(), 2u);
  EXPECT_EQ(rig.plane->ha(1).failovers(), 0u);
  // Ownership never moved: every container still belongs to its shard and
  // the promoted leader rebuilt the full registry.
  for (const cluster::Container* c : hot) {
    EXPECT_EQ(rig.plane->shard_of_container(c->id()), 0);
  }
  for (const cluster::Container* c : idle) {
    EXPECT_EQ(rig.plane->shard_of_container(c->id()), 1);
  }
  EXPECT_EQ(rig.plane->shard(0).controller().registered_count(), hot.size());
  EXPECT_EQ(rig.plane->shard(1).controller().registered_count(), idle.size());
  EXPECT_GE(rig.plane->borrows_granted(), 1u);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// One shard's failover is invisible to the other shard's decision stream.
// Borrowing is quiesced (low_frac = 0: a shard never asks) because pool
// transfers are the one *deliberate* cross-shard coupling; everything else
// — telemetry, decisions, limit RPCs, HA replication — must stay perfectly
// isolated per shard.
TEST(ShardPlaneTest, LeaderFailoverIsInvisibleToOtherShards) {
  const auto run = [](bool kill) {
    shard::ShardPlaneConfig pcfg;
    pcfg.low_frac = 0.0;
    ShardRig rig(2, 8.0, pcfg);
    const auto& router = rig.plane->router();
    const auto a = rig.manage_app(app_on_shard(router, 0, "a"), 4);
    const auto b = rig.manage_app(app_on_shard(router, 1, "b"), 4);
    rig.plane->start();
    rig.plane->enable_ha(1);
    rig.drive_hot(a, seconds(2));
    rig.drive_hot(b, seconds(2));
    if (kill) {
      rig.sim.schedule_at(seconds(1) + milliseconds(7),
                          [&] { rig.plane->ha(0).kill_leader(); });
    }
    rig.sim.run_until(seconds(3));
    std::ostringstream shard1_trace;
    rig.observers[1]->trace().export_jsonl(shard1_trace);
    return shard1_trace.str();
  };
  const std::string undisturbed = run(false);
  const std::string with_failover = run(true);
  EXPECT_FALSE(undisturbed.empty());
  EXPECT_EQ(undisturbed, with_failover);
}

// A shard's replacement standby (created after a takeover) stays among its
// own shard's standby addresses: it neither takes traffic at another
// shard's address nor shares that shard's partitions. Borrowing is quiesced
// so the other shard's replication traffic cannot depend on the failover.
TEST(ShardPlaneTest, ReplacementStandbyStaysInItsShardsEndpointBand) {
  const auto run = [](bool kill, bool partition) {
    shard::ShardPlaneConfig pcfg;
    pcfg.low_frac = 0.0;
    ShardRig rig(2, 8.0, pcfg);
    const auto& router = rig.plane->router();
    const auto a = rig.manage_app(app_on_shard(router, 0, "a"), 4);
    const auto b = rig.manage_app(app_on_shard(router, 1, "b"), 4);
    rig.plane->start();
    rig.plane->enable_ha(1);
    rig.drive_hot(a, seconds(4));
    rig.drive_hot(b, seconds(4));
    if (kill) {
      rig.sim.schedule_at(seconds(1),
                          [&] { rig.plane->ha(0).kill_leader(); });
    }
    std::uint64_t shard1_rx = 0;
    rig.sim.schedule_at(seconds(3), [&] {
      shard1_rx = rig.net.endpoint_stats(net::standby_endpoint(1)).rx_bytes;
      // Cuts shard 1's standby off from the leaders' seat.
      if (partition) {
        rig.net.partition(net::kControllerEndpoint, net::standby_endpoint(1));
      }
    });
    rig.sim.run_until(seconds(5));
    return std::tuple{shard1_rx, rig.plane->ha(0).failovers(),
                      rig.plane->ha(1).failovers()};
  };
  // Shard 1's standby address carries only shard 1's stream.
  const auto [undisturbed_rx, f0, f1] = run(false, false);
  const auto [failover_rx, g0, g1] = run(true, false);
  EXPECT_GT(undisturbed_rx, 0u);
  EXPECT_EQ(failover_rx, undisturbed_rx);
  EXPECT_EQ(g0, 1u);
  // A partition aimed at shard 1's standby fails shard 1 over, never
  // shard 0 again.
  const auto [partitioned_rx, h0, h1] = run(true, true);
  EXPECT_EQ(partitioned_rx, undisturbed_rx);
  EXPECT_EQ(h0, 1u);
  EXPECT_EQ(h1, 1u);
}

}  // namespace
}  // namespace escra
