// core::ContainerIndex: the dense slot interner under every hot-path SoA
// table. Locks the three properties the rest of the tree leans on — a
// released slot is reused LIFO without growing the arrays, dense iteration
// is deterministic for a given call sequence, and a controller takeover's
// replay rebuilds an identical slot layout (slots are a pure function of
// registration order, so every replica that folds the same log agrees).
#include "core/container_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/escra.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/rng.h"

namespace escra {
namespace {

using core::ContainerIndex;
using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

// --- LIFO slot reuse ---------------------------------------------------------

TEST(ContainerIndexTest, ReleasedSlotIsReusedLifo) {
  ContainerIndex idx;
  idx.intern(10);
  const std::uint32_t b = idx.intern(20);
  idx.intern(30);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.capacity(), 3u);

  EXPECT_EQ(idx.release(20), b);
  EXPECT_FALSE(idx.contains(20));

  // LIFO reuse: the next unknown id takes b's slot as a fresh tenant.
  bool created = false;
  const std::uint32_t c = idx.intern(40, &created);
  EXPECT_TRUE(created);
  EXPECT_EQ(c, b);
  EXPECT_EQ(idx.find(40), c);
  EXPECT_EQ(idx.capacity(), 3u) << "reuse must not grow the arrays";

  // The same id coming back after its release re-interns into its slot.
  EXPECT_EQ(idx.release(40), c);
  EXPECT_EQ(idx.intern(40), c);
}

// --- deterministic dense iteration ---------------------------------------

// Drives one index through an rng scripted intern/release churn and returns
// the full observable state: (slot, id) in for_each order.
std::vector<std::pair<std::uint32_t, cluster::ContainerId>> churn(
    std::uint64_t seed) {
  ContainerIndex idx;
  sim::Rng rng(seed);
  std::vector<cluster::ContainerId> live;
  cluster::ContainerId next_id = 1;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      const cluster::ContainerId id = next_id++;
      idx.intern(id);
      live.push_back(id);
    } else {
      const std::size_t victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      idx.release(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  std::vector<std::pair<std::uint32_t, cluster::ContainerId>> order;
  idx.for_each([&](std::uint32_t slot, cluster::ContainerId id) {
    order.emplace_back(slot, id);
  });
  EXPECT_EQ(order.size(), idx.size());
  return order;
}

TEST(ContainerIndexTest, DenseIterationIsDeterministicAcrossIdenticalSeeds) {
  const auto a = churn(0xc0ffee);
  const auto b = churn(0xc0ffee);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b) << "same call sequence, same slot layout, same order";

  // for_each visits ascending slots (dense scan, holes skipped) and every
  // reported slot round-trips through the accessors.
  ContainerIndex idx;
  for (const auto& [slot, id] : a) idx.intern(id);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LT(a[i - 1].first, a[i].first) << "ascending slot order";
  }

  const auto c = churn(0xdecade);
  EXPECT_NE(a, c) << "guard: the churn script actually depends on the seed";
}

// --- slot layout across controller takeover -------------------------------

// A full HA rig: leader + warm standby, four managed containers, a mid-run
// deregistration for churn, then a leader kill. The promoted standby replays
// the replicated registrations; the slot layout it builds must be a pure
// function of that replay — identical across identical runs — and the
// post-takeover index must agree with the registry it serves.
struct TakeoverRun {
  std::vector<std::pair<cluster::ContainerId, std::uint32_t>> slots;
  std::uint64_t epoch = 0;
};

TakeoverRun run_takeover(bool with_churn) {
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  k8s.add_node({});
  k8s.add_node({});
  std::vector<cluster::Container*> containers;
  for (int i = 0; i < 4; ++i) {
    cluster::ContainerSpec s;
    s.name = "c" + std::to_string(i);
    s.base_memory = 64 * kMiB;
    s.max_parallelism = 4.0;
    containers.push_back(&k8s.create_container(std::move(s), 0.5, 128 * kMiB));
  }
  core::EscraSystem escra(sim, net, k8s, 16.0, 8 * kGiB);
  obs::Observer observer;
  escra.attach_observer(observer);
  escra.manage(containers);
  escra.start();
  ha::HaConfig cfg;
  cfg.standbys = 1;
  ha::HaControlPlane ha(escra, net, cfg);
  ha.start();

  if (with_churn) {
    // Free a slot mid-run so the pre-kill layout has seen the free list.
    sim.schedule_at(milliseconds(500), [&] { escra.release(*containers[1]); });
  }
  sim.schedule_at(seconds(1), [&] { ha.kill_leader(); });
  sim.run_until(seconds(3));

  EXPECT_FALSE(escra.crashed()) << "the standby must hold the seat";
  EXPECT_EQ(ha.failovers(), 1u);

  TakeoverRun out;
  out.epoch = escra.controller().epoch();
  for (const cluster::Container* c : containers) {
    out.slots.emplace_back(c->id(),
                           escra.controller().container_slot_for_test(c->id()));
  }
  return out;
}

TEST(ContainerIndexTest, TakeoverReplayRebuildsTheSlotLayoutDeterministically) {
  // Without churn the replicated registration order equals the bootstrap
  // order, so replay reproduces the dead leader's layout exactly: dense
  // ascending slots for the four containers, none invalid.
  const TakeoverRun plain = run_takeover(/*with_churn=*/false);
  for (std::size_t i = 0; i < plain.slots.size(); ++i) {
    EXPECT_EQ(plain.slots[i].second, static_cast<std::uint32_t>(i))
        << "container " << plain.slots[i].first;
  }

  // With churn, the layouts of two identical runs must still agree slot for
  // slot (pure function of the replayed log), the released container must
  // stay un-interned, and the survivors must be dense in [0, live).
  const TakeoverRun a = run_takeover(/*with_churn=*/true);
  const TakeoverRun b = run_takeover(/*with_churn=*/true);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.slots[1].second, core::ContainerIndex::kInvalid)
      << "released container must not be resurrected by the replay";
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_LT(a.slots[i].second, 3u) << "survivors pack densely";
  }
}

}  // namespace
}  // namespace escra

