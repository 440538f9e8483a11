// Property test for the desired-state slot machinery under the coalesced
// (batched) limit-RPC path. An rng-scripted interleaving of register/
// deregister churn, grant- and shrink-provoking load, lossy/duplicating
// control RPC (acks lost, requests dropped, retransmits, dup deliveries)
// runs against a reference model fed from the decision trace's record hook:
//
//   * no desired-state slot ever regresses its sequence number — every
//     kRpcIssued's open slot carries a seq strictly above anything that key
//     offered before;
//   * every apply (the ack-generating event) matches a seq that key
//     actually offered, and applies per key are strictly increasing
//     (exactly-once, no replayed or fabricated acks);
//   * retransmits touch only un-acked entries: a kRetransmit's key must
//     still hold an open pending slot at that instant — a partial-batch ack
//     must close exactly its own entries and never drag an acked sibling
//     back onto the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bw/shaper.h"
#include "cluster/cluster.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/escra.h"
#include "net/network.h"
#include "obs/observer.h"
#include "sim/rng.h"

namespace escra {
namespace {

using memcg::kGiB;
using memcg::kMiB;
using sim::milliseconds;
using sim::seconds;

// Reference model: folds trace events as they are recorded. Violations are
// collected (not asserted inline) so a failure reports the full story.
struct SlotModel {
  core::Controller* controller = nullptr;
  std::map<std::uint64_t, std::uint64_t> last_offered;  // key -> max seq
  std::map<std::uint64_t, std::set<std::uint64_t>> offered;
  std::map<std::uint64_t, std::uint64_t> last_applied;
  std::uint64_t issues = 0, applies = 0, retransmits = 0;
  std::uint64_t issues_by_resource[core::kResources] = {};
  std::vector<std::string> violations;

  static std::uint64_t key_of(const obs::TraceEvent& e) {
    return static_cast<std::uint64_t>(e.container) * 4 +
           static_cast<std::uint64_t>(e.before);
  }

  void flag(const std::string& what, const obs::TraceEvent& e) {
    violations.push_back(what + " (event id " + std::to_string(e.id) +
                         ", container " + std::to_string(e.container) +
                         ", resource " + std::to_string(e.before) + ")");
  }

  // The open slot for `key`, or 0 when closed. kRpcIssued and kRetransmit
  // fire synchronously from the slot's owner, so this snapshot is exact.
  std::uint64_t open_seq(std::uint64_t key) const {
    const core::ReplicaState image = controller->image();
    const auto it = image.slots.find(key);
    return it != image.slots.end() ? it->second.seq : 0;
  }

  void on_event(const obs::TraceEvent& e) {
    switch (e.kind) {
      case obs::EventKind::kRpcIssued: {
        ++issues;
        ++issues_by_resource[static_cast<std::size_t>(e.before)];
        const std::uint64_t key = key_of(e);
        const std::uint64_t seq = open_seq(key);
        if (seq == 0) {
          flag("kRpcIssued with no open slot", e);
          break;
        }
        const auto it = last_offered.find(key);
        if (it != last_offered.end() && seq <= it->second) {
          flag("slot seq regressed: offered " + std::to_string(seq) +
                   " after " + std::to_string(it->second),
               e);
        }
        last_offered[key] = seq;
        offered[key].insert(seq);
        break;
      }
      case obs::EventKind::kRpcApplied: {
        ++applies;
        const std::uint64_t key = key_of(e);
        const std::uint64_t seq = static_cast<std::uint64_t>(e.detail);
        if (!offered[key].contains(seq)) {
          flag("applied seq " + std::to_string(seq) + " was never offered", e);
        }
        const auto it = last_applied.find(key);
        if (it != last_applied.end() && seq <= it->second) {
          flag("apply seq not strictly increasing: " + std::to_string(seq) +
                   " after " + std::to_string(it->second),
               e);
        }
        last_applied[key] = seq;
        break;
      }
      case obs::EventKind::kRetransmit: {
        ++retransmits;
        const std::uint64_t key = key_of(e);
        if (e.detail < 1) flag("retransmit with attempt < 1", e);
        const std::uint64_t seq = open_seq(key);
        if (seq == 0) {
          flag("retransmit of a closed (acked) slot", e);
        } else if (seq != last_offered[key]) {
          flag("retransmit of a superseded seq", e);
        }
        break;
      }
      default:
        break;
    }
  }
};

struct RunStats {
  std::uint64_t issues = 0, applies = 0, retransmits = 0;
  std::uint64_t issues_by_resource[core::kResources] = {};
  std::uint64_t batched = 0, entries = 0, dups = 0;
};

RunStats run_interleaving(std::uint64_t seed) {
  constexpr double kNicBps = 12.5e6;
  sim::Simulation sim;
  net::Network net(sim);
  cluster::Cluster k8s(sim);
  // Bandwidth shaping on, so bandwidth slots share the batches, drops and
  // retransmits with the CPU slots.
  bw::ClusterShaper shaper(sim);
  for (int n = 0; n < 4; ++n) {
    k8s.add_node({.cores = 8.0, .nic_bps = kNicBps});
    shaper.add_node(static_cast<cluster::NodeId>(n), kNicBps);
  }
  net.set_shaper(&shaper);

  std::vector<cluster::Container*> containers;
  for (int i = 0; i < 12; ++i) {
    cluster::ContainerSpec spec;
    spec.name = "p" + std::to_string(i);
    spec.base_memory = 32 * kMiB;
    spec.max_parallelism = 4.0;
    containers.push_back(&k8s.create_container(spec, 0.5, 128 * kMiB));
  }

  core::EscraConfig cfg;
  cfg.bw_gamma = 1.0e6;  // reclaim at the MB/s scale of this small pool
  core::EscraSystem escra(sim, net, k8s, 24.0, 8 * kGiB, cfg);
  obs::Observer observer;
  escra.attach_observer(observer);
  escra.enable_bandwidth(shaper, /*global_bw_bps=*/24.0e6);
  escra.manage({containers.begin(), containers.begin() + 8});
  escra.start();

  SlotModel model;
  model.controller = &escra.controller();
  observer.trace().set_record_hook(
      [&model](const obs::TraceEvent& e) { model.on_event(e); });

  // Lossy, duplicating control channel: acks vanish, requests vanish,
  // requests arrive twice — the retransmit/idempotency machinery runs hot.
  net.set_fault_rng(sim::Rng(seed));
  net.set_drop_rate(net::Channel::kControlRpc, 0.15);
  net.set_duplicate_rate(net::Channel::kControlRpc, 0.05);

  // Rng-scripted interleaving: oscillating load (CPU work plus attributed
  // egress above the container's bandwidth share) provokes grants and
  // shrinks every period; the tail containers adopt/release on a churn
  // timer, interleaving register/deregister with in-flight updates.
  sim::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < containers.size(); ++i) {
    cluster::Container* c = containers[i];
    sim::Rng stream = rng.fork();
    const int phase = static_cast<int>(i);
    sim::Simulation* simp = &sim;
    net::Network* netp = &net;
    const auto from = static_cast<net::EndpointId>(k8s.node_of(c->id())->id());
    sim.schedule_every(
        milliseconds(1 + static_cast<sim::Duration>(i)), milliseconds(25),
        [c, simp, netp, from, phase, stream]() mutable {
          const bool on =
              ((simp->now() / milliseconds(400)) + phase) % 2 == 0;
          if (!on) return;
          for (int b = 0; b < 2; ++b) {
            c->submit(milliseconds(1 + stream.uniform_int(0, 14)),
                      memcg::kMiB, [](bool) {});
          }
          netp->send_flow(net::Channel::kAppData, from, (from + 1) % 4,
                          c->id(), 0, 120'000, [] {});
        });
  }
  sim::Rng churn = rng.fork();
  std::vector<bool> adopted(containers.size(), true);
  for (std::size_t i = 8; i < containers.size(); ++i) adopted[i] = false;
  sim.schedule_every(milliseconds(150), milliseconds(150),
                     [&escra, &containers, &adopted, churn]() mutable {
                       const std::size_t i = static_cast<std::size_t>(
                           churn.uniform_int(8, 11));
                       if (adopted[i]) {
                         escra.release(*containers[i]);
                       } else {
                         escra.adopt(*containers[i]);
                       }
                       adopted[i] = !adopted[i];
                     });

  sim.run_until(seconds(5));
  observer.trace().set_record_hook(nullptr);

  EXPECT_TRUE(model.violations.empty()) << [&] {
    std::string all;
    for (const std::string& v : model.violations) all += v + "\n";
    return all;
  }();

  RunStats stats;
  stats.issues = model.issues;
  stats.applies = model.applies;
  stats.retransmits = model.retransmits;
  std::copy(std::begin(model.issues_by_resource),
            std::end(model.issues_by_resource),
            std::begin(stats.issues_by_resource));
  stats.batched = observer.h.batched_rpcs->value();
  stats.entries = observer.h.batch_entries->value();
  stats.dups = observer.h.dup_suppressed->value();
  return stats;
}

TEST(BatchPropertyTest, RandomInterleavingsHoldSlotInvariantsWhenBatched) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 0xe5c7aull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RunStats s = run_interleaving(seed);
    // The scenario must actually exercise the machinery, not pass vacuously.
    EXPECT_GT(s.issues, 100u);
    EXPECT_GT(s.applies, 100u);
    EXPECT_GT(s.retransmits, 0u) << "15% drop must force retransmits";
    // CPU and bandwidth slots open every period (memory slots only on OOM
    // grants, which this load does not provoke).
    for (const core::Resource r : {core::Resource::kCpu, core::Resource::kBw}) {
      EXPECT_GT(s.issues_by_resource[static_cast<std::size_t>(r)], 0u)
          << "no slot opened, resource " << static_cast<int>(r);
    }
    EXPECT_GT(s.batched, 0u);
    EXPECT_GT(s.entries, s.batched)
        << "same-node updates in one tick must coalesce (entries > RPCs)";
  }
}

}  // namespace
}  // namespace escra
