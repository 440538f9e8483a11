// escra-trace: query a decision trace exported by `escra-sim --trace-out`
// (or any TraceBuffer::export_jsonl file).
//
//   escra-trace <trace.jsonl>                 summary: events by kind,
//                                             containers, time range
//   escra-trace <trace.jsonl> --container ID  per-container decision
//                                             timeline, oldest first
//   escra-trace <trace.jsonl> --chain ID      causal chain ending at event
//                                             ID, root first, with the
//                                             per-hop and total latency
//                                             (partial, naming the evicted
//                                             cause, when the ring dropped
//                                             the root)
//   escra-trace <trace.jsonl> --tenant ID     credit-ledger view of one
//                                             container: balance trajectory,
//                                             charges/refunds, rejected
//                                             telemetry, throttle streaks,
//                                             and the windows spent in debt
//   escra-trace <trace.jsonl> --shard ID      one shard of a merged
//                                             multi-shard export: events by
//                                             kind, borrow traffic per peer,
//                                             pool-resize trajectory, and
//                                             the shard-protocol timeline
//   escra-trace <trace.jsonl> --rt            per-RT-container deadline
//                                             view: every admission with
//                                             its floor and (runtime,
//                                             period) contract, deadline
//                                             misses with the worst
//                                             shortfall, rejections, and
//                                             how each reservation ended
//
// The trace answers "why did container X get limit Y": a throttled CFS
// period opens a chain ThrottleObserved -> CpuGrant -> RpcIssued ->
// RpcApplied whose timestamps are the control loop's per-stage latency.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"

using namespace escra;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: escra-trace <trace.jsonl> [--container ID | --chain "
               "EVENT_ID | --tenant ID | --shard ID | --rt]\n");
}

// Limit-update and borrow-protocol events carry the resource flag in
// `before` (0 = CPU, 1 = memory, 2 = bandwidth) and the amount in `after`,
// in that resource's natural unit.
const char* resource_label(double resource) {
  return resource == 0.0 ? "cpu" : resource == 1.0 ? "mem" : "bw";
}

void format_resource_amount(double resource, double amount, char* buf,
                            std::size_t len) {
  if (resource == 0.0) {
    std::snprintf(buf, len, "%.3f cores", amount);
  } else if (resource == 1.0) {
    std::snprintf(buf, len, "%.1f MiB", amount / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, len, "%.1f MB/s", amount / 1e6);
  }
}

// "cores" for CPU events, MiB for memory events — matches TraceEvent's
// "natural unit" convention.
void format_limits(const obs::TraceEvent& ev, char* buf, std::size_t len) {
  buf[0] = '\0';
  switch (ev.kind) {
    case obs::EventKind::kThrottleObserved:
    case obs::EventKind::kCpuGrant:
    case obs::EventKind::kCpuShrink:
    case obs::EventKind::kContainerRegistered:
    case obs::EventKind::kContainerKilled:
      std::snprintf(buf, len, "%.3f -> %.3f cores", ev.before, ev.after);
      break;
    case obs::EventKind::kMemGrantOnOom:
    case obs::EventKind::kReclaim:
      std::snprintf(buf, len, "%.1f -> %.1f MiB", ev.before / (1024.0 * 1024.0),
                    ev.after / (1024.0 * 1024.0));
      break;
    case obs::EventKind::kRpcIssued:
    case obs::EventKind::kRpcApplied:
    case obs::EventKind::kRetransmit: {
      // Retransmits carry the attempt count in `detail`.
      char amount[32];
      format_resource_amount(ev.before, ev.after, amount, sizeof amount);
      if (ev.kind == obs::EventKind::kRetransmit) {
        std::snprintf(buf, len, "limit %s (%s, attempt %lld)", amount,
                      resource_label(ev.before),
                      static_cast<long long>(ev.detail));
      } else {
        std::snprintf(buf, len, "limit %s (%s)", amount,
                      resource_label(ev.before));
      }
      break;
    }
    case obs::EventKind::kDuplicateSuppressed:
      std::snprintf(buf, len, "kept %.3f, dup seq %lld", ev.before,
                    static_cast<long long>(ev.detail));
      break;
    case obs::EventKind::kResync:
      std::snprintf(buf, len, "%.3f -> %.3f cores", ev.before, ev.after);
      break;
    case obs::EventKind::kFailStatic:
      std::snprintf(buf, len, "%s", ev.detail != 0 ? "enter" : "exit");
      break;
    case obs::EventKind::kNodeDead:
    case obs::EventKind::kNodeAlive:
      break;  // no limit payload
    case obs::EventKind::kFaultInjected:
    case obs::EventKind::kFaultCleared:
      std::snprintf(buf, len, "rate %.2f, %.3fs window", ev.before, ev.after);
      break;
    case obs::EventKind::kLeaderElected:
      std::snprintf(buf, len, "epoch %.0f -> %lld, %.0f slots replayed",
                    ev.before, static_cast<long long>(ev.detail), ev.after);
      break;
    case obs::EventKind::kEpochFenced:
      std::snprintf(buf, len, "kept %.3f, fenced seq %lld", ev.before,
                    static_cast<long long>(ev.detail));
      break;
    case obs::EventKind::kWalLag:
      std::snprintf(buf, len, "lag %lld records",
                    static_cast<long long>(ev.detail));
      break;
    case obs::EventKind::kBwThrottled:
    case obs::EventKind::kBwSaturation:
      std::snprintf(buf, len, "rate %.1f MB/s, queue %lld", ev.before / 1e6,
                    static_cast<long long>(ev.detail));
      break;
    case obs::EventKind::kBwGrant:
    case obs::EventKind::kBwShrink:
      std::snprintf(buf, len, "%.1f -> %.1f MB/s", ev.before / 1e6,
                    ev.after / 1e6);
      break;
    case obs::EventKind::kTelemetryRejected:
      // `before` is the resource flag (0 = CPU, 2 = bandwidth). CPU carries
      // the implausible claimed rate in `after` (cores); bandwidth carries
      // the NIC cap in `after` and the claimed bytes/s in `detail`.
      if (ev.before == 0.0) {
        std::snprintf(buf, len, "claimed %.3f cores", ev.after);
      } else {
        std::snprintf(buf, len, "claimed %.1f MB/s (nic %.1f)",
                      static_cast<double>(ev.detail) / 1e6, ev.after / 1e6);
      }
      break;
    case obs::EventKind::kCreditCharge:
    case obs::EventKind::kCreditRefund:
      // Balances in credits (fair-share-seconds); detail is the over/under
      // share amount the sweep priced (millicores, or bytes for memory).
      std::snprintf(buf, len, "%.4f -> %.4f cr", ev.before, ev.after);
      break;
    case obs::EventKind::kGreedyThrottle:
      std::snprintf(buf, len, "%.3f -> %.3f cores (streak %lld)", ev.before,
                    ev.after, static_cast<long long>(ev.detail));
      break;
    case obs::EventKind::kShardAdvertise:
      // before = CPU surplus cores, after = memory surplus bytes.
      std::snprintf(buf, len, "surplus %.3f cores, %.1f MiB", ev.before,
                    ev.after / (1024.0 * 1024.0));
      break;
    case obs::EventKind::kBorrowRequest:
    case obs::EventKind::kBorrowGrant:
    case obs::EventKind::kBorrowReturn: {
      // detail packs (peer shard << 48) | per-pair sequence.
      char amount[32];
      format_resource_amount(ev.before, ev.after, amount, sizeof amount);
      std::snprintf(buf, len, "%s peer s%lld seq %lld", amount,
                    static_cast<long long>(ev.detail >> 48),
                    static_cast<long long>(ev.detail & 0xffffffffffffLL));
      break;
    }
    case obs::EventKind::kShardPoolResize: {
      char before_s[32], after_s[32];
      format_resource_amount(static_cast<double>(ev.detail), ev.before,
                             before_s, sizeof before_s);
      format_resource_amount(static_cast<double>(ev.detail), ev.after,
                             after_s, sizeof after_s);
      std::snprintf(buf, len, "pool %s -> %s", before_s, after_s);
      break;
    }
    case obs::EventKind::kRtAdmitted:
      // after = admitted floor; detail packs (runtime us << 32) | period us.
      std::snprintf(buf, len, "floor %.3f cores (rt %.1f/%.1f ms)", ev.after,
                    static_cast<double>(ev.detail >> 32) / 1000.0,
                    static_cast<double>(ev.detail & 0xffffffff) / 1000.0);
      break;
    case obs::EventKind::kRtRejected:
      std::snprintf(buf, len, "floor %.3f cores rejected (%s)", ev.after,
                    ev.detail == 0   ? "node bound"
                    : ev.detail == 1 ? "pool bound"
                                     : "state");
      break;
    case obs::EventKind::kRtEvicted:
      std::snprintf(buf, len, "floor %.3f freed (%s)", ev.before,
                    ev.detail == 0   ? "released"
                    : ev.detail == 1 ? "node dead"
                                     : "operator");
      break;
    case obs::EventKind::kDeadlineMiss:
      // before = floor, after = the allocation at the miss, detail = the
      // core-time still owed when the deadline passed.
      std::snprintf(buf, len, "owed %.1f ms at %.3f cores (floor %.3f)",
                    static_cast<double>(ev.detail) / 1000.0, ev.after,
                    ev.before);
      break;
  }
}

void print_event(const obs::TraceEvent& ev) {
  char limits[96];
  format_limits(ev, limits, sizeof limits);
  std::printf("  #%-6llu %12.6fs  %-20s c%-4u n%-3u %-26s cause=#%llu\n",
              static_cast<unsigned long long>(ev.id),
              sim::to_seconds(ev.time), obs::event_kind_name(ev.kind),
              ev.container, ev.node, limits,
              static_cast<unsigned long long>(ev.cause));
}

// Local name table for FaultKind values carried in kFaultInjected/Cleared
// `detail` fields (kept here so the trace reader doesn't pull in the whole
// fault/core stack). Mirrors fault::FaultKind.
const char* fault_detail_name(std::int64_t kind) {
  switch (kind) {
    case 1: return "partition";
    case 2: return "agent-crash";
    case 3: return "controller-crash";
    case 4: return "rpc-drop";
    case 5: return "rpc-duplicate";
    case 6: return "delay-spike";
    case 7: return "leader-kill";
    default: return "unknown";
  }
}

// One degraded window: a kFaultInjected event and (if the trace covers it)
// the matching kFaultCleared. Matched by (kind, node) in injection order.
struct FaultWindow {
  const obs::TraceEvent* injected = nullptr;
  const obs::TraceEvent* cleared = nullptr;
};

// Recovery traffic attributed to one controller incarnation. A trace that
// spans failovers must not smear one epoch's degradation over another: "12
// retransmits" means something different when 11 of them happened under the
// deposed leader. Segments are delimited by kLeaderElected events; the
// first segment's epoch is back-filled from the first election's
// `before` field (or stays 0, displayed as the initial incarnation, when
// the trace saw no election).
struct EpochRecovery {
  std::uint64_t epoch = 0;
  sim::TimePoint start = 0;
  sim::TimePoint end = 0;  // start of the next epoch; 0 = trace end
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t fail_static_entries = 0;
  std::uint64_t nodes_dead = 0;
  std::uint64_t nodes_alive = 0;
  std::uint64_t fenced = 0;
};

int run_summary(const obs::TraceBuffer& trace) {
  std::map<std::string, std::uint64_t> by_kind;
  std::map<std::uint32_t, std::uint64_t> by_container;
  std::uint64_t retransmits = 0, dup_suppressed = 0, resyncs = 0;
  std::uint64_t fail_static_entries = 0, nodes_dead = 0, nodes_alive = 0;
  std::uint64_t fenced_updates = 0;
  std::vector<FaultWindow> windows;
  std::vector<EpochRecovery> epochs(1);
  std::vector<const obs::TraceEvent*> elections;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceEvent& ev = trace.at(i);
    ++by_kind[obs::event_kind_name(ev.kind)];
    if (ev.container != 0) ++by_container[ev.container];
    EpochRecovery& epoch = epochs.back();
    switch (ev.kind) {
      case obs::EventKind::kRetransmit:
        ++retransmits;
        ++epoch.retransmits;
        break;
      case obs::EventKind::kDuplicateSuppressed:
        ++dup_suppressed;
        ++epoch.dup_suppressed;
        break;
      case obs::EventKind::kResync:
        ++resyncs;
        ++epoch.resyncs;
        break;
      case obs::EventKind::kFailStatic:
        if (ev.detail != 0) {
          ++fail_static_entries;
          ++epoch.fail_static_entries;
        }
        break;
      case obs::EventKind::kNodeDead:
        ++nodes_dead;
        ++epoch.nodes_dead;
        break;
      case obs::EventKind::kNodeAlive:
        ++nodes_alive;
        ++epoch.nodes_alive;
        break;
      case obs::EventKind::kEpochFenced:
        ++fenced_updates;
        ++epoch.fenced;
        break;
      case obs::EventKind::kLeaderElected: {
        elections.push_back(&ev);
        if (epochs.size() == 1 && epoch.epoch == 0) {
          epoch.epoch = static_cast<std::uint64_t>(ev.before);
        }
        epoch.end = ev.time;
        EpochRecovery next;
        next.epoch = static_cast<std::uint64_t>(ev.detail);
        next.start = ev.time;
        epochs.push_back(next);
        break;
      }
      case obs::EventKind::kFaultInjected:
        windows.push_back(FaultWindow{&ev, nullptr});
        break;
      case obs::EventKind::kFaultCleared:
        for (FaultWindow& w : windows) {
          if (w.cleared == nullptr && w.injected->detail == ev.detail &&
              w.injected->node == ev.node) {
            w.cleared = &ev;
            break;
          }
        }
        break;
      default: break;
    }
  }
  if (trace.size() == 0) {
    std::printf("empty trace\n");
    return 0;
  }
  std::printf("%zu events (%llu recorded, %llu evicted), %12.6fs .. %.6fs\n",
              trace.size(),
              static_cast<unsigned long long>(trace.recorded()),
              static_cast<unsigned long long>(trace.evicted()),
              sim::to_seconds(trace.at(0).time),
              sim::to_seconds(trace.at(trace.size() - 1).time));
  std::printf("\nby kind:\n");
  for (const auto& [kind, count] : by_kind) {
    std::printf("  %-22s %8llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\nby container (%zu):\n", by_container.size());
  for (const auto& [container, count] : by_container) {
    std::printf("  c%-6u %8llu\n", container,
                static_cast<unsigned long long>(count));
  }
  if (retransmits + dup_suppressed + resyncs + fail_static_entries +
          nodes_dead + nodes_alive + fenced_updates + windows.size() +
          elections.size() >
      0) {
    std::printf("\nrecovery:\n");
    std::printf("  retransmits            %8llu\n",
                static_cast<unsigned long long>(retransmits));
    std::printf("  duplicates suppressed  %8llu\n",
                static_cast<unsigned long long>(dup_suppressed));
    std::printf("  resyncs                %8llu\n",
                static_cast<unsigned long long>(resyncs));
    std::printf("  fail-static entries    %8llu\n",
                static_cast<unsigned long long>(fail_static_entries));
    std::printf("  nodes dead / recovered %8llu / %llu\n",
                static_cast<unsigned long long>(nodes_dead),
                static_cast<unsigned long long>(nodes_alive));
    if (fenced_updates > 0) {
      std::printf("  fenced updates         %8llu\n",
                  static_cast<unsigned long long>(fenced_updates));
    }
    // A trace spanning failovers gets the recovery traffic broken down per
    // controller incarnation — one leader's degraded window must not be
    // read as another's.
    if (!elections.empty()) {
      std::printf("  by controller epoch (%zu):\n", epochs.size());
      for (const EpochRecovery& e : epochs) {
        char span[64];
        if (e.end != 0) {
          std::snprintf(span, sizeof span, "%12.6fs .. %.6fs",
                        sim::to_seconds(e.start), sim::to_seconds(e.end));
        } else {
          std::snprintf(span, sizeof span, "%12.6fs .. end",
                        sim::to_seconds(e.start));
        }
        std::printf("    epoch %-4llu %-28s retransmits %llu, resyncs %llu, "
                    "fail-static %llu, fenced %llu\n",
                    static_cast<unsigned long long>(e.epoch), span,
                    static_cast<unsigned long long>(e.retransmits),
                    static_cast<unsigned long long>(e.resyncs),
                    static_cast<unsigned long long>(e.fail_static_entries),
                    static_cast<unsigned long long>(e.fenced));
      }
      std::printf("  elections (%zu):\n", elections.size());
      for (const obs::TraceEvent* ev : elections) {
        std::printf("    epoch %.0f -> %lld at %12.6fs, %.0f slot(s) "
                    "replayed\n",
                    ev->before, static_cast<long long>(ev->detail),
                    sim::to_seconds(ev->time), ev->after);
      }
    }
    if (!windows.empty()) {
      std::printf("  fault windows (%zu):\n", windows.size());
      for (const FaultWindow& w : windows) {
        if (w.cleared != nullptr) {
          std::printf("    %-16s n%-3u %12.6fs .. %.6fs\n",
                      fault_detail_name(w.injected->detail),
                      w.injected->node, sim::to_seconds(w.injected->time),
                      sim::to_seconds(w.cleared->time));
        } else {
          std::printf("    %-16s n%-3u %12.6fs .. (never cleared in trace)\n",
                      fault_detail_name(w.injected->detail),
                      w.injected->node, sim::to_seconds(w.injected->time));
        }
      }
    }
  }
  return 0;
}

int run_container(const obs::TraceBuffer& trace, std::uint32_t container) {
  const auto events = trace.for_container(container);
  if (events.empty()) {
    std::printf("no events for container %u\n", container);
    return 1;
  }
  std::printf("container %u: %zu events\n", container, events.size());
  for (const obs::TraceEvent& ev : events) print_event(ev);
  return 0;
}

// Credit-ledger view of one container: how the defense saw this tenant.
// Balances ride on kCreditCharge/kCreditRefund events (before/after in
// credits); a contiguous span of non-positive balances is a debt window —
// the period the Υ-gate held the tenant to its fair share.
int run_tenant(const obs::TraceBuffer& trace, std::uint32_t container) {
  const auto events = trace.for_container(container);
  if (events.empty()) {
    std::printf("no events for container %u\n", container);
    return 1;
  }
  std::uint64_t charges = 0, refunds = 0, rejected = 0, throttles = 0;
  std::uint64_t oom_grants = 0, cpu_grants = 0, cpu_shrinks = 0;
  double charged = 0.0, refunded = 0.0;
  double first_balance = 0.0, last_balance = 0.0, min_balance = 0.0;
  bool seen_balance = false;
  struct DebtWindow {
    sim::TimePoint start = 0;
    sim::TimePoint end = 0;  // 0 = still in debt at trace end
  };
  std::vector<DebtWindow> debt;
  bool in_debt = false;
  for (const obs::TraceEvent& ev : events) {
    switch (ev.kind) {
      case obs::EventKind::kCreditCharge:
      case obs::EventKind::kCreditRefund: {
        if (ev.kind == obs::EventKind::kCreditCharge) {
          ++charges;
          charged += ev.before - ev.after;
        } else {
          ++refunds;
          refunded += ev.after - ev.before;
        }
        if (!seen_balance) {
          seen_balance = true;
          first_balance = ev.before;
          min_balance = ev.before;
        }
        last_balance = ev.after;
        if (ev.after < min_balance) min_balance = ev.after;
        if (ev.after <= 0.0 && !in_debt) {
          in_debt = true;
          debt.push_back(DebtWindow{ev.time, 0});
        } else if (ev.after > 0.0 && in_debt) {
          in_debt = false;
          debt.back().end = ev.time;
        }
        break;
      }
      case obs::EventKind::kTelemetryRejected: ++rejected; break;
      case obs::EventKind::kGreedyThrottle: ++throttles; break;
      case obs::EventKind::kMemGrantOnOom: ++oom_grants; break;
      case obs::EventKind::kCpuGrant: ++cpu_grants; break;
      case obs::EventKind::kCpuShrink: ++cpu_shrinks; break;
      default: break;
    }
  }
  std::printf("tenant c%u: %zu events, %12.6fs .. %.6fs\n", container,
              events.size(), sim::to_seconds(events.front().time),
              sim::to_seconds(events.back().time));
  std::printf("  grants: cpu %llu (+%llu shrinks), mem-on-oom %llu\n",
              static_cast<unsigned long long>(cpu_grants),
              static_cast<unsigned long long>(cpu_shrinks),
              static_cast<unsigned long long>(oom_grants));
  if (!seen_balance) {
    std::printf("  no credit events — defense idle for this tenant\n");
    return 0;
  }
  std::printf("  balance: %.4f -> %.4f cr (min %.4f)\n", first_balance,
              last_balance, min_balance);
  std::printf("  above-share charges %llu (-%.4f cr), below-share refunds "
              "%llu (+%.4f cr)\n",
              static_cast<unsigned long long>(charges), charged,
              static_cast<unsigned long long>(refunds), refunded);
  std::printf("  telemetry rejected %llu, greedy throttles %llu\n",
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(throttles));
  if (!debt.empty()) {
    std::printf("  debt windows (%zu):\n", debt.size());
    for (const DebtWindow& w : debt) {
      if (w.end != 0) {
        std::printf("    %12.6fs .. %.6fs\n", sim::to_seconds(w.start),
                    sim::to_seconds(w.end));
      } else {
        std::printf("    %12.6fs .. (still broke at trace end)\n",
                    sim::to_seconds(w.start));
      }
    }
  } else {
    std::printf("  never in debt\n");
  }
  return 0;
}

// One shard of a merged multi-shard export (obs::export_merged_jsonl stamps
// every event with its recording shard + 1). Summarises the shard's decision
// activity, its borrow-protocol traffic per peer, and the pool-slice
// trajectory, then prints the shard-protocol timeline (adverts elided — at
// one broadcast per 500ms they would drown the borrows they exist to
// enable).
int run_shard(const obs::TraceBuffer& trace, std::uint32_t shard) {
  const std::uint32_t want = shard + 1;  // TraceEvent::shard is index + 1
  std::map<std::uint32_t, std::uint64_t> shards_seen;
  std::map<std::string, std::uint64_t> by_kind;
  // Borrow traffic per peer shard: [requests, grants, returns] counts and
  // the amounts moved per pooled resource (cores, bytes).
  struct PeerTraffic {
    std::uint64_t requests = 0, grants = 0, returns = 0;
    double moved[2] = {0.0, 0.0};
  };
  std::map<std::uint32_t, PeerTraffic> peers;
  std::uint64_t adverts = 0;
  std::uint64_t matched = 0;
  // Pool trajectory per pooled resource (0 = CPU, 1 = mem).
  double pool_first[2] = {0, 0};
  double pool_last[2] = {0, 0};
  bool pool_seen[2] = {false, false};
  std::vector<const obs::TraceEvent*> timeline;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceEvent& ev = trace.at(i);
    if (ev.shard != 0) ++shards_seen[ev.shard - 1];
    if (ev.shard != want) continue;
    ++matched;
    ++by_kind[obs::event_kind_name(ev.kind)];
    switch (ev.kind) {
      case obs::EventKind::kShardAdvertise: ++adverts; break;
      case obs::EventKind::kBorrowRequest:
      case obs::EventKind::kBorrowGrant:
      case obs::EventKind::kBorrowReturn: {
        PeerTraffic& p = peers[static_cast<std::uint32_t>(ev.detail >> 48)];
        if (ev.kind == obs::EventKind::kBorrowRequest) ++p.requests;
        if (ev.kind == obs::EventKind::kBorrowGrant) ++p.grants;
        if (ev.kind == obs::EventKind::kBorrowReturn) ++p.returns;
        if (ev.before >= 0.0 && ev.before <= 1.0) {
          p.moved[static_cast<int>(ev.before)] += ev.after;
        }
        timeline.push_back(&ev);
        break;
      }
      case obs::EventKind::kShardPoolResize: {
        const int res = ev.detail >= 0 && ev.detail < 2
                            ? static_cast<int>(ev.detail)
                            : 0;
        if (!pool_seen[res]) {
          pool_seen[res] = true;
          pool_first[res] = ev.before;
        }
        pool_last[res] = ev.after;
        timeline.push_back(&ev);
        break;
      }
      default: break;
    }
  }
  if (matched == 0) {
    std::printf("no events for shard %u\n", shard);
    if (shards_seen.empty()) {
      std::printf("trace carries no shard provenance — export it with "
                  "obs::export_merged_jsonl (escra-sim --shards N)\n");
    } else {
      std::printf("shards present:");
      for (const auto& [s, n] : shards_seen) {
        std::printf(" %u (%llu events)", s,
                    static_cast<unsigned long long>(n));
      }
      std::printf("\n");
    }
    return 1;
  }
  std::printf("shard %u: %llu events (%zu shards in trace)\n", shard,
              static_cast<unsigned long long>(matched), shards_seen.size());
  std::printf("\nby kind:\n");
  for (const auto& [kind, count] : by_kind) {
    std::printf("  %-22s %8llu\n", kind.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\nborrow traffic (adverts sent %llu):\n",
              static_cast<unsigned long long>(adverts));
  if (peers.empty()) {
    std::printf("  none — shard never borrowed, lent, or returned\n");
  }
  for (const auto& [peer, t] : peers) {
    std::printf("  peer s%-3u requests %llu, grants %llu, returns %llu "
                "(%.3f cores, %.1f MiB moved)\n",
                peer, static_cast<unsigned long long>(t.requests),
                static_cast<unsigned long long>(t.grants),
                static_cast<unsigned long long>(t.returns), t.moved[0],
                t.moved[1] / (1024.0 * 1024.0));
  }
  const char* pool_unit[2] = {"cores", "MiB"};
  const double pool_scale[2] = {1.0, 1024.0 * 1024.0};
  for (int res = 0; res < 2; ++res) {
    if (!pool_seen[res]) continue;
    std::printf("  pool (%s): %.3f -> %.3f %s over the trace\n",
                resource_label(res),
                pool_first[res] / pool_scale[res],
                pool_last[res] / pool_scale[res], pool_unit[res]);
  }
  if (!timeline.empty()) {
    std::printf("\nshard-protocol timeline (%zu events, adverts elided):\n",
                timeline.size());
    for (const obs::TraceEvent* ev : timeline) print_event(*ev);
  }
  return 0;
}

// Per-RT-container deadline view: the mixed-criticality class's lifecycle
// as the trace recorded it — every admission with its floor and (runtime,
// period) contract, deadline misses with the worst core-time shortfall,
// rejections, and how each reservation ended (explicit eviction or held to
// the end of the trace; a kill without a preceding eviction would be an
// invariant violation, not a display case).
int run_rt(const obs::TraceBuffer& trace) {
  struct RtLife {
    std::vector<const obs::TraceEvent*> admissions;
    std::vector<const obs::TraceEvent*> evictions;
    std::uint64_t rejections = 0;
    std::uint64_t misses = 0;
    std::int64_t worst_owed_us = 0;
    sim::TimePoint first_miss = 0, last_miss = 0;
  };
  std::map<std::uint32_t, RtLife> lives;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::TraceEvent& ev = trace.at(i);
    switch (ev.kind) {
      case obs::EventKind::kRtAdmitted:
        lives[ev.container].admissions.push_back(&ev);
        break;
      case obs::EventKind::kRtRejected:
        ++lives[ev.container].rejections;
        break;
      case obs::EventKind::kRtEvicted:
        lives[ev.container].evictions.push_back(&ev);
        break;
      case obs::EventKind::kDeadlineMiss: {
        RtLife& l = lives[ev.container];
        if (l.misses == 0) l.first_miss = ev.time;
        ++l.misses;
        l.last_miss = ev.time;
        if (ev.detail > l.worst_owed_us) l.worst_owed_us = ev.detail;
        break;
      }
      default: break;
    }
  }
  if (lives.empty()) {
    std::printf("no real-time events — rt class idle in this trace\n");
    return 0;
  }
  std::printf("rt containers (%zu):\n", lives.size());
  for (const auto& [container, l] : lives) {
    std::printf("  c%u:\n", container);
    for (const obs::TraceEvent* ev : l.admissions) {
      std::printf("    admitted at %12.6fs: floor %.3f cores "
                  "(runtime %.1f ms / period %.1f ms)\n",
                  sim::to_seconds(ev->time), ev->after,
                  static_cast<double>(ev->detail >> 32) / 1000.0,
                  static_cast<double>(ev->detail & 0xffffffff) / 1000.0);
    }
    if (l.rejections > 0) {
      std::printf("    rejections %llu\n",
                  static_cast<unsigned long long>(l.rejections));
    }
    if (l.misses > 0) {
      std::printf("    deadline misses %llu (%12.6fs .. %.6fs, worst "
                  "shortfall %.1f ms of core-time)\n",
                  static_cast<unsigned long long>(l.misses),
                  sim::to_seconds(l.first_miss),
                  sim::to_seconds(l.last_miss),
                  static_cast<double>(l.worst_owed_us) / 1000.0);
    } else if (!l.admissions.empty()) {
      std::printf("    no deadline misses\n");
    }
    for (const obs::TraceEvent* ev : l.evictions) {
      std::printf("    evicted at %12.6fs (%s, floor %.3f cores freed)\n",
                  sim::to_seconds(ev->time),
                  ev->detail == 0   ? "released"
                  : ev->detail == 1 ? "node dead"
                                    : "operator",
                  ev->before);
    }
    if (!l.admissions.empty() &&
        l.evictions.size() < l.admissions.size()) {
      std::printf("    reservation held to trace end\n");
    }
  }
  return 0;
}

int run_chain(const obs::TraceBuffer& trace, obs::EventId id) {
  if (trace.find(id) == nullptr) {
    std::fprintf(stderr, "event #%llu not in trace (evicted or never "
                 "recorded)\n",
                 static_cast<unsigned long long>(id));
    return 1;
  }
  const auto chain = trace.chain(id);
  // A root with a cause means the walk stopped short: the ring evicted the
  // rest of the chain, so its first hops and its latency are unknown.
  const obs::EventId lost = chain.front().cause;
  std::printf("causal chain for #%llu (%zu hops, root first):\n",
              static_cast<unsigned long long>(id), chain.size());
  if (lost != 0) {
    std::printf("  (stops at %s cause #%llu: the chain is incomplete)\n",
                lost < trace.at(0).id ? "evicted" : "missing",
                static_cast<unsigned long long>(lost));
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    print_event(chain[i]);
    if (i + 1 < chain.size()) {
      std::printf("           |  +%.3f ms\n",
                  static_cast<double>(chain[i + 1].time - chain[i].time) /
                      1000.0);
    }
  }
  if (chain.size() > 1) {
    const double ms =
        static_cast<double>(chain.back().time - chain.front().time) / 1000.0;
    if (lost != 0) {
      std::printf("partial latency (from #%llu, the oldest retained hop): "
                  "%.3f ms\n",
                  static_cast<unsigned long long>(chain.front().id), ms);
    } else {
      std::printf("end-to-end: %.3f ms\n", ms);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", argv[1]);
    return 1;
  }
  obs::TraceBuffer trace(1);  // replaced by import below
  try {
    trace = obs::TraceBuffer::import_jsonl(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error parsing %s: %s\n", argv[1], e.what());
    return 1;
  }

  if (argc == 2) return run_summary(trace);
  const std::string mode = argv[2];
  if (argc == 3 && mode == "--rt") return run_rt(trace);
  if (argc == 4 && (mode == "--container" || mode == "--chain" ||
                    mode == "--tenant" || mode == "--shard")) {
    std::uint64_t id = 0;
    try {
      std::size_t pos = 0;
      id = std::stoull(argv[3], &pos);
      if (argv[3][pos] != '\0') throw std::invalid_argument("trailing chars");
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: %s expects a numeric id, got '%s'\n",
                   mode.c_str(), argv[3]);
      return 2;
    }
    if (mode == "--container") {
      return run_container(trace, static_cast<std::uint32_t>(id));
    }
    if (mode == "--tenant") {
      return run_tenant(trace, static_cast<std::uint32_t>(id));
    }
    if (mode == "--shard") {
      return run_shard(trace, static_cast<std::uint32_t>(id));
    }
    return run_chain(trace, id);
  }
  usage();
  return 2;
}
