// Escra tunables (Sections III, IV-C, IV-D).
//
// Parameter names follow the paper: κ (kappa) and γ (gamma) govern CPU
// scale-down, Υ (upsilon) governs CPU scale-up rate, δ (delta) is the memory
// reclamation safe margin, σ (sigma) the share of global memory withheld at
// deployment for OOM events, and n the sliding-window length in CFS periods.
//
// Two places where the paper under-specifies and this implementation pins an
// interpretation (documented in DESIGN.md):
//   * Scale-up magnitude. The paper's equation multiplies the windowed
//     throttle mean by the application's unallocated runtime and Υ; taken
//     literally the product exceeds the free pool after one throttled
//     period, letting a single container drain it. We keep the Υ-gated
//     rate but clamp each grant to min(pool, current · Υ/20):
//     at the paper's Υ=20 a persistently throttled container doubles per
//     period (reaching any demand within a few 100 ms periods), Υ=35 (the
//     bursty serverless setting) grows ~2.75x, and the per-period
//     scale-down reclaims any overshoot.
//   * γ's unit. The scale-down trigger compares per-period unused runtime
//     against γ; with γ=0.2 we read it in *cores*, i.e. trigger when more
//     than 0.2 cores' worth of the period went unused.
#pragma once

#include <cstddef>

#include "memcg/mem_cgroup.h"
#include "sim/time.h"

namespace escra::core {

struct EscraConfig {
  // --- CPU allocation (Section IV-D1) ---
  // Scale-down rate: fraction of the windowed mean unused runtime removed.
  double kappa = 0.8;
  // Scale-down trigger, in cores of unused runtime in the last period.
  double gamma = 0.2;
  // Scale-up rate; see interpretation note above.
  double upsilon = 20.0;
  // Sliding-window length n, in CFS periods.
  std::size_t window_periods = 5;
  // CFS period (and telemetry report period, Section VI-I).
  sim::Duration cfs_period = sim::milliseconds(100);
  // Floor below which a container's CPU limit is never pushed.
  double min_cores = 0.05;

  // --- memory allocation (Sections IV-C, IV-D2) ---
  // Reclamation safe margin δ ("empirically set to 50 MiB").
  memcg::Bytes delta = 50 * memcg::kMiB;
  // Periodic reclamation interval ("every 5 seconds").
  sim::Duration reclaim_interval = sim::seconds(5);
  // Fraction of the global memory limit withheld at deployment (σ).
  double sigma = 0.2;
  // Fixed grant handed to a container on an OOM event ("a fixed number
  // pages of memory"): 4096 pages.
  memcg::Bytes oom_grant = 4096 * memcg::kPageSize;  // 16 MiB
  // Floor below which a container's memory limit is never reclaimed.
  memcg::Bytes min_mem = 16 * memcg::kMiB;

  // --- bandwidth allocation (beyond the paper: network bandwidth as a
  //     third managed resource, shaped by src/bw token buckets; the math
  //     mirrors the CPU arm with rates in bytes/s) ---
  // Scale-down rate for bandwidth (fraction of mean unused rate removed).
  double bw_kappa = 0.8;
  // Scale-down trigger: unused rate in the last period, bytes/s (100 Mbit).
  double bw_gamma = 12.5e6;
  // Scale-up rate; same Υ-gated interpretation as CPU.
  double bw_upsilon = 20.0;

  // --- defaults for containers that register after deployment (serverless
  //     pods); mirrors the OpenWhisk per-action pod defaults (Section VI-F).
  double late_join_cores = 1.0;
  memcg::Bytes late_join_mem = 256 * memcg::kMiB;

  // --- Karma-style credit defense (beyond the paper: strategy-proofness
  //     against lying tenants, after Karma, arXiv:2305.17222). Off by
  //     default; set credit_defense before constructing EscraSystem. ---
  bool credit_defense = false;
};

// Fixed control-plane constants. Unlike the tunables above they are not
// configurable; the ones only the Controller reads live in controller.cc.

// Floor below which a shaped container's rate is never pushed, and the
// admission floor: a container the allocator cannot grant this much
// stays unshaped rather than being starved (10 Mbit/s).
inline constexpr double kBwMinRate = 1.25e6;

// --- control-plane reliability (beyond the paper: the paper only runs on
//     a healthy control plane; these govern the fail-static + sub-second
//     reconvergence behavior under partitions and crashes) ---
// First retransmit of an unacked limit update (the RPC round trip is
// ~300 us, so 2 ms is a comfortable ack deadline).
inline constexpr sim::Duration kRpcRetryTimeout = sim::milliseconds(2);
// Cap for the exponential retransmit backoff.
inline constexpr sim::Duration kRpcBackoffMax = sim::milliseconds(128);
static_assert(kRpcRetryTimeout <= kRpcBackoffMax,
              "the first retransmit must not exceed the backoff cap");
// Agent lease: after this much Controller silence the Agent enters
// fail-static — containers keep running at their last-applied limits.
inline constexpr sim::Duration kAgentLease = sim::milliseconds(500);

// --- credit defense ---
// Initial credit balance, in fair-share-seconds: one unit buys one
// second of the container's full fair share above the fair share. Sized
// so an honest bursty tenant keeps sub-second elasticity out of the box.
inline constexpr double kCreditInit = 2.0;
// Earned-credit cap (fair-share-seconds); bounds how long a tenant can
// bank priority, Karma's anti-hoarding clamp.
inline constexpr double kCreditCap = 30.0;
// Fractional slack above the fair share tolerated before the settle
// sweep charges credits or (at non-positive balance) decays the limit.
inline constexpr double kCreditTolerance = 0.10;

// --- real-time container class (beyond the paper: mixed-criticality
//     co-location after polena/polenaRT). An admitted RT container holds a
//     (runtime, deadline, period) reservation whose CPU floor
//     runtime / min(deadline, period) the allocator may never reclaim. ---
// Utilization bound for RT admission: the summed RT floors on a node (and
// across a pool / shard slice) may not exceed this fraction of its cores.
// 0.7 leaves headroom for best-effort work and for CFS quantization so
// admitted reservations are actually schedulable, not merely booked.
inline constexpr double kRtUtilBound = 0.7;

}  // namespace escra::core
