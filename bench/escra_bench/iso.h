// Isolated per-layer timings ("iso" metrics): one layer's public function
// timed on its own, after an untimed warm pass, reporting the best of N
// timed passes (the EXPERIMENTS.md timing methodology: the work is
// deterministic, so every deviation above the minimum is host noise).
#pragma once

#include "workloads.h"

namespace escra_bench {

struct Iso {
  double sim_schedule_ns = 0.0;   // Simulation::schedule_at
  double sim_cancel_ns = 0.0;     // Simulation::cancel
  double sim_fire_ns = 0.0;       // dispatch of one periodic-timer firing
  double net_send_ns = 0.0;       // Network::send_to
  double net_rpc_ns = 0.0;        // Network::rpc_to
  double cfs_slice_ns = 0.0;      // NodeCpuScheduler, per consumer-slice
  double cluster_run_ns = 0.0;    // Container cpu_demand + run_for, per slice
  double memcg_charge_ns = 0.0;   // MemCgroup try_charge + uncharge
  double controller_ingest_ns = 0.0;  // Controller::on_cpu_stats
  double allocator_decide_ns = 0.0;   // ResourceAllocator::on_cpu_stats
  double allocator_oom_ns = 0.0;      // ResourceAllocator::on_oom_event
  double bw_shape_ns = 0.0;       // ClusterShaper::shape_egress, pass-through
  double ha_fold_ns = 0.0;        // ha::ReplicaState::apply
  double obs_record_ns = 0.0;     // obs::TraceBuffer::record
  double check_sweep_us = 0.0;    // InvariantChecker::check_now
};

// Controller, allocator and checker timings run at `shape`'s population.
Iso run_iso(const IsoShape& shape, bool quick);

}  // namespace escra_bench
