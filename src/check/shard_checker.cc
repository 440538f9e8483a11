#include "check/shard_checker.h"

#include <cmath>
#include <cstdio>

namespace escra::check {

ShardInvariantChecker::ShardInvariantChecker(shard::ShardedControlPlane& plane)
    : plane_(plane), sim_(plane.simulation()) {
  sweep_event_ = sim_.schedule_every(sim_.now() + kSweepInterval,
                                     kSweepInterval, [this] { sweep(); });
}

ShardInvariantChecker::~ShardInvariantChecker() { sim_.cancel(sweep_event_); }

void ShardInvariantChecker::add(const std::string& rule, std::string detail) {
  if (violations_.size() >= kMaxViolations) {
    ++dropped_violations_;
    return;
  }
  violations_.push_back({sim_.now(), rule, 0, std::move(detail)});
}

void ShardInvariantChecker::sweep() {
  ++sweeps_;
  char buf[256];

  double cpu_sum = 0.0;
  memcg::Bytes mem_sum = 0;
  for (int s = 0; s < plane_.shard_count(); ++s) {
    core::DistributedContainer& app = plane_.shard(s).app();
    cpu_sum += app.cpu_limit();
    mem_sum += app.mem_limit();
    // Slice floors: the DistributedContainer asserts limit >= allocated on
    // every mutation, but a lender bug could shrink past its commitments
    // between mutations of *different* shards — re-check from outside.
    if (app.cpu_limit() < app.cpu_allocated() - kCpuEps ||
        app.cpu_limit() < 0.0) {
      std::snprintf(buf, sizeof buf,
                    "shard %d cpu slice %.6f below allocated %.6f", s,
                    app.cpu_limit(), app.cpu_allocated());
      add("shard-pool-floor", buf);
    }
    if (app.mem_limit() < app.mem_allocated() || app.mem_limit() < 0) {
      std::snprintf(buf, sizeof buf,
                    "shard %d mem slice %lld below allocated %lld", s,
                    static_cast<long long>(app.mem_limit()),
                    static_cast<long long>(app.mem_allocated()));
      add("shard-pool-floor", buf);
    }
  }

  const double cpu_total = cpu_sum + plane_.inflight_cpu();
  if (std::fabs(cpu_total - plane_.cluster_cpu_limit()) > kCpuEps) {
    std::snprintf(buf, sizeof buf,
                  "sum(slices) %.9f + inflight %.9f != cluster %.9f", cpu_sum,
                  plane_.inflight_cpu(), plane_.cluster_cpu_limit());
    add("shard-cpu-conservation", buf);
  }
  // Memory transfers are whole bytes, so the identity must hold exactly.
  const long long mem_inflight = std::llround(plane_.inflight_mem());
  if (mem_sum + mem_inflight !=
      static_cast<long long>(plane_.cluster_mem_limit())) {
    std::snprintf(buf, sizeof buf,
                  "sum(slices) %lld + inflight %lld != cluster %lld",
                  static_cast<long long>(mem_sum), mem_inflight,
                  static_cast<long long>(plane_.cluster_mem_limit()));
    add("shard-mem-conservation", buf);
  }

  if (plane_.inflight_cpu() < -kCpuEps || plane_.inflight_mem() < -0.5) {
    std::snprintf(buf, sizeof buf,
                  "inflight cpu %.9f mem %.0f (a transfer landed twice)",
                  plane_.inflight_cpu(), plane_.inflight_mem());
    add("shard-inflight-floor", buf);
  }

  // Counter sanity: every grant answers exactly one fresh request sequence
  // and every return ships at most once per sequence, so grants can never
  // outnumber requests.
  if (plane_.borrows_granted() > plane_.borrows_requested()) {
    std::snprintf(buf, sizeof buf, "grants %llu > requests %llu",
                  static_cast<unsigned long long>(plane_.borrows_granted()),
                  static_cast<unsigned long long>(plane_.borrows_requested()));
    add("shard-borrow-counters", buf);
  }
}

std::string ShardInvariantChecker::report() const {
  if (ok()) return "ok";
  std::string out;
  char head[128];
  std::snprintf(head, sizeof head, "%zu violation(s), %llu dropped:\n",
                violations_.size(),
                static_cast<unsigned long long>(dropped_violations_));
  out += head;
  for (const Violation& v : violations_) {
    char line[384];
    std::snprintf(line, sizeof line, "  t=%lld us [%s] %s\n",
                  static_cast<long long>(v.time), v.rule.c_str(),
                  v.detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace escra::check
