// escra_sim: command-line runner for YAML-defined applications.
//
//   escra_sim <app.yaml> [options]
//
//     --policy escra|static|autopilot|vpa|firm   (default escra)
//     --workload fixed|exp|burst|alibaba   arrival process   (default exp)
//     --trace FILE                         replay per-second req/s rates
//                                          from FILE (overrides --workload)
//     --rate R                             req/s for fixed/exp (R > 0,
//                                          default 300)
//     --duration S                         measured seconds (S > 0,
//                                          default 60)
//     --seed N                             RNG seed          (default 42)
//     --nodes N                            worker nodes (N >= 1, default 3)
//     --cores C                            cores per node (C > 0,
//                                          default 20)
//     --csv PATH                           per-second aggregate usage/limit
//                                          time series as CSV
//     --metrics-out PATH                   control-plane metrics time series
//                                          (1 s snapshots) as CSV
//     --trace-out PATH                     decision trace (causal JSONL,
//                                          readable by escra-trace)
//     --rpc-loss R                         probabilistic control-plane
//                                          message loss (0 <= R < 1)
//     --partition NODE:START:DUR           sever node NODE from the
//                                          Controller at START s for DUR s
//                                          (repeatable)
//     --agent-crash NODE:T                 crash node NODE's Agent at T s;
//                                          it restarts after 2 s downtime
//                                          (repeatable)
//     --standbys N                         attach a warm-standby replicated
//                                          controller pool of N standbys
//     --leader-kill T                      kill the controller permanently
//                                          at T s — a standby takes over
//                                          (requires --standbys >= 1)
//     --rt                                 mixed criticality (escra policy
//                                          only): admit the first replica
//                                          of every service into the
//                                          real-time class at 5 s with a
//                                          20 ms / 100 ms reservation
//                                          (0.2-core floor). The summary
//                                          gains an rt line; with
//                                          --trace-out, escra-trace --rt
//                                          reads the deadline view
//     --shards N                           run the control plane as N
//                                          controller shards (escra policy
//                                          only): each service is deployed
//                                          as its own application, routed to
//                                          a shard by consistent hashing,
//                                          and the shards trade pool
//                                          headroom over the borrow
//                                          protocol. --trace-out then emits
//                                          the merged per-shard trace
//                                          (events stamped with their
//                                          owning shard; escra-trace
//                                          --shard ID filters it),
//                                          --standbys arms per-shard warm
//                                          standbys, and the fault flags
//                                          target shard 0's control plane
//
// Loads the application (services, edges, Distributed Container limits, and
// Escra tunables) from the YAML file, deploys it on a simulated cluster
// under the chosen policy, drives the chosen workload, and prints the
// summary an operator would want: throughput, latency percentiles, slack,
// OOM/rescue counts, and (for escra) control-plane traffic. An escra run
// always goes through one sharded control plane; without --shards it has
// one shard managing the whole application as one app. Baseline policies
// run through the experiment harness, which profiles the application first
// the way an operator would.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <optional>
#include <string>
#include <vector>

#include "app/service_graph.h"
#include "cfs/rt.h"
#include "cluster/cluster.h"
#include "config/app_config.h"
#include "core/controller.h"
#include "exp/microservice.h"
#include "fault/fault_injector.h"
#include "ha/ha_control_plane.h"
#include "net/network.h"
#include "obs/observer.h"
#include "shard/sharded_control_plane.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "workload/load_generator.h"

using namespace escra;

namespace {

// --partition NODE:START:DUR — node index, start (s), duration (s).
struct PartitionSpec {
  std::uint32_t node = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
};

// --agent-crash NODE:T — node index, crash time (s). The Agent restarts
// after kAgentCrashDowntime; the Controller notices the new incarnation
// through heartbeats and resyncs.
struct AgentCrashSpec {
  std::uint32_t node = 0;
  double time_s = 0.0;
};

constexpr sim::Duration kAgentCrashDowntime = sim::seconds(2);

struct Options {
  std::string config_path;
  std::string policy = "escra";  // escra|static|autopilot|vpa|firm
  std::string workload = "exp";
  std::string trace_path;  // --trace: replay per-second rates from a file
  double rate = 300.0;
  double duration_s = 60.0;
  std::uint64_t seed = 42;
  int nodes = 3;
  double cores = 20.0;
  std::string csv_path;
  std::string metrics_path;  // --metrics-out: obs registry CSV time series
  std::string trace_path_out;  // --trace-out: decision trace JSONL
  double rpc_loss = 0.0;  // --rpc-loss: uniform control-plane message loss
  std::vector<PartitionSpec> partitions;
  std::vector<AgentCrashSpec> agent_crashes;
  int standbys = 0;           // --standbys: warm-standby controller pool size
  double leader_kill_s = -1.0;  // --leader-kill: permanent kill time (s)
  int shards = 0;             // --shards: 0 = one shard, one app
  bool rt = false;            // --rt: admit one RT replica per service
  // The workload and export flags given, which only the escra run reads.
  std::vector<std::string> escra_run_flags;

  bool has_faults() const {
    return rpc_loss > 0.0 || !partitions.empty() || !agent_crashes.empty() ||
           leader_kill_s >= 0.0;
  }
};

void usage() {
  std::fprintf(stderr,
               "usage: escra_sim <app.yaml> [--workload fixed|exp|burst|"
               "alibaba]\n"
               "                 [--policy escra|static|autopilot|vpa|firm]\n"
               "                 [--rate R] [--duration S] [--seed N]\n"
               "                 [--nodes N] [--cores C] [--csv PATH]\n"
               "                 [--metrics-out PATH] [--trace-out PATH]\n"
               "                 [--rpc-loss R] [--partition NODE:START:DUR]\n"
               "                 [--agent-crash NODE:T] [--standbys N]\n"
               "                 [--leader-kill T] [--shards N] [--rt]\n"
               "(--trace, --rate, --csv, --metrics-out, --trace-out and the "
               "fault, HA, shard and rt flags require the escra policy;\n"
               " --partition/--agent-crash are repeatable, times in seconds; "
               "a crashed agent restarts after 2 s)\n");
}

// std::stod/std::stoull accept trailing garbage ("12abc" parses as 12), so
// flag values are only accepted when the whole token converts. std::stod
// also reads "nan" and "inf", which no flag means: those are refused too.
double parse_double(const std::string& flag, const char* text) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || text[consumed] != '\0' || !std::isfinite(value)) {
    throw std::runtime_error(flag + " expects a finite number, got '" +
                             std::string(text) + "'");
  }
  return value;
}

// A numeric flag whose value must be positive: --cores, --duration, --rate.
double parse_positive(const std::string& flag, const char* text,
                      const char* name) {
  const double value = parse_double(flag, text);
  if (value <= 0.0) {
    throw std::runtime_error(flag + " expects " + name + " > 0, got '" +
                             std::string(text) + "'");
  }
  return value;
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  std::size_t consumed = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || text[consumed] != '\0' || text[0] == '-') {
    throw std::runtime_error(flag + " expects a non-negative integer, got '" +
                             std::string(text) + "'");
  }
  return value;
}

// Splits a colon-separated fault spec into exactly `expected` fields, each
// validated as a full-token number like every other numeric flag.
std::vector<std::string> split_spec(const std::string& flag, const char* text,
                                    std::size_t expected) {
  std::vector<std::string> fields;
  std::string token(text);
  std::size_t pos = 0;
  while (true) {
    const std::size_t colon = token.find(':', pos);
    if (colon == std::string::npos) {
      fields.push_back(token.substr(pos));
      break;
    }
    fields.push_back(token.substr(pos, colon - pos));
    pos = colon + 1;
  }
  if (fields.size() != expected) {
    throw std::runtime_error(flag + " expects " + std::to_string(expected) +
                             " colon-separated fields, got '" + token + "'");
  }
  return fields;
}

PartitionSpec parse_partition(const std::string& flag, const char* text) {
  const auto f = split_spec(flag, text, 3);
  PartitionSpec spec;
  spec.node = static_cast<std::uint32_t>(parse_u64(flag, f[0].c_str()));
  spec.start_s = parse_double(flag, f[1].c_str());
  spec.duration_s = parse_double(flag, f[2].c_str());
  if (spec.start_s < 0.0 || spec.duration_s <= 0.0) {
    throw std::runtime_error(flag + " expects START >= 0 and DUR > 0, got '" +
                             std::string(text) + "'");
  }
  return spec;
}

AgentCrashSpec parse_agent_crash(const std::string& flag, const char* text) {
  const auto f = split_spec(flag, text, 2);
  AgentCrashSpec spec;
  spec.node = static_cast<std::uint32_t>(parse_u64(flag, f[0].c_str()));
  spec.time_s = parse_double(flag, f[1].c_str());
  if (spec.time_s < 0.0) {
    throw std::runtime_error(flag + " expects T >= 0, got '" +
                             std::string(text) + "'");
  }
  return spec;
}

std::optional<Options> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options opts;
  opts.config_path = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--trace" || flag == "--rate" || flag == "--csv" ||
        flag == "--metrics-out" || flag == "--trace-out") {
      opts.escra_run_flags.push_back(flag);
    }
    if (flag == "--trace") {
      opts.trace_path = next();
    } else if (flag == "--policy") {
      opts.policy = next();
    } else if (flag == "--workload") {
      opts.workload = next();
    } else if (flag == "--rate") {
      opts.rate = parse_positive(flag, next(), "R");
    } else if (flag == "--duration") {
      opts.duration_s = parse_positive(flag, next(), "S");
    } else if (flag == "--seed") {
      opts.seed = parse_u64(flag, next());
    } else if (flag == "--nodes") {
      opts.nodes = static_cast<int>(parse_u64(flag, next()));
      if (opts.nodes < 1) {
        throw std::runtime_error("--nodes expects N >= 1");
      }
    } else if (flag == "--cores") {
      opts.cores = parse_positive(flag, next(), "C");
    } else if (flag == "--csv") {
      opts.csv_path = next();
    } else if (flag == "--metrics-out") {
      opts.metrics_path = next();
    } else if (flag == "--trace-out") {
      opts.trace_path_out = next();
    } else if (flag == "--rpc-loss") {
      opts.rpc_loss = parse_double(flag, next());
      if (opts.rpc_loss < 0.0 || opts.rpc_loss >= 1.0) {
        throw std::runtime_error("--rpc-loss expects a rate in [0, 1)");
      }
    } else if (flag == "--partition") {
      opts.partitions.push_back(parse_partition(flag, next()));
    } else if (flag == "--agent-crash") {
      opts.agent_crashes.push_back(parse_agent_crash(flag, next()));
    } else if (flag == "--standbys") {
      opts.standbys = static_cast<int>(parse_u64(flag, next()));
    } else if (flag == "--leader-kill") {
      opts.leader_kill_s = parse_double(flag, next());
      if (opts.leader_kill_s < 0.0) {
        throw std::runtime_error("--leader-kill expects T >= 0");
      }
    } else if (flag == "--shards") {
      opts.shards = static_cast<int>(parse_u64(flag, next()));
      if (opts.shards < 1) {
        throw std::runtime_error("--shards expects N >= 1");
      }
    } else if (flag == "--rt") {
      opts.rt = true;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return opts;
}

std::unique_ptr<workload::ArrivalProcess> make_arrivals(const Options& opts,
                                                        sim::Rng rng,
                                                        std::size_t seconds) {
  if (!opts.trace_path.empty()) {
    return std::make_unique<workload::TraceArrivals>(
        workload::load_rate_trace(opts.trace_path), rng);
  }
  if (opts.workload == "fixed") {
    return std::make_unique<workload::FixedArrivals>(opts.rate);
  }
  if (opts.workload == "exp") {
    return std::make_unique<workload::ExpArrivals>(opts.rate, rng);
  }
  if (opts.workload == "burst") {
    return std::make_unique<workload::BurstArrivals>(rng);
  }
  if (opts.workload == "alibaba") {
    sim::Rng trace_rng = rng.fork();
    return std::make_unique<workload::TraceArrivals>(
        workload::make_alibaba_rates(seconds, trace_rng), rng);
  }
  throw std::runtime_error("unknown workload '" + opts.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    const auto parsed = parse_args(argc, argv);
    if (!parsed.has_value()) {
      usage();
      return 2;
    }
    opts = *parsed;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }

  config::AppConfig app_config;
  try {
    app_config = config::load_app_config_file(opts.config_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error loading %s: %s\n", opts.config_path.c_str(),
                 e.what());
    return 1;
  }

  std::printf("application: %s (%zu services, %zu containers)\n",
              app_config.name.c_str(), app_config.graph.services.size(),
              app_config.graph.total_containers());
  std::printf("limits: %.1f cores, %lld MiB; workload: %s; policy: %s; "
              "duration: %.0fs\n",
              app_config.global_cpu_cores,
              static_cast<long long>(app_config.global_mem / memcg::kMiB),
              opts.workload.c_str(), opts.policy.c_str(), opts.duration_s);

  if (opts.policy != "escra") {
    if (opts.has_faults() || opts.standbys > 0 || opts.shards > 0 ||
        opts.rt) {
      std::fprintf(stderr,
                   "error: --rpc-loss/--partition/--agent-crash/--standbys/"
                   "--leader-kill/--shards/--rt require the escra policy\n");
      return 2;
    }
    if (!opts.escra_run_flags.empty()) {
      std::string given;
      for (const std::string& flag : opts.escra_run_flags) {
        given += (given.empty() ? "" : "/") + flag;
      }
      const bool one = opts.escra_run_flags.size() == 1;
      std::fprintf(stderr,
                   "error: %s require%s the escra policy (a baseline run "
                   "would ignore %s)\n",
                   given.c_str(), one ? "s" : "", one ? "it" : "them");
      return 2;
    }
    // Baseline runs go through the experiment harness (which profiles the
    // application first, like an operator would).
    exp::MicroserviceConfig cfg;
    cfg.custom_graph = std::make_shared<app::GraphSpec>(app_config.graph);
    cfg.escra = app_config.escra;
    cfg.worker_nodes = opts.nodes;
    cfg.node_cores = opts.cores;
    cfg.duration = sim::seconds_f(opts.duration_s);
    cfg.seed = opts.seed;
    if (opts.policy == "static") {
      cfg.policy = exp::PolicyKind::kStatic;
    } else if (opts.policy == "autopilot") {
      cfg.policy = exp::PolicyKind::kAutopilot;
    } else if (opts.policy == "vpa") {
      cfg.policy = exp::PolicyKind::kVpa;
    } else if (opts.policy == "firm") {
      cfg.policy = exp::PolicyKind::kFirm;
    } else {
      std::fprintf(stderr, "error: unknown policy '%s'\n", opts.policy.c_str());
      return 2;
    }
    if (opts.workload == "fixed") {
      cfg.workload = workload::WorkloadKind::kFixed;
    } else if (opts.workload == "exp") {
      cfg.workload = workload::WorkloadKind::kExp;
    } else if (opts.workload == "burst") {
      cfg.workload = workload::WorkloadKind::kBurst;
    } else if (opts.workload == "alibaba") {
      cfg.workload = workload::WorkloadKind::kAlibaba;
    } else {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   opts.workload.c_str());
      return 2;
    }
    const exp::RunResult r = exp::run_microservice(cfg);
    std::printf("\nresults (%s):\n", r.policy_name.c_str());
    std::printf("  throughput     %.1f req/s (%llu ok, %llu failed)\n",
                r.throughput_rps,
                static_cast<unsigned long long>(r.succeeded),
                static_cast<unsigned long long>(r.failed));
    std::printf("  latency ms     p50 %.1f  p99 %.1f  p99.9 %.1f\n",
                r.p50_latency_ms, r.p99_latency_ms, r.p999_latency_ms);
    std::printf("  cpu slack      p50 %.2f  p99 %.2f cores\n",
                r.cpu_slack_cores.percentile(50),
                r.cpu_slack_cores.percentile(99));
    std::printf("  mem slack      p50 %.1f  p99 %.1f MiB\n",
                r.mem_slack_mib.percentile(50), r.mem_slack_mib.percentile(99));
    std::printf("  ooms %llu  evictions %llu\n",
                static_cast<unsigned long long>(r.oom_kills),
                static_cast<unsigned long long>(r.evictions));
    return 0;
  }

  sim::Simulation simulation;
  net::Network network(simulation);
  cluster::Cluster k8s(simulation);
  for (int i = 0; i < opts.nodes; ++i) {
    k8s.add_node(cluster::NodeConfig{.cores = opts.cores});
  }

  sim::Rng root(opts.seed);
  app::Application application(k8s, app_config.graph, root.fork(),
                               /*initial_cores=*/1.0,
                               /*initial_mem=*/512 * memcg::kMiB);
  // Every escra run has one control plane: a sharded plane of
  // max(1, --shards) shards. A one-shard plane is decision-stream-identical
  // to a bare EscraSystem (no advertise tick, the default standby endpoint
  // band, an RT capacity equal to the pool). Observers are declared before
  // the plane (they must outlive it).
  const bool sharded = opts.shards > 0;
  std::vector<std::unique_ptr<obs::Observer>> observers;
  shard::ShardPlaneConfig pcfg;
  pcfg.shards = std::max(1, opts.shards);
  pcfg.escra = app_config.escra;
  shard::ShardedControlPlane plane(simulation, network, k8s,
                                   app_config.global_cpu_cores,
                                   app_config.global_mem, pcfg);
  // Control-plane observability is opt-in: without the flags nothing is
  // attached and the run is hook-free. Each shard gets its own observer
  // (the merged-trace sources); the metrics snapshots and network counters
  // land on shard 0's registry.
  if (!opts.metrics_path.empty() || !opts.trace_path_out.empty()) {
    for (int s = 0; s < plane.shard_count(); ++s) {
      observers.push_back(std::make_unique<obs::Observer>());
      plane.attach_observer(s, *observers.back());
    }
    network.attach_metrics(observers.front()->metrics());
    observers.front()->metrics().start_periodic_snapshots(simulation,
                                                          sim::kSecond);
  }

  if (opts.leader_kill_s >= 0.0 && opts.standbys < 1) {
    std::fprintf(stderr,
                 "error: --leader-kill requires --standbys >= 1 (nothing "
                 "would ever take the seat back)\n");
    return 2;
  }

  const auto& services = app_config.graph.services;
  if (sharded) {
    // Each service is its own application: the router pins it to one shard,
    // so app-level aggregate limits never straddle shards.
    for (std::size_t s = 0; s < services.size(); ++s) {
      plane.manage(services[s].name, application.service_containers(s));
    }
  } else {
    plane.manage(app_config.name, application.containers());
  }
  plane.start();
  if (sharded) {
    std::vector<int> apps_per_shard(static_cast<std::size_t>(opts.shards), 0);
    for (const auto& svc : services) {
      ++apps_per_shard[static_cast<std::size_t>(
          plane.shard_of_app(svc.name))];
    }
    std::printf("shards: %d controller shard(s); services per shard:",
                opts.shards);
    for (int n : apps_per_shard) std::printf(" %d", n);
    std::printf("\n");
  }

  // Warm-standby replicated controllers: armed after manage() so the
  // bootstrap snapshot covers every registered container, one standby group
  // per shard on disjoint endpoint bands.
  if (opts.standbys > 0) {
    plane.enable_ha(opts.standbys);
    std::printf("ha: %d warm standby(ies)%s, lease %.0f ms\n", opts.standbys,
                sharded ? " per shard" : "",
                sim::to_seconds(ha::kLeaseTimeout) * 1e3);
  }

  // Mixed criticality (--rt): the first replica of every service runs in
  // the real-time class. Admissions land at 5 s — after deployment settles
  // but before load starts at 10 s — so a rejection here means the
  // reservation genuinely doesn't fit, not that best-effort load beat it
  // to the pool. One conservative spec for all: 20 ms runtime / 100 ms
  // period, a 0.2-core floor per reservation.
  std::vector<cluster::ContainerId> rt_ids;
  if (opts.rt) {
    cfs::RtSpec rt_spec;
    rt_spec.runtime = sim::milliseconds(20);
    rt_spec.deadline = sim::milliseconds(100);
    rt_spec.period = sim::milliseconds(100);
    for (std::size_t s = 0; s < services.size(); ++s) {
      const auto members = application.service_containers(s);
      if (!members.empty()) rt_ids.push_back(members.front()->id());
    }
    simulation.schedule_at(sim::seconds(5), [&, rt_spec] {
      for (const cluster::ContainerId id : rt_ids) plane.admit_rt(id, rt_spec);
    });
    std::printf("rt: admitting %zu reservation(s) at 5 s "
                "(20 ms runtime / 100 ms period, 0.2-core floor each)\n",
                rt_ids.size());
  }

  // Scripted fault injection (escra policy only). The fault RNG is forked
  // from the run seed so faulted runs replay bit-for-bit.
  std::optional<fault::FaultInjector> injector;
  if (opts.has_faults()) {
    for (const auto& p : opts.partitions) {
      if (p.node >= static_cast<std::uint32_t>(opts.nodes)) {
        std::fprintf(stderr, "error: --partition node %u out of range (%d nodes)\n",
                     p.node, opts.nodes);
        return 2;
      }
    }
    for (const auto& c : opts.agent_crashes) {
      if (c.node >= static_cast<std::uint32_t>(opts.nodes)) {
        std::fprintf(stderr,
                     "error: --agent-crash node %u out of range (%d nodes)\n",
                     c.node, opts.nodes);
        return 2;
      }
    }
    sim::Rng fault_net_rng(opts.seed ^ 0x5eedf417c0deULL);
    if (opts.rpc_loss > 0.0) {
      network.set_loss(opts.rpc_loss, fault_net_rng);  // installs the rng too
    } else {
      network.set_fault_rng(fault_net_rng);
    }
    injector.emplace(simulation, network, plane.shard(0));
    for (const auto& p : opts.partitions) {
      injector->inject_partition(p.node, sim::seconds_f(p.start_s),
                                 sim::seconds_f(p.duration_s));
    }
    for (const auto& c : opts.agent_crashes) {
      injector->inject_agent_crash(c.node, sim::seconds_f(c.time_s),
                                   kAgentCrashDowntime);
    }
    if (opts.leader_kill_s >= 0.0) {
      injector->inject_leader_kill(sim::seconds_f(opts.leader_kill_s));
    }
    std::printf("faults: rpc-loss %.2f, %zu partition(s), %zu agent crash(es)"
                "%s\n",
                opts.rpc_loss, opts.partitions.size(),
                opts.agent_crashes.size(),
                opts.leader_kill_s >= 0.0 ? ", 1 leader kill" : "");
  }

  const sim::TimePoint load_start = sim::seconds(10);  // startup burn first
  const sim::TimePoint load_end = load_start + sim::seconds_f(opts.duration_s);
  workload::LoadGenerator loadgen(
      simulation,
      make_arrivals(opts, root.fork(),
                    static_cast<std::size_t>(sim::to_seconds(load_end)) + 1),
      [&application](workload::LoadGenerator::Done done) {
        application.submit_request(std::move(done));
      });
  loadgen.run(load_start, load_end);

  std::ofstream csv;
  if (!opts.csv_path.empty()) {
    csv.open(opts.csv_path);
    if (!csv) {
      std::fprintf(stderr, "error: cannot write %s\n", opts.csv_path.c_str());
      return 1;
    }
    csv << "time_s,cpu_used_cores,cpu_limit_cores,mem_used_mib,mem_limit_mib\n";
  }

  sim::SampleSet cpu_slack, mem_slack_mib;
  std::vector<sim::Duration> prev(application.containers().size(), 0);
  simulation.schedule_every(sim::kSecond, sim::kSecond, [&] {
    double used = 0.0, limit = 0.0;
    memcg::Bytes mem_used = 0, mem_limit = 0;
    const auto& containers = application.containers();
    for (std::size_t i = 0; i < containers.size(); ++i) {
      const auto consumed = containers[i]->cpu_cgroup().total_consumed();
      const double u = static_cast<double>(consumed - prev[i]) / 1e6;
      prev[i] = consumed;
      used += u;
      limit += containers[i]->cpu_cgroup().limit_cores();
      mem_used += containers[i]->mem_cgroup().usage();
      mem_limit += containers[i]->mem_cgroup().limit();
      if (simulation.now() > load_start) {
        cpu_slack.add(containers[i]->cpu_cgroup().limit_cores() - u);
        mem_slack_mib.add(
            static_cast<double>(containers[i]->mem_cgroup().slack()) /
            static_cast<double>(memcg::kMiB));
      }
    }
    if (csv.is_open()) {
      csv << sim::to_seconds(simulation.now()) << ',' << used << ',' << limit
          << ',' << mem_used / memcg::kMiB << ',' << mem_limit / memcg::kMiB
          << '\n';
    }
  });

  simulation.run_until(load_end + sim::seconds(5));

  const sim::Histogram& lat = loadgen.latency();
  std::printf("\nresults:\n");
  std::printf("  throughput     %.1f req/s (%llu ok, %llu failed)\n",
              loadgen.throughput_rps(),
              static_cast<unsigned long long>(loadgen.succeeded()),
              static_cast<unsigned long long>(loadgen.failed()));
  std::printf("  latency ms     p50 %.1f  p99 %.1f  p99.9 %.1f\n",
              static_cast<double>(lat.percentile(50)) / 1000.0,
              static_cast<double>(lat.percentile(99)) / 1000.0,
              static_cast<double>(lat.percentile(99.9)) / 1000.0);
  std::printf("  cpu slack      p50 %.2f  p99 %.2f cores\n",
              cpu_slack.percentile(50), cpu_slack.percentile(99));
  std::printf("  mem slack      p50 %.1f  p99 %.1f MiB\n",
              mem_slack_mib.percentile(50), mem_slack_mib.percentile(99));
  std::uint64_t ctrl_stats = 0, ctrl_updates = 0, ctrl_ooms = 0,
                ctrl_rescues = 0, ctrl_retransmits = 0, ctrl_resyncs = 0;
  std::uint64_t rt_admitted = 0, rt_rejected = 0, rt_misses = 0;
  double rt_reserved = 0.0;
  for (int s = 0; s < plane.shard_count(); ++s) {
    const core::Controller& c = plane.shard(s).controller();
    ctrl_stats += c.stats_received();
    ctrl_updates += c.limit_updates_sent();
    ctrl_ooms += c.oom_events();
    ctrl_rescues += c.oom_rescues();
    ctrl_retransmits += c.retransmits();
    ctrl_resyncs += c.resyncs();
    rt_admitted += c.rt_admissions();
    rt_rejected += c.rt_rejections();
    rt_misses += c.deadline_misses();
    rt_reserved += c.rt_reserved_cores();
  }
  std::printf("  controller     %llu stats, %llu limit updates, "
              "%llu oom events, %llu rescues\n",
              static_cast<unsigned long long>(ctrl_stats),
              static_cast<unsigned long long>(ctrl_updates),
              static_cast<unsigned long long>(ctrl_ooms),
              static_cast<unsigned long long>(ctrl_rescues));
  if (opts.rt) {
    std::printf("  rt             %llu admitted (%.1f cores reserved), "
                "%llu rejected, %llu deadline miss(es)\n",
                static_cast<unsigned long long>(rt_admitted), rt_reserved,
                static_cast<unsigned long long>(rt_rejected),
                static_cast<unsigned long long>(rt_misses));
  }
  if (sharded) {
    std::printf("  shards         %llu advert(s), %llu borrow(s) requested, "
                "%llu granted, %llu returned, %llu retransmit(s), "
                "%llu pool resize(s)\n",
                static_cast<unsigned long long>(plane.adverts_sent()),
                static_cast<unsigned long long>(plane.borrows_requested()),
                static_cast<unsigned long long>(plane.borrows_granted()),
                static_cast<unsigned long long>(plane.borrows_returned()),
                static_cast<unsigned long long>(plane.borrow_retransmits()),
                static_cast<unsigned long long>(plane.pool_resizes()));
  }
  std::printf("  network        peak %.2f Mbps, mean %.2f Mbps\n",
              network.peak_mbps(), network.mean_mbps());
  if (injector.has_value()) {
    std::printf("  recovery       %llu faults injected, %llu cleared, "
                "%llu retransmits, %llu resyncs\n",
                static_cast<unsigned long long>(injector->injected()),
                static_cast<unsigned long long>(injector->cleared()),
                static_cast<unsigned long long>(ctrl_retransmits),
                static_cast<unsigned long long>(ctrl_resyncs));
  }
  if (plane.ha_enabled()) {
    std::uint64_t failovers = 0, wal_appends = 0, max_epoch = 0;
    int standbys_warm = 0;
    for (int s = 0; s < plane.shard_count(); ++s) {
      failovers += plane.ha(s).failovers();
      wal_appends += plane.ha(s).wal_appends();
      max_epoch = std::max<std::uint64_t>(max_epoch, plane.ha(s).epoch());
      standbys_warm += plane.ha(s).standby_count();
    }
    std::printf("  ha             %sepoch %llu, %llu failover(s), "
                "%llu WAL appends, %d standby(ies) warm%s\n",
                sharded ? "max " : "",
                static_cast<unsigned long long>(max_epoch),
                static_cast<unsigned long long>(failovers),
                static_cast<unsigned long long>(wal_appends), standbys_warm,
                sharded ? " across shards" : "");
  }
  if (!opts.csv_path.empty()) {
    std::printf("  time series    %s\n", opts.csv_path.c_str());
  }
  if (observers.empty()) return 0;
  if (!sharded) {
    const obs::LoopProfiler& profiler = observers.front()->profiler();
    std::printf("\ncontrol-loop latency (%llu loops):\n%s",
                static_cast<unsigned long long>(profiler.loops_completed()),
                profiler.table().c_str());
  }
  if (!opts.metrics_path.empty()) {
    // Control-plane metrics registries are per shard; the CSV carries
    // shard 0's (which also holds the global network counters).
    std::ofstream out(opts.metrics_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opts.metrics_path.c_str());
      return 1;
    }
    observers.front()->metrics().export_csv(out, simulation.now());
    std::printf("  metrics        %s%s\n", opts.metrics_path.c_str(),
                sharded ? " (shard 0)" : "");
  }
  if (!opts.trace_path_out.empty()) {
    std::ofstream out(opts.trace_path_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opts.trace_path_out.c_str());
      return 1;
    }
    // An unsharded trace carries no shard stamps: the merged export would
    // add them.
    if (sharded) {
      plane.export_merged_trace(out);
    } else {
      observers.front()->trace().export_jsonl(out);
    }
    std::uint64_t recorded = 0, evicted = 0;
    for (const auto& obs : observers) {
      recorded += obs->trace().recorded();
      evicted += obs->trace().evicted();
    }
    std::printf("  trace          %s (%llu events, %llu evicted",
                opts.trace_path_out.c_str(),
                static_cast<unsigned long long>(recorded),
                static_cast<unsigned long long>(evicted));
    if (sharded) std::printf(", %d shards merged", opts.shards);
    std::printf(")\n");
  }
  return 0;
}
