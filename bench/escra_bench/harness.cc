#include "harness.h"

#include <malloc.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace escra_bench {
namespace {

const char* child_name(Child c) {
  switch (c) {
    case Child::kTick: return "workload.tick";
    case Child::kSubmit: return "workload.submit";
    case Child::kShape: return "bw.shape";
    case Child::kHaKill: return "ha.kill_leader";
    case Child::kCount: break;
  }
  return "?";
}

}  // namespace

double ChildAgg::estimated_s() const {
  if (timed == 0) return 0.0;
  return static_cast<double>(total_ns) * 1e-9 * static_cast<double>(count) /
         static_cast<double>(timed);
}

void ChildAgg::add(const ChildAgg& o) {
  count += o.count;
  timed += o.timed;
  total_ns += o.total_ns;
  max_ns = std::max(max_ns, o.max_ns);
}

Spans::Spans() : origin_(Clock::now()) {
  // Best of a few batches of back-to-back clock reads (steady_clock::now
  // is an out-of-line library call, so the loop is not folded away).
  constexpr int kReads = 100'000;
  double best = 1e9;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) (void)Clock::now();
    best = std::min(best, std::chrono::duration<double, std::nano>(
                              Clock::now() - t0)
                                  .count() /
                              kReads);
  }
  clock_ns_ = static_cast<std::int64_t>(best);
  spans_.reserve(4096);
  spans_.push_back(Span{.name = "root"});
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Spans::open(const char* name, int parent, sim::TimePoint sim_us) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = now_ns();
  s.sim_us = sim_us;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::close(int span) {
  spans_[static_cast<std::size_t>(span)].dur_ns =
      now_ns() - spans_[static_cast<std::size_t>(span)].start_ns;
}

void Spans::add_child(Child c, std::int64_t ns) {
  ChildAgg& a = spans_[static_cast<std::size_t>(current_)].children[idx(c)];
  ns = std::max<std::int64_t>(0, ns - clock_ns_);
  ++a.count;
  ++a.timed;
  a.total_ns += ns;
  a.max_ns = std::max(a.max_ns, ns);
}

ChildAgg Spans::child_total(Child c, const char* name) const {
  ChildAgg total;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total.add(s.children[idx(c)]);
  }
  return total;
}

std::vector<double> Spans::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.dur_ns >= 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.dur_ns) * 1e-6);
    }
  }
  return out;
}

bool Spans::write(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"otherData\":{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << "},\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (std::size_t i = 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.dur_ns < 0) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"sim_ms\":%.3f",
                  s.name, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.dur_ns) * 1e-3, i, s.parent,
                  static_cast<double>(s.sim_us) * 1e-3);
    out << buf;
    for (int c = 0; c < kChildCount; ++c) {
      const ChildAgg& a = s.children[static_cast<std::size_t>(c)];
      if (a.count == 0) continue;
      std::snprintf(buf, sizeof buf,
                    ",\"%s\":{\"count\":%llu,\"timed\":%llu,\"total_us\":%.3f,"
                    "\"max_us\":%.3f}",
                    child_name(static_cast<Child>(c)),
                    static_cast<unsigned long long>(a.count),
                    static_cast<unsigned long long>(a.timed),
                    static_cast<double>(a.total_ns) * 1e-3,
                    static_cast<double>(a.max_ns) * 1e-3);
      out << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Fingerprint::mix_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix(bits);
}

void Fingerprint::add(const Fingerprint& o) {
  cpu_ups += o.cpu_ups;
  cpu_downs += o.cpu_downs;
  mem_grants += o.mem_grants;
  mem_denies += o.mem_denies;
  bw_ups += o.bw_ups;
  bw_downs += o.bw_downs;
  stats += o.stats;
  limit_updates += o.limit_updates;
  retransmits += o.retransmits;
  oom_events += o.oom_events;
  oom_rescues += o.oom_rescues;
  oom_kills += o.oom_kills;
  net_messages += o.net_messages;
  net_bytes += o.net_bytes;
  wal_appends += o.wal_appends;
  failovers += o.failovers;
  attempted += o.attempted;
  completed += o.completed;
  latency_sum_us += o.latency_sum_us;
  mix(o.limits_digest);
  events += o.events;
}

std::string Fingerprint::diff(const Fingerprint& o, bool compare_events) const {
  const struct {
    const char* name;
    std::uint64_t a, b;
  } fields[] = {
      {"cpu_ups", cpu_ups, o.cpu_ups},
      {"cpu_downs", cpu_downs, o.cpu_downs},
      {"mem_grants", mem_grants, o.mem_grants},
      {"mem_denies", mem_denies, o.mem_denies},
      {"bw_ups", bw_ups, o.bw_ups},
      {"bw_downs", bw_downs, o.bw_downs},
      {"stats", stats, o.stats},
      {"limit_updates", limit_updates, o.limit_updates},
      {"retransmits", retransmits, o.retransmits},
      {"oom_events", oom_events, o.oom_events},
      {"oom_rescues", oom_rescues, o.oom_rescues},
      {"oom_kills", oom_kills, o.oom_kills},
      {"net_messages", net_messages, o.net_messages},
      {"net_bytes", net_bytes, o.net_bytes},
      {"wal_appends", wal_appends, o.wal_appends},
      {"failovers", failovers, o.failovers},
      {"attempted", attempted, o.attempted},
      {"completed", completed, o.completed},
      {"latency_sum_us", latency_sum_us, o.latency_sum_us},
      {"limits_digest", limits_digest, o.limits_digest},
      {"events", compare_events ? events : 0, compare_events ? o.events : 0},
  };
  for (const auto& f : fields) {
    if (f.a != f.b) {
      return std::string(f.name) + " " + std::to_string(f.a) + " != " +
             std::to_string(f.b);
    }
  }
  return "";
}

void RepResult::add_cell(const RepResult& cell) {
  setup_s += cell.setup_s;
  run_s += cell.run_s;
  sim_s += cell.sim_s;
  attempted += cell.attempted;
  failed += cell.failed;
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(slice_s, cell.slice_s);
  append(p50_ms, cell.p50_ms);
  append(p999_ms, cell.p999_ms);
  append(cpu_slack_mean, cell.cpu_slack_mean);
  append(mem_slack_mean, cell.mem_slack_mean);
  append(cpu_slack_p50, cell.cpu_slack_p50);
  append(mem_slack_p50, cell.mem_slack_p50);
  latency_samples += cell.latency_samples;
  control_bytes += cell.control_bytes;
  container_seconds += cell.container_seconds;
  loop_us.merge(cell.loop_us);
  fp.add(cell.fp);
  for (int c = 0; c < kCountN; ++c) counts[c] += cell.counts[c];
  pending_max = std::max(pending_max, cell.pending_max);
  check_sweeps += cell.check_sweeps;
  check_violations += cell.check_violations;
  check_report += cell.check_report;
  append(cell_ms, cell.cell_ms);
  if (vacuous.empty()) vacuous = cell.vacuous;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double calibrate() {
  constexpr std::size_t kTimers = 4096;
  constexpr int kFirings = 50'000;
  constexpr std::size_t kStateWords = std::size_t{1} << 17;  // 1 MiB
  // Mapped per call and unmapped on return, never taken from the heap: the
  // loop runs between reps, and freed heap can stay resident and count in
  // a later rep's peak RSS.
  const std::size_t bytes = kStateWords * sizeof(std::uint64_t);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("calibrate: mmap failed");
  auto* state = static_cast<std::uint64_t*>(mem);
  static std::uint64_t sink = 0;
  using Timer = std::pair<std::uint64_t, std::uint32_t>;  // (due, id)
  double best = 1e9;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    std::vector<Timer> heap;
    heap.reserve(kTimers);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(pass);
    for (std::uint32_t id = 0; id < kTimers; ++id) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.push_back({x & 0xffff, id});
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    for (int i = 0; i < kFirings; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const Timer fired = heap.back();
      heap.pop_back();
      std::uint64_t& s = state[(fired.second * 2654435761U) & (kStateWords - 1)];
      s = s * 6364136223846793005ULL + fired.first;
      heap.push_back({fired.first + 1 + (s >> 52), fired.second});
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    sink += state[static_cast<std::size_t>(pass)];
    best = std::min(best, seconds_since(t0));
  }
  munmap(mem, bytes);
  // Keeps the loop's result observable, so it is not optimized away.
  if (sink == 1) std::fputs("", stderr);
  return best;
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& name) {
  // FNV-1a over the name, then a splitmix64 finalizer over (seed, name).
  std::uint64_t h = 1469598103934665603ULL;
  for (const char ch : name) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace escra_bench
