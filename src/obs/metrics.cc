#include "obs/metrics.h"

#include <cstdio>
#include <stdexcept>

#include "sim/event_queue.h"

namespace escra::obs {

void MetricsRegistry::claim_name(const std::string& name) {
  if (name.empty()) {
    throw std::invalid_argument("MetricsRegistry: empty metric name");
  }
  if (has(name)) {
    throw std::invalid_argument("MetricsRegistry: duplicate metric '" + name +
                                "' (names are registered exactly once; use "
                                "find_* to share a handle)");
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  claim_name(name);
  auto& slot = counters_[name];
  slot = std::unique_ptr<Counter>(new Counter(name));
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  claim_name(name);
  auto& slot = gauges_[name];
  slot = std::unique_ptr<Gauge>(new Gauge(name));
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

bool MetricsRegistry::has(const std::string& name) const {
  return counters_.contains(name) || gauges_.contains(name);
}

std::size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size();
}

MetricsSnapshot MetricsRegistry::snapshot(sim::TimePoint now) const {
  MetricsSnapshot snap;
  snap.time = now;
  snap.values.reserve(size());
  // Merge the two name-ordered maps into one name-ordered value list (a
  // name lives in at most one of them).
  auto c = counters_.begin();
  auto g = gauges_.begin();
  while (c != counters_.end() || g != gauges_.end()) {
    if (g == gauges_.end() || (c != counters_.end() && c->first < g->first)) {
      snap.values.emplace_back(c->first,
                               static_cast<double>(c->second->value()));
      ++c;
    } else {
      snap.values.emplace_back(g->first, g->second->value());
      ++g;
    }
  }
  return snap;
}

void MetricsRegistry::capture(sim::TimePoint now) {
  snapshots_.push_back(snapshot(now));
}

void MetricsRegistry::start_periodic_snapshots(sim::Simulation& sim,
                                               sim::Duration interval) {
  if (interval <= 0) {
    throw std::invalid_argument("start_periodic_snapshots: interval <= 0");
  }
  if (periodic_started_) {
    throw std::logic_error("start_periodic_snapshots: already started");
  }
  periodic_started_ = true;
  sim.schedule_every(sim.now() + interval, interval,
                     [this, &sim] { capture(sim.now()); });
}

void MetricsRegistry::export_csv(std::ostream& out, sim::TimePoint now) const {
  // Column set: the union of metric names across all snapshots plus the
  // current registry (metrics registered after snapshotting began appear as
  // empty cells in earlier rows).
  std::map<std::string, bool> columns;
  for (const MetricsSnapshot& snap : snapshots_) {
    for (const auto& [name, _] : snap.values) columns[name] = true;
  }
  const MetricsSnapshot current = snapshot(now);
  for (const auto& [name, _] : current.values) columns[name] = true;

  out << "time_s";
  for (const auto& [name, _] : columns) out << ',' << name;
  out << '\n';

  const auto write_row = [&](const MetricsSnapshot& snap) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", sim::to_seconds(snap.time));
    out << buf;
    auto it = snap.values.begin();
    for (const auto& [name, _] : columns) {
      while (it != snap.values.end() && it->first < name) ++it;
      out << ',';
      if (it != snap.values.end() && it->first == name) {
        std::snprintf(buf, sizeof(buf), "%.17g", it->second);
        out << buf;
      }
    }
    out << '\n';
  };

  if (snapshots_.empty()) {
    write_row(current);
    return;
  }
  for (const MetricsSnapshot& snap : snapshots_) write_row(snap);
}

}  // namespace escra::obs
