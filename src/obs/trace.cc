#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace escra::obs {

namespace {

constexpr const char* kKindNames[kEventKindCount] = {
    "throttle-observed",    "cpu-grant",  "cpu-shrink",
    "mem-grant-on-oom",     "reclaim",    "container-registered",
    "container-killed",     "rpc-issued", "rpc-applied",
    "retransmit",           "duplicate-suppressed",
    "resync",               "fail-static",
    "node-dead",            "node-alive",
    "fault-injected",       "fault-cleared",
    "leader-elected",       "epoch-fenced",
    "wal-lag",
    "bw-throttled",         "bw-saturation",
    "bw-grant",             "bw-shrink",
    "telemetry-rejected",   "credit-charge",
    "credit-refund",        "greedy-throttle",
    "shard-advertise",      "borrow-request",
    "borrow-grant",         "borrow-return",
    "shard-pool-resize",
    "rt-admitted",          "rt-rejected",
    "rt-evicted",           "deadline-miss",
};

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kEventKindCount ? kKindNames[i] : "unknown";
}

std::optional<EventKind> event_kind_from_name(std::string_view name) {
  for (int i = 0; i < kEventKindCount; ++i) {
    if (name == kKindNames[i]) return static_cast<EventKind>(i);
  }
  return std::nullopt;
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("TraceBuffer: capacity 0");
  ring_.reserve(capacity);
}

EventId TraceBuffer::record(TraceEvent event) {
  event.id = next_id_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    // Full: overwrite the oldest slot and advance the ring start.
    ring_[start_] = event;
    start_ = (start_ + 1) % capacity_;
    ++evicted_;
  }
  if (record_hook_) record_hook_(event);
  return event.id;
}

std::size_t TraceBuffer::index_of(EventId id) const {
  // Buffered ids are the dense range [oldest, next_id_); valid physical
  // indices are always < ring_.size(), so ring_.size() works as "absent".
  const EventId oldest = next_id_ - ring_.size();
  if (id < oldest || id >= next_id_) return ring_.size();  // not buffered
  return (start_ + static_cast<std::size_t>(id - oldest)) % capacity_;
}

const TraceEvent* TraceBuffer::find(EventId id) const {
  if (id == 0) return nullptr;
  const std::size_t idx = index_of(id);
  return idx < ring_.size() ? &ring_[idx] : nullptr;
}

const TraceEvent& TraceBuffer::at(std::size_t index) const {
  if (index >= ring_.size()) throw std::out_of_range("TraceBuffer::at");
  return ring_[(start_ + index) % capacity_];
}

std::vector<TraceEvent> TraceBuffer::chain(EventId id) const {
  std::vector<TraceEvent> out;
  const TraceEvent* e = find(id);
  while (e != nullptr) {
    out.push_back(*e);
    e = e->cause == 0 ? nullptr : find(e->cause);
  }
  // Collected effect-to-cause; the caller reads root-first.
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<TraceEvent> TraceBuffer::for_container(
    std::uint32_t container) const {
  std::vector<TraceEvent> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& e = at(i);
    if (e.container == container) out.push_back(e);
  }
  return out;
}

std::optional<TraceEvent> TraceBuffer::last(EventKind kind,
                                            std::uint32_t container) const {
  for (std::size_t i = ring_.size(); i-- > 0;) {
    const TraceEvent& e = at(i);
    if (e.kind == kind && e.container == container) return e;
  }
  return std::nullopt;
}

namespace {

void append_event_jsonl(std::string& line, const TraceEvent& e) {
  line += "{\"id\":";
  line += std::to_string(e.id);
  line += ",\"t_us\":";
  line += std::to_string(e.time);
  line += ",\"kind\":\"";
  line += event_kind_name(e.kind);
  line += "\",\"container\":";
  line += std::to_string(e.container);
  line += ",\"node\":";
  line += std::to_string(e.node);
  line += ",\"before\":";
  append_double(line, e.before);
  line += ",\"after\":";
  append_double(line, e.after);
  line += ",\"cause\":";
  line += std::to_string(e.cause);
  line += ",\"detail\":";
  line += std::to_string(e.detail);
  if (e.shard != 0) {
    // Emitted only when set, so unsharded exports (and every export written
    // before the sharded control plane existed) stay byte-identical.
    line += ",\"shard\":";
    line += std::to_string(e.shard);
  }
  line += "}\n";
}

}  // namespace

void TraceBuffer::export_jsonl(std::ostream& out) const {
  std::string line;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    line.clear();
    append_event_jsonl(line, at(i));
    out << line;
  }
}

void export_merged_jsonl(const std::vector<const TraceBuffer*>& shards,
                         std::ostream& out) {
  // Collect (buffer, intra-buffer index) references and interleave by
  // (time, shard). Each buffer is already time-ordered, so a stable sort on
  // time alone preserves intra-buffer order; the shard tie-break makes the
  // cross-buffer interleaving at equal timestamps deterministic too.
  struct Ref {
    sim::TimePoint time;
    std::uint32_t shard;  // buffer index + 1
    std::size_t index;    // position within its buffer
  };
  std::vector<Ref> refs;
  std::size_t total = 0;
  for (const TraceBuffer* b : shards) total += b->size();
  refs.reserve(total);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (std::size_t i = 0; i < shards[s]->size(); ++i) {
      refs.push_back({shards[s]->at(i).time,
                      static_cast<std::uint32_t>(s + 1), i});
    }
  }
  std::stable_sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.time != b.time ? a.time < b.time : a.shard < b.shard;
  });
  // Re-assign dense ids in merge order and remap causal links within each
  // source buffer (causality never crosses shards: every shard records only
  // its own decision chains).
  std::vector<std::unordered_map<EventId, EventId>> remap(shards.size());
  std::string line;
  EventId next_id = 1;
  for (const Ref& r : refs) {
    TraceEvent e = shards[r.shard - 1]->at(r.index);
    remap[r.shard - 1][e.id] = next_id;
    e.id = next_id++;
    if (e.cause != 0) {
      const auto& m = remap[r.shard - 1];
      const auto it = m.find(e.cause);
      // Causes pointing at evicted (or not-yet-merged) events drop to 0,
      // exactly like an evicted link in a single buffer.
      e.cause = it != m.end() ? it->second : 0;
    }
    e.shard = r.shard;
    line.clear();
    append_event_jsonl(line, e);
    out << line;
  }
}

namespace {

// Extracts the raw text of `"key":<value>` from a JSONL line produced by
// export_jsonl. The format is our own flat single-line objects, so plain
// string scanning is sufficient (no nested objects or escaped strings).
std::string_view json_field(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) {
    throw std::runtime_error("trace import: missing field '" +
                             std::string(key) + "'");
  }
  std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
    if (end == std::string_view::npos) {
      throw std::runtime_error("trace import: unterminated string");
    }
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  return line.substr(begin, end - begin);
}

}  // namespace

TraceBuffer TraceBuffer::import_jsonl(std::istream& in) {
  // First pass: collect, so the buffer can be sized to hold everything.
  std::vector<TraceEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      TraceEvent e;
      e.id = std::stoull(std::string(json_field(line, "id")));
      e.time = std::stoll(std::string(json_field(line, "t_us")));
      const auto kind = event_kind_from_name(json_field(line, "kind"));
      if (!kind.has_value()) throw std::runtime_error("unknown kind");
      e.kind = *kind;
      e.container =
          static_cast<std::uint32_t>(
              std::stoul(std::string(json_field(line, "container"))));
      e.node = static_cast<std::uint32_t>(
          std::stoul(std::string(json_field(line, "node"))));
      e.before = std::stod(std::string(json_field(line, "before")));
      e.after = std::stod(std::string(json_field(line, "after")));
      e.cause = std::stoull(std::string(json_field(line, "cause")));
      e.detail = std::stoll(std::string(json_field(line, "detail")));
      // Optional: absent in unsharded exports (and all pre-shard files).
      if (line.find("\"shard\":") != std::string::npos) {
        e.shard = static_cast<std::uint32_t>(
            std::stoul(std::string(json_field(line, "shard"))));
      }
      events.push_back(e);
    } catch (const std::exception& ex) {
      throw std::runtime_error("trace import: line " + std::to_string(lineno) +
                               ": " + ex.what());
    }
  }
  TraceBuffer buf(events.empty() ? 1 : events.size());
  // A file whose ids start above 1 was exported from a ring that had
  // already evicted everything older.
  if (!events.empty() && events.front().id > 1) {
    buf.evicted_ = events.front().id - 1;
  }
  for (const TraceEvent& e : events) {
    const EventId want = e.id;
    buf.record(e);
    // Preserve the original ids so causal links keep resolving: exports are
    // dense and ordered, so forcing the counter forward is enough.
    if (buf.next_id_ - 1 != want) {
      if (want + 1 < buf.next_id_) {
        throw std::runtime_error("trace import: ids not ascending");
      }
      TraceEvent& slot =
          buf.ring_[(buf.start_ + buf.ring_.size() - 1) % buf.capacity_];
      slot.id = want;
      buf.next_id_ = want + 1;
    }
  }
  return buf;
}

}  // namespace escra::obs
