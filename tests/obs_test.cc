// Unit tests for the control-plane observability subsystem (src/obs):
// metrics registry semantics (including strict duplicate-name rejection),
// trace ring-buffer eviction, causal-chain queries, deterministic JSONL
// export/import, and the loop profiler.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace escra::obs {
namespace {

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, CountersAndGaugesRegisterAndUpdate) {
  MetricsRegistry reg;
  Counter& c = reg.counter("requests");
  Gauge& g = reg.gauge("pool");

  c.inc();
  c.inc(4);
  g.set(2.5);
  g.add(-0.5);

  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.has("requests"));
  EXPECT_EQ(reg.find_counter("requests"), &c);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_counter("pool"), nullptr);  // wrong kind
}

TEST(MetricsRegistryTest, DuplicateNameThrowsAcrossAllKinds) {
  // Strict registration: re-registering must throw, not hand back a second
  // metric that silently splits the first one's updates.
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.counter("x"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  reg.gauge("y");
  EXPECT_THROW(reg.counter("y"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("y"), std::invalid_argument);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, SnapshotCapturesNameOrderedValues) {
  MetricsRegistry reg;
  reg.counter("b.count").inc(7);
  reg.gauge("a.gauge").set(1.5);
  reg.gauge("c.gauge").set(-2.0);

  const MetricsSnapshot snap = reg.snapshot(sim::seconds(3));
  EXPECT_EQ(snap.time, sim::seconds(3));
  ASSERT_EQ(snap.values.size(), 3u);
  // Name order regardless of kind or registration order.
  EXPECT_EQ(snap.values[0].first, "a.gauge");
  EXPECT_DOUBLE_EQ(snap.values[0].second, 1.5);
  EXPECT_EQ(snap.values[1].first, "b.count");
  EXPECT_DOUBLE_EQ(snap.values[1].second, 7.0);
  EXPECT_EQ(snap.values[2].first, "c.gauge");
  EXPECT_DOUBLE_EQ(snap.values[2].second, -2.0);
}

TEST(MetricsRegistryTest, SnapshotIsPointInTime) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.inc(2);
  reg.capture(sim::seconds(1));
  c.inc(3);
  reg.capture(sim::seconds(2));

  ASSERT_EQ(reg.snapshots().size(), 2u);
  EXPECT_DOUBLE_EQ(reg.snapshots()[0].values[0].second, 2.0);
  EXPECT_DOUBLE_EQ(reg.snapshots()[1].values[0].second, 5.0);
}

TEST(MetricsRegistryTest, PeriodicSnapshotsFollowTheSimClock) {
  sim::Simulation sim;
  MetricsRegistry reg;
  Counter& c = reg.counter("ticks");
  reg.start_periodic_snapshots(sim, sim::seconds(1));
  sim.schedule_every(sim::milliseconds(400), sim::milliseconds(400),
                     [&c] { c.inc(); });
  sim.run_until(sim::milliseconds(3500));

  ASSERT_EQ(reg.snapshots().size(), 3u);
  EXPECT_EQ(reg.snapshots()[0].time, sim::seconds(1));
  EXPECT_EQ(reg.snapshots()[2].time, sim::seconds(3));
  // 400ms ticks: 2 by t=1s, 7 by t=3s (t=2800 is the 7th).
  EXPECT_DOUBLE_EQ(reg.snapshots()[0].values[0].second, 2.0);
  EXPECT_DOUBLE_EQ(reg.snapshots()[2].values[0].second, 7.0);
  EXPECT_THROW(reg.start_periodic_snapshots(sim, sim::seconds(1)),
               std::logic_error);
}

TEST(MetricsRegistryTest, CsvExportsSnapshotSeries) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a");
  reg.gauge("b").set(0.5);
  c.inc();
  reg.capture(sim::seconds(1));
  c.inc();
  reg.capture(sim::seconds(2));

  std::ostringstream out;
  reg.export_csv(out, sim::seconds(2));
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time_s,a,b"), std::string::npos);
  EXPECT_NE(csv.find("1.000000,1,0.5"), std::string::npos);
  EXPECT_NE(csv.find("2.000000,2,0.5"), std::string::npos);
}

// --- TraceBuffer ---

TraceEvent make_event(EventKind kind, std::uint32_t container,
                      sim::TimePoint t, EventId cause = 0) {
  TraceEvent ev;
  ev.time = t;
  ev.kind = kind;
  ev.container = container;
  ev.cause = cause;
  return ev;
}

TEST(TraceBufferTest, AssignsDenseIdsAndFindsById) {
  TraceBuffer trace(8);
  const EventId a =
      trace.record(make_event(EventKind::kThrottleObserved, 1, 100));
  const EventId b = trace.record(make_event(EventKind::kCpuGrant, 1, 100, a));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_NE(trace.find(a), nullptr);
  EXPECT_EQ(trace.find(a)->kind, EventKind::kThrottleObserved);
  EXPECT_EQ(trace.find(b)->cause, a);
  EXPECT_EQ(trace.find(99), nullptr);
  EXPECT_EQ(trace.find(0), nullptr);
}

TEST(TraceBufferTest, EvictsOldestAtCapacityAndNeverReusesIds) {
  TraceBuffer trace(4);
  for (std::uint32_t i = 1; i <= 10; ++i) {
    trace.record(make_event(EventKind::kCpuGrant, i, i * 10));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.recorded(), 10u);
  EXPECT_EQ(trace.evicted(), 6u);
  // Events 1..6 are gone; 7..10 remain, oldest first.
  EXPECT_EQ(trace.find(6), nullptr);
  ASSERT_NE(trace.find(7), nullptr);
  EXPECT_EQ(trace.at(0).id, 7u);
  EXPECT_EQ(trace.at(3).id, 10u);
}

TEST(TraceBufferTest, ChainWalksCausesRootFirst) {
  TraceBuffer trace(16);
  const EventId t =
      trace.record(make_event(EventKind::kThrottleObserved, 3, 100));
  const EventId g = trace.record(make_event(EventKind::kCpuGrant, 3, 100, t));
  const EventId r = trace.record(make_event(EventKind::kRpcIssued, 3, 100, g));
  const EventId a = trace.record(make_event(EventKind::kRpcApplied, 3, 250, r));

  const auto chain = trace.chain(a);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0].id, t);
  EXPECT_EQ(chain[1].id, g);
  EXPECT_EQ(chain[2].id, r);
  EXPECT_EQ(chain[3].id, a);
  // Chain ending at an evicted/unknown id is empty.
  EXPECT_TRUE(trace.chain(99).empty());
}

TEST(TraceBufferTest, ChainStopsAtEvictedCause) {
  TraceBuffer trace(2);
  const EventId a = trace.record(make_event(EventKind::kThrottleObserved, 1, 1));
  const EventId b = trace.record(make_event(EventKind::kCpuGrant, 1, 2, a));
  const EventId c = trace.record(make_event(EventKind::kRpcIssued, 1, 3, b));
  // `a` evicted by now; the chain covers what the ring still holds.
  ASSERT_EQ(trace.find(a), nullptr);
  const auto chain = trace.chain(c);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].id, b);
  EXPECT_EQ(chain[1].id, c);
}

TEST(TraceBufferTest, ContainerTimelineAndLastQuery) {
  TraceBuffer trace(16);
  trace.record(make_event(EventKind::kCpuGrant, 1, 10));
  trace.record(make_event(EventKind::kCpuGrant, 2, 20));
  trace.record(make_event(EventKind::kCpuShrink, 1, 30));

  const auto timeline = trace.for_container(1);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].kind, EventKind::kCpuGrant);
  EXPECT_EQ(timeline[1].kind, EventKind::kCpuShrink);

  const auto last = trace.last(EventKind::kCpuGrant, 2);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->time, 20);
  EXPECT_FALSE(trace.last(EventKind::kReclaim, 1).has_value());
}

TEST(TraceBufferTest, KindNamesRoundTrip) {
  for (int i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    const auto parsed = event_kind_from_name(event_kind_name(kind));
    ASSERT_TRUE(parsed.has_value()) << event_kind_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(event_kind_from_name("bogus").has_value());
}

TEST(TraceBufferTest, JsonlExportIsDeterministicAndRoundTrips) {
  const auto build = [] {
    TraceBuffer trace(8);
    TraceEvent ev = make_event(EventKind::kThrottleObserved, 4, 100);
    ev.node = 2;
    ev.before = 0.30000000000000004;  // exercises %.17g round-tripping
    ev.after = 0.30000000000000004;
    ev.detail = 12345;
    const EventId t = trace.record(ev);
    TraceEvent grant = make_event(EventKind::kCpuGrant, 4, 100, t);
    grant.before = 0.3;
    grant.after = 0.6;
    trace.record(grant);
    return trace;
  };

  std::ostringstream out1, out2;
  build().export_jsonl(out1);
  build().export_jsonl(out2);
  EXPECT_EQ(out1.str(), out2.str());  // identical runs, identical bytes

  std::istringstream in(out1.str());
  const TraceBuffer parsed = TraceBuffer::import_jsonl(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.at(0).id, 1u);
  EXPECT_EQ(parsed.at(0).kind, EventKind::kThrottleObserved);
  EXPECT_EQ(parsed.at(0).node, 2u);
  EXPECT_DOUBLE_EQ(parsed.at(0).before, 0.30000000000000004);
  EXPECT_EQ(parsed.at(0).detail, 12345);
  EXPECT_EQ(parsed.at(1).cause, 1u);

  // Re-exporting the parsed buffer reproduces the file byte for byte.
  std::ostringstream out3;
  parsed.export_jsonl(out3);
  EXPECT_EQ(out3.str(), out1.str());
}

TEST(TraceBufferTest, ImportCountsEventsEvictedBeforeTheExport) {
  // Exported from a ring that had already evicted ids 1..4: the import must
  // report them as evicted, not pretend the trace starts complete.
  TraceBuffer ring(3);
  EventId last = 0;
  for (std::uint32_t i = 1; i <= 7; ++i) {
    last = ring.record(make_event(EventKind::kCpuGrant, 1, i * 10, last));
  }
  ASSERT_EQ(ring.evicted(), 4u);
  std::ostringstream out;
  ring.export_jsonl(out);

  std::istringstream in(out.str());
  const TraceBuffer parsed = TraceBuffer::import_jsonl(in);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.at(0).id, 5u);
  EXPECT_EQ(parsed.recorded(), 7u);
  EXPECT_EQ(parsed.evicted(), 4u);
  // The chain still stops at the evicted cause, with #5 as its oldest hop.
  const auto chain = parsed.chain(7);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain.front().id, 5u);
  EXPECT_EQ(chain.front().cause, 4u);
}

TEST(TraceBufferTest, ImportRejectsMalformedLines) {
  std::istringstream in("not json at all\n");
  EXPECT_THROW(TraceBuffer::import_jsonl(in), std::runtime_error);
}

// --- LoopProfiler ---

TEST(LoopProfilerTest, RecordLoopSplitsStages) {
  LoopProfiler prof;
  // fire=0, ingest=80us, decide=80us, apply=230us.
  prof.record_loop(0, 80, 80, 230);
  prof.record_loop(sim::seconds(1), sim::seconds(1) + 80, sim::seconds(1) + 80,
                   sim::seconds(1) + 230);

  EXPECT_EQ(prof.loops_completed(), 2u);
  EXPECT_DOUBLE_EQ(prof.stat(LoopStage::kFireToIngest).mean(), 80.0);
  EXPECT_DOUBLE_EQ(prof.stat(LoopStage::kIngestToDecide).mean(), 0.0);
  EXPECT_DOUBLE_EQ(prof.stat(LoopStage::kDecideToApply).mean(), 150.0);
  EXPECT_DOUBLE_EQ(prof.stat(LoopStage::kEndToEnd).mean(), 230.0);
  EXPECT_EQ(prof.histogram(LoopStage::kEndToEnd).count(), 2u);
}

TEST(LoopProfilerTest, RejectsNegativeLatencyAndRendersTable) {
  LoopProfiler prof;
  EXPECT_THROW(prof.record(LoopStage::kEndToEnd, -1), std::invalid_argument);
  prof.record_loop(0, 100, 100, 300);
  const std::string table = prof.table();
  EXPECT_NE(table.find("fire->ingest"), std::string::npos);
  EXPECT_NE(table.find("end-to-end"), std::string::npos);
}

// --- Observer ---

TEST(ObserverTest, PreRegistersAllHandles) {
  Observer observer;
  EXPECT_NE(observer.h.stats_ingested, nullptr);
  EXPECT_NE(observer.h.containers_active, nullptr);
  EXPECT_NE(observer.h.pool_cpu_unallocated, nullptr);
  EXPECT_NE(observer.h.agent_limit_applies, nullptr);
  EXPECT_EQ(observer.metrics().find_counter("controller.stats_ingested"),
            observer.h.stats_ingested);
  // The handle names are claimed: user registration of the same name throws.
  EXPECT_THROW(observer.metrics().counter("allocator.cpu_grants"),
               std::invalid_argument);
  // record() forwards to the trace buffer.
  TraceEvent ev;
  ev.kind = EventKind::kReclaim;
  EXPECT_EQ(observer.record(ev), 1u);
  EXPECT_EQ(observer.trace().size(), 1u);
}

}  // namespace
}  // namespace escra::obs
