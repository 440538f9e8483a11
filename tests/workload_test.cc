#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "workload/arrivals.h"
#include "workload/load_generator.h"

namespace escra::workload {
namespace {

using sim::milliseconds;
using sim::seconds;

// Counts arrivals from a process over a window.
std::size_t count_arrivals(ArrivalProcess& p, sim::TimePoint from,
                           sim::TimePoint until) {
  std::size_t n = 0;
  sim::TimePoint t = from;
  while (true) {
    t += p.next_gap(t);
    if (t >= until) break;
    ++n;
  }
  return n;
}

TEST(FixedArrivalsTest, ExactRate) {
  FixedArrivals p(400.0);
  EXPECT_EQ(p.next_gap(0), sim::kSecond / 400);
  EXPECT_EQ(count_arrivals(p, 0, seconds(10)), 4000u - 1);
}

TEST(FixedArrivalsTest, InvalidRateThrows) {
  EXPECT_THROW(FixedArrivals(0.0), std::invalid_argument);
  EXPECT_THROW(FixedArrivals(-5.0), std::invalid_argument);
}

TEST(ExpArrivalsTest, MeanRateMatchesLambda) {
  ExpArrivals p(300.0, sim::Rng(1));
  const auto n = count_arrivals(p, 0, seconds(30));
  // 9000 expected; Poisson sd ~ 95.
  EXPECT_NEAR(static_cast<double>(n), 9000.0, 400.0);
}

TEST(ExpArrivalsTest, GapsAreVariable) {
  ExpArrivals p(100.0, sim::Rng(2));
  sim::Duration first = p.next_gap(0);
  bool varied = false;
  for (int i = 0; i < 50; ++i) {
    if (p.next_gap(0) != first) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(BurstArrivalsTest, BaseRateOutsideBursts) {
  BurstArrivals p(sim::Rng(3));
  // Bursts start after the first 20 s interval; [0, 20) is base-rate only.
  const auto n = count_arrivals(p, 0, seconds(19));
  EXPECT_NEAR(static_cast<double>(n), 19.0 * 50.0, 200.0);
}

TEST(BurstArrivalsTest, BurstWindowRunsHot) {
  BurstArrivals p(sim::Rng(4));
  // [20 s, 30 s) is the first burst: base 50 + lambda 600.
  const auto n = count_arrivals(p, seconds(20), seconds(30));
  EXPECT_NEAR(static_cast<double>(n), 6500.0, 500.0);
}

TEST(BurstArrivalsTest, BurstsRepeatEveryInterval) {
  BurstArrivals p(sim::Rng(5));
  const auto burst1 = count_arrivals(p, seconds(20), seconds(30));
  const auto quiet = count_arrivals(p, seconds(30), seconds(40));
  const auto burst2 = count_arrivals(p, seconds(40), seconds(50));
  EXPECT_GT(burst1, quiet * 5);
  EXPECT_GT(burst2, quiet * 5);
}

TEST(TraceArrivalsTest, FollowsPerSecondRates) {
  TraceArrivals p({100.0, 500.0}, sim::Rng(6));
  const auto slow = count_arrivals(p, 0, sim::kSecond - 1);
  const auto fast = count_arrivals(p, sim::kSecond, 2 * sim::kSecond - 1);
  EXPECT_NEAR(static_cast<double>(slow), 100.0, 50.0);
  EXPECT_NEAR(static_cast<double>(fast), 500.0, 120.0);
}

TEST(TraceArrivalsTest, WrapsAround) {
  TraceArrivals p({100.0, 500.0}, sim::Rng(7));
  const auto wrapped = count_arrivals(p, seconds(2), seconds(3) - 1);
  EXPECT_NEAR(static_cast<double>(wrapped), 100.0, 50.0);
}

TEST(TraceArrivalsTest, RejectsBadTraces) {
  EXPECT_THROW(TraceArrivals({}, sim::Rng(1)), std::invalid_argument);
  EXPECT_THROW(TraceArrivals({10.0, 0.0}, sim::Rng(1)), std::invalid_argument);
}

TEST(AlibabaTraceTest, StaysInPublishedEnvelope) {
  sim::Rng rng(8);
  const auto rates = make_alibaba_rates(600, rng);
  ASSERT_EQ(rates.size(), 600u);
  for (const double r : rates) {
    EXPECT_GE(r, 56.0);
    EXPECT_LE(r, 548.0);
  }
  // The trace swings: it must visit both the bottom and top third.
  const double lo = *std::min_element(rates.begin(), rates.end());
  const double hi = *std::max_element(rates.begin(), rates.end());
  EXPECT_LT(lo, 150.0);
  EXPECT_GT(hi, 450.0);
}

TEST(AlibabaTraceTest, DeterministicForSeed) {
  sim::Rng a(42), b(42);
  EXPECT_EQ(make_alibaba_rates(100, a), make_alibaba_rates(100, b));
}

TEST(RateTraceFileTest, RoundTrips) {
  sim::Rng rng(10);
  const auto rates = make_alibaba_rates(50, rng);
  const std::string path = ::testing::TempDir() + "/trace.txt";
  save_rate_trace(path, rates);
  const auto loaded = load_rate_trace(path);
  ASSERT_EQ(loaded.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_NEAR(loaded[i], rates[i], 1e-4);
  }
  // The loaded series drives TraceArrivals directly.
  TraceArrivals p(loaded, sim::Rng(11));
  EXPECT_GT(p.next_gap(0), 0);
}

TEST(RateTraceFileTest, IgnoresCommentsAndBlanks) {
  const std::string path = ::testing::TempDir() + "/commented.txt";
  {
    std::ofstream out(path);
    out << "# header\n\n100\n  200  # inline\n\n300\n";
  }
  const auto rates = load_rate_trace(path);
  EXPECT_EQ(rates, (std::vector<double>{100.0, 200.0, 300.0}));
}

TEST(RateTraceFileTest, RejectsBadFiles) {
  EXPECT_THROW(load_rate_trace("/no/such/trace.txt"), std::runtime_error);
  const std::string path = ::testing::TempDir() + "/bad.txt";
  {
    std::ofstream out(path);
    out << "12\nnot-a-number\n";
  }
  EXPECT_THROW(load_rate_trace(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "0\n";
  }
  EXPECT_THROW(load_rate_trace(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "# only comments\n";
  }
  EXPECT_THROW(load_rate_trace(path), std::runtime_error);
}

TEST(WorkloadFactoryTest, ProducesAllKinds) {
  sim::Rng rng(9);
  for (const auto kind :
       {WorkloadKind::kFixed, WorkloadKind::kExp, WorkloadKind::kBurst,
        WorkloadKind::kAlibaba}) {
    const auto p = make_workload(kind, rng.fork());
    ASSERT_NE(p, nullptr);
  }
  EXPECT_STREQ(workload_name(WorkloadKind::kFixed), "fixed");
  EXPECT_STREQ(workload_name(WorkloadKind::kAlibaba), "alibaba");
}

// -------------------------------------------------------------- LoadGenerator

TEST(LoadGeneratorTest, IssuesAtConfiguredRate) {
  sim::Simulation sim;
  std::size_t launched = 0;
  LoadGenerator gen(sim, std::make_unique<FixedArrivals>(100.0),
                    [&](LoadGenerator::Done done) {
                      ++launched;
                      done(true);
                    });
  gen.run(0, seconds(10));
  sim.run_until(seconds(11));
  EXPECT_NEAR(static_cast<double>(launched), 1000.0, 2.0);
  EXPECT_EQ(gen.succeeded(), launched);
  EXPECT_NEAR(gen.throughput_rps(), 100.0, 1.0);
}

TEST(LoadGeneratorTest, LatencyMeasuredFromIntendedStart) {
  sim::Simulation sim;
  LoadGenerator gen(sim, std::make_unique<FixedArrivals>(10.0),
                    [&](LoadGenerator::Done done) {
                      sim.schedule_after(milliseconds(25),
                                         [d = std::move(done)] { d(true); });
                    });
  gen.run(0, seconds(2));
  sim.run_until(seconds(3));
  EXPECT_NEAR(static_cast<double>(gen.latency().percentile(50)),
              25000.0, 600.0);
}

TEST(LoadGeneratorTest, FailuresCountedSeparately) {
  sim::Simulation sim;
  int i = 0;
  LoadGenerator gen(sim, std::make_unique<FixedArrivals>(10.0),
                    [&](LoadGenerator::Done done) { done(++i % 2 == 0); });
  gen.run(0, seconds(1));
  sim.run_until(seconds(2));
  EXPECT_EQ(gen.succeeded(), gen.failed());
  EXPECT_EQ(gen.latency().count(), gen.succeeded());
}

TEST(LoadGeneratorTest, TimeoutCountsAsFailure) {
  sim::Simulation sim;
  LoadGenerator gen(
      sim, std::make_unique<FixedArrivals>(10.0),
      [&](LoadGenerator::Done done) {
        sim.schedule_after(seconds(10), [d = std::move(done)] { d(true); });
      },
      /*timeout=*/seconds(4));
  gen.run(0, seconds(1));
  sim.run_until(seconds(20));
  EXPECT_EQ(gen.succeeded(), 0u);
  EXPECT_GT(gen.timed_out(), 0u);
  EXPECT_EQ(gen.failed(), gen.timed_out());
}

TEST(LoadGeneratorTest, ResetMeasurementsTrimsWarmup) {
  sim::Simulation sim;
  LoadGenerator gen(sim, std::make_unique<FixedArrivals>(100.0),
                    [](LoadGenerator::Done done) { done(true); });
  gen.run(0, seconds(10));
  sim.schedule_at(seconds(5), [&] { gen.reset_measurements(); });
  sim.run_until(seconds(11));
  EXPECT_NEAR(static_cast<double>(gen.succeeded()), 500.0, 3.0);
  EXPECT_NEAR(gen.throughput_rps(), 100.0, 1.5);
}

TEST(LoadGeneratorTest, StopCeasesIssuing) {
  sim::Simulation sim;
  std::size_t launched = 0;
  LoadGenerator gen(sim, std::make_unique<FixedArrivals>(100.0),
                    [&](LoadGenerator::Done done) {
                      ++launched;
                      done(true);
                    });
  gen.run(0, seconds(10));
  sim.schedule_at(seconds(1), [&] { gen.stop(); });
  sim.run_until(seconds(10));
  EXPECT_NEAR(static_cast<double>(launched), 100.0, 2.0);
}

TEST(LoadGeneratorTest, InvalidConstructionThrows) {
  sim::Simulation sim;
  EXPECT_THROW(LoadGenerator(sim, nullptr, [](LoadGenerator::Done) {}),
               std::invalid_argument);
  EXPECT_THROW(
      LoadGenerator(sim, std::make_unique<FixedArrivals>(1.0), nullptr),
      std::invalid_argument);
  LoadGenerator ok(sim, std::make_unique<FixedArrivals>(1.0),
                   [](LoadGenerator::Done) {});
  EXPECT_THROW(ok.run(seconds(2), seconds(1)), std::invalid_argument);
}

}  // namespace
}  // namespace escra::workload
