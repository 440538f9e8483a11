// The baseline gate shared by the benches with a committed BENCH_*.json
// (bench/gate.h): each rule against in-memory baselines, the JSON it
// prints, and the shared flags.

#include "gate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace escra::gate {
namespace {

bool mentions(const std::vector<std::string>& failures, const char* text) {
  return failures.size() == 1 &&
         failures.front().find(text) != std::string::npos;
}

TEST(GateTest, ExactRowPassesOnEqualTextAndFailsNamingTheKey) {
  const Table table = {exact("escra_bw_grants", 291)};
  EXPECT_TRUE(compare(table, "{\n  \"escra_bw_grants\": 291\n}\n").empty());
  EXPECT_TRUE(mentions(compare(table, "{\n  \"escra_bw_grants\": 297\n}\n"),
                       "escra_bw_grants"));
}

TEST(GateTest, ExactRowComparesTheValueAsPrinted) {
  const Table table = {exact("rt_utilization", 0.99996, 4)};
  EXPECT_TRUE(compare(table, R"({"rt_utilization": 1.0000})").empty());
  EXPECT_EQ(compare(table, R"({"rt_utilization": 1})").size(), 1u);
}

TEST(GateTest, KeysMatchWhole) {
  const Table table = {exact("e2e_events", 5)};
  EXPECT_TRUE(
      compare(table, R"({"e2e_scale_events": 9, "e2e_events": 5})").empty());
}

TEST(GateTest, FloorHoldsDownTo25PercentBelowTheBaseline) {
  const std::string baseline = R"({"e2e_eps": 1000})";
  EXPECT_TRUE(compare({floor("e2e_eps", 760.0)}, baseline).empty());
  EXPECT_TRUE(compare({floor("e2e_eps", 5000.0)}, baseline).empty());
  EXPECT_TRUE(mentions(compare({floor("e2e_eps", 740.0)}, baseline),
                       "e2e_eps 740 is below 750"));
}

TEST(GateTest, CeilingHoldsUpTo25PercentAboveTheBaseline) {
  const std::string baseline = R"({"decision_ns_1": 100.0})";
  EXPECT_TRUE(compare({ceiling("decision_ns_1", 124.0, 1)}, baseline).empty());
  EXPECT_TRUE(compare({ceiling("decision_ns_1", 10.0, 1)}, baseline).empty());
  EXPECT_TRUE(mentions(compare({ceiling("decision_ns_1", 126.0, 1)}, baseline),
                       "decision_ns_1 126.0 is above 125.0"));
}

TEST(GateTest, CeilingSkipsAZeroOnEitherSide) {
  EXPECT_TRUE(compare({ceiling("rss_mib", 0.0, 1)}, R"({"rss_mib": 3.2})")
                  .empty());
  EXPECT_TRUE(compare({ceiling("rss_mib", 9.0, 1)}, R"({"rss_mib": 0.0})")
                  .empty());
}

TEST(GateTest, MissingKeyFails) {
  EXPECT_TRUE(mentions(compare({floor("register_per_s", 1.0)},
                               R"({"stats_per_s": 1})"),
                       "register_per_s is missing"));
}

TEST(GateTest, UnparsableValueFails) {
  // strtod reads "fast" as 0.0, which every floor would pass.
  EXPECT_TRUE(mentions(compare({floor("register_per_s", 1.0)},
                               R"({"register_per_s": fast})"),
                       "register_per_s has no number"));
  EXPECT_TRUE(mentions(compare({ceiling("decision_ns_1", 1.0, 1)},
                               R"({"decision_ns_1": 12x})"),
                       "decision_ns_1 has no number"));
  EXPECT_EQ(compare({exact("rt_misses", 0)}, R"({"rt_misses": })").size(), 1u);
}

TEST(GateTest, ReportRowsAreNotCompared) {
  EXPECT_TRUE(compare({report("schedule_ns", 80.0, 1)}, "{}").empty());
}

TEST(GateTest, JsonListsTheRowsInTableOrderThenTheExtraMembers) {
  const Table table = {exact("containers", 100000),
                       report("sweep_flatness", 0.85, 3)};
  EXPECT_EQ(to_json("shard_scale", table, "  \"points\": [\n  ]"),
            "{\n"
            "  \"bench\": \"shard_scale\",\n"
            "  \"containers\": 100000,\n"
            "  \"sweep_flatness\": 0.850,\n"
            "  \"points\": [\n"
            "  ]\n"
            "}\n");
}

Flags parse(std::vector<std::string> args, const char* own_switch = nullptr) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_flags(static_cast<int>(argv.size()), argv.data(), "bench",
                     own_switch);
}

TEST(GateTest, ParsesTheSharedFlagsAndTheBenchsOwnSwitch) {
  const Flags flags = parse({"--out", "o.json", "--check", "b.json"});
  EXPECT_EQ(flags.out, "o.json");
  EXPECT_EQ(flags.check, "b.json");
  EXPECT_FALSE(flags.quick);
  EXPECT_TRUE(parse({"--quick", "--rss-check"}, "--rss-check").own_switch);
}

TEST(GateDeathTest, CheckWithQuickExits2) {
  EXPECT_EXIT(parse({"--check", "b.json", "--quick"}),
              ::testing::ExitedWithCode(2), "cannot take --quick");
}

TEST(GateDeathTest, UnknownFlagOrMissingValueExits2) {
  EXPECT_EXIT(parse({"--tolerance", "0.25"}), ::testing::ExitedWithCode(2),
              "unknown flag --tolerance");
  EXPECT_EXIT(parse({"--rss-check"}), ::testing::ExitedWithCode(2),
              "unknown flag --rss-check");
  EXPECT_EXIT(parse({"--out"}), ::testing::ExitedWithCode(2),
              "--out needs a value");
}

}  // namespace
}  // namespace escra::gate
