// The baseline gate shared by the benches that commit a BENCH_*.json.
//
// A bench declares its numbers once, as a table of rows. The table is the
// JSON the bench prints to stdout and writes to `--out`, and under
// `--check BASELINE.json` each row's rule is applied to the committed
// baseline:
//
//   exact    the value as `--out` prints it equals the baseline's text
//            (for modeled numbers: a seed-deterministic simulation prints
//            the same bytes on every host, so any drift is a code change);
//   floor    the value is at least (1 - kBound) x the baseline
//            (host-timed rates, where higher is better);
//   ceiling  the value is at most (1 + kBound) x the baseline (host-timed
//            costs, where lower is better); a 0 on either side marks a
//            reading the host could not take, and skips the row;
//   report   printed and written, never compared.
//
// Every bench that links the gate takes the same flags:
//
//   BENCH [--out FILE] [--check FILE] [--quick]
//
// `--check` compares only full-size runs, so it is refused with `--quick`.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace escra::gate {

// The fixed relative bound of floor and ceiling rows.
constexpr double kBound = 0.25;

enum class Rule { kExact, kFloor, kCeiling, kReport };

struct Row {
  std::string key;
  double value = 0.0;
  int decimals = 0;  // digits after the point in the printed value
  Rule rule = Rule::kReport;
};

using Table = std::vector<Row>;

inline Row exact(std::string key, double value, int decimals = 0) {
  return {std::move(key), value, decimals, Rule::kExact};
}
inline Row floor(std::string key, double value, int decimals = 0) {
  return {std::move(key), value, decimals, Rule::kFloor};
}
inline Row ceiling(std::string key, double value, int decimals = 0) {
  return {std::move(key), value, decimals, Rule::kCeiling};
}
inline Row report(std::string key, double value, int decimals = 0) {
  return {std::move(key), value, decimals, Rule::kReport};
}

struct Flags {
  std::string out;    // --out FILE
  std::string check;  // --check FILE
  bool quick = false;
  bool own_switch = false;  // set when parse_flags names one and it is given
};

// Parses the shared flags, plus `own_switch` (e.g. "--rss-check") when the
// bench has one. An unknown flag, a flag missing its value, or `--check`
// with `--quick` prints the usage and exits 2.
Flags parse_flags(int argc, char** argv, const char* bench,
                  const char* own_switch = nullptr);

// The bench's JSON: `"bench"`, then one member per row in table order, then
// `extra` (already formatted members, e.g. an array) when it is not empty.
std::string to_json(const char* bench, const Table& table,
                    const std::string& extra = "");

// Applies each row's rule to `baseline`, the text of a committed JSON file.
// Returns one message per failing row (a missing key and a value that is
// not a number fail too); empty when every row holds.
std::vector<std::string> compare(const Table& table,
                                 const std::string& baseline);

// Prints the JSON to stdout, writes it to `--out`, and under `--check`
// compares the table with the baseline. Returns 0, or 1 when the output
// cannot be written, the baseline cannot be read, or a row fails its rule.
int publish(const char* bench, const Table& table, const Flags& flags,
            const std::string& extra = "");

}  // namespace escra::gate
