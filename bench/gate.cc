#include "gate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

namespace escra::gate {

namespace {

[[noreturn]] void usage_exit(const char* bench, const char* own_switch,
                             const std::string& error) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s [--out FILE] [--check FILE] [--quick]%s%s%s\n",
               bench, error.c_str(), bench, own_switch ? " [" : "",
               own_switch ? own_switch : "", own_switch ? "]" : "");
  std::exit(2);
}

// The value as `--out` prints it.
std::string format(double value, int decimals) {
  const int n = std::snprintf(nullptr, 0, "%.*f", decimals, value);
  std::string text(static_cast<std::size_t>(n), '\0');
  std::snprintf(text.data(), text.size() + 1, "%.*f", decimals, value);
  return text;
}

// The text of `key`'s value in `json`, without surrounding spaces: what
// follows `"key":` up to the next ',', '}' or line end. The baselines are
// this module's own flat output, so no fuller JSON reader is needed.
std::optional<std::string> value_text(const std::string& json,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t begin = pos + needle.size();
  std::size_t end = json.find_first_of(",}\n", begin);
  if (end == std::string::npos) end = json.size();
  while (begin < end && json[begin] == ' ') ++begin;
  while (end > begin && json[end - 1] == ' ') --end;
  return json.substr(begin, end - begin);
}

}  // namespace

Flags parse_flags(int argc, char** argv, const char* bench,
                  const char* own_switch) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--out" || flag == "--check") {
      if (i + 1 >= argc) usage_exit(bench, own_switch, flag + " needs a value");
      (flag == "--out" ? flags.out : flags.check) = argv[++i];
    } else if (flag == "--quick") {
      flags.quick = true;
    } else if (own_switch != nullptr && flag == own_switch) {
      flags.own_switch = true;
    } else {
      usage_exit(bench, own_switch, "unknown flag " + flag);
    }
  }
  if (flags.quick && !flags.check.empty()) {
    usage_exit(bench, own_switch,
               "--check compares a full-size run; it cannot take --quick");
  }
  return flags;
}

std::string to_json(const char* bench, const Table& table,
                    const std::string& extra) {
  std::string json = std::string("{\n  \"bench\": \"") + bench + "\"";
  for (const Row& row : table) {
    json += ",\n  \"" + row.key + "\": " + format(row.value, row.decimals);
  }
  if (!extra.empty()) json += ",\n" + extra;
  return json + "\n}\n";
}

std::vector<std::string> compare(const Table& table,
                                 const std::string& baseline) {
  const std::string percent = format(kBound * 100.0, 0) + "%";
  std::vector<std::string> failures;
  for (const Row& row : table) {
    if (row.rule == Rule::kReport) continue;
    const std::optional<std::string> text = value_text(baseline, row.key);
    if (!text.has_value()) {
      failures.push_back(row.key + " is missing from the baseline");
      continue;
    }
    char* end = nullptr;
    const double base = std::strtod(text->c_str(), &end);
    if (text->empty() || *end != '\0' || !std::isfinite(base)) {
      failures.push_back(row.key + " has no number in the baseline ('" +
                         *text + "')");
      continue;
    }
    const std::string fresh = format(row.value, row.decimals);
    if (row.rule == Rule::kExact && fresh != *text) {
      failures.push_back(row.key + " is " + fresh + ", baseline " + *text +
                         " (exact)");
    } else if (row.rule == Rule::kFloor &&
               row.value < base * (1.0 - kBound)) {
      failures.push_back(row.key + " " + fresh + " is below " +
                         format(base * (1.0 - kBound), row.decimals) +
                         " (baseline " + *text + " minus " + percent + ")");
    } else if (row.rule == Rule::kCeiling && row.value > 0.0 && base > 0.0 &&
               row.value > base * (1.0 + kBound)) {
      failures.push_back(row.key + " " + fresh + " is above " +
                         format(base * (1.0 + kBound), row.decimals) +
                         " (baseline " + *text + " plus " + percent + ")");
    }
  }
  return failures;
}

int publish(const char* bench, const Table& table, const Flags& flags,
            const std::string& extra) {
  const std::string json = to_json(bench, table, extra);
  std::fputs(json.c_str(), stdout);
  if (!flags.out.empty()) {
    std::ofstream out(flags.out);
    out << json;
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", bench, flags.out.c_str());
      return 1;
    }
  }
  if (flags.check.empty()) return 0;

  std::ifstream in(flags.check);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read baseline %s\n", bench,
                 flags.check.c_str());
    return 1;
  }
  std::stringstream baseline;
  baseline << in.rdbuf();
  const std::vector<std::string> failures = compare(table, baseline.str());
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "%s: %s: %s\n", bench, flags.check.c_str(),
                 failure.c_str());
  }
  if (!failures.empty()) return 1;
  const auto rows = [&table](Rule rule) {
    return std::count_if(table.begin(), table.end(),
                         [rule](const Row& row) { return row.rule == rule; });
  };
  std::printf("%s: ok — %s holds: %td exact, %td floor, %td ceiling row(s)\n",
              bench, flags.check.c_str(), rows(Rule::kExact),
              rows(Rule::kFloor), rows(Rule::kCeiling));
  return 0;
}

}  // namespace escra::gate
