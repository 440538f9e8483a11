// Minimal YAML-subset parser (no external dependencies).
//
// The Application Deployer "takes a set of YAML files describing a set of
// Kubernetes deployments, services, and containers" (Section III). This
// parser covers the subset those configuration files need:
//
//   * block mappings        key: value  /  key: <indented block>
//   * block sequences       - value  /  - key: value <indented siblings>
//   * scalars               strings, integers, floats, booleans
//   * comments (#) and blank lines
//
// It does not implement anchors, flow style, multi-line scalars, or tags —
// config files using those are rejected with a ParseError naming the line.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace escra::config {

class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& message)
      : std::runtime_error("yaml:" + std::to_string(line) + ": " + message),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

class YamlNode {
 public:
  enum class Kind { kScalar, kMap, kList };

  // Parses a complete document. Throws ParseError on malformed input.
  static YamlNode parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_map() const { return kind_ == Kind::kMap; }
  bool is_list() const { return kind_ == Kind::kList; }

  // --- map access ---
  // Child by key; throws if not a map or the key is missing.
  const YamlNode& at(const std::string& key) const;
  // Child by key or nullptr.
  const YamlNode* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  // Map entries in document order.
  const std::vector<std::pair<std::string, YamlNode>>& entries() const;

  // --- list access ---
  const YamlNode& operator[](std::size_t index) const;
  std::size_t size() const;

  // --- scalar access (throws on kind/format mismatch) ---
  const std::string& as_string() const;
  double as_double() const;
  std::int64_t as_int() const;
  bool as_bool() const;

  // Typed lookups with defaults for optional keys.
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;

 private:
  friend class Parser;
  Kind kind_ = Kind::kScalar;
  std::string scalar_;
  std::vector<std::pair<std::string, YamlNode>> map_;
  std::vector<YamlNode> list_;
};

// Reads and parses a file; throws std::runtime_error if unreadable.
YamlNode load_yaml_file(const std::string& path);

}  // namespace escra::config
