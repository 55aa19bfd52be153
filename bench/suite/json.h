// Minimal JSON reader for `monarch_suite compare`: it loads BENCHMARK.json
// and the per-run result files the suite itself writes. Numbers are
// doubles, objects keep their key order, and \u escapes outside ASCII are
// rejected (the suite never writes them).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace suite {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member `key` of an object, or null when absent / not an object.
  [[nodiscard]] const Json* Find(std::string_view key) const;
};

/// Parse a whole document; on failure returns nullopt and sets `error`.
std::optional<Json> ParseJson(std::string_view text, std::string* error);

/// Read and parse a file; nullopt (with `error`) when unreadable or bad.
std::optional<Json> LoadJsonFile(const std::string& path, std::string* error);

/// A number with every significant digit (shortest round-trip form).
std::string JsonNumber(double value);

}  // namespace suite
