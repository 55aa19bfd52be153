// `monarch_suite compare A/ B/`: applies BENCHMARK.json's rules to two
// sets of untraced result files (A = parent, B = change).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "stats.h"

namespace suite {

struct MetricRule {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0;  ///< share of A's median B may worsen by
};

struct Judgement {
  Quartiles a;
  Quartiles b;
  double worse_share = 0;  ///< (B - A) / A, sign flipped when higher wins
  int wins = 0;            ///< pairs (a[i], b[i]) where B reads better
  int pairs = 0;
  /// "regressed": B's median is worse than A's by more than the bound.
  /// "unresolved": either side's quartile spread exceeds the bound, and
  /// not every B run beats every A run. "ok" otherwise.
  std::string verdict;
};

Judgement Judge(const std::vector<double>& a, const std::vector<double>& b,
                const MetricRule& rule);

/// Prints, per end-to-end metric, one row per workload. `pair_metric`
/// names the metric whose share of pairs won is printed. Returns 0, 1 if
/// any pair regressed, 2 on unreadable input.
int RunCompare(const std::string& dir_a, const std::string& dir_b,
               const std::string& spec_path, const std::string& pair_metric,
               std::ostream& out);

}  // namespace suite
