#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "json.h"

namespace suite {

namespace fs = std::filesystem;

Judgement Judge(const std::vector<double>& a, const std::vector<double>& b,
                const MetricRule& rule) {
  Judgement j;
  j.a = QuartilesOf(a);
  j.b = QuartilesOf(b);
  // Positive = B is worse, whichever direction the metric improves in.
  const double sign = rule.higher_is_better ? -1.0 : 1.0;
  if (j.a.median != 0) {
    j.worse_share = sign * (j.b.median - j.a.median) / std::fabs(j.a.median);
  }
  j.pairs = static_cast<int>(std::min(a.size(), b.size()));
  for (std::size_t i = 0; i < static_cast<std::size_t>(j.pairs); ++i) {
    if (sign * (b[i] - a[i]) < 0) ++j.wins;
  }
  bool all_better = !a.empty() && !b.empty();
  if (all_better) {
    const auto [a_min, a_max] = std::minmax_element(a.begin(), a.end());
    const auto [b_min, b_max] = std::minmax_element(b.begin(), b.end());
    all_better = rule.higher_is_better ? *b_min > *a_max : *b_max < *a_min;
  }
  if (std::max(j.a.spread(), j.b.spread()) > rule.bound) {
    j.verdict = all_better ? "ok" : "unresolved";
  } else if (j.worse_share > rule.bound) {
    j.verdict = "regressed";
  } else {
    j.verdict = "ok";
  }
  return j;
}

namespace {

/// workload -> metric -> values, one per untraced run, in file-name order.
using ResultSet =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

bool LoadResults(const std::string& dir, ResultSet* out, std::string* error) {
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    *error = "cannot list " + dir + ": " + ec.message();
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::optional<Json> doc = LoadJsonFile(path.string(), error);
    if (!doc) return false;
    const Json* workload = doc->Find("workload");
    const Json* trace = doc->Find("trace");
    const Json* metrics = doc->Find("metrics");
    if (workload == nullptr || metrics == nullptr ||
        metrics->kind != Json::Kind::kObject) {
      *error = path.string() + ": not a suite result file";
      return false;
    }
    if (trace != nullptr && trace->boolean) continue;
    for (const auto& [name, metric] : metrics->object) {
      if (const Json* value = metric.Find("value")) {
        (*out)[workload->string][name].push_back(value->number);
      }
    }
  }
  if (out->empty()) {
    *error = "no untraced result files in " + dir;
    return false;
  }
  return true;
}

bool LoadRules(const std::string& spec_path, std::vector<MetricRule>* rules,
               std::string* error) {
  std::optional<Json> spec = LoadJsonFile(spec_path, error);
  if (!spec) return false;
  const Json* e2e = spec->Find("end_to_end");
  if (e2e == nullptr || e2e->kind != Json::Kind::kArray) {
    *error = spec_path + ": no end_to_end list";
    return false;
  }
  for (const Json& metric : e2e->array) {
    const Json* name = metric.Find("name");
    const Json* unit = metric.Find("unit");
    const Json* better = metric.Find("better");
    const Json* bound = metric.Find("bound");
    if (name == nullptr || unit == nullptr || better == nullptr ||
        bound == nullptr) {
      *error = spec_path + ": end_to_end entry without name/unit/better/bound";
      return false;
    }
    rules->push_back({name->string, unit->string, better->string == "higher",
                      bound->number});
  }
  return true;
}

std::string Cell(const Quartiles& q) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.4g [%.4g, %.4g]", q.median, q.q1, q.q3);
  return buf;
}

}  // namespace

int RunCompare(const std::string& dir_a, const std::string& dir_b,
               const std::string& spec_path, const std::string& pair_metric,
               std::ostream& out) {
  std::vector<MetricRule> rules;
  ResultSet a;
  ResultSet b;
  std::string error;
  if (!LoadRules(spec_path, &rules, &error) ||
      !LoadResults(dir_a, &a, &error) || !LoadResults(dir_b, &b, &error)) {
    out << "compare: " << error << "\n";
    return 2;
  }
  out << "A = " << dir_a << ", B = " << dir_b
      << "; medians [q1, q3]; change is B vs A, + = worse\n";
  bool regressed = false;
  for (const MetricRule& rule : rules) {
    char header[160];
    std::snprintf(header, sizeof(header),
                  "\n%s (%s, %s is better, bound %.0f%%)\n",
                  rule.name.c_str(), rule.unit.c_str(),
                  rule.higher_is_better ? "higher" : "lower", rule.bound * 100);
    out << header;
    for (const auto& [workload, metrics] : a) {
      const auto a_values = metrics.find(rule.name);
      const auto b_workload = b.find(workload);
      if (a_values == metrics.end() || b_workload == b.end() ||
          b_workload->second.count(rule.name) == 0) {
        out << "  " << workload << ": missing on one side\n";
        continue;
      }
      const Judgement j =
          Judge(a_values->second, b_workload->second.at(rule.name), rule);
      regressed = regressed || j.verdict == "regressed";
      char row[256];
      std::snprintf(row, sizeof(row), "  %-17s A %-30s B %-30s %+7.2f%%  %s",
                    workload.c_str(), Cell(j.a).c_str(), Cell(j.b).c_str(),
                    j.worse_share * 100, j.verdict.c_str());
      out << row;
      if (rule.name == pair_metric) {
        out << "  B won " << j.wins << "/" << j.pairs << " pairs";
      }
      out << "\n";
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace suite
