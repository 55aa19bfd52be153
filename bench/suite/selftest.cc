// suite_selftest: checks the suite's own arithmetic and span recorder.
// run.sh runs it before any workload.
//
//   suite_selftest [BENCHMARK.json]
//
// With a path it also checks that the file lists exactly the workloads
// and metrics the suite reports, with bounds the benchmark rules allow.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalogue.h"
#include "compare.h"
#include "json.h"
#include "stats.h"
#include "trace.h"

namespace suite {
namespace {

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  CHECK(NearestRank(hundred, 50) == 50);
  CHECK(NearestRank(hundred, 99) == 99);
  CHECK(NearestRank(hundred, 100) == 100);
  CHECK(NearestRank({3, 1, 2}, 50) == 2);
  CHECK(NearestRank({3, 1, 2}, 99) == 3);
  CHECK(NearestRank({7}, 99) == 7);
  CHECK(NearestRank({}, 50) == 0);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
  CHECK(Median({5, 1, 3}) == 3);
}

void TestQuartiles() {
  // Reference values from Python's statistics.quantiles(data, n=4).
  struct Case {
    std::vector<double> data;
    double q1, median, q3;
  };
  const std::vector<Case> cases = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{2, 1}, 0.75, 1.5, 2.25},
      {{5, 1, 9, 3, 7}, 2.0, 5.0, 8.0},
      {{2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
      {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
  };
  for (const Case& c : cases) {
    const Quartiles q = QuartilesOf(c.data);
    CHECK(Near(q.q1, c.q1));
    CHECK(Near(q.median, c.median));
    CHECK(Near(q.q3, c.q3));
  }
  CHECK(Near(QuartilesOf({1, 2, 3, 4}).spread(), 2.5 / 2.5));
}

const SpanRecord* Find(const std::vector<SpanRecord>& spans, Layer layer,
                       int nth = 0) {
  for (const SpanRecord& s : spans) {
    if (s.layer == layer && nth-- == 0) return &s;
  }
  return nullptr;
}

void TestSpanTree() {
  using std::chrono::milliseconds;
  SpanRecorder& recorder = SpanRecorder::Instance();
  recorder.Clear();
  { const ScopedSpan inert(Layer::kCoreRead); }
  CHECK(recorder.Spans().empty());

  // One request on this thread: core.read with two storage children, the
  // first with a child of its own. Meanwhile another thread records a
  // root span, which must neither nest here nor reduce any self time.
  recorder.SetEnabled(true);
  const auto start = std::chrono::steady_clock::now();
  std::thread other([] {
    const ScopedSpan span(Layer::kPfsRead);
    std::this_thread::sleep_for(milliseconds(4));
  });
  {
    const ScopedSpan outer(Layer::kCoreRead);
    std::this_thread::sleep_for(milliseconds(2));
    {
      const ScopedSpan child(Layer::kLocalRead);
      std::this_thread::sleep_for(milliseconds(2));
      const ScopedSpan grandchild(Layer::kLocalMeta);
      std::this_thread::sleep_for(milliseconds(1));
    }
    const ScopedSpan child(Layer::kLocalRead);
    std::this_thread::sleep_for(milliseconds(1));
  }
  other.join();
  recorder.SetEnabled(false);
  const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  const std::vector<SpanRecord> spans = recorder.Spans();
  CHECK(spans.size() == 5);
  const SpanRecord* outer = Find(spans, Layer::kCoreRead);
  const SpanRecord* first = Find(spans, Layer::kLocalRead, 0);
  const SpanRecord* second = Find(spans, Layer::kLocalRead, 1);
  const SpanRecord* grand = Find(spans, Layer::kLocalMeta);
  const SpanRecord* other_span = Find(spans, Layer::kPfsRead);
  CHECK(outer && first && second && grand && other_span);
  if (!(outer && first && second && grand && other_span)) return;
  CHECK(outer->parent == 0 && outer->request == outer->id);
  CHECK(first->parent == outer->id && second->parent == outer->id);
  CHECK(grand->parent == first->id && grand->request == outer->id);
  CHECK(other_span->parent == 0 && other_span->request == other_span->id);
  CHECK(other_span->tid != outer->tid);
  // Self = duration minus the coverage of same-thread children,
  // recomputed here from the stored records.
  for (const SpanRecord& s : spans) {
    std::int64_t covered = 0;
    for (const SpanRecord& c : spans) {
      if (c.parent == s.id && c.tid == s.tid) covered += c.dur_ns;
    }
    CHECK(s.self_ns == s.dur_ns - covered);
    CHECK(s.self_ns >= 0);
  }
  CHECK(outer->self_ns == outer->dur_ns - first->dur_ns - second->dur_ns);
  CHECK(other_span->self_ns == other_span->dur_ns);
  for (const ThreadTotals& t : recorder.Totals()) {
    std::int64_t self = 0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      self += t.root[l].self_ns + t.nested[l].self_ns;
    }
    CHECK(self <= wall_ns);
  }

  // The exported trace is valid JSON with one event per span + the count.
  std::ostringstream chrome;
  recorder.WriteChromeTrace(chrome);
  std::string error;
  const std::optional<Json> doc = ParseJson(chrome.str(), &error);
  CHECK(doc.has_value());
  if (doc) {
    const Json* events = doc->Find("traceEvents");
    CHECK(events != nullptr && events->array.size() == spans.size() + 1);
  }

  // Stored records are capped; totals still count every span.
  recorder.Clear();
  recorder.set_max_spans(2);
  recorder.SetEnabled(true);
  for (int i = 0; i < 3; ++i) {
    const ScopedSpan span(Layer::kCkptSave);
  }
  recorder.SetEnabled(false);
  CHECK(recorder.Spans().size() == 2);
  CHECK(recorder.stored() == 2 && recorder.dropped() == 1);
  std::uint64_t counted = 0;
  for (const ThreadTotals& t : recorder.Totals()) {
    counted += t.root[static_cast<std::size_t>(Layer::kCkptSave)].count;
  }
  CHECK(counted == 3);
  recorder.Clear();
}

void TestJudge() {
  const MetricRule lower{"t", "s", false, 0.10};
  const std::vector<double> a = {1.00, 1.01, 0.99, 1.00, 1.02};
  CHECK(Judge(a, {1.01, 1.00, 1.02, 0.99, 1.00}, lower).verdict == "ok");
  const Judgement worse = Judge(a, {1.20, 1.21, 1.19, 1.22, 1.20}, lower);
  CHECK(worse.verdict == "regressed");
  CHECK(Near(worse.worse_share, 0.2));
  CHECK(worse.wins == 0 && worse.pairs == 5);
  const Judgement better = Judge(a, {0.99, 1.00, 0.98, 1.01, 1.01}, lower);
  CHECK(better.verdict == "ok" && better.wins == 4);
  // Wider spread than the bound: unresolved, unless B beats A in every run.
  const std::vector<double> wide = {0.5, 1.0, 1.5, 1.0, 2.0};
  CHECK(Judge(wide, {1.1, 1.2, 1.1, 1.2, 1.1}, lower).verdict == "unresolved");
  CHECK(Judge(wide, {0.1, 0.2, 0.15, 0.1, 0.2}, lower).verdict == "ok");
  // Higher-is-better flips the direction.
  const MetricRule higher{"r", "1/s", true, 0.10};
  CHECK(Judge({100, 101, 99}, {80, 81, 79}, higher).verdict == "regressed");
  CHECK(Judge({100, 101, 99}, {120, 121, 119}, higher).wins == 3);
  // Within the bound but worse: still ok.
  CHECK(Judge(a, {1.05, 1.06, 1.05, 1.04, 1.06}, lower).verdict == "ok");
}

void TestJson() {
  std::string error;
  const auto doc = ParseJson(
      R"({"a": [1, -2.5e3, true, false, null], "s": "x\"y\\n\u0041",
          "o": {}})",
      &error);
  CHECK(doc.has_value());
  if (doc) {
    const Json* a = doc->Find("a");
    CHECK(a && a->array.size() == 5 && a->array[1].number == -2500);
    CHECK(a && a->array[2].boolean && !a->array[3].boolean);
    CHECK(a && a->array[4].kind == Json::Kind::kNull);
    const Json* s = doc->Find("s");
    CHECK(s && s->string == "x\"y\\nA");
    CHECK(doc->Find("o") && doc->Find("o")->object.empty());
    CHECK(doc->Find("missing") == nullptr);
  }
  for (const char* bad :
       {R"({"a":})", "[1,]", R"({"a":1} x)", R"("open)", R"("\u00e9")", ""}) {
    CHECK(!ParseJson(bad, &error).has_value());
  }
  for (const double v : {0.1, 1.2034, 123456789.123, 3e-7, 0.0}) {
    CHECK(std::stod(JsonNumber(v)) == v);
  }
}

/// BENCHMARK.json must list what the suite reports: the same workloads,
/// the same metric names/units/directions, each end-to-end bound at most
/// 0.25 and setup_s's the largest.
void TestBenchmarkSpec(const std::string& path) {
  std::string error;
  const std::optional<Json> spec = LoadJsonFile(path, &error);
  CHECK(spec.has_value());
  if (!spec) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return;
  }
  std::set<std::string> keys;
  for (const auto& [key, value] : spec->object) keys.insert(key);
  CHECK((keys == std::set<std::string>{"command", "paths", "run_seconds",
                                        "workloads", "end_to_end",
                                        "per_layer"}));
  const Json* workloads = spec->Find("workloads");
  CHECK(workloads && workloads->array.size() == WorkloadNames().size());
  for (std::size_t i = 0; workloads && i < workloads->array.size() &&
                          i < WorkloadNames().size();
       ++i) {
    const Json* name = workloads->array[i].Find("name");
    CHECK(name && name->string == WorkloadNames()[i]);
  }
  const auto check_list = [&](const char* key,
                              const std::vector<MetricDef>& defs) {
    const Json* list = spec->Find(key);
    CHECK(list && list->array.size() == defs.size());
    for (std::size_t i = 0; list && i < list->array.size() && i < defs.size();
         ++i) {
      const Json& m = list->array[i];
      const Json* name = m.Find("name");
      const Json* unit = m.Find("unit");
      const Json* better = m.Find("better");
      CHECK(name && name->string == defs[i].name);
      CHECK(unit && unit->string == defs[i].unit);
      CHECK(better && better->string == defs[i].better);
    }
  };
  check_list("end_to_end", EndToEndMetrics());
  check_list("per_layer", PerLayerMetrics());
  double setup_bound = 0;
  double largest_other = 0;
  if (const Json* e2e = spec->Find("end_to_end")) {
    for (const Json& m : e2e->array) {
      const Json* bound = m.Find("bound");
      const Json* name = m.Find("name");
      CHECK(bound && bound->number > 0 && bound->number <= 0.25);
      if (!bound || !name) continue;
      if (name->string == "setup_s") {
        setup_bound = bound->number;
      } else {
        largest_other = std::max(largest_other, bound->number);
      }
    }
  }
  CHECK(setup_bound >= largest_other && setup_bound > 0);
}

}  // namespace
}  // namespace suite

int main(int argc, char** argv) {
  suite::TestPercentiles();
  suite::TestQuartiles();
  suite::TestSpanTree();
  suite::TestJudge();
  suite::TestJson();
  if (argc > 1) suite::TestBenchmarkSpec(argv[1]);
  if (suite::failures > 0) {
    std::fprintf(stderr, "suite_selftest: %d check(s) failed\n",
                 suite::failures);
    return 1;
  }
  std::fprintf(stderr, "suite_selftest: ok\n");
  return 0;
}
