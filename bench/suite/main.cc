// monarch_suite: the repository benchmark. One workload per process.
//
//   monarch_suite --workload NAME --seed N --seconds S --trace 0|1
//                 [--out FILE] [--trace-out FILE] [--work-dir DIR]
//                 [--commit SHA]
//   monarch_suite compare A/ B/ [--spec BENCHMARK.json] [--metric NAME]
//   monarch_suite list
//
// A run generates the workload's inputs from the seed (untimed), then
// repeats reps — a fresh set-up plus its epochs — until the next rep would
// overrun `--seconds` (never fewer than kMinReps). With `--trace 1` reps
// alternate untraced/traced: the traced ones give the per-layer metrics,
// the pair gives the tracing overhead. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "catalogue.h"
#include "compare.h"
#include "json.h"
#include "obs/json.h"
#include "stats.h"
#include "trace.h"
#include "util/clock.h"
#include "util/logging.h"
#include "workloads.h"

namespace suite {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kMinReps = 3;
constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_out;
  fs::path work_dir = ".bench_build/work";
  std::string commit = "unknown";
};

struct Value {
  double value = 0;
  std::size_t samples = 0;
};

/// Start a new peak-RSS window: on Linux, writing 5 to clear_refs resets
/// the process's high-water mark. Where that is refused the window simply
/// keeps the process-wide peak.
void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

/// Peak resident set since the last ResetPeakRss (VmHWM, in KiB).
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kMiB;
    }
  }
  return 0;
}

/// Epochs 2..E of every rep.
std::vector<double> SteadyEpochs(const std::vector<RepResult>& reps) {
  std::vector<double> steady;
  for (const RepResult& r : reps) {
    if (r.epoch_s.size() > 1) {
      steady.insert(steady.end(), r.epoch_s.begin() + 1, r.epoch_s.end());
    }
  }
  return steady;
}

std::map<std::string, Value> EndToEnd(const std::vector<RepResult>& reps) {
  std::vector<double> setup, first, pfs_mib, pfs_ops, rate;
  for (const RepResult& r : reps) {
    setup.push_back(r.setup_s);
    if (r.epoch_s.empty()) continue;
    first.push_back(r.epoch_s.front());
    const auto epochs = static_cast<double>(r.epoch_s.size());
    pfs_mib.push_back(static_cast<double>(r.pfs_read_bytes) / kMiB / epochs);
    pfs_ops.push_back(static_cast<double>(r.pfs_read_ops) / epochs);
    double wall = 0;
    for (const double e : r.epoch_s) wall += e;
    rate.push_back(static_cast<double>(r.reads) / wall);
  }
  const auto median = [](const std::vector<double>& v) {
    return Value{Median(v), v.size()};
  };
  return {{"setup_s", median(setup)},
          {"first_epoch_s", median(first)},
          {"steady_epoch_s", median(SteadyEpochs(reps))},
          {"pfs_mib_per_epoch", median(pfs_mib)},
          {"pfs_ops_per_epoch", median(pfs_ops)},
          {"read_ops_per_s", median(rate)}};
}

struct LayerSummary {
  std::uint64_t count = 0;
  double busy_s = 0;
  double self_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Per-layer metrics of the traced reps: counters averaged per rep,
/// span sums per rep, percentiles over the stored spans. Sets `error`
/// when a thread's self times add up to more than the traced wall time.
std::map<std::string, Value> PerLayer(
    const std::vector<RepResult>& traced, const std::vector<RepResult>& plain,
    double traced_wall_s, std::map<std::string, LayerSummary>* layers,
    std::string* error) {
  std::map<std::string, Value> out;
  const auto n = static_cast<double>(traced.size());
  for (const MetricDef& def : PerLayerMetrics()) {
    out[def.name] = {0, traced.size()};
  }
  for (const RepResult& r : traced) {
    for (const auto& [name, value] : r.layer) out[name].value += value / n;
    out["core.read.failed"].value += static_cast<double>(r.failed) / n;
  }

  const SpanRecorder& recorder = SpanRecorder::Instance();
  std::array<LayerTotals, kLayerCount> total{};
  double bg_read_ns = 0;
  double bg_write_ns = 0;
  for (const ThreadTotals& thread : recorder.Totals()) {
    std::int64_t self_ns = 0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      for (const LayerTotals* t : {&thread.root[l], &thread.nested[l]}) {
        total[l].count += t->count;
        total[l].busy_ns += t->busy_ns;
        total[l].self_ns += t->self_ns;
        self_ns += t->self_ns;
      }
    }
    if (static_cast<double>(self_ns) > traced_wall_s * 1e9) {
      *error = "thread " + std::to_string(thread.tid) +
               ": span self times exceed the traced wall time";
    }
    // Root storage spans are background work. Only the checkpoint drain
    // lane writes the PFS, so a thread that did is a drain thread.
    const auto root_ns = [&](Layer l) {
      return static_cast<double>(
          thread.root[static_cast<std::size_t>(l)].busy_ns);
    };
    if (thread.root[static_cast<std::size_t>(Layer::kPfsWrite)].count == 0) {
      bg_read_ns += root_ns(Layer::kPfsRead) + root_ns(Layer::kLocalRead);
      bg_write_ns += root_ns(Layer::kLocalWrite);
    }
  }
  std::array<std::vector<double>, kLayerCount> durations_us;
  for (const SpanRecord& span : recorder.Spans()) {
    durations_us[static_cast<std::size_t>(span.layer)].push_back(
        static_cast<double>(span.dur_ns) / 1e3);
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (total[l].count == 0) continue;
    LayerSummary& s = (*layers)[LayerName(static_cast<Layer>(l))];
    s.count = total[l].count;
    s.busy_s = static_cast<double>(total[l].busy_ns) / 1e9;
    s.self_s = static_cast<double>(total[l].self_ns) / 1e9;
    s.p50_us = NearestRank(durations_us[l], 50);
    s.p99_us = NearestRank(durations_us[l], 99);
  }

  const auto per_rep_s = [&](Layer l, bool self = false) {
    const LayerTotals& t = total[static_cast<std::size_t>(l)];
    return static_cast<double>(self ? t.self_ns : t.busy_ns) / 1e9 / n;
  };
  const auto span_us = [&](Layer l, double p) {
    return NearestRank(durations_us[static_cast<std::size_t>(l)], p);
  };
  out["storage.pfs.read_busy_s"].value = per_rep_s(Layer::kPfsRead);
  out["storage.pfs.write_busy_s"].value = per_rep_s(Layer::kPfsWrite);
  out["storage.local.read_busy_s"].value = per_rep_s(Layer::kLocalRead);
  out["storage.local.write_busy_s"].value = per_rep_s(Layer::kLocalWrite);
  out["core.read.busy_s"].value = per_rep_s(Layer::kCoreRead);
  out["core.read.self_s"].value = per_rep_s(Layer::kCoreRead, /*self=*/true);
  out["core.read.p50_us"].value = span_us(Layer::kCoreRead, 50);
  out["core.read.p99_us"].value = span_us(Layer::kCoreRead, 99);
  out["core.placement.bg_read_busy_s"].value = bg_read_ns / 1e9 / n;
  out["core.placement.bg_write_busy_s"].value = bg_write_ns / 1e9 / n;
  out["core.placement.drain_s"].value = per_rep_s(Layer::kCoreDrain);
  out["ckpt.save_p50_ms"].value = span_us(Layer::kCkptSave, 50) / 1e3;
  out["ckpt.save_max_ms"].value = span_us(Layer::kCkptSave, 100) / 1e3;
  out["ckpt.flush_s"].value = per_rep_s(Layer::kCkptFlush);
  const double plain_steady = Median(SteadyEpochs(plain));
  out["obs.trace_overhead_ratio"].value =
      plain_steady == 0 ? 0 : Median(SteadyEpochs(traced)) / plain_steady;
  out["obs.spans_recorded"].value = static_cast<double>(recorder.stored());
  out["obs.spans_dropped"].value = static_cast<double>(recorder.dropped());
  // Rep 0 runs untraced before any span is stored, so the recorder's own
  // memory is not in it.
  out["process.peak_rss_mib"] = {plain.front().peak_rss_mib, 1};
  if (out.size() != PerLayerMetrics().size()) {
    *error = "a per-layer metric name is missing from the catalogue";
  }
  return out;
}

std::string MetricsJson(const std::map<std::string, Value>& values,
                        const std::vector<MetricDef>& defs, bool samples) {
  std::string json = "{";
  for (const MetricDef& def : defs) {
    const Value& v = values.at(def.name);
    if (json.size() > 1) json += ",";
    json += monarch::obs::JsonQuote(def.name) +
            ":{\"value\":" + JsonNumber(v.value) +
            ",\"unit\":" + monarch::obs::JsonQuote(def.unit);
    if (samples) json += ",\"samples\":" + std::to_string(v.samples);
    json += "}";
  }
  return json + "}";
}

int Usage() {
  std::cerr << "usage: monarch_suite --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out FILE] [--trace-out FILE] [--work-dir DIR] "
               "[--commit SHA]\n"
               "       monarch_suite compare A/ B/ [--spec BENCHMARK.json] "
               "[--metric NAME]\n"
               "       monarch_suite list\n";
  return 2;
}

int RunOne(const Options& opt) {
  const fs::path work =
      opt.work_dir / (opt.workload + "-" + std::to_string(::getpid()));
  const std::unique_ptr<Workload> workload =
      MakeWorkload(opt.workload, opt.seed, work);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return Usage();
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work);

  monarch::Status status = workload->Prepare();
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  double traced_wall_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  SpanRecorder& recorder = SpanRecorder::Instance();
  const monarch::Stopwatch budget;
  double longest_rep_s = 0;
  for (int rep = 0; status.ok(); ++rep) {
    const bool trace_rep = opt.trace && rep % 2 == 1;
    RepResult result;
    ResetPeakRss();
    recorder.SetEnabled(trace_rep);
    const monarch::Stopwatch rep_wall;
    status = workload->RunRep(rep, &result);
    recorder.SetEnabled(false);
    const double rep_s = rep_wall.ElapsedSeconds();
    result.peak_rss_mib = PeakRssMib();
    attempted += result.attempted;
    failed += result.failed;
    if (!status.ok()) break;
    if (trace_rep) traced_wall_s += rep_s;
    (trace_rep ? traced : plain).push_back(std::move(result));
    longest_rep_s = std::max(longest_rep_s, rep_s);
    const bool enough = opt.trace ? !plain.empty() && !traced.empty()
                                  : plain.size() >= kMinReps;
    if (enough && budget.ElapsedSeconds() + longest_rep_s > opt.seconds) break;
  }
  const double measured_s = budget.ElapsedSeconds();
  fs::remove_all(work, ec);

  bool correct = status.ok();
  if (!correct) std::cerr << opt.workload << ": " << status << "\n";
  const std::vector<MetricDef>& defs =
      opt.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::map<std::string, Value> values;
  std::map<std::string, LayerSummary> layers;
  if (correct) {
    std::string trace_error;
    values = opt.trace ? PerLayer(traced, plain, traced_wall_s, &layers,
                                  &trace_error)
                       : EndToEnd(plain);
    if (!trace_error.empty()) {
      std::cerr << opt.workload << ": " << trace_error << "\n";
      correct = false;
    }
  }
  for (const MetricDef& def : defs) values.try_emplace(def.name);

  std::printf("%s seed=%llu reps=%zu untraced + %zu traced, %.1f s measured\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              plain.size(), traced.size(), measured_s);
  for (const MetricDef& def : defs) {
    const Value& v = values[def.name];
    std::printf("  %-36s %14.6g %-6s (n=%zu)\n", def.name.c_str(), v.value,
                def.unit.c_str(), v.samples);
  }
  if (!opt.trace_out.empty() && opt.trace) {
    std::ofstream trace_file(opt.trace_out);
    recorder.WriteChromeTrace(trace_file);
    if (!trace_file) {
      std::cerr << "cannot write " << opt.trace_out << "\n";
      correct = false;
    }
  }
  const auto head = [&] {
    return "{\"correct\":" + std::string(correct ? "true" : "false") +
           ",\"attempted\":" +
           std::to_string(std::max<std::uint64_t>(attempted, 1)) +
           ",\"failed\":" + std::to_string(failed);
  };
  if (!opt.out.empty()) {
    std::string record =
        head() + ",\"workload\":" + monarch::obs::JsonQuote(opt.workload) +
        ",\"seed\":" + std::to_string(opt.seed) +
        ",\"seconds\":" + JsonNumber(opt.seconds) +
        ",\"measured_s\":" + JsonNumber(measured_s) +
        ",\"trace\":" + (opt.trace ? "true" : "false") +
        ",\"commit\":" + monarch::obs::JsonQuote(opt.commit) +
        ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
        ",\"reps\":{\"untraced\":" + std::to_string(plain.size()) +
        ",\"traced\":" + std::to_string(traced.size()) + "}" +
        ",\"metrics\":" + MetricsJson(values, defs, /*samples=*/true);
    if (opt.trace) {
      record += ",\"layers\":{";
      bool first = true;
      for (const auto& [name, s] : layers) {
        if (!first) record += ",";
        first = false;
        record += monarch::obs::JsonQuote(name) +
                  ":{\"count\":" + std::to_string(s.count) +
                  ",\"busy_s\":" + JsonNumber(s.busy_s) +
                  ",\"self_s\":" + JsonNumber(s.self_s) +
                  ",\"p50_us\":" + JsonNumber(s.p50_us) +
                  ",\"p99_us\":" + JsonNumber(s.p99_us) + "}";
      }
      record += "}";
    }
    std::ofstream file(opt.out);
    file << record << "}\n";
    if (!file) {
      std::cerr << "cannot write " << opt.out << "\n";
      correct = false;
    }
  }
  std::printf("%s,\"metrics\":%s}\n", head().c_str(),
              MetricsJson(values, defs, /*samples=*/false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  monarch::SetLogLevel(monarch::LogLevel::kWarning);
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "list") {
    for (const std::string& name : WorkloadNames()) std::cout << name << "\n";
    return 0;
  }
  if (!args.empty() && args[0] == "compare") {
    if (args.size() < 3) return Usage();
    std::string spec = "BENCHMARK.json";
    std::string metric = "steady_epoch_s";
    for (std::size_t i = 3; i + 1 < args.size(); i += 2) {
      if (args[i] == "--spec") spec = args[i + 1];
      else if (args[i] == "--metric") metric = args[i + 1];
      else return Usage();
    }
    return RunCompare(args[1], args[2], spec, metric, std::cout);
  }

  Options opt;
  if (args.size() % 2 != 0) return Usage();
  for (std::size_t i = 0; i < args.size(); i += 2) {
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage();
      opt.trace = value == "1";
    } else if (key == "--out") {
      opt.out = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--commit") {
      opt.commit = value;
    } else {
      return Usage();
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return Usage();
  }
  if (opt.workload.empty() || !(opt.seconds > 0)) return Usage();
  return RunOne(opt);
}

}  // namespace
}  // namespace suite

int main(int argc, char** argv) { return suite::Main(argc, argv); }
