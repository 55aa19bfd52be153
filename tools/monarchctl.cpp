// monarchctl — command-line front end for the MONARCH library.
//
//   monarchctl gen --dir DIR [--preset tiny|100g|200g] [--scale S]
//       Generate a synthetic TFRecord dataset into DIR.
//
//   monarchctl inspect --dir DIR [--subdir NAME]
//       Validate every TFRecord file under a dataset directory (CRC
//       framing) and print per-file record counts.
//
//   monarchctl run --config FILE.ini [--epochs N] [--model NAME]
//       Build a MONARCH hierarchy from an INI file (see core/config.h),
//       run a training simulation through it, and print per-epoch times
//       plus tier statistics.
//
//   monarchctl replay --dir DIR --trace FILE [--profile ssd|lustre]
//                     [--threads N]
//       Replay a captured I/O trace (CSV `ts_us,op,path,offset,length`)
//       against a simulated device.
//
//   monarchctl metrics dump [--format text|json] [--workload demo|none]
//       Print every metric the process-wide MetricsRegistry exposes
//       (docs/OBSERVABILITY.md catalogue). The built-in demo workload —
//       a small in-memory MONARCH hierarchy read twice — populates the
//       registry so the dump shows live values.
//
//   monarchctl trace export FILE.json [--workload demo|none]
//       Record the demo workload with the EventTracer enabled and write
//       Chrome trace_event JSON to FILE.json (open in chrome://tracing
//       or https://ui.perfetto.dev).
//
// Exit code 0 on success, 1 on usage errors (a flag the command does not
// take or a number out of range among them), 2 on runtime failures.
#include <algorithm>
#include <charconv>
#include <limits>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/monarch.h"
#include "dlsim/monarch_opener.h"
#include "dlsim/trainer.h"
#include "obs/event_tracer.h"
#include "obs/metrics_registry.h"
#include "storage/engine_factory.h"
#include "storage/memory_engine.h"
#include "tfrecord/index.h"
#include "util/byte_units.h"
#include "util/table.h"
#include "workload/dataset_generator.h"
#include "workload/trace.h"

namespace monarch::ctl {
namespace {

/// Minimal --flag value parser: flags are "--name value"; bare words are
/// positional (the subcommand plus, for `metrics`/`trace`, a verb and an
/// output path).
struct Args {
  std::string command;
  std::vector<std::string> positionals;  ///< bare words after the command
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::optional<std::string> Get(const std::string& key) const {
    auto it = flags.find(key);
    if (it == flags.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::string GetOr(const std::string& key,
                                  std::string fallback) const {
    return Get(key).value_or(std::move(fallback));
  }

  /// Numeric flag `key`, or `fallback` when absent. The whole value must
  /// parse as a T in [min, max]; `expected` names that range in the error.
  template <typename T>
  [[nodiscard]] Result<T> Number(const std::string& key, T fallback, T min,
                                 T max, std::string_view expected) const {
    const auto text = Get(key);
    if (!text) return fallback;
    T value{};
    const char* end = text->data() + text->size();
    const auto [ptr, ec] = std::from_chars(text->data(), end, value);
    const bool in_range = value >= min && value <= max;  // false for NaN
    if (ec != std::errc() || ptr != end || !in_range) {
      return InvalidArgumentError("--" + key + " expects " +
                                  std::string(expected) + ", got '" + *text +
                                  "'");
    }
    return value;
  }
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    args.command = argv[i++];
  }
  while (i < argc) {
    std::string flag = argv[i];
    if (!flag.starts_with("--")) {
      args.positionals.push_back(std::move(flag));
      ++i;
      continue;
    }
    flag = flag.substr(2);
    if (i + 1 >= argc) {
      return InvalidArgumentError("flag --" + flag + " needs a value");
    }
    args.flags[flag] = argv[i + 1];
    i += 2;
  }
  return args;
}

void PrintUsage() {
  std::cout <<
      "monarchctl — MONARCH hierarchical storage management CLI\n\n"
      "  monarchctl gen     --dir DIR [--preset tiny|100g|200g] [--scale S]\n"
      "  monarchctl inspect --dir DIR [--subdir NAME]\n"
      "  monarchctl run     --config FILE.ini [--epochs N] [--model lenet|alexnet|resnet50]\n"
      "  monarchctl replay  --dir DIR --trace FILE [--profile ssd|lustre] [--threads N]\n"
      "  monarchctl metrics dump [--format text|json] [--workload demo|none]\n"
      "  monarchctl trace   export FILE.json [--workload demo|none]\n";
}

Result<workload::DatasetSpec> PresetSpec(const std::string& preset,
                                         double scale) {
  if (preset == "tiny") return workload::DatasetSpec::Tiny();
  if (preset == "100g") return workload::DatasetSpec::ImageNet100GiB(scale);
  if (preset == "200g") return workload::DatasetSpec::ImageNet200GiB(scale);
  return InvalidArgumentError("unknown preset '" + preset +
                              "' (tiny|100g|200g)");
}

int CmdGen(const Args& args) {
  const auto dir = args.Get("dir");
  if (!dir) {
    std::cerr << "gen: --dir is required\n";
    return 1;
  }
  const auto scale =
      args.Number<double>("scale", 1.0, std::numeric_limits<double>::min(),
                          1000.0, "a number in (0, 1000]");
  if (!scale.ok()) {
    std::cerr << "gen: " << scale.status() << "\n";
    return 1;
  }
  auto spec = PresetSpec(args.GetOr("preset", "tiny"), scale.value());
  if (!spec.ok()) {
    std::cerr << "gen: " << spec.status() << "\n";
    return 1;
  }
  auto engine = storage::MakeRawEngine(*dir);
  auto manifest = workload::GenerateDataset(*engine, spec.value());
  if (!manifest.ok()) {
    std::cerr << "gen: " << manifest.status() << "\n";
    return 2;
  }
  std::cout << "generated " << manifest->num_files() << " record files, "
            << FormatByteSize(manifest->total_bytes) << " under " << *dir
            << "/" << spec->directory << "\n";
  return 0;
}

int CmdInspect(const Args& args) {
  const auto dir = args.Get("dir");
  if (!dir) {
    std::cerr << "inspect: --dir is required\n";
    return 1;
  }
  auto engine = storage::MakeRawEngine(*dir);
  auto files = engine->ListFiles(args.GetOr("subdir", ""));
  if (!files.ok()) {
    std::cerr << "inspect: " << files.status() << "\n";
    return 2;
  }

  Table table({"file", "size", "records", "status"});
  std::uint64_t total_records = 0;
  std::uint64_t corrupt = 0;
  for (const auto& st : files.value()) {
    if (!st.path.ends_with(".tfrecord")) continue;
    tfrecord::EngineSource source(engine, st.path);
    auto index = tfrecord::BuildIndex(source);
    if (index.ok()) {
      total_records += index->size();
      table.AddRow({st.path, FormatByteSize(st.size),
                    std::to_string(index->size()), "ok"});
    } else {
      ++corrupt;
      table.AddRow({st.path, FormatByteSize(st.size), "-",
                    index.status().ToString()});
    }
  }
  table.PrintAscii(std::cout);
  std::cout << "total records: " << total_records
            << (corrupt > 0 ? "  CORRUPT FILES: " + std::to_string(corrupt)
                            : "")
            << "\n";
  return corrupt > 0 ? 2 : 0;
}

Result<dlsim::ModelProfile> ModelByName(const std::string& name) {
  if (name == "lenet") return dlsim::ModelProfile::LeNet();
  if (name == "alexnet") return dlsim::ModelProfile::AlexNet();
  if (name == "resnet50") return dlsim::ModelProfile::ResNet50();
  return InvalidArgumentError("unknown model '" + name +
                              "' (lenet|alexnet|resnet50)");
}

int CmdRun(const Args& args) {
  const auto config_path = args.Get("config");
  if (!config_path) {
    std::cerr << "run: --config is required\n";
    return 1;
  }
  const auto num_epochs = args.Number<int>(
      "epochs", 3, 1, std::numeric_limits<int>::max(), "an integer >= 1");
  if (!num_epochs.ok()) {
    std::cerr << "run: " << num_epochs.status() << "\n";
    return 1;
  }
  auto model = ModelByName(args.GetOr("model", "lenet"));
  if (!model.ok()) {
    std::cerr << "run: " << model.status() << "\n";
    return 1;
  }
  std::ifstream in(*config_path);
  if (!in) {
    std::cerr << "run: cannot open '" << *config_path << "'\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  auto monarch = core::MonarchFromIni(text.str());
  if (!monarch.ok()) {
    std::cerr << "run: " << monarch.status() << "\n";
    return 2;
  }
  std::cout << "indexed " << (*monarch)->Stats().files_indexed
            << " files in "
            << Table::Num((*monarch)->Stats().metadata_init_seconds, 3)
            << "s\n";
  std::vector<std::string> files;
  for (const auto& entry : (*monarch)->metadata().Snapshot()) {
    files.push_back(entry.name);
  }
  if (files.empty()) {
    std::cerr << "run: dataset directory is empty\n";
    return 2;
  }
  dlsim::TrainerConfig tc;
  tc.model = model.value();
  tc.epochs = num_epochs.value();
  dlsim::Trainer trainer(files,
                         std::make_unique<dlsim::MonarchOpener>(**monarch),
                         tc);
  std::cout << "training " << tc.model.name << " for " << tc.epochs
            << " epochs over " << files.size() << " files...\n";
  auto result = trainer.Train();
  if (!result.ok()) {
    std::cerr << "run: training failed: " << result.status() << "\n";
    return 2;
  }
  (*monarch)->DrainPlacements();

  Table epochs({"epoch", "seconds", "samples", "cpu_pct", "gpu_pct"});
  for (const auto& epoch : result->epochs) {
    epochs.AddRow({std::to_string(epoch.epoch),
                   Table::Num(epoch.wall_seconds, 2),
                   std::to_string(epoch.samples),
                   Table::Num(epoch.cpu_utilisation * 100, 1),
                   Table::Num(epoch.gpu_utilisation * 100, 1)});
  }
  epochs.PrintAscii(std::cout);

  const auto stats = (*monarch)->Stats();
  Table tiers({"level", "tier", "reads", "occupancy"});
  for (std::size_t i = 0; i < stats.levels.size(); ++i) {
    tiers.AddRow({std::to_string(i), stats.levels[i].tier_name,
                  std::to_string(stats.levels[i].reads),
                  FormatByteSize(stats.levels[i].occupancy_bytes)});
  }
  tiers.PrintAscii(std::cout);
  std::cout << "placed=" << stats.placement.completed
            << " abandoned=" << stats.placement.abandoned
            << " rejected_no_space=" << stats.placement.rejected_no_space
            << " staged=" << FormatByteSize(stats.placement.bytes_staged)
            << "\n";
  return 0;
}

int CmdReplay(const Args& args) {
  const auto dir = args.Get("dir");
  const auto trace_path = args.Get("trace");
  if (!dir || !trace_path) {
    std::cerr << "replay: --dir and --trace are required\n";
    return 1;
  }
  const auto threads =
      args.Number<int>("threads", 4, 1, 1024, "an integer in [1, 1024]");
  if (!threads.ok()) {
    std::cerr << "replay: " << threads.status() << "\n";
    return 1;
  }
  std::ifstream in(*trace_path);
  if (!in) {
    std::cerr << "replay: cannot open '" << *trace_path << "'\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto events = workload::ParseTrace(text.str());
  if (!events.ok()) {
    std::cerr << "replay: " << events.status() << "\n";
    return 2;
  }

  const std::string profile = args.GetOr("profile", "ssd");
  storage::StorageEnginePtr engine;
  if (profile == "ssd") {
    engine = storage::MakeLocalSsdEngine(*dir);
  } else if (profile == "lustre") {
    engine = storage::MakeLustreEngine(*dir, /*seed=*/1);
  } else {
    std::cerr << "replay: unknown profile '" << profile
              << "' (ssd|lustre)\n";
    return 1;
  }

  auto stats = workload::ReplayTrace(events.value(), *engine, threads.value());
  if (!stats.ok()) {
    std::cerr << "replay: " << stats.status() << "\n";
    return 2;
  }
  std::cout << "replayed " << stats->ops << " reads, "
            << FormatByteSize(stats->bytes) << " in "
            << Table::Num(stats->elapsed_seconds, 2) << "s ("
            << Table::Num(static_cast<double>(stats->bytes) / 1e6 /
                              std::max(1e-9, stats->elapsed_seconds),
                          1)
            << " MB/s) on the " << profile << " profile\n";
  return 0;
}

/// The built-in observability demo: a two-tier in-memory hierarchy whose
/// dataset is read for two "epochs", so the first pass stages files and
/// the second serves them from the cache tier. Exercises the storage,
/// core, and trainer instrumentation without touching the host disk.
/// Returns the live instance so the caller can dump/export while its
/// pull sources (per-tier stats, engine IoStats) are still registered.
Result<std::unique_ptr<core::Monarch>> RunDemoWorkload() {
  auto pfs = std::make_shared<storage::MemoryEngine>("demo-pfs");
  const std::vector<std::byte> payload(4096);
  for (int i = 0; i < 8; ++i) {
    MONARCH_RETURN_IF_ERROR(
        pfs->Write("data/f" + std::to_string(i) + ".bin", payload));
  }

  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{
      "demo-ssd", std::make_shared<storage::MemoryEngine>("demo-ssd"),
      /*quota_bytes=*/1ull << 20});
  config.pfs = core::TierSpec{"demo-pfs", std::move(pfs), 0};
  config.dataset_dir = "data";
  MONARCH_ASSIGN_OR_RETURN(auto monarch,
                           core::Monarch::Create(std::move(config)));

  std::vector<std::byte> buffer(4096);
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (const auto& entry : monarch->metadata().Snapshot()) {
      MONARCH_RETURN_IF_ERROR(monarch->Read(entry.name, 0, buffer).status());
    }
    monarch->DrainPlacements();
  }
  return monarch;
}

int CmdMetrics(const Args& args) {
  if (args.positionals.empty() || args.positionals[0] != "dump") {
    std::cerr << "metrics: expected 'metrics dump'\n";
    return 1;
  }
  const std::string format = args.GetOr("format", "text");
  if (format != "text" && format != "json") {
    std::cerr << "metrics: unknown --format '" << format
              << "' (text|json)\n";
    return 1;
  }
  const std::string wl = args.GetOr("workload", "demo");
  if (wl != "demo" && wl != "none") {
    std::cerr << "metrics: unknown --workload '" << wl << "' (demo|none)\n";
    return 1;
  }
  std::unique_ptr<core::Monarch> demo;  // kept alive across the dump
  if (wl == "demo") {
    auto result = RunDemoWorkload();
    if (!result.ok()) {
      std::cerr << "metrics: demo workload failed: " << result.status()
                << "\n";
      return 2;
    }
    demo = std::move(result).value();
  }
  if (format == "json") {
    obs::MetricsRegistry::Global().PrintJson(std::cout);
    std::cout << "\n";
  } else {
    obs::MetricsRegistry::Global().PrintText(std::cout);
  }
  return 0;
}

int CmdTraceExport(const Args& args) {
  if (args.positionals.size() < 2 || args.positionals[0] != "export") {
    std::cerr << "trace: expected 'trace export FILE.json'\n";
    return 1;
  }
  const std::string& out_path = args.positionals[1];
  const std::string wl = args.GetOr("workload", "demo");
  if (wl != "demo" && wl != "none") {
    std::cerr << "trace: unknown --workload '" << wl << "' (demo|none)\n";
    return 1;
  }
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (wl == "demo") {
    tracer.Enable();
    auto result = RunDemoWorkload();
    tracer.Disable();
    if (!result.ok()) {
      std::cerr << "trace: demo workload failed: " << result.status()
                << "\n";
      return 2;
    }
  }
  if (const Status status = tracer.ExportChromeJsonToFile(out_path);
      !status.ok()) {
    std::cerr << "trace: " << status << "\n";
    return 2;
  }
  std::cout << "wrote " << tracer.recorded_events() << " events ("
            << tracer.dropped_events() << " dropped) to " << out_path
            << "\n";
  return 0;
}

/// A subcommand and the flags it takes; any other flag is a usage error.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

int Main(int argc, char** argv) {
  static const Command kCommands[] = {
      {"gen", CmdGen, {"dir", "preset", "scale"}},
      {"inspect", CmdInspect, {"dir", "subdir"}},
      {"run", CmdRun, {"config", "epochs", "model"}},
      {"replay", CmdReplay, {"dir", "trace", "profile", "threads"}},
      {"metrics", CmdMetrics, {"format", "workload"}},
      {"trace", CmdTraceExport, {"workload"}},
  };
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    PrintUsage();
    return 1;
  }
  for (const Command& command : kCommands) {
    if (args->command != command.name) continue;
    for (const auto& [flag, value] : args->flags) {
      if (std::find(command.flags.begin(), command.flags.end(), flag) ==
          command.flags.end()) {
        std::cerr << command.name << ": unknown flag --" << flag << "\n";
        PrintUsage();
        return 1;
      }
    }
    return command.run(*args);
  }
  PrintUsage();
  return 1;
}

}  // namespace
}  // namespace monarch::ctl

int main(int argc, char** argv) { return monarch::ctl::Main(argc, argv); }
