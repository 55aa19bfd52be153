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
//       Replay a captured I/O trace against a simulated device.
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
//   monarchctl stage-status [--files N] [--lookahead N] [--read-fraction F]
//                           [--policy NAME] [--quota BYTES]
//       Drive the pipelined staging engine with a scheduled demo workload
//       and print its status: the active placement policy, what ranks
//       its evictions (the published run schedule or the policy) and
//       its eviction counters (docs/PLACEMENT.md), per-class queue depths,
//       total in-flight bytes, buffer-pool occupancy, and the
//       prefetch hit/waste counters (DESIGN.md "Staging pipeline").
//       --quota shrinks the demo tier so eviction-capable policies
//       actually evict.
//
//   monarchctl pack-status [--files N] [--codec none|lz] [--chunk-bytes N]
//       Small-file packing demo (ISSUE 9): pack a tiny-file dataset
//       into container extents, read it sparsely then fully through a
//       pack-enabled hierarchy, and print the pack index, chunk
//       residency, stage-in compression ratio, and chunk hit/miss
//       counters (DESIGN.md "Small-file packing & chunk staging").
//
//   monarchctl faults [--local-rate R] [--pfs-rate R] [--corrupt-rate R]
//                     [--epochs N] [--files N] [--outage-epoch E]
//       Degradation demo: run the built-in workload through a hierarchy
//       whose engines inject transient faults (and optionally silent
//       corruption or a mid-epoch local-tier outage), verify every byte
//       against the authoritative data, and dump the resilience metrics
//       (retries, degraded fallbacks, circuit-breaker state,
//       quarantines). Exit 0 iff training saw zero errors.
//
//   monarchctl peer-status [--nodes N] [--files N] [--epochs N]
//                          [--replication R]
//       Cooperative-peer-cache demo (DESIGN.md "Cooperative peer
//       cache"): N in-memory nodes share one cluster directory, each
//       stages its consistent-hash shard, and later epochs read the
//       other shards over the simulated interconnect. Prints per-node
//       owned/placed/remote-hit counts plus directory and interconnect
//       totals.
//
//   monarchctl read-ring [--files N] [--ops N] [--depth D] [--workers W]
//                        [--zero-copy true|false]
//       Async read-ring demo (DESIGN.md "Async read path & zero-copy
//       lane"): submit N lease-mode reads for a small in-memory dataset
//       through the submission ring, harvest the completions, and print
//       the ring status — configured depth, queued/in-flight ops,
//       submitted/completed/cancelled totals, and the zero-copy hit
//       rate. Exit 0 iff every completion succeeded byte-identical to
//       the authoritative data.
//
//   monarchctl ckpt-status [--saves N] [--bytes SIZE] [--keep K]
//       Write-back checkpoint demo (DESIGN.md "Checkpoint write-back"):
//       save N checkpoints through a CheckpointManager over an
//       in-memory two-level hierarchy, drain them to the demo PFS, then
//       print the manifest table
//       (gen/name/bytes/crc/state/local) and the manager's counters.
//
//   monarchctl qos-status [--bandwidth RATE] [--capacity SIZE]
//       Multi-tenant QoS demo (DESIGN.md "Multi-tenant QoS"): an
//       interactive, a training, and a full-scan tenant share one
//       bandwidth broker; the scan tenant charges past its weighted
//       share and is throttled while the others are not. An admission
//       controller then sizes three job footprints against --capacity.
//       Prints the per-tenant usage table (class/weight/share/consumed/
//       throttle counters) and the admission tallies. Exit 0 iff the
//       scan tenant was throttled and the demand tenants were not.
//
// Exit code 0 on success, 1 on usage errors, 2 on runtime failures.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint_manager.h"
#include "cluster/peer_group.h"
#include "core/config.h"
#include "core/storage_hierarchy.h"
#include "core/monarch.h"
#include "dlsim/monarch_opener.h"
#include "dlsim/trainer.h"
#include "obs/event_tracer.h"
#include "obs/metrics_registry.h"
#include "qos/admission.h"
#include "qos/bandwidth_broker.h"
#include "qos/tenant.h"
#include "storage/engine_factory.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"
#include "tfrecord/index.h"
#include "util/byte_units.h"
#include "util/table.h"
#include "workload/dataset_generator.h"
#include "workload/small_file_dataset.h"
#include "workload/trace.h"

namespace monarch::ctl {
namespace {

namespace fs = std::filesystem;

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
      "  monarchctl trace   export FILE.json [--workload demo|none]\n"
      "  monarchctl stage-status [--files N] [--lookahead N] [--read-fraction F]\n"
      "                     [--policy first-fit|round-robin|lru|hotspot]\n"
      "                     [--quota BYTES]\n"
      "  monarchctl pack-status [--files N] [--codec none|lz] [--chunk-bytes N]\n"
      "  monarchctl faults  [--local-rate R] [--pfs-rate R] [--corrupt-rate R]\n"
      "                     [--epochs N] [--files N] [--outage-epoch E]\n"
      "  monarchctl peer-status [--nodes N] [--files N] [--epochs N] [--replication R]\n"
      "  monarchctl cluster-status [--nodes N] [--files N] [--replication R] [--kill NODE]\n"
      "  monarchctl read-ring [--files N] [--ops N] [--depth D] [--workers W] [--zero-copy true|false]\n"
      "  monarchctl ckpt-status [--saves N] [--bytes SIZE] [--keep K]\n"
      "  monarchctl qos-status [--bandwidth RATE] [--capacity SIZE]\n";
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
  const double scale = std::atof(args.GetOr("scale", "1.0").c_str());
  auto spec = PresetSpec(args.GetOr("preset", "tiny"),
                         scale > 0 ? scale : 1.0);
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

  // Collect the file list from the namespace.
  std::vector<std::string> files;
  for (const auto& entry : (*monarch)->metadata().Snapshot()) {
    files.push_back(entry.name);
  }
  if (files.empty()) {
    std::cerr << "run: dataset directory is empty\n";
    return 2;
  }

  auto model = ModelByName(args.GetOr("model", "lenet"));
  if (!model.ok()) {
    std::cerr << "run: " << model.status() << "\n";
    return 1;
  }
  dlsim::TrainerConfig tc;
  tc.model = model.value();
  tc.epochs = std::max(1, std::atoi(args.GetOr("epochs", "3").c_str()));

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
            << " unplaceable=" << stats.placement.rejected_no_space
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

  const int threads = std::max(1, std::atoi(args.GetOr("threads", "4").c_str()));
  auto stats = workload::ReplayTrace(events.value(), *engine, threads);
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
      MONARCH_ASSIGN_OR_RETURN(std::size_t n,
                               monarch->Read(entry.name, 0, buffer));
      (void)n;
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

/// Drive the pipelined staging engine with a scheduled demo workload and
/// print its status: queue depths per I/O class, total in-flight bytes,
/// buffer-pool occupancy, and the prefetch hit/waste counters
/// (docs/OBSERVABILITY.md "Staging pipeline").
int CmdStageStatus(const Args& args) {
  const int files = std::max(1, std::atoi(args.GetOr("files", "12").c_str()));
  const int lookahead =
      std::max(1, std::atoi(args.GetOr("lookahead", "4").c_str()));
  const double read_fraction =
      std::atof(args.GetOr("read-fraction", "0.5").c_str());
  const std::string policy_name = args.GetOr("policy", "first-fit");
  const std::uint64_t quota = static_cast<std::uint64_t>(
      std::atoll(args.GetOr("quota", std::to_string(16ll << 20)).c_str()));

  auto pfs = std::make_shared<storage::MemoryEngine>("demo-pfs");
  const std::vector<std::byte> payload(16 * 1024);
  std::vector<std::string> order;
  for (int i = 0; i < files; ++i) {
    const std::string name = "data/f" + std::to_string(i) + ".bin";
    if (const Status status = pfs->Write(name, payload); !status.ok()) {
      std::cerr << "stage-status: " << status << "\n";
      return 2;
    }
    order.push_back(name);
  }

  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{
      "demo-ssd", std::make_shared<storage::MemoryEngine>("demo-ssd"),
      /*quota_bytes=*/std::max<std::uint64_t>(quota, payload.size())});
  config.pfs = core::TierSpec{"demo-pfs", std::move(pfs), 0};
  config.dataset_dir = "data";
  config.placement.prefetch_lookahead = lookahead;
  config.placement.staging_buffer_bytes = 64 * 1024;
  config.placement.staging_chunk_bytes = 4 * 1024;
  {
    auto policy = core::MakePlacementPolicyByName(policy_name);
    if (!policy.ok()) {
      std::cerr << "stage-status: " << policy.status() << "\n";
      return 1;
    }
    config.policy = std::move(policy).value();
  }
  auto monarch = core::Monarch::Create(std::move(config));
  if (!monarch.ok()) {
    std::cerr << "stage-status: " << monarch.status() << "\n";
    return 2;
  }

  // Publish the run schedule (what a trainer does), then demand-read the
  // leading fraction of it so the look-ahead window rolls and hits
  // accrue; the tail of the schedule stays speculative (staged but never
  // read).
  monarch.value()->InstallRunSchedule({order});
  const int to_read = std::min(
      files, std::max(0, static_cast<int>(read_fraction * files + 0.5)));
  std::vector<std::byte> buffer(payload.size());
  for (int i = 0; i < to_read; ++i) {
    // Let the look-ahead window land before each read (a real loader's
    // compute time plays this role) so the demo reports deterministic
    // hit counts instead of racing demand against its own prefetches.
    monarch.value()->DrainPlacements();
    if (auto read = monarch.value()->Read(order[static_cast<std::size_t>(i)],
                                          0, buffer);
        !read.ok()) {
      std::cerr << "stage-status: read failed: " << read.status() << "\n";
      return 2;
    }
  }
  monarch.value()->DrainPlacements();

  const auto stats = monarch.value()->Stats();
  const auto& p = stats.placement;
  const std::uint64_t staged_unread =
      p.prefetch_completed > stats.prefetch_hits
          ? p.prefetch_completed - stats.prefetch_hits
          : 0;
  std::cout << "staging pipeline status (demo: " << files << " files, "
            << "lookahead " << lookahead << ", " << to_read
            << " demand reads)\n"
            << "  policy          name=" << monarch.value()->policy().Name()
            << " evicts_under_pressure="
            << (monarch.value()->policy().EvictsUnderPressure() ? "yes" : "no")
            << " ranked_by=" << monarch.value()->EvictionRanking() << "\n"
            << "  evictions       count=" << p.evictions
            << " bytes=" << FormatByteSize(p.evicted_bytes)
            << " refused=" << p.eviction_refused
            << " pinned_skips=" << p.eviction_pinned_skips << "\n"
            << "  queue depth    ";
  for (int c = 0; c < qos::kNumIoClasses; ++c) {
    std::cout << " " << qos::IoClassName(static_cast<qos::IoClass>(c)) << "="
              << p.queue_depth[static_cast<std::size_t>(c)];
  }
  std::cout << "\n"
            << "  buffer pool     used=" << FormatByteSize(
                   p.buffer_pool_used_bytes)
            << " / " << FormatByteSize(p.buffer_pool_capacity_bytes) << "\n"
            << "  in-flight       total="
            << FormatByteSize(p.inflight_bytes) << "\n"
            << "  prefetch        scheduled=" << p.prefetch_scheduled
            << " completed=" << p.prefetch_completed
            << " promoted=" << p.prefetch_promoted
            << " cancelled=" << p.prefetch_cancelled << "\n"
            << "  hits/waste      hits=" << stats.prefetch_hits
            << " staged_unread=" << staged_unread << " hit_rate="
            << (p.prefetch_scheduled > 0
                    ? static_cast<double>(stats.prefetch_hits) /
                          static_cast<double>(p.prefetch_scheduled)
                    : 0.0)
            << "\n"
            << "  copy pipeline   chunks_copied=" << p.chunks_copied
            << " donated=" << FormatByteSize(p.donated_bytes)
            << " bytes_staged=" << FormatByteSize(p.bytes_staged) << "\n";
  return 0;
}

/// Small-file packing demo (ISSUE 9): pack a tiny-file dataset into
/// container extents on an in-memory PFS, read it through a pack-enabled
/// hierarchy — a sparse pass touching one chunk per file, then a full
/// pass — and print the pack index, chunk residency, compression ratio,
/// and chunk hit/miss counters.
int CmdPackStatus(const Args& args) {
  const int files = std::max(1, std::atoi(args.GetOr("files", "24").c_str()));
  const std::string codec = args.GetOr("codec", "lz");
  const std::uint64_t chunk_bytes = static_cast<std::uint64_t>(
      std::atoll(args.GetOr("chunk-bytes", "1024").c_str()));

  workload::SmallFileSpec spec;
  spec.directory = "data";
  spec.num_files = static_cast<std::uint64_t>(files);
  spec.num_classes = 4;
  spec.mean_file_bytes = 4 * 1024;
  spec.pack_extent_bytes = 32 * 1024;
  auto pfs = std::make_shared<storage::MemoryEngine>("demo-pfs");
  auto manifest = workload::GeneratePackedSmallFiles(*pfs, spec);
  if (!manifest.ok()) {
    std::cerr << "pack-status: " << manifest.status() << "\n";
    return 2;
  }
  auto local = std::make_shared<storage::MemoryEngine>("demo-ssd");

  core::MonarchConfig config;
  config.cache_tiers.push_back(
      core::TierSpec{"demo-ssd", local, /*quota_bytes=*/8 << 20});
  config.pfs = core::TierSpec{"demo-pfs", pfs, 0};
  config.dataset_dir = "data";
  config.placement.num_threads = 2;
  config.placement.pack.enabled = true;
  config.placement.pack.chunk_bytes = std::max<std::uint64_t>(1, chunk_bytes);
  config.placement.pack.codec = codec;
  auto monarch = core::Monarch::Create(std::move(config));
  if (!monarch.ok()) {
    std::cerr << "pack-status: " << monarch.status() << "\n";
    return 2;
  }

  // Sparse pass: one chunk-sized bite out of every file (cold — all
  // chunk misses), then let staging land, then a warm re-read of the
  // same slices (all chunk hits) and a full-file pass.
  std::vector<std::byte> buffer(16 * 1024);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < files; ++i) {
      const std::string name =
          workload::SmallFilePath(spec, static_cast<std::uint64_t>(i));
      auto read = monarch.value()->Read(
          name, 0, std::span<std::byte>(buffer.data(), chunk_bytes));
      if (!read.ok()) {
        std::cerr << "pack-status: read failed: " << read.status() << "\n";
        return 2;
      }
    }
    monarch.value()->DrainPlacements();
  }
  for (int i = 0; i < files; ++i) {
    const std::string name =
        workload::SmallFilePath(spec, static_cast<std::uint64_t>(i));
    auto read = monarch.value()->Read(name, 0, buffer);
    if (!read.ok()) {
      std::cerr << "pack-status: read failed: " << read.status() << "\n";
      return 2;
    }
  }
  monarch.value()->DrainPlacements();

  const auto stats = monarch.value()->Stats();
  const auto& p = stats.placement;
  const double ratio =
      p.chunk_stored_bytes > 0
          ? static_cast<double>(p.bytes_staged) /
                static_cast<double>(p.chunk_stored_bytes)
          : 1.0;
  const double residency =
      stats.pack_logical_bytes > 0
          ? 100.0 * static_cast<double>(p.bytes_staged) /
                static_cast<double>(stats.pack_logical_bytes)
          : 0.0;
  std::cout << "pack status (demo: " << files << " small files, codec "
            << codec << ", chunk "
            << FormatByteSize(std::max<std::uint64_t>(1, chunk_bytes))
            << ")\n"
            << "  index           extents=" << stats.pack_extents
            << " logical_files=" << stats.pack_logical_files
            << " logical_bytes=" << FormatByteSize(stats.pack_logical_bytes)
            << "\n"
            << "  residency       chunks_staged=" << p.chunks_staged
            << " evicted=" << p.chunks_evicted
            << " staged_logical=" << FormatByteSize(p.bytes_staged)
            << " (" << Table::Num(std::min(residency, 100.0), 1)
            << "% of dataset)\n"
            << "  compression     stored=" << FormatByteSize(
                   p.chunk_stored_bytes)
            << " logical=" << FormatByteSize(p.bytes_staged)
            << " ratio=" << Table::Num(ratio, 2) << "x\n"
            << "  tier occupancy  " << FormatByteSize(
                   stats.levels[0].occupancy_bytes)
            << " of " << FormatByteSize(stats.levels[0].quota_bytes) << "\n"
            << "  reads           chunk_hits=" << stats.chunk_hits
            << " chunk_misses=" << stats.chunk_misses
            << " fallbacks=" << stats.degraded_fallbacks << "\n";
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

/// The ISSUE-2 degradation demo: train over an in-memory hierarchy whose
/// engines inject transient faults, verifying every read byte-for-byte
/// against the authoritative payloads. Exit 0 iff every read succeeded
/// with correct bytes — the resilience layer's whole contract.
int CmdFaults(const Args& args) {
  const double local_rate =
      std::atof(args.GetOr("local-rate", "0.05").c_str());
  const double pfs_rate = std::atof(args.GetOr("pfs-rate", "0.02").c_str());
  const double corrupt_rate =
      std::atof(args.GetOr("corrupt-rate", "0").c_str());
  const int epochs = std::max(1, std::atoi(args.GetOr("epochs", "3").c_str()));
  const int num_files =
      std::max(1, std::atoi(args.GetOr("files", "16").c_str()));
  // Epoch (0-based) during which the local tier goes hard-down halfway
  // through, then heals at the epoch boundary; -1 disables the outage.
  const int outage_epoch =
      std::atoi(args.GetOr("outage-epoch", "-1").c_str());

  constexpr std::size_t kFileBytes = 4096;
  auto pfs_inner = std::make_shared<storage::MemoryEngine>("pfs");
  std::vector<std::vector<std::byte>> golden(
      static_cast<std::size_t>(num_files));
  for (int i = 0; i < num_files; ++i) {
    auto& payload = golden[static_cast<std::size_t>(i)];
    payload.resize(kFileBytes);
    for (std::size_t b = 0; b < kFileBytes; ++b) {
      payload[b] = static_cast<std::byte>((b * 31 + i * 7) & 0xff);
    }
    if (auto s = pfs_inner->Write("data/f" + std::to_string(i) + ".bin",
                                  payload);
        !s.ok()) {
      std::cerr << "faults: seeding dataset failed: " << s << "\n";
      return 2;
    }
  }

  storage::FaultyEngine::FaultSpec local_spec;
  local_spec.read_failure_rate = local_rate;
  local_spec.write_failure_rate = local_rate;
  local_spec.read_corruption_rate = corrupt_rate;
  local_spec.seed = 7;
  auto local = std::make_shared<storage::FaultyEngine>(
      std::make_shared<storage::MemoryEngine>("local"), local_spec);

  storage::FaultyEngine::FaultSpec pfs_spec;
  pfs_spec.read_failure_rate = pfs_rate;
  pfs_spec.metadata_failure_rate = pfs_rate;
  pfs_spec.seed = 11;
  auto pfs = std::make_shared<storage::FaultyEngine>(pfs_inner, pfs_spec);

  core::MonarchConfig config;
  config.cache_tiers.push_back(
      core::TierSpec{"local", local, /*quota_bytes=*/1ull << 20});
  config.pfs = core::TierSpec{"pfs", pfs, 0};
  config.dataset_dir = "data";
  config.resilience.verify_on_read = corrupt_rate > 0;
  config.resilience.health.min_samples = 8;
  config.resilience.health.cooldown = Millis(20);
  auto monarch = core::Monarch::Create(std::move(config));
  if (!monarch.ok()) {
    std::cerr << "faults: " << monarch.status() << "\n";
    return 2;
  }

  std::vector<std::string> names;
  for (const auto& entry : (*monarch)->metadata().Snapshot()) {
    names.push_back(entry.name);
  }

  std::uint64_t read_errors = 0;
  std::uint64_t byte_mismatches = 0;
  std::vector<std::byte> buffer(kFileBytes);
  Table table({"epoch", "reads", "errors", "mismatches", "local_circuit",
               "circuit_opens"});
  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::uint64_t epoch_errors = 0;
    std::uint64_t epoch_mismatches = 0;
    for (std::size_t f = 0; f < names.size(); ++f) {
      if (epoch == outage_epoch && f == names.size() / 2) {
        local->FailUntilHealed();
        std::cout << "epoch " << epoch
                  << ": local tier hard-down injected mid-epoch\n";
      }
      auto read = (*monarch)->Read(names[f], 0, buffer);
      if (!read.ok() || read.value() != kFileBytes) {
        ++epoch_errors;
        continue;
      }
      // The dataset was written in namespace order, so golden[f] is the
      // authoritative payload of names[f] (Snapshot() sorts by name and
      // f0..f9-style names stay in write order for <10 files; compare by
      // content index parsed from the name to be safe).
      const std::size_t idx = static_cast<std::size_t>(
          std::atoi(names[f].substr(names[f].find('f') + 1).c_str()));
      if (!std::equal(buffer.begin(), buffer.end(), golden[idx].begin())) {
        ++epoch_mismatches;
      }
    }
    if (epoch == outage_epoch) {
      local->Heal();
      std::cout << "epoch " << epoch << ": local tier healed\n";
    }
    (*monarch)->DrainPlacements();
    // In-memory epochs are microseconds; pause past the breaker cooldown
    // so an opened circuit gets its half-open probe window and the table
    // shows the recovery, as a real epoch boundary would.
    PreciseSleep(Millis(25));
    read_errors += epoch_errors;
    byte_mismatches += epoch_mismatches;
    const auto stats = (*monarch)->Stats();
    table.AddRow({std::to_string(epoch), std::to_string(names.size()),
                  std::to_string(epoch_errors),
                  std::to_string(epoch_mismatches),
                  core::CircuitStateName(stats.levels[0].circuit_state),
                  std::to_string(stats.levels[0].circuit_opens)});
  }
  table.PrintAscii(std::cout);

  const auto stats = (*monarch)->Stats();
  std::uint64_t driver_retries = 0;
  for (const auto& level : stats.levels) driver_retries += level.retries;
  std::cout << "injected: local=" << local->injected_failures()
            << " pfs=" << pfs->injected_failures()
            << " corrupted=" << local->injected_corruptions() << "\n"
            << "absorbed: storage.retries=" << driver_retries
            << " degraded_fallbacks=" << stats.degraded_fallbacks
            << " (circuit_open=" << stats.fallbacks_circuit_open
            << " tier_error=" << stats.fallbacks_tier_error
            << " corruption=" << stats.fallbacks_corruption << ")\n"
            << "placement: retries=" << stats.placement.retries
            << " quarantined=" << stats.placement.quarantined
            << " abandoned=" << stats.placement.abandoned
            << " completed=" << stats.placement.completed << "\n"
            << "app-visible: errors=" << read_errors
            << " mismatches=" << byte_mismatches << "\n";
  if (read_errors == 0 && byte_mismatches == 0) {
    std::cout << "RESILIENT: training saw zero errors\n";
    return 0;
  }
  std::cout << "DEGRADED: training saw errors\n";
  return 2;
}

/// The ISSUE-4 cooperative-caching demo: N in-memory "nodes" (one
/// Monarch instance each) over ONE shared dataset, wired through a
/// cluster::PeerGroup. Epoch 1 stages each node's consistent-hash shard;
/// epoch 2+ serves the other shards over the simulated interconnect.
/// Dumps the per-node directory view the satellite asks for.
int CmdPeerStatus(const Args& args) {
  const int nodes = std::max(2, std::atoi(args.GetOr("nodes", "3").c_str()));
  const int num_files =
      std::max(1, std::atoi(args.GetOr("files", "8").c_str()));
  const int epochs = std::max(1, std::atoi(args.GetOr("epochs", "2").c_str()));
  const int replication =
      std::max(1, std::atoi(args.GetOr("replication", "1").c_str()));

  constexpr std::size_t kFileBytes = 4096;
  auto pfs = std::make_shared<storage::MemoryEngine>("demo-pfs");
  const std::vector<std::byte> payload(kFileBytes);
  for (int i = 0; i < num_files; ++i) {
    if (auto s = pfs->Write("data/f" + std::to_string(i) + ".bin", payload);
        !s.ok()) {
      std::cerr << "peer-status: seeding dataset failed: " << s << "\n";
      return 2;
    }
  }

  cluster::PeerOptions options;
  options.replication = replication;
  cluster::PeerGroup group(nodes, options);

  std::vector<std::unique_ptr<core::Monarch>> instances;
  for (int n = 0; n < nodes; ++n) {
    auto local = std::make_shared<storage::MemoryEngine>(
        "local" + std::to_string(n));
    group.RegisterNode(n, local);
    core::MonarchConfig config;
    config.cache_tiers.push_back(
        core::TierSpec{"local" + std::to_string(n), local,
                       /*quota_bytes=*/1ull << 20});
    config.peer_tier = core::TierSpec{"peer", group.MakePeerEngine(n), 0};
    config.peer_view = group.MakePeerView(n);
    config.pfs = core::TierSpec{"demo-pfs", pfs, 0};
    config.dataset_dir = "data";
    auto monarch = core::Monarch::Create(std::move(config));
    if (!monarch.ok()) {
      std::cerr << "peer-status: node " << n << ": " << monarch.status()
                << "\n";
      return 2;
    }
    instances.push_back(std::move(monarch).value());
  }

  // Epochs run node-by-node so the demo is deterministic: after epoch 1
  // every shard is staged on its owner, so epoch 2's foreign reads all
  // travel the interconnect.
  std::vector<std::byte> buffer(kFileBytes);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (auto& node : instances) {
      for (const auto& entry : node->metadata().Snapshot()) {
        if (auto read = node->Read(entry.name, 0, buffer); !read.ok()) {
          std::cerr << "peer-status: read failed: " << read.status() << "\n";
          return 2;
        }
      }
    }
    for (auto& node : instances) node->DrainPlacements();
  }

  std::cout << "cooperative peer cache status (demo: " << nodes << " nodes, "
            << num_files << " files, " << epochs << " epochs, replication "
            << replication << ")\n";
  Table table({"node", "owned", "placed", "remote_hits", "peer_reads",
               "pfs_reads", "peer_fallbacks"});
  for (int n = 0; n < nodes; ++n) {
    const auto peer_stats = group.directory().StatsFor(n);
    const auto stats = instances[static_cast<std::size_t>(n)]->Stats();
    const auto& peer_level =
        stats.levels[stats.levels.size() - 2];  // always present here
    table.AddRow({std::to_string(n), std::to_string(peer_stats.owned),
                  std::to_string(peer_stats.placed),
                  std::to_string(peer_stats.remote_hits),
                  std::to_string(peer_level.reads),
                  std::to_string(stats.pfs_reads()),
                  std::to_string(stats.fallbacks_peer_miss +
                                 stats.fallbacks_peer_error)});
  }
  table.PrintAscii(std::cout);
  std::cout << "directory: entries=" << group.directory().entries()
            << " placed_copies=" << group.directory().placed_copies() << "\n"
            << "interconnect: transfers=" << group.network()->transfers()
            << " bytes=" << FormatByteSize(group.network()->bytes_transferred())
            << "\n";
  return 0;
}

const char* NodeStateName(cluster::NodeState state) {
  switch (state) {
    case cluster::NodeState::kAbsent: return "absent";
    case cluster::NodeState::kUp: return "up";
    case cluster::NodeState::kDown: return "DOWN";
  }
  return "?";
}

/// The ISSUE-7 churn-survival demo: N in-memory nodes stage a replicated
/// dataset, one node is killed (ads retracted, ownership shifts, repair
/// queued), the re-staging pumps restore the replication factor, and the
/// node rejoins. Dumps per-node liveness, ring version, replication
/// health, and re-stage queue depth at each step.
int CmdClusterStatus(const Args& args) {
  const int nodes = std::max(2, std::atoi(args.GetOr("nodes", "3").c_str()));
  const int num_files =
      std::max(1, std::atoi(args.GetOr("files", "9").c_str()));
  const int replication =
      std::max(1, std::atoi(args.GetOr("replication", "2").c_str()));
  const int victim =
      std::min(nodes - 1,
               std::max(0, std::atoi(args.GetOr("kill", "1").c_str())));

  constexpr std::size_t kFileBytes = 4096;
  auto pfs = std::make_shared<storage::MemoryEngine>("demo-pfs");
  const std::vector<std::byte> payload(kFileBytes);
  for (int i = 0; i < num_files; ++i) {
    if (auto s = pfs->Write("data/f" + std::to_string(i) + ".bin", payload);
        !s.ok()) {
      std::cerr << "cluster-status: seeding dataset failed: " << s << "\n";
      return 2;
    }
  }

  cluster::PeerOptions options;
  options.replication = replication;
  cluster::PeerGroup group(nodes, options);
  cluster::FileDirectory& directory = group.directory();

  std::vector<std::unique_ptr<core::Monarch>> instances;
  for (int n = 0; n < nodes; ++n) {
    auto local = std::make_shared<storage::MemoryEngine>(
        "local" + std::to_string(n));
    group.RegisterNode(n, local);
    core::MonarchConfig config;
    config.cache_tiers.push_back(
        core::TierSpec{"local" + std::to_string(n), local,
                       /*quota_bytes=*/1ull << 20});
    config.peer_tier = core::TierSpec{"peer", group.MakePeerEngine(n), 0};
    config.peer_view = group.MakePeerView(n);
    config.pfs = core::TierSpec{"demo-pfs", pfs, 0};
    config.dataset_dir = "data";
    auto monarch = core::Monarch::Create(std::move(config));
    if (!monarch.ok()) {
      std::cerr << "cluster-status: node " << n << ": " << monarch.status()
                << "\n";
      return 2;
    }
    instances.push_back(std::move(monarch).value());
  }

  // Two staging epochs: every owner (primary and replicas) ends up
  // holding its shard.
  std::vector<std::byte> buffer(kFileBytes);
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (auto& node : instances) {
      for (const auto& entry : node->metadata().Snapshot()) {
        if (auto read = node->Read(entry.name, 0, buffer); !read.ok()) {
          std::cerr << "cluster-status: read failed: " << read.status()
                    << "\n";
          return 2;
        }
      }
      node->DrainPlacements();
    }
  }

  const auto print_state = [&](const char* phase) {
    std::cout << "\n[" << phase << "] ring version "
              << directory.membership_version() << ", live "
              << directory.live_nodes() << "/" << nodes << "\n";
    Table table({"node", "state", "owned", "placed", "remote_hits",
                 "restage_pending"});
    for (int n = 0; n < nodes; ++n) {
      const auto stats = directory.StatsFor(n);
      table.AddRow({std::to_string(n), NodeStateName(stats.state),
                    std::to_string(stats.owned),
                    std::to_string(stats.placed),
                    std::to_string(stats.remote_hits),
                    std::to_string(stats.restage_pending)});
    }
    table.PrintAscii(std::cout);
    const auto health = directory.CheckReplication();
    std::cout << "replication: files=" << health.files << " at_target="
              << health.at_target << " below_target=" << health.below_target
              << " unhosted=" << health.unhosted << " (target "
              << std::min(replication, directory.live_nodes()) << ")\n";
  };

  std::cout << "cluster churn status (demo: " << nodes << " nodes, "
            << num_files << " files, replication " << replication << ")\n";
  print_state("staged");

  // Kill the victim: its ads are retracted atomically, ownership walks
  // past it, and repair work lands on the survivors' re-stage queues.
  group.KillNode(victim);
  print_state("node killed");

  // Drain the repair queues through each survivor's prefetch lane.
  for (int n = 0; n < nodes; ++n) {
    for (const std::string& name : directory.TakeRestage(
             n, static_cast<std::size_t>(num_files))) {
      auto staged = instances[static_cast<std::size_t>(n)]->RestageFile(name);
      if (staged.ok() && staged.value() > 0) {
        directory.CountRestageCompleted(staged.value());
      }
    }
    instances[static_cast<std::size_t>(n)]->DrainPlacements();
  }
  print_state("repaired");

  // The victim rejoins: surviving local copies are re-advertised first,
  // so the rejoin delta only repairs what was actually lost.
  instances[static_cast<std::size_t>(victim)]->ReadvertisePlacedCopies();
  group.ReviveNode(victim);
  print_state("rejoined");

  std::cout << "\nrestage: enqueued=" << directory.restage_enqueued_total()
            << " completed=" << directory.restage_completed_total()
            << " queued_now=" << directory.RestageQueueDepth() << "\n";
  const auto health = directory.CheckReplication();
  if (health.below_target == 0 && health.unhosted == 0) {
    std::cout << "HEALTHY: replication restored after churn\n";
    return 0;
  }
  std::cout << "DEGRADED: " << health.below_target
            << " files below replication target\n";
  return 2;
}

/// The write-back checkpoint demo: a CheckpointManager over an in-memory
/// two-level hierarchy saves N checkpoints, drains them to the demo PFS,
/// and dumps the manifest table.
int CmdCkptStatus(const Args& args) {
  const int saves = std::max(1, std::atoi(args.GetOr("saves", "6").c_str()));
  const int keep = std::max(0, std::atoi(args.GetOr("keep", "0").c_str()));
  const auto bytes = ParseByteSize(args.GetOr("bytes", "256KiB"));
  if (!bytes.ok()) {
    std::cerr << "ckpt-status: " << bytes.status() << "\n";
    return 1;
  }

  // Local quota of 4 checkpoints: with more saves than that, the demo
  // also shows durable-copy eviction under capacity pressure.
  std::vector<core::StorageDriverPtr> drivers;
  drivers.push_back(std::make_unique<core::StorageDriver>(
      "local-ram", std::make_shared<storage::MemoryEngine>("local-ram"),
      bytes.value() * 4 + 4096, /*read_only=*/false));
  drivers.push_back(std::make_unique<core::StorageDriver>(
      "demo-pfs", std::make_shared<storage::MemoryEngine>("demo-pfs"),
      /*quota_bytes=*/0, /*read_only=*/true));
  auto hierarchy = core::StorageHierarchy::Create(std::move(drivers));
  if (!hierarchy.ok()) {
    std::cerr << "ckpt-status: " << hierarchy.status() << "\n";
    return 2;
  }

  ckpt::CheckpointOptions options;
  options.keep_last = keep;
  options.chunk_bytes = 64 * 1024;
  options.buffer_bytes = 256 * 1024;
  ckpt::CheckpointManager manager(**hierarchy, options);

  std::vector<std::byte> payload(bytes.value());
  for (int i = 0; i < saves; ++i) {
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::byte>((j + static_cast<std::size_t>(i)) &
                                          0xFF);
    }
    if (auto s = manager.Save("model-" + std::to_string(i), payload); !s.ok()) {
      std::cerr << "ckpt-status: save failed: " << s << "\n";
      return 2;
    }
  }
  if (auto s = manager.Flush(); !s.ok()) {
    std::cerr << "ckpt-status: flush failed: " << s << "\n";
    return 2;
  }

  std::cout << "checkpoint write-back status (demo: " << saves << " saves of "
            << FormatByteSize(bytes.value()) << ", keep-last "
            << (keep == 0 ? std::string("all") : std::to_string(keep))
            << ")\n";
  Table table({"gen", "name", "bytes", "crc32c", "state", "local"});
  for (const auto& entry : manager.ManifestView()) {
    std::ostringstream crc;
    crc << std::hex << entry.crc;
    table.AddRow({std::to_string(entry.gen), entry.name,
                  std::to_string(entry.bytes), crc.str(),
                  ckpt::CkptStateName(entry.state),
                  entry.local_present ? "yes" : "no"});
  }
  table.PrintAscii(std::cout);
  const auto stats = manager.GetStats();
  std::cout << "saves=" << stats.saves << " drained="
            << stats.drains_completed << " drain_bytes=" << stats.drain_bytes
            << " local_evictions=" << stats.local_evictions
            << " pruned=" << stats.pruned
            << " pending=" << stats.pending_drains << "\n";
  return 0;
}

/// Multi-tenant QoS demo (DESIGN.md "Multi-tenant QoS"): an interactive,
/// a training, and a full-scan tenant share one bandwidth broker. The
/// demand tenants sip well inside their weighted shares; the scan floods
/// past its own and absorbs every throttle wait. Three job footprints
/// then go through admission control against --capacity.
int CmdQosStatus(const Args& args) {
  const auto bandwidth = ParseByteSize(args.GetOr("bandwidth", "2MiB"));
  const auto capacity = ParseByteSize(args.GetOr("capacity", "64MiB"));
  if (!bandwidth.ok() || !capacity.ok()) {
    std::cerr << "qos-status: "
              << (bandwidth.ok() ? capacity : bandwidth).status() << "\n";
    return 1;
  }

  qos::BandwidthBroker::Options broker_options;
  broker_options.total_rate_bps = static_cast<double>(bandwidth.value());
  broker_options.work_conserving = true;
  qos::BandwidthBroker broker(broker_options);

  const auto make_tenant = [](int id, const char* name, qos::IoClass cls,
                              double weight, bool low_retention) {
    qos::TenantContext tenant;
    tenant.tenant_id = id;
    tenant.name = name;
    tenant.io_class = cls;
    tenant.weight = weight;
    tenant.low_retention = low_retention;
    return tenant;
  };
  const auto interactive =
      make_tenant(0, "interactive", qos::IoClass::kInteractive, 8.0, false);
  const auto training =
      make_tenant(1, "training", qos::IoClass::kTraining, 4.0, false);
  const auto scan = make_tenant(2, "scan", qos::IoClass::kScan, 2.0, true);
  broker.RegisterTenant(interactive);
  broker.RegisterTenant(training);
  broker.RegisterTenant(scan);

  // All three are active, so shares split 8:4:2. The demand charges sit
  // inside their buckets' burst; the scan charge overdrives its share.
  broker.Acquire(interactive.tenant_id, bandwidth.value() / 200);
  broker.Acquire(training.tenant_id, bandwidth.value() / 200);
  broker.Acquire(scan.tenant_id, bandwidth.value() / 16);

  std::cout << "multi-tenant QoS status (demo: "
            << FormatByteSize(bandwidth.value()) << "/s shared pipe, "
            << FormatByteSize(capacity.value()) << " admission capacity)\n";
  Table table({"tenant", "class", "weight", "share", "consumed", "waits",
               "throttled_us"});
  const auto usage = broker.Usage();
  const auto row = [&](int tenant_id) -> const auto* {
    for (const auto& entry : usage) {
      if (entry.tenant_id == tenant_id) return &entry;
    }
    std::abort();  // all three tenants are registered above
  };
  for (int id : {0, 1, 2}) {
    const auto* entry = row(id);
    table.AddRow({entry->name, std::string(qos::IoClassName(entry->io_class)),
                  std::to_string(static_cast<int>(entry->weight)),
                  FormatByteSize(static_cast<std::uint64_t>(entry->share_bps)) +
                      "/s",
                  std::to_string(entry->consumed_bytes),
                  std::to_string(entry->throttle_waits),
                  std::to_string(entry->throttled_us)});
  }
  table.PrintAscii(std::cout);

  // Admission: a half-capacity trainer and a quarter-capacity serving
  // job fit; a third job tips past the queue threshold; a full-scan
  // footprint larger than 1.5x capacity is rejected outright.
  qos::AdmissionController::Options admission_options;
  admission_options.capacity_bytes = capacity.value();
  qos::AdmissionController admission(admission_options);
  (void)admission.Request(training, capacity.value() / 2);
  (void)admission.Request(interactive, capacity.value() / 4);
  (void)admission.Request(training, capacity.value() / 4);
  (void)admission.Request(scan, capacity.value() * 2);
  const auto stats = admission.GetStats();
  std::cout << "admission: admitted=" << stats.admitted
            << " queued=" << stats.queued << " rejected=" << stats.rejected
            << " committed=" << FormatByteSize(stats.committed_bytes) << "\n";

  const bool isolated = row(2)->throttle_waits > 0 &&
                        row(0)->throttle_waits == 0 &&
                        row(1)->throttle_waits == 0;
  std::cout << (isolated ? "ISOLATED: scan throttled, demand untouched"
                         : "FAILED: throttling landed on the wrong class")
            << "\n";
  return isolated ? 0 : 2;
}

/// Async read-ring demo (DESIGN.md "Async read path & zero-copy lane"):
/// stage a small in-memory dataset, submit lease-mode reads through the
/// submission ring, verify every completion against the authoritative
/// bytes, and print the ring status monarchctl-style.
int CmdReadRing(const Args& args) {
  const int files = std::max(1, std::atoi(args.GetOr("files", "8").c_str()));
  const int ops = std::max(1, std::atoi(args.GetOr("ops", "64").c_str()));
  const int depth = std::max(1, std::atoi(args.GetOr("depth", "32").c_str()));
  const int workers =
      std::max(1, std::atoi(args.GetOr("workers", "2").c_str()));
  const std::string zero_copy_flag = args.GetOr("zero-copy", "true");
  if (zero_copy_flag != "true" && zero_copy_flag != "false") {
    std::cerr << "read-ring: unknown --zero-copy '" << zero_copy_flag
              << "' (true|false)\n";
    return 1;
  }
  const bool zero_copy = zero_copy_flag == "true";

  auto pfs = std::make_shared<storage::MemoryEngine>("demo-pfs");
  std::vector<std::vector<std::byte>> payloads;
  std::vector<std::string> names;
  for (int i = 0; i < files; ++i) {
    std::vector<std::byte> payload(4096);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::byte>((j * 31 + static_cast<std::size_t>(i))
                                          & 0xFF);
    }
    const std::string name = "data/f" + std::to_string(i) + ".bin";
    if (const Status status = pfs->Write(name, payload); !status.ok()) {
      std::cerr << "read-ring: " << status << "\n";
      return 2;
    }
    names.push_back(name);
    payloads.push_back(std::move(payload));
  }

  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{
      "demo-ssd", std::make_shared<storage::MemoryEngine>("demo-ssd"),
      /*quota_bytes=*/1ull << 20});
  config.pfs = core::TierSpec{"demo-pfs", std::move(pfs), 0};
  config.dataset_dir = "data";
  config.read.depth = depth;
  config.read.worker_threads = workers;
  config.read.zero_copy = zero_copy;
  auto monarch = core::Monarch::Create(std::move(config));
  if (!monarch.ok()) {
    std::cerr << "read-ring: " << monarch.status() << "\n";
    return 2;
  }
  // Warm pass so the placement pipeline stages the dataset — the ring
  // demo then reads from the cache tier (the zero-copy lane).
  std::vector<std::byte> warm(4096);
  for (const std::string& name : names) {
    if (auto read = monarch.value()->Read(name, 0, warm); !read.ok()) {
      std::cerr << "read-ring: warm read failed: " << read.status() << "\n";
      return 2;
    }
  }
  monarch.value()->DrainPlacements();

  core::ReadRing& ring = monarch.value()->read_ring();
  std::vector<core::ReadOp> batch;
  for (int i = 0; i < ops; ++i) {
    core::ReadOp op;
    op.name = names[static_cast<std::size_t>(i) % names.size()];
    op.lease = true;
    op.user_data = static_cast<std::uint64_t>(i);
    batch.push_back(std::move(op));
  }
  const std::size_t accepted = ring.Submit(std::move(batch));

  std::vector<core::ReadCompletion> completions;
  while (completions.size() < accepted) {
    if (ring.HarvestBlocking(completions) == 0 &&
        completions.size() < accepted) {
      break;  // ring drained without delivering everything (shutdown)
    }
  }
  int failures = 0;
  for (const core::ReadCompletion& c : completions) {
    const auto& expect =
        payloads[static_cast<std::size_t>(c.user_data) % payloads.size()];
    if (!c.bytes.ok() || c.lease.size() != expect.size() ||
        !std::equal(expect.begin(), expect.end(), c.lease.data().begin())) {
      ++failures;
    }
  }

  const core::ReadRing::RingStats stats = ring.Stats();
  std::cout << "read ring status (demo: " << files << " files, " << accepted
            << " lease ops, zero-copy "
            << (zero_copy ? "enabled" : "disabled") << ")\n"
            << "  ring            depth=" << stats.depth
            << " workers=" << ring.options().worker_threads
            << " queued=" << stats.queued << " inflight=" << stats.inflight
            << "\n"
            << "  ops             submitted=" << stats.submitted
            << " completed=" << stats.completed
            << " cancelled=" << stats.cancelled << "\n"
            << "  zero-copy       hits=" << stats.zero_copy_reads
            << " copies=" << stats.copy_reads << " hit_rate="
            << Table::Num(100.0 * stats.zero_copy_hit_rate(), 1) << "%\n"
            << "  verify          ok=" << (completions.size() -
                                           static_cast<std::size_t>(failures))
            << "/" << completions.size() << " byte-identical\n";
  return failures == 0 && completions.size() == accepted ? 0 : 2;
}

int Main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    PrintUsage();
    return 1;
  }
  const std::string& command = args->command;
  if (command == "gen") return CmdGen(*args);
  if (command == "inspect") return CmdInspect(*args);
  if (command == "run") return CmdRun(*args);
  if (command == "replay") return CmdReplay(*args);
  if (command == "metrics") return CmdMetrics(*args);
  if (command == "trace") return CmdTraceExport(*args);
  if (command == "stage-status") return CmdStageStatus(*args);
  if (command == "pack-status") return CmdPackStatus(*args);
  if (command == "faults") return CmdFaults(*args);
  if (command == "peer-status") return CmdPeerStatus(*args);
  if (command == "cluster-status") return CmdClusterStatus(*args);
  if (command == "read-ring") return CmdReadRing(*args);
  if (command == "ckpt-status") return CmdCkptStatus(*args);
  if (command == "qos-status") return CmdQosStatus(*args);
  PrintUsage();
  return command.empty() ? 1 : 1;
}

}  // namespace
}  // namespace monarch::ctl

int main(int argc, char** argv) { return monarch::ctl::Main(argc, argv); }
