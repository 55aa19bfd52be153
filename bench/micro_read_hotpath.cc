// micro_read_hotpath: Monarch::Read's hot path under reader contention.
//
// An in-memory two-tier MONARCH instance is fully warmed (every file
// staged on the local memory tier), then the same stream of whole-file
// reads is issued at 1/8/64 reader threads, each calling Monarch::Read
// into a private buffer (one memcpy of the whole file per op). The sweep
// shows the read path's contention tail: how reads/sec and the latency
// percentiles move as readers are added. It has no gate; the numbers
// land in BENCH_read_hotpath.json.
//
// Knobs: MONARCH_BENCH_HOTPATH_OPS   total ops per sweep point (default 2048)
//        MONARCH_BENCH_HOTPATH_BYTES file size in bytes (default 1 MiB)
//        MONARCH_BENCH_HOTPATH_FILES staged files (default 8)

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/monarch.h"
#include "storage/memory_engine.h"
#include "util/status.h"

namespace monarch::bench {
namespace {

struct HotpathSetup {
  std::unique_ptr<core::Monarch> monarch;
  std::vector<std::string> names;
  std::size_t file_bytes = 0;
};

HotpathSetup BuildWarmInstance(int files, std::size_t file_bytes) {
  auto pfs = std::make_shared<storage::MemoryEngine>("bench-pfs");
  HotpathSetup setup;
  setup.file_bytes = file_bytes;
  for (int i = 0; i < files; ++i) {
    std::vector<std::byte> payload(file_bytes);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::byte>(
          (j * 31 + static_cast<std::size_t>(i)) & 0xFF);
    }
    const std::string name = "data/f" + std::to_string(i) + ".bin";
    if (const Status status = pfs->Write(name, payload); !status.ok()) {
      std::cerr << "read_hotpath: " << status << "\n";
      std::exit(2);
    }
    setup.names.push_back(name);
  }

  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{
      "bench-local", std::make_shared<storage::MemoryEngine>("bench-local"),
      /*quota_bytes=*/static_cast<std::uint64_t>(files + 1) * file_bytes});
  config.pfs = core::TierSpec{"bench-pfs", std::move(pfs), 0};
  config.dataset_dir = "data";
  auto monarch = core::Monarch::Create(std::move(config));
  if (!monarch.ok()) {
    std::cerr << "read_hotpath: " << monarch.status() << "\n";
    std::exit(2);
  }
  setup.monarch = std::move(monarch).value();

  // Warm pass: demand-read every file and drain so the whole dataset is
  // staged on the local tier before the sweep starts.
  std::vector<std::byte> buf(file_bytes);
  for (const std::string& name : setup.names) {
    if (auto read = setup.monarch->Read(name, 0, buf); !read.ok()) {
      std::cerr << "read_hotpath: warm read failed: " << read.status() << "\n";
      std::exit(2);
    }
  }
  setup.monarch->DrainPlacements();
  return setup;
}

SweepPoint RunSyncCopyPoint(HotpathSetup& setup, int threads,
                            int ops_per_thread) {
  return RunThreadSweepPoint(threads, ops_per_thread, [&](int t, int i) {
    thread_local std::vector<std::byte> buf;
    buf.resize(setup.file_bytes);
    const std::string& name =
        setup.names[static_cast<std::size_t>(t * ops_per_thread + i) %
                    setup.names.size()];
    if (auto read = setup.monarch->Read(name, 0, buf); !read.ok()) {
      std::cerr << "read_hotpath: sync read failed: " << read.status() << "\n";
      std::exit(2);
    }
  });
}

void PrintSweepTable(const std::string& arm,
                     const std::vector<SweepPoint>& points) {
  Table table({"arm", "threads", "ops", "ops_per_sec", "p50_us", "p99_us",
               "p999_us"});
  for (const SweepPoint& point : points) {
    table.AddRow({arm, std::to_string(point.threads),
                  std::to_string(point.ops),
                  Table::Num(point.ops_per_sec, 0),
                  std::to_string(point.latency.p50_us),
                  std::to_string(point.latency.p99_us),
                  std::to_string(point.latency.p999_us)});
  }
  table.PrintAscii(std::cout);
}

void AppendPointsJson(std::ostringstream& json, const std::string& arm,
                      const std::vector<SweepPoint>& points, bool& first) {
  for (const SweepPoint& point : points) {
    json << (first ? "" : ",") << "\n    {\"arm\": " << obs::JsonQuote(arm)
         << ", \"threads\": " << point.threads << ", \"ops\": " << point.ops
         << ", \"ops_per_sec\": " << JsonNum(point.ops_per_sec)
         << ", \"p50_us\": " << point.latency.p50_us
         << ", \"p99_us\": " << point.latency.p99_us
         << ", \"p999_us\": " << point.latency.p999_us << "}";
    first = false;
  }
}

int Run() {
  const int total_ops = EnvInt("MONARCH_BENCH_HOTPATH_OPS", 2048);
  const int file_bytes = EnvInt("MONARCH_BENCH_HOTPATH_BYTES", 1 << 20);
  const int files = EnvInt("MONARCH_BENCH_HOTPATH_FILES", 8);
  const std::vector<int> thread_counts{1, 8, 64};

  PrintBanner(std::cout,
              "micro_read_hotpath: Monarch::Read at 1/8/64 readers (" +
                  std::to_string(files) + " x " +
                  FormatByteSize(static_cast<std::uint64_t>(file_bytes)) +
                  " staged in memory)");

  HotpathSetup setup =
      BuildWarmInstance(files, static_cast<std::size_t>(file_bytes));

  std::vector<SweepPoint> points;
  for (const int threads : thread_counts) {
    const int ops_per_thread = std::max(1, total_ops / threads);
    points.push_back(RunSyncCopyPoint(setup, threads, ops_per_thread));
  }
  PrintSweepTable("sync_copy", points);

  const SweepPoint& one = points.front();
  const SweepPoint& most = points.back();
  const double tail_ratio =
      one.latency.p99_us > 0 ? static_cast<double>(most.latency.p99_us) /
                                   static_cast<double>(one.latency.p99_us)
                             : 0;
  std::cout << "\np99 at 64 threads / p99 at 1 thread: "
            << Table::Num(tail_ratio, 1) << "x\n";

  std::ostringstream json;
  json << "{\n  \"bench\": \"read_hotpath\",\n  \"file_bytes\": "
       << file_bytes << ",\n  \"files\": " << files
       << ",\n  \"points\": [";
  bool first = true;
  AppendPointsJson(json, "sync_copy", points, first);
  json << "\n  ],\n  \"metrics\": {\"ops_per_sec_1t\": "
       << JsonNum(one.ops_per_sec)
       << ", \"ops_per_sec_64t\": " << JsonNum(most.ops_per_sec)
       << ", \"p99_us_1t\": " << one.latency.p99_us
       << ", \"p99_us_64t\": " << most.latency.p99_us
       << ", \"p99_tail_ratio_64t\": " << JsonNum(tail_ratio) << "}\n}\n";

  const std::filesystem::path path = BenchJsonPath("read_hotpath");
  std::ofstream out(path);
  out << json.str();
  if (!out) {
    std::cerr << "bench-json: failed to write " << path << "\n";
    return 2;
  }
  std::cout << "bench-json: wrote " << path.string() << "\n";

  setup.monarch->Shutdown();
  return 0;
}

}  // namespace
}  // namespace monarch::bench

int main() { return monarch::bench::Run(); }
