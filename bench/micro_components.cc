// Component micro-benchmarks (google-benchmark): the hot paths the
// middleware touches on every read — CRC32C, TFRecord framing, the
// metadata container's lookup tables, the placement thread pool, and the
// end-to-end Monarch::Read overhead over an in-memory hierarchy (i.e.
// the middleware's own cost with device models and disks taken out).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/monarch.h"
#include "storage/memory_engine.h"
#include "tfrecord/format.h"
#include "tfrecord/reader.h"
#include "tfrecord/writer.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/sharded_map.h"
#include "util/thread_pool.h"

namespace monarch {
namespace {

std::vector<std::byte> RandomBytes(std::size_t size, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::byte> data(size);
  for (auto& b : data) b = static_cast<std::byte>(rng() & 0xFF);
  return data;
}

void BM_Crc32c(benchmark::State& state) {
  const auto data = RandomBytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_TFRecordEncode(benchmark::State& state) {
  const auto payload =
      RandomBytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    tfrecord::TFRecordWriter writer;
    writer.Append(payload);
    benchmark::DoNotOptimize(writer.contents().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TFRecordEncode)->Arg(4096)->Arg(65536);

void BM_TFRecordDecode(benchmark::State& state) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  tfrecord::TFRecordWriter writer;
  const auto payload =
      RandomBytes(static_cast<std::size_t>(state.range(0)), 3);
  for (int i = 0; i < 64; ++i) writer.Append(payload);
  (void)writer.Flush(*engine, "f");

  for (auto _ : state) {
    tfrecord::EngineSource source(engine, "f");
    tfrecord::TFRecordReader reader(source);
    while (reader.ReadRecord().ok()) {
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          state.range(0));
}
BENCHMARK(BM_TFRecordDecode)->Arg(4096)->Arg(65536);

void BM_ShardedMapLookup(benchmark::State& state) {
  ShardedMap<std::string, int> map(64);
  const int n = 100000;
  for (int i = 0; i < n; ++i) map.Insert("file-" + std::to_string(i), i);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map.Find("file-" + std::to_string(i++ % n)));
  }
}
BENCHMARK(BM_ShardedMapLookup)->Threads(1)->Threads(8);

void BM_ShardedMapInsert(benchmark::State& state) {
  // Fresh map per iteration batch; measures insert throughput.
  ShardedMap<std::uint64_t, int> map(64);
  std::uint64_t i =
      static_cast<std::uint64_t>(state.thread_index()) << 40;
  for (auto _ : state) {
    map.Insert(i++, 1);
  }
}
BENCHMARK(BM_ShardedMapInsert)->Threads(1)->Threads(8);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::atomic<int> remaining{64};
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&remaining] { remaining.fetch_sub(1); });
    }
    pool.Drain();
    if (remaining.load() != 0) state.SkipWithError("lost tasks");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(6)->Arg(12);

/// The middleware's own per-read overhead: Monarch::Read over in-memory
/// engines (no device models), steady state (file already placed).
void BM_MonarchReadSteadyState(benchmark::State& state) {
  auto pfs = std::make_shared<storage::MemoryEngine>("pfs");
  auto local = std::make_shared<storage::MemoryEngine>("local");
  const auto payload =
      RandomBytes(static_cast<std::size_t>(state.range(0)), 4);
  (void)pfs->Write("data/f", payload);

  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{"local", local, 1ULL << 30});
  config.pfs = core::TierSpec{"pfs", pfs, 0};
  config.dataset_dir = "data";
  auto monarch = core::Monarch::Create(std::move(config));
  if (!monarch.ok()) {
    state.SkipWithError("monarch create failed");
    return;
  }
  std::vector<std::byte> buf(payload.size());
  (void)monarch.value()->Read("data/f", 0, buf);  // trigger placement
  monarch.value()->DrainPlacements();

  for (auto _ : state) {
    benchmark::DoNotOptimize(monarch.value()->Read("data/f", 0, buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MonarchReadSteadyState)->Arg(4096)->Arg(65536);

/// Direct engine read for comparison (what the middleware adds on top).
void BM_DirectEngineRead(benchmark::State& state) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  const auto payload =
      RandomBytes(static_cast<std::size_t>(state.range(0)), 5);
  (void)engine->Write("f", payload);
  std::vector<std::byte> buf(payload.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Read("f", 0, buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DirectEngineRead)->Arg(4096)->Arg(65536);

void BM_MetadataPopulate(benchmark::State& state) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    (void)engine->Write("data/f" + std::to_string(i),
                        RandomBytes(16, static_cast<std::uint64_t>(i)));
  }
  for (auto _ : state) {
    core::MetadataContainer container;
    benchmark::DoNotOptimize(container.Populate(*engine, "data"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_MetadataPopulate)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace monarch

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// BENCH_micro_components.json (in $MONARCH_BENCH_JSON_DIR when set) so
// this binary emits machine-readable results like the figure benches do.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    std::string dir = ".";
    if (const char* env = std::getenv("MONARCH_BENCH_JSON_DIR")) dir = env;
    out_flag = "--benchmark_out=" + dir + "/BENCH_micro_components.json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
