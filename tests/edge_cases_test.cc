// Cross-cutting edge cases that don't belong to a single module's suite:
// degenerate buffer sizes, degenerate configurations, and boundary
// interactions between the reader, the loader and the middleware.
#include <gtest/gtest.h>

#include <memory>

#include "core/config.h"
#include "core/monarch.h"
#include "dlsim/data_loader.h"
#include "dlsim/trainer.h"
#include "storage/memory_engine.h"
#include "test_support.h"
#include "tfrecord/reader.h"
#include "tfrecord/writer.h"
#include "workload/dataset_generator.h"

namespace monarch {
namespace {

using monarch::testing::Bytes;
using monarch::testing::Text;

TEST(ReaderEdgeCases, BufferSmallerThanHeaderStillWorks) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  tfrecord::TFRecordWriter writer;
  writer.Append(Bytes("alpha"));
  writer.Append(Bytes("beta"));
  ASSERT_OK(writer.Flush(*engine, "f"));

  // buffer_bytes = 8 < 12-byte header: reads larger than the buffer must
  // bypass it, smaller ones refill it; either way bytes are exact.
  tfrecord::EngineSource source(engine, "f");
  tfrecord::TFRecordReader reader(source, {.buffer_bytes = 8});
  EXPECT_EQ("alpha", Text(reader.ReadRecord().value()));
  EXPECT_EQ("beta", Text(reader.ReadRecord().value()));
  EXPECT_STATUS_CODE(StatusCode::kOutOfRange, reader.ReadRecord());
}

TEST(ReaderEdgeCases, BufferOfOneByte) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  tfrecord::TFRecordWriter writer;
  writer.Append(Bytes("x"));
  ASSERT_OK(writer.Flush(*engine, "f"));
  tfrecord::EngineSource source(engine, "f");
  tfrecord::TFRecordReader reader(source, {.buffer_bytes = 1});
  EXPECT_EQ("x", Text(reader.ReadRecord().value()));
}

TEST(MonarchEdgeCases, ReadIntoEmptyBuffer) {
  auto pfs = std::make_shared<storage::MemoryEngine>("pfs");
  ASSERT_OK(pfs->Write("data/f", Bytes("content")));
  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{
      "local", std::make_shared<storage::MemoryEngine>("l"), 1024});
  config.pfs = core::TierSpec{"pfs", pfs, 0};
  config.dataset_dir = "data";
  auto monarch = core::Monarch::Create(std::move(config));
  ASSERT_OK(monarch);

  std::span<std::byte> empty;
  auto read = monarch.value()->Read("data/f", 0, empty);
  ASSERT_OK(read);
  EXPECT_EQ(0u, read.value());
}

TEST(MonarchEdgeCases, ReadBufferLargerThanFileCountsAsFullRead) {
  auto pfs = std::make_shared<storage::MemoryEngine>("pfs");
  auto local = std::make_shared<storage::MemoryEngine>("local");
  ASSERT_OK(pfs->Write("data/f", Bytes("short")));
  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{"local", local, 1024});
  config.pfs = core::TierSpec{"pfs", pfs, 0};
  config.dataset_dir = "data";
  auto monarch = core::Monarch::Create(std::move(config));
  ASSERT_OK(monarch);

  std::vector<std::byte> big(4096);
  auto read = monarch.value()->Read("data/f", 0, big);
  ASSERT_OK(read);
  EXPECT_EQ(5u, read.value());
  monarch.value()->DrainPlacements();
  // The short read covered the whole file, so the placement reused the
  // bytes: exactly one PFS data read total.
  EXPECT_EQ(1u, pfs->Stats().Snapshot().read_ops);
  EXPECT_TRUE(local->Exists("data/f#c0").value());
}

TEST(LoaderEdgeCases, MoreReadersThanFiles) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  auto spec = workload::DatasetSpec::Tiny();
  spec.num_files = 2;
  auto manifest = workload::GenerateDataset(*engine, spec);
  ASSERT_OK(manifest);

  dlsim::EngineOpener opener(engine);
  dlsim::ResourceMonitor monitor(8, 1);
  dlsim::LoaderConfig config;
  config.reader_threads = 8;  // 4x the file count
  dlsim::EpochLoader loader(manifest->file_paths, 1, opener, monitor,
                            config);
  std::uint64_t samples = 0;
  while (loader.queue().Pop().has_value()) ++samples;
  loader.Finish();
  ASSERT_OK(loader.status());
  EXPECT_EQ(spec.total_samples(), samples);
}

TEST(TrainerEdgeCases, ZeroEpochsIsANoop) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  auto manifest =
      workload::GenerateDataset(*engine, workload::DatasetSpec::Tiny());
  ASSERT_OK(manifest);
  dlsim::TrainerConfig config;
  config.epochs = 0;
  dlsim::Trainer trainer(manifest->file_paths,
                         std::make_unique<dlsim::EngineOpener>(engine),
                         config);
  auto result = trainer.Train();
  ASSERT_OK(result);
  EXPECT_TRUE(result->epochs.empty());
  EXPECT_EQ(0.0, result->total_seconds);
}

TEST(TrainerEdgeCases, BatchLargerThanDataset) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  auto manifest =
      workload::GenerateDataset(*engine, workload::DatasetSpec::Tiny());
  ASSERT_OK(manifest);
  dlsim::TrainerConfig config;
  config.epochs = 1;
  config.batch_size = 100000;
  config.model.step_time = Micros(10);
  dlsim::Trainer trainer(manifest->file_paths,
                         std::make_unique<dlsim::EngineOpener>(engine),
                         config);
  auto result = trainer.Train();
  ASSERT_OK(result);
  EXPECT_EQ(1u, result->epochs[0].steps) << "one partial batch";
}

TEST(ConfigEdgeCases, ReopenedSectionMergesKeys) {
  auto parsed = core::ParseConfig(
      "[monarch]\ndataset_dir=d\n"
      "[tier.0]\nprofile=ram\n"
      "[pfs]\nprofile=raw\nroot=/p\n"
      "[tier.0]\nquota=2KiB\n");  // reopened: adds quota to tier 0
  ASSERT_OK(parsed);
  EXPECT_EQ("ram", parsed->cache_tiers[0].profile);
  EXPECT_EQ(2048u, parsed->cache_tiers[0].quota_bytes);
}

TEST(DatasetEdgeCases, SingleFileSingleSample) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  workload::DatasetSpec spec = workload::DatasetSpec::Tiny();
  spec.num_files = 1;
  spec.samples_per_file = 1;
  auto manifest = workload::GenerateDataset(*engine, spec);
  ASSERT_OK(manifest);
  EXPECT_EQ(1u, manifest->num_files());

  tfrecord::EngineSource source(engine, manifest->file_paths[0]);
  tfrecord::TFRecordReader reader(source);
  ASSERT_OK(reader.ReadRecord());
  EXPECT_STATUS_CODE(StatusCode::kOutOfRange, reader.ReadRecord());
}

}  // namespace
}  // namespace monarch
