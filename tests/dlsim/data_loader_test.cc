#include "dlsim/data_loader.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "../test_support.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"
#include "workload/dataset_generator.h"
#include "workload/trace.h"

namespace monarch::dlsim {
namespace {

class DataLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_shared<storage::MemoryEngine>();
    spec_ = workload::DatasetSpec::Tiny();
    auto manifest = workload::GenerateDataset(*engine_, spec_);
    ASSERT_OK(manifest);
    files_ = manifest.value().file_paths;
  }

  LoaderConfig FastConfig() {
    LoaderConfig config;
    config.reader_threads = 3;
    config.prefetch_samples = 16;
    config.read_chunk_bytes = 2048;
    config.shuffle_seed = 5;
    return config;
  }

  std::shared_ptr<storage::MemoryEngine> engine_;
  workload::DatasetSpec spec_;
  std::vector<std::string> files_;
};

TEST_F(DataLoaderTest, ProducesEverySampleExactlyOnce) {
  EngineOpener opener(engine_);
  ResourceMonitor monitor(3, 1);
  EpochLoader loader(files_, /*epoch=*/1, opener, monitor, FastConfig());

  // Each generated sample carries its (file, sample) identity at bytes
  // [4,20); collect them all and verify the multiset is exactly the
  // dataset.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::uint64_t count = 0;
  while (auto sample = loader.queue().Pop()) {
    ASSERT_GE(sample->payload.size(), 20u);
    std::uint64_t file = 0;
    std::uint64_t idx = 0;
    for (int i = 7; i >= 0; --i) {
      file = (file << 8) |
             std::to_integer<std::uint64_t>(sample->payload[4 + i]);
      idx = (idx << 8) |
            std::to_integer<std::uint64_t>(sample->payload[12 + i]);
    }
    EXPECT_TRUE(seen.emplace(file, idx).second)
        << "duplicate sample " << file << "/" << idx;
    ++count;
  }
  loader.Finish();
  ASSERT_OK(loader.status());
  EXPECT_EQ(spec_.total_samples(), count);
  EXPECT_EQ(spec_.total_samples(), loader.samples_produced());
  EXPECT_EQ(spec_.num_files, loader.files_read());
}

TEST_F(DataLoaderTest, ShuffleOrderDiffersAcrossEpochsButIsSeeded) {
  auto file_order = [&](int epoch, std::uint64_t seed) {
    auto recorder = std::make_unique<workload::TraceRecorder>();
    auto traced = std::make_shared<workload::TracingEngine>(engine_, *recorder);
    EngineOpener opener(traced);
    ResourceMonitor monitor(1, 1);
    LoaderConfig config = FastConfig();
    config.reader_threads = 1;  // single reader -> deterministic order
    config.shuffle_seed = seed;
    EpochLoader loader(files_, epoch, opener, monitor, config);
    while (loader.queue().Pop().has_value()) {
    }
    loader.Finish();
    std::vector<std::string> order;
    for (const auto& ev : recorder->Drain()) {
      if (ev.op == workload::TraceOp::kRead &&
          (order.empty() || order.back() != ev.path)) {
        order.push_back(ev.path);
      }
    }
    return order;
  };

  const auto epoch1 = file_order(1, 7);
  const auto epoch2 = file_order(2, 7);
  const auto epoch1_again = file_order(1, 7);
  const auto epoch1_other_seed = file_order(1, 8);

  EXPECT_EQ(epoch1, epoch1_again) << "same seed+epoch => same order";
  EXPECT_NE(epoch1, epoch2) << "reshuffle each epoch";
  EXPECT_NE(epoch1, epoch1_other_seed) << "seed changes order";
}

TEST_F(DataLoaderTest, ReaderErrorSurfacesViaStatus) {
  auto faulty = std::make_shared<storage::FaultyEngine>(
      engine_, storage::FaultyEngine::FaultSpec{});
  faulty->FailNextReads(1);
  EngineOpener opener(faulty);
  ResourceMonitor monitor(3, 1);
  EpochLoader loader(files_, 1, opener, monitor, FastConfig());
  while (loader.queue().Pop().has_value()) {
  }
  loader.Finish();
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, loader.status());
}

TEST_F(DataLoaderTest, CorruptFileReportsDataLoss) {
  // Corrupt one record file on the engine.
  const std::string& victim = files_[0];
  std::vector<std::byte> raw(engine_->FileSize(victim).value());
  ASSERT_OK(engine_->Read(victim, 0, raw));
  raw[30] ^= std::byte{0xFF};
  ASSERT_OK(engine_->Write(victim, raw));

  EngineOpener opener(engine_);
  ResourceMonitor monitor(3, 1);
  EpochLoader loader(files_, 1, opener, monitor, FastConfig());
  while (loader.queue().Pop().has_value()) {
  }
  loader.Finish();
  EXPECT_STATUS_CODE(StatusCode::kDataLoss, loader.status());
}

TEST_F(DataLoaderTest, ConsumerAbortViaQueueCloseStopsReaders) {
  EngineOpener opener(engine_);
  ResourceMonitor monitor(3, 1);
  LoaderConfig config = FastConfig();
  config.prefetch_samples = 2;  // small queue so producers block
  EpochLoader loader(files_, 1, opener, monitor, config);
  // Consume a couple of samples, then abandon the epoch.
  loader.queue().Pop();
  loader.queue().Pop();
  loader.queue().Close();
  loader.Finish();  // must not deadlock
  SUCCEED();
}

TEST_F(DataLoaderTest, PreprocessCostAccountedAsCpu) {
  EngineOpener opener(engine_);
  ResourceMonitor monitor(3, 1);
  LoaderConfig config = FastConfig();
  config.preprocess_per_sample = Micros(200);
  const Stopwatch wall;
  EpochLoader loader(files_, 1, opener, monitor, config);
  std::uint64_t n = 0;
  while (loader.queue().Pop().has_value()) ++n;
  loader.Finish();
  const auto report = monitor.Report(wall.Elapsed());
  // 32 samples x 200us spread over 3 reader threads: CPU busy must be
  // visible (> 0) and bounded by 1.
  EXPECT_GT(report.cpu, 0.0);
  EXPECT_LE(report.cpu, 1.0);
  EXPECT_EQ(spec_.total_samples(), n);
}

TEST_F(DataLoaderTest, EmptyFileListProducesNothing) {
  EngineOpener opener(engine_);
  ResourceMonitor monitor(1, 1);
  EpochLoader loader({}, 1, opener, monitor, FastConfig());
  EXPECT_FALSE(loader.queue().Pop().has_value());
  loader.Finish();
  ASSERT_OK(loader.status());
  EXPECT_EQ(0u, loader.samples_produced());
}

}  // namespace
}  // namespace monarch::dlsim
