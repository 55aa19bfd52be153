#include "dlsim/trainer.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "../test_support.h"
#include "core/monarch.h"
#include "dlsim/monarch_opener.h"
#include "storage/memory_engine.h"
#include "workload/dataset_generator.h"

namespace monarch::dlsim {
namespace {

class TrainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_shared<storage::MemoryEngine>();
    spec_ = workload::DatasetSpec::Tiny();
    auto manifest = workload::GenerateDataset(*engine_, spec_);
    ASSERT_OK(manifest);
    files_ = manifest.value().file_paths;
  }

  TrainerConfig FastConfig(int epochs = 2) {
    TrainerConfig config;
    config.model.name = "test-model";
    config.model.step_time = Micros(100);
    config.model.preprocess_per_sample = Micros(10);
    config.epochs = epochs;
    config.batch_size = 8;
    config.num_gpus = 2;
    config.loader.reader_threads = 2;
    config.loader.prefetch_samples = 16;
    return config;
  }

  std::shared_ptr<storage::MemoryEngine> engine_;
  workload::DatasetSpec spec_;
  std::vector<std::string> files_;
};

TEST_F(TrainerTest, RunsConfiguredEpochs) {
  Trainer trainer(files_, std::make_unique<EngineOpener>(engine_),
                  FastConfig(3));
  auto result = trainer.Train();
  ASSERT_OK(result);
  ASSERT_EQ(3u, result.value().epochs.size());
  for (int e = 0; e < 3; ++e) {
    const auto& epoch = result.value().epochs[static_cast<std::size_t>(e)];
    EXPECT_EQ(e + 1, epoch.epoch);
    EXPECT_EQ(spec_.total_samples(), epoch.samples);
    EXPECT_GT(epoch.wall_seconds, 0.0);
  }
  EXPECT_NEAR(result.value().total_seconds,
              result.value().EpochSeconds(1) + result.value().EpochSeconds(2) +
                  result.value().EpochSeconds(3),
              1e-9);
}

TEST_F(TrainerTest, StepCountMatchesBatchMath) {
  Trainer trainer(files_, std::make_unique<EngineOpener>(engine_),
                  FastConfig(1));
  auto result = trainer.Train();
  ASSERT_OK(result);
  // 32 samples at batch 8 = exactly 4 steps.
  EXPECT_EQ(4u, result.value().epochs[0].steps);
}

TEST_F(TrainerTest, PartialFinalBatchStillSteps) {
  auto config = FastConfig(1);
  config.batch_size = 5;  // 32 samples -> 6 full + 1 partial = 7 steps
  Trainer trainer(files_, std::make_unique<EngineOpener>(engine_), config);
  auto result = trainer.Train();
  ASSERT_OK(result);
  EXPECT_EQ(7u, result.value().epochs[0].steps);
}

TEST_F(TrainerTest, UtilisationsWithinBounds) {
  Trainer trainer(files_, std::make_unique<EngineOpener>(engine_),
                  FastConfig(1));
  auto result = trainer.Train();
  ASSERT_OK(result);
  const auto& epoch = result.value().epochs[0];
  EXPECT_GE(epoch.cpu_utilisation, 0.0);
  EXPECT_LE(epoch.cpu_utilisation, 1.05);
  EXPECT_GT(epoch.gpu_utilisation, 0.0);
  EXPECT_LE(epoch.gpu_utilisation, 1.05);
  EXPECT_GE(epoch.peak_memory_bytes, 0);
}

TEST_F(TrainerTest, ComputeBoundModelDominatedByStepTime) {
  auto config = FastConfig(1);
  config.model.step_time = Millis(20);  // 4 steps x 20ms = 80ms floor
  Trainer trainer(files_, std::make_unique<EngineOpener>(engine_), config);
  auto result = trainer.Train();
  ASSERT_OK(result);
  EXPECT_GE(result.value().epochs[0].wall_seconds, 0.078);
  EXPECT_GT(result.value().epochs[0].gpu_utilisation, 0.5);
}

TEST_F(TrainerTest, OpenerEpochHookSeesEveryEpoch) {
  struct CountingOpener final : RecordFileOpener {
    explicit CountingOpener(storage::StorageEnginePtr engine)
        : inner(std::move(engine)) {}
    Result<tfrecord::RandomAccessSourcePtr> Open(
        const std::string& path) override {
      return inner.Open(path);
    }
    void OnEpochStart(int epoch) override { epochs_seen.push_back(epoch); }
    [[nodiscard]] std::string Name() const override { return "counting"; }
    EngineOpener inner;
    std::vector<int> epochs_seen;
  };

  auto opener = std::make_unique<CountingOpener>(engine_);
  auto* raw = opener.get();
  Trainer trainer(files_, std::move(opener), FastConfig(3));
  ASSERT_OK(trainer.Train());
  EXPECT_EQ((std::vector<int>{1, 2, 3}), raw->epochs_seen);
}

/// Records every checkpoint the trainer pushes through the sink.
class RecordingSink final : public core::CheckpointSink {
 public:
  Status Save(const std::string& name,
              std::span<const std::byte> data) override {
    names.push_back(name);
    payloads.emplace_back(data.begin(), data.end());
    return next_save;
  }
  Result<std::vector<std::byte>> Restore(const std::string&) override {
    return NotFoundError("recording sink");
  }
  Status Flush() override { return Status::Ok(); }

  std::vector<std::string> names;
  std::vector<std::vector<std::byte>> payloads;
  Status next_save = Status::Ok();
};

TEST_F(TrainerTest, CheckpointCadenceMatchesStepMath) {
  RecordingSink sink;
  auto config = FastConfig(2);
  config.checkpoint_sink = &sink;
  config.checkpoint_every_steps = 2;
  config.checkpoint_bytes = 4096;
  Trainer trainer(files_, std::make_unique<EngineOpener>(engine_), config);
  auto result = trainer.Train();
  ASSERT_OK(result);

  // 4 steps/epoch at every-2 cadence = checkpoints at steps 2 and 4.
  EXPECT_EQ((std::vector<std::string>{"model-e1-s2", "model-e1-s4",
                                      "model-e2-s2", "model-e2-s4"}),
            sink.names);
  for (const auto& epoch : result.value().epochs) {
    EXPECT_EQ(2u, epoch.checkpoints_written);
    EXPECT_GE(epoch.checkpoint_seconds, 0.0);
    EXPECT_GE(epoch.read_stall_seconds, 0.0);
    // The stall split partitions wall time: nothing double-counted.
    EXPECT_LE(epoch.compute_seconds + epoch.checkpoint_seconds +
                  epoch.read_stall_seconds,
              epoch.wall_seconds + 1e-6);
  }
  for (const auto& payload : sink.payloads) {
    EXPECT_EQ(4096u, payload.size());
  }
}

TEST_F(TrainerTest, CheckpointPayloadsDeterministicAcrossSinks) {
  // Two trainers with different sinks must push byte-identical streams —
  // the property the checkpoint bench relies on to compare arms fairly.
  RecordingSink a;
  RecordingSink b;
  for (RecordingSink* sink : {&a, &b}) {
    auto config = FastConfig(1);
    config.checkpoint_sink = sink;
    config.checkpoint_every_steps = 2;
    config.checkpoint_bytes = 1024;
    Trainer trainer(files_, std::make_unique<EngineOpener>(engine_), config);
    ASSERT_OK(trainer.Train());
  }
  ASSERT_EQ(a.names, b.names);
  EXPECT_EQ(a.payloads, b.payloads);
  // Distinct checkpoints carry distinct payloads (the generator is keyed).
  ASSERT_EQ(2u, a.payloads.size());
  EXPECT_NE(a.payloads[0], a.payloads[1]);
}

TEST_F(TrainerTest, CheckpointAfterPartialFinalBatch) {
  RecordingSink sink;
  auto config = FastConfig(1);
  config.batch_size = 5;  // 32 samples -> 7 steps, last one partial
  config.checkpoint_sink = &sink;
  config.checkpoint_every_steps = 7;
  config.checkpoint_bytes = 512;
  Trainer trainer(files_, std::make_unique<EngineOpener>(engine_), config);
  auto result = trainer.Train();
  ASSERT_OK(result);
  EXPECT_EQ((std::vector<std::string>{"model-e1-s7"}), sink.names);
  EXPECT_EQ(1u, result.value().epochs[0].checkpoints_written);
}

TEST_F(TrainerTest, SinkFailureFailsTraining) {
  RecordingSink sink;
  sink.next_save = UnavailableError("checkpoint tier down");
  auto config = FastConfig(1);
  config.checkpoint_sink = &sink;
  config.checkpoint_every_steps = 1;
  Trainer trainer(files_, std::make_unique<EngineOpener>(engine_), config);
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, trainer.Train());
}

TEST_F(TrainerTest, MissingFileFailsTraining) {
  auto files = files_;
  files.push_back("tiny/nonexistent.tfrecord");
  Trainer trainer(files, std::make_unique<EngineOpener>(engine_),
                  FastConfig(1));
  EXPECT_STATUS_CODE(StatusCode::kNotFound, trainer.Train());
}

/// Forwards to a MonarchOpener and, at each epoch start, drains staging
/// and records how many copies have been published so far.
class StagingCounter final : public RecordFileOpener {
 public:
  StagingCounter(core::Monarch& monarch, std::vector<std::uint64_t>* staged)
      : monarch_(monarch), inner_(monarch), staged_(staged) {}

  Result<tfrecord::RandomAccessSourcePtr> Open(
      const std::string& path) override {
    return inner_.Open(path);
  }
  void OnEpochStart(int epoch) override {
    monarch_.DrainPlacements();
    staged_->push_back(monarch_.Stats().placement.completed);
    inner_.OnEpochStart(epoch);
  }
  void OnRunSchedule(
      const std::vector<std::vector<std::string>>& epochs) override {
    inner_.OnRunSchedule(epochs);
  }
  [[nodiscard]] std::string Name() const override { return "counting"; }

 private:
  core::Monarch& monarch_;
  MonarchOpener inner_;
  std::vector<std::uint64_t>* staged_;
};

TEST_F(TrainerTest, ScheduledLruStagesAboutHalfTheFilesPerSteadyEpoch) {
  // 64 equal files, room for half of them, one reader, 4 shuffled
  // epochs. Ranked by the published schedule (Belady), a steady epoch
  // re-stages about half the files; ranked by recency, about 85 %.
  workload::DatasetSpec spec;
  spec.directory = "uniform";
  spec.num_files = 64;
  spec.samples_per_file = 4;
  spec.mean_sample_bytes = 1024;
  spec.sample_size_jitter = 0;
  auto manifest = workload::GenerateDataset(*engine_, spec);
  ASSERT_OK(manifest);

  core::MonarchConfig mc;
  mc.cache_tiers.push_back(
      core::TierSpec{"local", std::make_shared<storage::MemoryEngine>("local"),
                     manifest.value().total_bytes / 2});
  mc.pfs = core::TierSpec{"pfs", engine_, 0};
  mc.dataset_dir = spec.directory;
  mc.placement.num_threads = 2;
  mc.policy = core::MakeLruPolicy();
  auto monarch = core::Monarch::Create(std::move(mc));
  ASSERT_OK(monarch);

  TrainerConfig config = FastConfig(4);
  config.loader.reader_threads = 1;
  config.loader.shuffle_seed = 5;
  std::vector<std::uint64_t> staged;
  Trainer trainer(manifest.value().file_paths,
                  std::make_unique<StagingCounter>(**monarch, &staged),
                  config);
  ASSERT_OK(trainer.Train());
  (*monarch)->DrainPlacements();
  staged.push_back((*monarch)->Stats().placement.completed);

  ASSERT_EQ(5u, staged.size());
  for (std::size_t epoch = 2; epoch <= 4; ++epoch) {
    const std::uint64_t in_epoch = staged[epoch] - staged[epoch - 1];
    EXPECT_LE(in_epoch * 100, 60u * spec.num_files)
        << "epoch " << epoch << " staged " << in_epoch << " of "
        << spec.num_files << " files";
  }
}

}  // namespace
}  // namespace monarch::dlsim
