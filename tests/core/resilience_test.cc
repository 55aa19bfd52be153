// ISSUE 2 integration suite: fault-tolerant I/O end to end. Every test
// builds a real Monarch over FaultyEngine-wrapped memory engines and
// asserts the degradation ladder's contract — injected faults are
// absorbed (retry, fallback, quarantine), never surfaced to the caller,
// and every absorbed fault is visible in the stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "../test_support.h"
#include "file_state.h"
#include "core/monarch.h"
#include "core/storage_driver.h"
#include "dlsim/monarch_opener.h"
#include "dlsim/trainer.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"
#include "util/clock.h"
#include "workload/dataset_generator.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;
using storage::FaultyEngine;
using storage::MemoryEngine;

constexpr std::size_t kFileBytes = 4096;

std::vector<std::byte> GoldenPayload(int index) {
  std::vector<std::byte> payload(kFileBytes);
  for (std::size_t b = 0; b < kFileBytes; ++b) {
    payload[b] = static_cast<std::byte>((b * 31 + index * 7) & 0xff);
  }
  return payload;
}

/// A two-tier hierarchy ("local" over "pfs") where both engines inject
/// faults; the inner PFS engine holds `num_files` golden payloads. `pack`
/// stages through pack mode's chunk geometry (the files stay loose).
struct FaultyWorld {
  std::shared_ptr<FaultyEngine> local;
  std::shared_ptr<FaultyEngine> pfs;
  std::unique_ptr<Monarch> monarch;
  std::vector<std::string> names;
};

FaultyWorld BuildWorld(int num_files, FaultyEngine::FaultSpec local_spec,
                       FaultyEngine::FaultSpec pfs_spec,
                       ResilienceOptions resilience = {}, bool pack = false) {
  FaultyWorld world;
  auto pfs_inner = std::make_shared<MemoryEngine>("pfs");
  for (int i = 0; i < num_files; ++i) {
    EXPECT_TRUE(pfs_inner
                    ->Write("data/f" + std::to_string(i) + ".bin",
                            GoldenPayload(i))
                    .ok());
  }
  world.local = std::make_shared<FaultyEngine>(
      std::make_shared<MemoryEngine>("local"), local_spec);
  world.pfs = std::make_shared<FaultyEngine>(std::move(pfs_inner), pfs_spec);

  MonarchConfig config;
  config.cache_tiers.push_back(
      TierSpec{"local", world.local, /*quota_bytes=*/1ull << 22});
  config.pfs = TierSpec{"pfs", world.pfs, 0};
  config.dataset_dir = "data";
  config.resilience = resilience;
  config.placement.pack.enabled = pack;
  auto monarch = Monarch::Create(std::move(config));
  EXPECT_TRUE(monarch.ok()) << monarch.status().ToString();
  if (monarch.ok()) {
    world.monarch = std::move(monarch).value();
    for (const auto& entry : world.monarch->metadata().Snapshot()) {
      world.names.push_back(entry.name);
    }
  }
  return world;
}

int GoldenIndex(const std::string& name) {
  return std::atoi(name.substr(name.find('f') + 1).c_str());
}

// ---------------------------------------------------------------------
// Driver-level retry envelope.

TEST(ResilienceTest, DriverRetriesTransientReadFaults) {
  auto engine = std::make_shared<FaultyEngine>(
      std::make_shared<MemoryEngine>("m"), FaultyEngine::FaultSpec{});
  ASSERT_OK(engine->Write("f", Bytes("abc")));
  StorageDriver driver("t", engine, /*quota_bytes=*/0, /*read_only=*/true);

  engine->FailNextReads(2);
  std::vector<std::byte> buf(3);
  ASSERT_OK(driver.Read("f", 0, buf));
  EXPECT_EQ(2u, driver.retries());
  EXPECT_EQ(2u, engine->injected_failures());
}

TEST(ResilienceTest, DriverSurfacesErrorAfterExhaustingAttempts) {
  auto engine = std::make_shared<FaultyEngine>(
      std::make_shared<MemoryEngine>("m"), FaultyEngine::FaultSpec{});
  ASSERT_OK(engine->Write("f", Bytes("abc")));
  RetryPolicy retry;
  retry.max_attempts = 3;
  StorageDriver driver("t", engine, 0, /*read_only=*/true, retry);

  engine->FailNextReads(10);
  std::vector<std::byte> buf(3);
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, driver.Read("f", 0, buf));
  // 3 attempts = the initial try plus 2 retries.
  EXPECT_EQ(2u, driver.retries());
}

TEST(ResilienceTest, DriverDoesNotRetryNotFound) {
  auto engine = std::make_shared<FaultyEngine>(
      std::make_shared<MemoryEngine>("m"), FaultyEngine::FaultSpec{});
  StorageDriver driver("t", engine, 0, /*read_only=*/true);
  std::vector<std::byte> buf(3);
  EXPECT_STATUS_CODE(StatusCode::kNotFound, driver.Read("missing", 0, buf));
  EXPECT_EQ(0u, driver.retries());
  // Misses must not poison the health window either.
  EXPECT_EQ(0.0, driver.health().error_rate());
}

TEST(ResilienceTest, DriverRetriesWrites) {
  auto engine = std::make_shared<FaultyEngine>(
      std::make_shared<MemoryEngine>("m"), FaultyEngine::FaultSpec{});
  StorageDriver driver("t", engine, 0, /*read_only=*/false);
  engine->FailNextWrites(1);
  ASSERT_OK(driver.Write("f", Bytes("abc")));
  EXPECT_EQ(1u, driver.retries());
}

// ---------------------------------------------------------------------
// Read-path degradation ladder.

TEST(ResilienceTest, ReadFallsBackToPfsOnAnyTierError) {
  auto world = BuildWorld(2, {}, {});
  ASSERT_TRUE(world.monarch != nullptr);
  std::vector<std::byte> buf(kFileBytes);

  // Stage both files, then make the local tier fail hard on the next
  // read: the caller must still get the authoritative bytes.
  for (const auto& name : world.names) {
    ASSERT_OK(world.monarch->Read(name, 0, buf));
  }
  world.monarch->DrainPlacements();
  ASSERT_EQ(2u, world.monarch->Stats().placement.completed);

  world.local->FailNextReads(100);  // > retry attempts
  ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
  EXPECT_EQ(GoldenPayload(GoldenIndex(world.names[0])),
            std::vector<std::byte>(buf.begin(), buf.end()));

  const auto stats = world.monarch->Stats();
  EXPECT_EQ(1u, stats.fallbacks_tier_error);
  EXPECT_EQ(1u, stats.degraded_fallbacks);
  EXPECT_GE(stats.levels[0].retries, 1u);
}

TEST(ResilienceTest, MetadataFaultsAtStartupAreRetried) {
  auto pfs_inner = std::make_shared<MemoryEngine>("pfs");
  ASSERT_OK(pfs_inner->Write("data/f0.bin", GoldenPayload(0)));
  auto pfs = std::make_shared<FaultyEngine>(pfs_inner,
                                            FaultyEngine::FaultSpec{});
  pfs->FailNextMetadataOps(2);  // the startup ListFiles walk

  MonarchConfig config;
  config.cache_tiers.push_back(
      TierSpec{"local", std::make_shared<MemoryEngine>("local"), 1ull << 20});
  config.pfs = TierSpec{"pfs", pfs, 0};
  config.dataset_dir = "data";
  auto monarch = Monarch::Create(std::move(config));
  ASSERT_OK(monarch);
  EXPECT_EQ(1u, (*monarch)->Stats().files_indexed);
}

// ---------------------------------------------------------------------
// Staged-copy integrity.

TEST(ResilienceTest, CorruptStagingIsCaughtByWriteVerification) {
  ResilienceOptions resilience;
  resilience.verify_staged_writes = true;
  auto world = BuildWorld(1, {}, {}, resilience);
  ASSERT_TRUE(world.monarch != nullptr);
  std::vector<std::byte> buf(kFileBytes);

  // The only local-tier read while the file is unplaced is the staging
  // readback: corrupt it, and the copy must never be published.
  world.local->CorruptNextReads(1);
  ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
  world.monarch->DrainPlacements();

  auto stats = world.monarch->Stats();
  EXPECT_EQ(1u, stats.placement.quarantined);
  EXPECT_EQ(0u, stats.placement.completed);
  EXPECT_EQ(1u, stats.placement.retries);  // still retryable

  // The next access re-stages cleanly and the tier copy serves reads.
  ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
  world.monarch->DrainPlacements();
  stats = world.monarch->Stats();
  EXPECT_EQ(1u, stats.placement.completed);
  ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
  EXPECT_EQ(GoldenPayload(0), std::vector<std::byte>(buf.begin(), buf.end()));
}

void ExpectCorruptTierCopyQuarantinedOnRead(bool pack) {
  ResilienceOptions resilience;
  resilience.verify_on_read = true;
  auto world = BuildWorld(1, {}, {}, resilience, pack);
  ASSERT_TRUE(world.monarch != nullptr);
  std::vector<std::byte> buf(kFileBytes);

  ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
  world.monarch->DrainPlacements();
  ASSERT_EQ(1u, world.monarch->Stats().placement.completed);

  // Serve one corrupted read from the tier copy: the caller must still
  // receive the authoritative bytes (via the PFS) and the copy must be
  // quarantined.
  world.local->CorruptNextReads(1);
  ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
  EXPECT_EQ(GoldenPayload(0), std::vector<std::byte>(buf.begin(), buf.end()));

  const auto stats = world.monarch->Stats();
  EXPECT_EQ(1u, stats.fallbacks_corruption);
  EXPECT_EQ(1u, stats.placement.quarantined);
  // The quarantined copy released its quota.
  world.monarch->DrainPlacements();
  EXPECT_EQ(1u, world.local->injected_corruptions());
}

TEST(ResilienceTest, CorruptTierCopyIsQuarantinedOnRead) {
  ExpectCorruptTierCopyQuarantinedOnRead(/*pack=*/false);
}

TEST(ResilienceTest, PackedCorruptTierCopyIsQuarantinedOnRead) {
  ExpectCorruptTierCopyQuarantinedOnRead(/*pack=*/true);
}

TEST(ResilienceTest, QuarantineWithoutRestageParksTheFile) {
  for (const bool pack : {false, true}) {
    SCOPED_TRACE(pack ? "pack on" : "pack off");
    ResilienceOptions resilience;
    resilience.verify_on_read = true;
    resilience.restage_after_quarantine = false;
    auto world = BuildWorld(1, {}, {}, resilience, pack);
    ASSERT_TRUE(world.monarch != nullptr);
    std::vector<std::byte> buf(kFileBytes);
    ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
    world.monarch->DrainPlacements();

    // The first corrupt read quarantines the copy and parks the file: the
    // later reads come from the PFS, so their corruption is never served,
    // and nothing stages again.
    for (int i = 0; i < 3; ++i) {
      world.local->CorruptNextReads(1);
      ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
      EXPECT_EQ(GoldenPayload(0),
                std::vector<std::byte>(buf.begin(), buf.end()));
      world.monarch->DrainPlacements();
    }
    const auto stats = world.monarch->Stats();
    EXPECT_EQ(1u, stats.placement.quarantined);
    EXPECT_EQ(1u, stats.placement.scheduled);
    EXPECT_EQ(1u, stats.fallbacks_corruption);
    EXPECT_TRUE(Parked(*world.monarch->metadata().Lookup(world.names[0])));
    EXPECT_EQ(0u, world.monarch->hierarchy().Level(0).occupancy_bytes());
  }
}

void ExpectPlacementRetryCap(bool pack) {
  FaultyEngine::FaultSpec local_spec;
  local_spec.write_failure_rate = 1.0;  // staging can never succeed
  ResilienceOptions resilience;
  resilience.max_placement_attempts = 2;
  auto world = BuildWorld(1, local_spec, {}, resilience, pack);
  ASSERT_TRUE(world.monarch != nullptr);
  std::vector<std::byte> buf(kFileBytes);

  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
    world.monarch->DrainPlacements();
  }
  const auto stats = world.monarch->Stats();
  EXPECT_EQ(2u, stats.placement.failed);
  EXPECT_EQ(1u, stats.placement.retries);    // attempt 1 stayed retryable
  EXPECT_EQ(1u, stats.placement.abandoned);  // attempt 2 hit the cap
  // The cap stops further scheduling: reads keep succeeding from the PFS
  // and the staging pool is left alone.
  EXPECT_EQ(2u, stats.placement.scheduled);
  EXPECT_TRUE(Parked(*world.monarch->metadata().Lookup(world.names[0])));
  ASSERT_OK(world.monarch->Read(world.names[0], 0, buf));
  EXPECT_EQ(GoldenPayload(0), std::vector<std::byte>(buf.begin(), buf.end()));
}

TEST(ResilienceTest, PlacementRetryCapMarksFileUnplaceable) {
  ExpectPlacementRetryCap(/*pack=*/false);
}

TEST(ResilienceTest, PackedPlacementRetryCapMarksFileUnplaceable) {
  ExpectPlacementRetryCap(/*pack=*/true);
}

// ---------------------------------------------------------------------
// The acceptance scenario: multi-epoch training with probabilistic
// faults on both tiers completes with zero app-visible errors,
// byte-identical data, and stats that reconcile with the injected count.

TEST(ResilienceTest, TrainingSurvivesProbabilisticFaultsByteIdentical) {
  FaultyEngine::FaultSpec local_spec;
  local_spec.read_failure_rate = 0.05;
  local_spec.write_failure_rate = 0.05;
  local_spec.seed = 7;
  FaultyEngine::FaultSpec pfs_spec;
  pfs_spec.read_failure_rate = 0.02;
  pfs_spec.seed = 11;
  auto world = BuildWorld(32, local_spec, pfs_spec);
  ASSERT_TRUE(world.monarch != nullptr);

  constexpr int kEpochs = 3;
  std::uint64_t app_errors = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::byte> buf(kFileBytes);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (const auto& name : world.names) {
      auto read = world.monarch->Read(name, 0, buf);
      if (!read.ok() || read.value() != kFileBytes) {
        ++app_errors;
        continue;
      }
      if (GoldenPayload(GoldenIndex(name)) !=
          std::vector<std::byte>(buf.begin(), buf.end())) {
        ++mismatches;
      }
    }
    world.monarch->DrainPlacements();
  }

  EXPECT_EQ(0u, app_errors);
  EXPECT_EQ(0u, mismatches);

  const auto stats = world.monarch->Stats();
  const std::uint64_t injected =
      world.local->injected_failures() + world.pfs->injected_failures();
  std::uint64_t driver_retries = 0;
  for (const auto& level : stats.levels) driver_retries += level.retries;

  // The fault rates make injections statistically certain over
  // 3 epochs x 32 files (deterministic seeds make this reproducible).
  EXPECT_GT(injected, 0u);
  EXPECT_GT(driver_retries, 0u);

  // Reconciliation: every injected fault was either absorbed by a driver
  // retry or surfaced exactly once — as a PFS fallback (tier_error), a
  // failed staging attempt, or an app-visible error (zero here). Nothing
  // is double-counted and nothing vanishes.
  EXPECT_EQ(injected, driver_retries + stats.fallbacks_tier_error +
                          stats.placement.failed + app_errors);
}

TEST(ResilienceTest, FaultsPlusMidRunOutageStayInvisible) {
  // Transient faults on both tiers all run long, and the local tier hard
  // down from the middle of epoch 1 to its end: every read still
  // returns the right bytes.
  FaultyEngine::FaultSpec local_spec;
  local_spec.read_failure_rate = 0.05;
  local_spec.write_failure_rate = 0.05;
  local_spec.seed = 7;
  FaultyEngine::FaultSpec pfs_spec;
  pfs_spec.read_failure_rate = 0.02;
  pfs_spec.metadata_failure_rate = 0.02;
  pfs_spec.seed = 11;
  ResilienceOptions resilience;
  resilience.health.min_samples = 8;
  resilience.health.cooldown = Millis(20);
  auto world = BuildWorld(48, local_spec, pfs_spec, resilience);
  ASSERT_TRUE(world.monarch != nullptr);

  constexpr int kOutageEpoch = 1;
  std::uint64_t app_errors = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::byte> buf(kFileBytes);
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (std::size_t f = 0; f < world.names.size(); ++f) {
      if (epoch == kOutageEpoch && f == world.names.size() / 2) {
        world.local->FailUntilHealed();
      }
      auto read = world.monarch->Read(world.names[f], 0, buf);
      if (!read.ok() || read.value() != kFileBytes) {
        ++app_errors;
      } else if (GoldenPayload(GoldenIndex(world.names[f])) !=
                 std::vector<std::byte>(buf.begin(), buf.end())) {
        ++mismatches;
      }
    }
    if (epoch == kOutageEpoch) world.local->Heal();
    world.monarch->DrainPlacements();
    // Past the breaker cooldown, so an opened circuit gets its half-open
    // probe window at the next epoch, as a real epoch boundary would.
    PreciseSleep(Millis(25));
  }

  EXPECT_EQ(0u, app_errors);
  EXPECT_EQ(0u, mismatches);
  const auto stats = world.monarch->Stats();
  EXPECT_GT(world.local->injected_failures(), 0u);
  EXPECT_GT(stats.degraded_fallbacks, 0u);
}

TEST(ResilienceTest, DlsimTrainingCompletesUnderFaults) {
  // Real TFRecord dataset + dlsim trainer: the framework-visible story.
  auto pfs_inner = std::make_shared<MemoryEngine>("pfs");
  auto manifest =
      workload::GenerateDataset(*pfs_inner, workload::DatasetSpec::Tiny());
  ASSERT_OK(manifest);

  FaultyEngine::FaultSpec local_spec;
  local_spec.read_failure_rate = 0.05;
  local_spec.write_failure_rate = 0.05;
  local_spec.seed = 21;
  FaultyEngine::FaultSpec pfs_spec;
  pfs_spec.read_failure_rate = 0.02;
  pfs_spec.seed = 22;
  auto local = std::make_shared<FaultyEngine>(
      std::make_shared<MemoryEngine>("local"), local_spec);
  auto pfs = std::make_shared<FaultyEngine>(pfs_inner, pfs_spec);

  MonarchConfig config;
  config.cache_tiers.push_back(TierSpec{"local", local, 1ull << 26});
  config.pfs = TierSpec{"pfs", pfs, 0};
  config.dataset_dir = manifest->spec.directory;
  auto monarch = Monarch::Create(std::move(config));
  ASSERT_OK(monarch);

  std::vector<std::string> files = manifest->file_paths;
  ASSERT_FALSE(files.empty());

  dlsim::TrainerConfig tc;
  tc.model = dlsim::ModelProfile::LeNet();
  tc.epochs = 3;
  dlsim::Trainer trainer(files, std::make_unique<dlsim::MonarchOpener>(
                                    **monarch),
                         tc);
  auto result = trainer.Train();
  ASSERT_OK(result);
  ASSERT_EQ(3u, result->epochs.size());
  // Every epoch must process the full dataset — a dropped file would
  // show up as a short epoch. (TFRecord framing CRCs double-check bytes.)
  for (const auto& epoch : result->epochs) {
    EXPECT_EQ(result->epochs.front().samples, epoch.samples);
    EXPECT_GT(epoch.samples, 0u);
  }
  (*monarch)->DrainPlacements();

  const std::uint64_t injected =
      local->injected_failures() + pfs->injected_failures();
  const auto stats = (*monarch)->Stats();
  std::uint64_t driver_retries = 0;
  for (const auto& level : stats.levels) driver_retries += level.retries;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(driver_retries + stats.degraded_fallbacks, 0u);
}

// ---------------------------------------------------------------------
// Hard-down outage: the circuit opens, throughput degrades to the PFS
// (not zero), and the tier rejoins after it heals.

TEST(ResilienceTest, HardDownTierOpensCircuitAndRecovers) {
  ResilienceOptions resilience;
  resilience.health.window = 32;
  resilience.health.min_samples = 8;
  resilience.health.cooldown = Millis(10);
  resilience.health.half_open_successes = 1;
  auto world = BuildWorld(16, {}, {}, resilience);
  ASSERT_TRUE(world.monarch != nullptr);
  std::vector<std::byte> buf(kFileBytes);

  // Epoch 0: place everything on the local tier.
  for (const auto& name : world.names) {
    ASSERT_OK(world.monarch->Read(name, 0, buf));
  }
  world.monarch->DrainPlacements();
  ASSERT_EQ(16u, world.monarch->Stats().placement.completed);

  // Outage mid-job: every read must still succeed, byte-identical.
  world.local->FailUntilHealed();
  for (const auto& name : world.names) {
    ASSERT_OK(world.monarch->Read(name, 0, buf));
    EXPECT_EQ(GoldenPayload(GoldenIndex(name)),
              std::vector<std::byte>(buf.begin(), buf.end()));
  }
  auto stats = world.monarch->Stats();
  EXPECT_EQ(CircuitState::kOpen, stats.levels[0].circuit_state);
  EXPECT_GE(stats.levels[0].circuit_opens, 1u);
  EXPECT_GT(stats.degraded_fallbacks, 0u);
  EXPECT_GT(stats.fallbacks_circuit_open, 0u);
  // Degraded, not dead: the PFS level served the outage-epoch reads.
  EXPECT_GE(stats.levels.back().reads, 16u);

  // Heal, wait out the cooldown, and read until the breaker closes. The
  // copies are still staged, so probe reads succeed immediately.
  world.local->Heal();
  PreciseSleep(Millis(15));
  const std::uint64_t local_reads_before = stats.levels[0].reads;
  for (const auto& name : world.names) {
    ASSERT_OK(world.monarch->Read(name, 0, buf));
  }
  stats = world.monarch->Stats();
  EXPECT_EQ(CircuitState::kClosed, stats.levels[0].circuit_state);
  // The local tier is serving again.
  EXPECT_GT(stats.levels[0].reads, local_reads_before);
}

}  // namespace
}  // namespace monarch::core
