#include "dlsim/setups.h"

#include <utility>

#include "dlsim/caching_opener.h"
#include "dlsim/monarch_opener.h"
#include "storage/engine_factory.h"
#include "storage/posix_engine.h"

namespace monarch::dlsim {

namespace fs = std::filesystem;

namespace {

TrainerConfig MakeTrainerConfig(const ExperimentConfig& config) {
  TrainerConfig tc;
  tc.model = config.model;
  tc.epochs = config.epochs;
  tc.batch_size = config.batch_size;
  tc.num_gpus = config.num_gpus;
  tc.loader.reader_threads = config.reader_threads;
  tc.loader.read_chunk_bytes = config.read_chunk_bytes;
  tc.loader.shuffle_seed = config.run_seed;
  return tc;
}

/// Copy the dataset to the local root at host speed (the manual staging
/// step of vanilla-local; deliberately untimed, as in the paper).
Status StageDatasetLocally(const fs::path& pfs_root,
                           const fs::path& local_root,
                           const workload::DatasetManifest& manifest) {
  storage::PosixEngine source(pfs_root, "stage-src");
  storage::PosixEngine destination(local_root, "stage-dst");
  std::vector<std::byte> buffer;
  for (std::size_t i = 0; i < manifest.file_paths.size(); ++i) {
    const std::string& path = manifest.file_paths[i];
    buffer.resize(manifest.file_sizes[i]);
    MONARCH_ASSIGN_OR_RETURN(const std::size_t n,
                             source.Read(path, 0, buffer));
    buffer.resize(n);
    MONARCH_RETURN_IF_ERROR(destination.Write(path, buffer));
  }
  return Status::Ok();
}

}  // namespace

Result<workload::DatasetManifest> EnsureDataset(
    const fs::path& pfs_root, const workload::DatasetSpec& spec) {
  storage::PosixEngine raw(pfs_root, "dataset-gen");
  auto existing = workload::LoadManifest(raw, spec);
  if (existing.ok() &&
      existing.value().num_files() == spec.num_files) {
    return existing;
  }
  return workload::GenerateDataset(raw, spec);
}

Result<Setup> MakeVanillaLustreSetup(const fs::path& pfs_root,
                                     const ExperimentConfig& config) {
  MONARCH_ASSIGN_OR_RETURN(const auto manifest,
                           EnsureDataset(pfs_root, config.dataset));

  Setup setup;
  setup.pfs_engine = storage::MakeLustreEngine(pfs_root, config.run_seed,
                                               config.contended_pfs);
  setup.files = manifest.file_paths;
  setup.trainer = std::make_unique<Trainer>(
      manifest.file_paths,
      std::make_unique<EngineOpener>(setup.pfs_engine),
      MakeTrainerConfig(config));
  return setup;
}

Result<Setup> MakeVanillaLocalSetup(const fs::path& pfs_root,
                                    const fs::path& local_root,
                                    const ExperimentConfig& config) {
  MONARCH_ASSIGN_OR_RETURN(const auto manifest,
                           EnsureDataset(pfs_root, config.dataset));
  if (manifest.total_bytes > config.local_quota_bytes) {
    return InvalidArgumentError(
        "vanilla-local needs the dataset to fit the local medium");
  }
  MONARCH_RETURN_IF_ERROR(
      StageDatasetLocally(pfs_root, local_root, manifest));

  Setup setup;
  setup.local_engine = storage::MakeLocalSsdEngine(local_root);
  setup.files = manifest.file_paths;
  setup.trainer = std::make_unique<Trainer>(
      manifest.file_paths,
      std::make_unique<EngineOpener>(setup.local_engine),
      MakeTrainerConfig(config));
  return setup;
}

Result<Setup> MakeVanillaCachingSetup(const fs::path& pfs_root,
                                      const fs::path& local_root,
                                      const ExperimentConfig& config) {
  MONARCH_ASSIGN_OR_RETURN(const auto manifest,
                           EnsureDataset(pfs_root, config.dataset));

  Setup setup;
  setup.pfs_engine = storage::MakeLustreEngine(pfs_root, config.run_seed,
                                               config.contended_pfs);
  setup.local_engine = storage::MakeLocalSsdEngine(local_root);
  MONARCH_ASSIGN_OR_RETURN(
      auto opener,
      CachingOpener::Create(setup.pfs_engine, setup.local_engine,
                            manifest.total_bytes,
                            config.local_quota_bytes));
  setup.files = manifest.file_paths;
  setup.trainer = std::make_unique<Trainer>(
      manifest.file_paths, std::move(opener), MakeTrainerConfig(config));
  return setup;
}

Result<Setup> MakeMonarchSetup(const fs::path& pfs_root,
                               const fs::path& local_root,
                               const ExperimentConfig& config) {
  MONARCH_ASSIGN_OR_RETURN(const auto manifest,
                           EnsureDataset(pfs_root, config.dataset));

  Setup setup;
  setup.pfs_engine = storage::MakeLustreEngine(pfs_root, config.run_seed,
                                               config.contended_pfs);
  setup.local_engine = storage::MakeLocalSsdEngine(local_root);

  core::MonarchConfig monarch_config;
  monarch_config.cache_tiers.push_back(core::TierSpec{
      "local-ssd", setup.local_engine, config.local_quota_bytes});
  monarch_config.pfs = core::TierSpec{"lustre", setup.pfs_engine, 0};
  monarch_config.dataset_dir = config.dataset.directory;
  monarch_config.placement.num_threads = config.placement_threads;
  monarch_config.placement.prefetch_lookahead = config.prefetch_lookahead;
  if (config.staging_buffer_bytes != 0) {
    monarch_config.placement.staging_buffer_bytes = config.staging_buffer_bytes;
  }
  if (config.staging_chunk_bytes != 0) {
    monarch_config.placement.staging_chunk_bytes = config.staging_chunk_bytes;
  }
  MONARCH_ASSIGN_OR_RETURN(
      monarch_config.policy,
      core::MakePlacementPolicyByName(config.placement_policy,
                                      config.policy_knobs));
  MONARCH_ASSIGN_OR_RETURN(setup.monarch,
                           core::Monarch::Create(std::move(monarch_config)));

  setup.files = manifest.file_paths;
  setup.trainer = std::make_unique<Trainer>(
      manifest.file_paths, std::make_unique<MonarchOpener>(*setup.monarch),
      MakeTrainerConfig(config));
  return setup;
}

}  // namespace monarch::dlsim
