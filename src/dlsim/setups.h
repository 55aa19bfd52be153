// Experiment setups: one constructor per scenario in the paper's
// evaluation, wiring storage engines, openers and (for MONARCH) the
// middleware into a ready-to-run Trainer. Benches and examples share
// these so every figure is produced by identical plumbing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/monarch.h"
#include "dlsim/trainer.h"
#include "workload/dataset_generator.h"

namespace monarch::dlsim {

/// Shared experiment parameters (§II/§IV experimental setup).
struct ExperimentConfig {
  workload::DatasetSpec dataset;
  ModelProfile model;
  int epochs = 3;
  std::uint64_t batch_size = 256;
  int num_gpus = 4;
  int reader_threads = 6;
  std::size_t read_chunk_bytes = 64 * 1024;
  /// Local-tier capacity: the Frontera node's 115 GiB SSD partition at
  /// 1/1000 scale.
  std::uint64_t local_quota_bytes = 115ULL * 1024 * 1024;
  /// MONARCH placement-pool width (paper configuration: 6).
  int placement_threads = 6;
  /// MONARCH look-ahead: scheduled files kept staging ahead of the read
  /// position (0 = demand-only, the paper's baseline behaviour).
  int prefetch_lookahead = 0;
  /// MONARCH staging pipeline: chunk-buffer-pool budget and granularity
  /// (0 = keep the PlacementOptions defaults).
  std::uint64_t staging_buffer_bytes = 0;
  std::uint64_t staging_chunk_bytes = 0;
  /// MONARCH placement policy by config name (first-fit | lru |
  /// hotspot); empty = first-fit. The fig4 policy sweep varies this;
  /// docs/PLACEMENT.md is the handbook.
  std::string placement_policy;
  /// Per-policy eviction knobs (hotspot decay).
  core::PlacementPolicyKnobs policy_knobs;
  /// Seed for PFS contention + shuffling; vary per run for error bars.
  std::uint64_t run_seed = 1;
  /// Disable the PFS contention process (fast deterministic tests).
  bool contended_pfs = true;
};

/// A fully-wired scenario: a trainer plus handles to the backends so the
/// caller can diff I/O stats (PFS pressure tables) after training.
struct Setup {
  std::unique_ptr<Trainer> trainer;
  storage::StorageEnginePtr pfs_engine;     ///< null for vanilla-local
  storage::StorageEnginePtr local_engine;   ///< null for vanilla-lustre
  std::unique_ptr<core::Monarch> monarch;   ///< only for MakeMonarchSetup
  std::vector<std::string> files;
};

/// Stage the dataset into `pfs_root` (raw host speed, untimed) unless it
/// is already there; returns the manifest either way.
Result<workload::DatasetManifest> EnsureDataset(
    const std::filesystem::path& pfs_root,
    const workload::DatasetSpec& spec);

/// §II vanilla-lustre: every read from the (contended) PFS.
Result<Setup> MakeVanillaLustreSetup(const std::filesystem::path& pfs_root,
                                     const ExperimentConfig& config);

/// §II vanilla-local: dataset pre-copied to the local SSD (untimed copy,
/// as the paper does manually); every read local.
Result<Setup> MakeVanillaLocalSetup(const std::filesystem::path& pfs_root,
                                    const std::filesystem::path& local_root,
                                    const ExperimentConfig& config);

/// §II vanilla-caching: TensorFlow Dataset.cache — epoch 1 from the PFS
/// with an inline write-through to local, epochs 2+ from local. Fails
/// (like TF) when the dataset exceeds the local capacity.
Result<Setup> MakeVanillaCachingSetup(const std::filesystem::path& pfs_root,
                                      const std::filesystem::path& local_root,
                                      const ExperimentConfig& config);

/// §IV MONARCH: two-level hierarchy (local SSD + PFS), background
/// placement with full-file fetch.
Result<Setup> MakeMonarchSetup(const std::filesystem::path& pfs_root,
                               const std::filesystem::path& local_root,
                               const ExperimentConfig& config);

}  // namespace monarch::dlsim
