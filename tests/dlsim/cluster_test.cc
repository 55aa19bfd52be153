#include "dlsim/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "../test_support.h"

namespace monarch::dlsim {
namespace {

using monarch::testing::TempDir;

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : dir_("cluster") {}

  ClusterConfig MiniConfig(int jobs, bool use_monarch) {
    ClusterConfig config;
    config.num_jobs = jobs;
    config.use_monarch = use_monarch;
    config.dataset = workload::DatasetSpec::Tiny();
    config.model.name = "mini";
    config.model.step_time = Micros(100);
    config.model.preprocess_per_sample = Micros(10);
    config.epochs = 2;
    config.batch_size = 8;
    config.num_gpus = 2;
    config.reader_threads = 2;
    config.read_chunk_bytes = 2048;
    config.local_quota_bytes = 8ULL * 1024 * 1024;
    config.placement_threads = 2;
    return config;
  }

  TempDir dir_;
};

TEST_F(ClusterTest, RejectsZeroJobs) {
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("local"),
                           MiniConfig(0, false)));
}

TEST_F(ClusterTest, SingleVanillaJobTrainsFully) {
  auto result = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("v1"),
                                     MiniConfig(1, false));
  ASSERT_OK(result);
  ASSERT_EQ(1u, result.value().jobs.size());
  const auto& job = result.value().jobs[0];
  EXPECT_EQ(2u, job.training.epochs.size());
  for (const auto& epoch : job.training.epochs) {
    EXPECT_EQ(workload::DatasetSpec::Tiny().total_samples(), epoch.samples);
  }
  EXPECT_GT(job.pfs_stats.read_ops, 0u);
  EXPECT_EQ(0u, job.monarch_stats.files_indexed) << "vanilla has no monarch";
}

TEST_F(ClusterTest, ConcurrentJobsAllComplete) {
  auto result = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("v3"),
                                     MiniConfig(3, false));
  ASSERT_OK(result);
  ASSERT_EQ(3u, result.value().jobs.size());
  for (const auto& job : result.value().jobs) {
    for (const auto& epoch : job.training.epochs) {
      EXPECT_EQ(workload::DatasetSpec::Tiny().total_samples(), epoch.samples)
          << "job " << job.job_index;
    }
  }
  EXPECT_GT(result.value().MeanEpochSeconds(), 0.0);
  EXPECT_GT(result.value().TotalPfsReadOps(), 0u);
}

TEST_F(ClusterTest, MonarchJobsStageAndDecouple) {
  auto result = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("m2"),
                                     MiniConfig(2, true));
  ASSERT_OK(result);
  ASSERT_EQ(2u, result.value().jobs.size());
  for (const auto& job : result.value().jobs) {
    // Every job staged the full (tiny) dataset to its own local tier.
    EXPECT_EQ(workload::DatasetSpec::Tiny().num_files,
              job.monarch_stats.placement.completed)
        << "job " << job.job_index;
    EXPECT_GT(job.monarch_stats.levels[0].reads, 0u);
  }
}

TEST_F(ClusterTest, MonarchClusterIssuesFewerPfsReadsThanVanilla) {
  auto vanilla = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("cv"),
                                      MiniConfig(2, false));
  ASSERT_OK(vanilla);
  auto monarch = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("cm"),
                                      MiniConfig(2, true));
  ASSERT_OK(monarch);
  EXPECT_LT(monarch.value().TotalPfsReadOps(),
            vanilla.value().TotalPfsReadOps());
}

TEST_F(ClusterTest, JobsShufflesDiffer) {
  // Different seeds per job: both jobs train the same files but in
  // different orders; just verify both consumed everything (ordering is
  // covered by loader tests) and that per-job stats are independent.
  auto result = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("ind"),
                                     MiniConfig(2, false));
  ASSERT_OK(result);
  const auto& a = result.value().jobs[0].pfs_stats;
  const auto& b = result.value().jobs[1].pfs_stats;
  EXPECT_GT(a.read_ops, 0u);
  EXPECT_GT(b.read_ops, 0u);
}

// ---------------------------------------------------------------------
// ISSUE 4 satellite (c): seeded 2-job runs must deliver byte-identical
// batches whichever storage path serves them, and every job's PFS
// traffic must reconcile against its MONARCH accounting.

TEST_F(ClusterTest, SeededRunsDeliverByteIdenticalBatchesAcrossArms) {
  // Same seed, three arms: vanilla, monarch, monarch+peer. The trainer
  // digests every sample payload (order-insensitive CRC sum), so equal
  // digests mean every epoch consumed exactly the same bytes regardless
  // of which tier — PFS, local, or a peer's local over the fabric —
  // served each read.
  ClusterConfig vanilla_config = MiniConfig(2, false);
  vanilla_config.seed = 77;
  ClusterConfig monarch_config = MiniConfig(2, true);
  monarch_config.seed = 77;
  ClusterConfig peer_config = MiniConfig(2, true);
  peer_config.seed = 77;
  peer_config.peer_sharing = true;

  auto vanilla = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("dv"),
                                      vanilla_config);
  ASSERT_OK(vanilla);
  auto monarch = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("dm"),
                                      monarch_config);
  ASSERT_OK(monarch);
  auto peer = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("dp"),
                                   peer_config);
  ASSERT_OK(peer);

  for (std::size_t j = 0; j < 2; ++j) {
    const auto& v_epochs = vanilla.value().jobs[j].training.epochs;
    const auto& m_epochs = monarch.value().jobs[j].training.epochs;
    const auto& p_epochs = peer.value().jobs[j].training.epochs;
    ASSERT_EQ(v_epochs.size(), m_epochs.size());
    ASSERT_EQ(v_epochs.size(), p_epochs.size());
    for (std::size_t e = 0; e < v_epochs.size(); ++e) {
      EXPECT_NE(0u, v_epochs[e].sample_digest);
      EXPECT_EQ(v_epochs[e].sample_digest, m_epochs[e].sample_digest)
          << "job " << j << " epoch " << e << ": monarch diverged";
      EXPECT_EQ(v_epochs[e].sample_digest, p_epochs[e].sample_digest)
          << "job " << j << " epoch " << e << ": monarch-peer diverged";
    }
  }
}

TEST_F(ClusterTest, PerJobPfsTrafficReconcilesWithMonarchAccounting) {
  for (const bool peer_sharing : {false, true}) {
    ClusterConfig config = MiniConfig(2, true);
    config.peer_sharing = peer_sharing;
    auto result = RunClusterExperiment(
        dir_.Sub("pfs"), dir_.Sub(peer_sharing ? "rp" : "rm"), config);
    ASSERT_OK(result);
    for (const auto& job : result.value().jobs) {
      // Everything this job pulled from the shared PFS is either a
      // demand read served by the PFS level or a staging copy (minus the
      // chunks donated by the triggering demand read).
      const auto& stats = job.monarch_stats;
      EXPECT_EQ(job.pfs_stats.bytes_read,
                stats.levels.back().bytes + stats.placement.bytes_staged -
                    stats.placement.donated_bytes)
          << "job " << job.job_index << " peer_sharing=" << peer_sharing;
      EXPECT_EQ(0u, stats.degraded_fallbacks)
          << "clean run must not exercise the degradation ladder";
    }
  }
}

TEST_F(ClusterTest, PeerSharingShardsStagingAndCutsPfsTraffic) {
  ClusterConfig config = MiniConfig(2, true);
  auto solo = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("ns"), config);
  ASSERT_OK(solo);
  config.peer_sharing = true;
  auto shared = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("ps"), config);
  ASSERT_OK(shared);

  // Without peer sharing every node stages the whole dataset; with it
  // the shards partition the namespace, so the cluster pulls fewer bytes
  // from the PFS and moves the difference over the interconnect.
  EXPECT_LT(shared.value().TotalPfsReadBytes(),
            solo.value().TotalPfsReadBytes());
  EXPECT_GT(shared.value().peer_transfers, 0u);
  EXPECT_GT(shared.value().peer_bytes, 0u);

  const std::uint64_t num_files = workload::DatasetSpec::Tiny().num_files;
  std::uint64_t owned = 0;
  std::uint64_t placed = 0;
  for (const auto& job : shared.value().jobs) {
    owned += job.peer_stats.owned;
    placed += job.peer_stats.placed;
    // Each node staged exactly its shard, nothing else.
    EXPECT_EQ(job.peer_stats.placed, job.monarch_stats.placement.completed)
        << "job " << job.job_index;
  }
  EXPECT_EQ(num_files, owned);
  EXPECT_EQ(num_files, placed);

  // The non-peer arm reports no directory or fabric activity.
  EXPECT_EQ(0u, solo.value().peer_transfers);
  for (const auto& job : solo.value().jobs) {
    EXPECT_EQ(0u, job.peer_stats.owned + job.peer_stats.placed +
                      job.peer_stats.remote_hits);
  }
}

// Look-ahead (on by default) moves reads off the reader's path, never
// bytes: a seeded 2-node peer cluster consumes identical batches with it
// off and on, pulls each dataset byte from the PFS once either way, and
// moves the same peer bytes and transfers to within one run.
TEST_F(ClusterTest, LookaheadChangesNoBatchAndNoPfsByte) {
  ClusterConfig config = MiniConfig(2, true);
  config.seed = 11;
  config.peer_sharing = true;
  ASSERT_GT(config.prefetch_lookahead, 0) << "look-ahead is on by default";
  auto ahead = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("la"), config);
  ASSERT_OK(ahead);
  config.prefetch_lookahead = 0;
  auto plain = RunClusterExperiment(dir_.Sub("pfs"), dir_.Sub("l0"), config);
  ASSERT_OK(plain);

  for (std::size_t j = 0; j < 2; ++j) {
    const auto& a_epochs = ahead.value().jobs[j].training.epochs;
    const auto& p_epochs = plain.value().jobs[j].training.epochs;
    ASSERT_EQ(p_epochs.size(), a_epochs.size());
    for (std::size_t e = 0; e < p_epochs.size(); ++e) {
      EXPECT_NE(0u, p_epochs[e].sample_digest);
      EXPECT_EQ(p_epochs[e].sample_digest, a_epochs[e].sample_digest)
          << "job " << j << " epoch " << e;
    }
    EXPECT_EQ(0u, ahead.value().jobs[j].monarch_stats.degraded_fallbacks);
  }
  // Tiny's files are one staging chunk each: a run is a whole file.
  std::uint64_t dataset_bytes = 0;
  std::uint64_t run_bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           dir_.Sub("pfs") / config.dataset.directory)) {
    if (!entry.is_regular_file() ||
        entry.path().extension() != ".tfrecord") {
      continue;
    }
    dataset_bytes += entry.file_size();
    run_bytes = std::max<std::uint64_t>(run_bytes, entry.file_size());
  }
  ASSERT_GT(run_bytes, 0u);
  EXPECT_EQ(dataset_bytes, ahead.value().TotalPfsReadBytes());
  EXPECT_EQ(dataset_bytes, plain.value().TotalPfsReadBytes());
  const auto near = [](std::uint64_t a, std::uint64_t b, std::uint64_t tol) {
    return (a > b ? a - b : b - a) <= tol;
  };
  EXPECT_TRUE(near(plain.value().peer_transfers, ahead.value().peer_transfers,
                   1))
      << plain.value().peer_transfers << " vs "
      << ahead.value().peer_transfers;
  EXPECT_TRUE(near(plain.value().peer_bytes, ahead.value().peer_bytes,
                   run_bytes))
      << plain.value().peer_bytes << " vs " << ahead.value().peer_bytes;
}

}  // namespace
}  // namespace monarch::dlsim
