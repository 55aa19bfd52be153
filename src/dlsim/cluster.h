// Multi-job cluster simulation.
//
// The paper's motivation is that a *shared* PFS saturates when several
// I/O-intensive jobs run concurrently (§I), and its future-work section
// asks how MONARCH behaves beyond a single node (§VI). This module
// simulates exactly that: K training jobs on K simulated compute nodes
// (each with its own local tier and its own MONARCH instance) all
// pulling from ONE shared PFS device — one bandwidth token bucket, so
// the jobs contend with each other instead of with a synthetic
// contention process.
//
// The experiment this enables (bench/ext_multijob): per-job epoch time
// as a function of job count, with and without MONARCH. Vanilla jobs
// keep hammering the PFS every epoch, so each added job slows everyone;
// MONARCH jobs drop off the PFS after epoch 1 and largely decouple.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/file_directory.h"
#include "core/monarch.h"
#include "dlsim/trainer.h"
#include "qos/options.h"
#include "qos/tenant.h"
#include "workload/dataset_generator.h"

namespace monarch::dlsim {

/// One scripted membership transition for the chaos harness (ISSUE 7).
/// Events fire in schedule order once the cluster-wide cumulative
/// file-open count reaches `after_opens` — a deterministic clock (wall
/// time varies run to run; the number of record files opened does not).
enum class ChurnKind { kKill, kRevive };

struct ChurnEvent {
  ChurnKind kind = ChurnKind::kKill;
  int node = 0;
  std::uint64_t after_opens = 0;
};

/// What a job DOES. kTraining is the classic epoch loop; kScan is a
/// full-dataset data-prep pass that must never evict a trainer's working
/// set.
enum class JobWorkload { kTraining, kScan };

/// Per-job QoS identity. Jobs without a spec default to training.
struct JobSpec {
  JobWorkload workload = JobWorkload::kTraining;
  qos::IoClass io_class = qos::IoClass::kTraining;
  /// Bandwidth-share weight; 0 = the class weight from QosOptions.
  double weight = 0;
};

struct ClusterConfig {
  int num_jobs = 2;
  bool use_monarch = true;
  workload::DatasetSpec dataset;     ///< each job trains the same dataset
  ModelProfile model;
  int epochs = 3;
  std::uint64_t batch_size = 256;
  int num_gpus = 4;
  int reader_threads = 6;
  std::size_t read_chunk_bytes = 64 * 1024;
  std::uint64_t local_quota_bytes = 115ULL * 1024 * 1024;
  int placement_threads = 6;
  std::uint64_t seed = 1;
  /// Every node's `placement.prefetch_lookahead`: the trainer publishes
  /// its run schedule, so look-ahead stages the node's own files and
  /// reads resident and peer-held ones into deposits ahead of its
  /// reader. 0 turns look-ahead off.
  int prefetch_lookahead = 8;

  /// Cooperative peer caching, set in code (the INI has no peer
  /// section). When set (monarch jobs only), the K nodes share one cluster
  /// FileDirectory: each stages only its consistent-hash shard of the
  /// dataset, and demand reads of the other shards go to the owning
  /// node's local tier over a simulated interconnect before falling back
  /// to the PFS. Aggregate PFS staging traffic drops from K× the dataset
  /// to ~1×.
  bool peer_sharing = false;
  double interconnect_bandwidth_bps = 1.2e9;
  std::uint64_t interconnect_latency_us = 150;
  std::size_t directory_shards = 16;
  int peer_replication = 1;

  /// Node churn, set in code like peer sharing. While a node is down
  /// its reads gate — the trainer pauses and resumes on revive — so every
  /// job still consumes every sample and per-epoch digests stay
  /// comparable against a churn-free run. Killed nodes vanish from
  /// holder resolution; every membership change hands the files a live
  /// node now owns but holds no copy of to that node's prefetch lane.
  std::vector<ChurnEvent> churn_schedule;
  /// Failure-detection lag: a kill takes the node off the fabric
  /// immediately but retracts it from the directory only this much
  /// later — the window where survivors still dial the dead holder,
  /// time out, and exercise the replica-failover rung.
  std::uint64_t churn_detection_lag_us = 0;

  /// Multi-tenant QoS, set in code like peer sharing. When qos.enabled
  /// each job becomes a tenant: its class rides the staging fair queue,
  /// its bytes charge a weighted share of one shared BandwidthBroker
  /// (built when qos.total_bandwidth_bps > 0; its other Options keep
  /// their defaults), and scan-class jobs are scan-resistant (they can
  /// never evict demand working sets).
  qos::QosOptions qos;
  /// Per-job identity/workload; jobs beyond the vector are training.
  std::vector<JobSpec> job_specs;
};

struct JobResult {
  int job_index = 0;
  TrainingResult training;
  storage::IoStatsSnapshot pfs_stats;   ///< this job's PFS traffic
  core::MonarchStats monarch_stats;     ///< zero-initialised for vanilla
  /// Directory view of this node (zero when peer_sharing is off).
  cluster::DirectoryNodeStats peer_stats;

  qos::IoClass io_class = qos::IoClass::kTraining;
};

struct ClusterResult {
  std::vector<JobResult> jobs;
  /// Interconnect totals (zero when peer_sharing is off).
  std::uint64_t peer_transfers = 0;
  std::uint64_t peer_bytes = 0;

  // Churn outcome (defaults without churn / peer sharing).
  std::uint64_t churn_events_fired = 0;
  std::uint64_t membership_version = 0;
  std::uint64_t restage_enqueued = 0;    ///< repair pairs dispatched
  std::uint64_t restage_completed = 0;   ///< of those, copies claimed
  std::uint64_t rpc_timeouts = 0;        ///< RPCs that dialed a dead node
  std::uint64_t peer_failovers = 0;      ///< reads rescued by a replica
  cluster::ReplicationHealth replication;  ///< post-run, post-repair

  [[nodiscard]] double MeanEpochSeconds() const;
  [[nodiscard]] double MeanTotalSeconds() const;
  [[nodiscard]] std::uint64_t TotalPfsReadOps() const;
  /// Bytes every job together pulled from the shared PFS (reads +
  /// staging) — the ≤1.3×-dataset acceptance number for peer sharing.
  [[nodiscard]] std::uint64_t TotalPfsReadBytes() const;
};

/// Run `config.num_jobs` training jobs concurrently (one host thread
/// each) against a shared PFS device rooted at `pfs_root`. Per-job local
/// tiers live under `local_root`/job<i>. The dataset is generated under
/// `pfs_root` if missing. Jobs see *real* cross-job contention through
/// the shared device's token bucket.
Result<ClusterResult> RunClusterExperiment(
    const std::filesystem::path& pfs_root,
    const std::filesystem::path& local_root, const ClusterConfig& config);

}  // namespace monarch::dlsim
