// Chaos experiment (ISSUE 7): does the peer cache survive node churn?
//
// Four jobs share one PFS and one peer directory. Mid-run a node is
// killed (its reads pause, its advertisements are retracted, its peers'
// in-flight RPCs time out and fail over) and later rejoins (surviving
// copies re-advertised). Each membership change hands the files a live
// node now owns but holds no copy of to that node's prefetch lane, which
// the staging queue serves behind demand work. Three arms:
//
//   baseline   replication=2, no churn — the digest/traffic reference
//   churn-r2   replication=2 + kill/revive — failover keeps peer reads
//              flowing, so the PFS fallback stays bounded
//   churn-r1   replication=1 + the same schedule — no second holder to
//              fail over to, so the same outage is absorbed by the PFS
//
// Acceptance (committed to bench-results/BENCH_ext_churn.json): per-epoch
// sample digests are byte-identical across arms (churn pauses a trainer,
// it never changes what it consumes), replication health is restored by
// the end of the churn-r2 run, and the churn-r1 arm pays more PFS bytes
// than churn-r2 — the gap is what replica failover saves.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "dlsim/cluster.h"

namespace monarch::bench {
namespace {

int Run() {
  BenchEnv env = BenchEnv::FromEnvironment("churn");
  env.runs = EnvInt("MONARCH_BENCH_RUNS", 1);
  const double scale = EnvDouble("MONARCH_BENCH_SCALE", 0.5) * 0.5;
  std::cout << "ext_churn: scale=" << scale << " epochs=" << env.epochs
            << "\n";

  PrintBanner(std::cout, "Node churn under cooperative peer caching (LeNet)");
  Table table({"setup", "mean_epoch_s", "pfs_GiB", "peer_GiB", "failovers",
               "rpc_timeouts", "restaged", "below_target", "digests"});
  std::vector<std::pair<std::string, double>> json_metrics;

  constexpr int kJobs = 4;
  const workload::DatasetSpec dataset =
      workload::DatasetSpec::ImageNet100GiB(scale);
  const std::uint64_t opens_per_epoch =
      dataset.num_files * static_cast<std::uint64_t>(kJobs);

  // Kill node 1 just into epoch 2 and revive it an epoch of cluster
  // progress later: the outage spans an epoch boundary, so both demand
  // reads and the next epoch's staging decisions see the shrunken ring,
  // and it is long enough that the 1-replica arm's per-read PFS fallback
  // clearly outweighs the 2-replica arm's one-shot repair staging.
  std::vector<dlsim::ChurnEvent> schedule;
  schedule.push_back({dlsim::ChurnKind::kKill, 1,
                      opens_per_epoch * 11 / 10});
  schedule.push_back({dlsim::ChurnKind::kRevive, 1,
                      opens_per_epoch * 22 / 10});

  struct Arm {
    const char* key;
    int replication;
    bool churn;
    const char* baseline_key;  ///< churn arms diff PFS bytes against this
  };
  constexpr Arm kArms[] = {
      {"baseline-r2", 2, false, nullptr},
      {"baseline-r1", 1, false, nullptr},
      {"churn-r2", 2, true, "baseline-r2"},
      {"churn-r1", 1, true, "baseline-r1"},
  };
  std::map<std::string, double> pfs_bytes_by_arm;

  // job index -> per-epoch digests of the baseline arm.
  std::map<int, std::vector<std::uint64_t>> reference_digests;

  for (const Arm& arm : kArms) {
    dlsim::ClusterConfig config;
    config.num_jobs = kJobs;
    config.use_monarch = true;
    config.peer_sharing = true;
    config.peer_replication = arm.replication;
    config.dataset = dataset;
    config.model = dlsim::ModelProfile::LeNet();
    config.epochs = env.epochs;
    config.local_quota_bytes = static_cast<std::uint64_t>(
        115.0 * scale * static_cast<double>(kMiB));
    config.seed = 5;
    if (arm.churn) {
      config.churn_schedule = schedule;
      // The membership service notices the crash 30ms after the fabric
      // does: survivors dial the dead holder in that window, and the
      // failover rung (r2) or the PFS (r1) absorbs those reads.
      config.churn_detection_lag_us = 30000;
    }

    auto result = dlsim::RunClusterExperiment(
        env.work_dir / "pfs", env.work_dir / arm.key, config);
    if (!result.ok()) {
      std::cerr << "churn run failed: " << result.status() << "\n";
      return 1;
    }
    const dlsim::ClusterResult& run = result.value();

    // Byte-identical consumption: every job's per-epoch digest must match
    // the churn-free baseline (the gate pauses a trainer, it never drops
    // or substitutes a sample).
    bool digests_match = true;
    for (const auto& job : run.jobs) {
      std::vector<std::uint64_t> digests;
      digests.reserve(job.training.epochs.size());
      for (const auto& epoch : job.training.epochs) {
        digests.push_back(epoch.sample_digest);
      }
      if (reference_digests.count(job.job_index) == 0) {
        reference_digests[job.job_index] = digests;
      } else if (reference_digests[job.job_index] != digests) {
        digests_match = false;
      }
    }

    const double gib = static_cast<double>(1ULL << 30);
    const double pfs_bytes = static_cast<double>(run.TotalPfsReadBytes());
    pfs_bytes_by_arm[arm.key] = pfs_bytes;
    const double pfs_gib = pfs_bytes / gib;
    table.AddRow({arm.key, Table::Num(run.MeanEpochSeconds(), 2),
                  Table::Num(pfs_gib, 3),
                  Table::Num(static_cast<double>(run.peer_bytes) / gib, 3),
                  std::to_string(run.peer_failovers),
                  std::to_string(run.rpc_timeouts),
                  std::to_string(run.restage_completed),
                  std::to_string(run.replication.below_target),
                  digests_match ? "match" : "DIVERGED"});

    const std::string key = arm.key;
    json_metrics.emplace_back(key + ".mean_epoch_s", run.MeanEpochSeconds());
    json_metrics.emplace_back(key + ".pfs_bytes",
                              static_cast<double>(run.TotalPfsReadBytes()));
    json_metrics.emplace_back(key + ".peer_bytes",
                              static_cast<double>(run.peer_bytes));
    json_metrics.emplace_back(key + ".peer_failovers",
                              static_cast<double>(run.peer_failovers));
    json_metrics.emplace_back(key + ".rpc_timeouts",
                              static_cast<double>(run.rpc_timeouts));
    json_metrics.emplace_back(key + ".churn_events",
                              static_cast<double>(run.churn_events_fired));
    json_metrics.emplace_back(key + ".membership_version",
                              static_cast<double>(run.membership_version));
    json_metrics.emplace_back(key + ".restage_enqueued",
                              static_cast<double>(run.restage_enqueued));
    json_metrics.emplace_back(key + ".restage_completed",
                              static_cast<double>(run.restage_completed));
    json_metrics.emplace_back(
        key + ".replication_below_target",
        static_cast<double>(run.replication.below_target));
    json_metrics.emplace_back(key + ".replication_files",
                              static_cast<double>(run.replication.files));
    json_metrics.emplace_back(key + ".digests_match",
                              digests_match ? 1.0 : 0.0);
    if (arm.baseline_key != nullptr) {
      // The outage's PFS cost: extra PFS bytes over the churn-free run at
      // the SAME replication factor (so 2x staging cancels out). The r1
      // delta minus the r2 delta is the traffic replica failover kept off
      // the PFS.
      json_metrics.emplace_back(
          key + ".outage_pfs_delta_bytes",
          pfs_bytes - pfs_bytes_by_arm[arm.baseline_key]);
    }
    std::cout << "  done: " << arm.key << "\n";
  }

  table.PrintAscii(std::cout);
  std::cout <<
      "\nReading: compare each churn arm against its same-replication "
      "baseline. churn-r2\nrides out the outage on the second replica — "
      "its PFS delta stays small, and the\nrepair copies each membership "
      "change hands to the new owners' prefetch lanes\nrestore "
      "replication before the run ends (below_target = 0). churn-r1\n"
      "has no second holder, so the same outage is absorbed by the PFS: "
      "its delta over\nbaseline-r1 is the traffic replica failover keeps "
      "off the PFS. Digests match across\nall arms: churn pauses "
      "trainers, it never changes the bytes they consume.\n";
  WriteBenchJson(env, "ext_churn", {}, json_metrics);
  env.Cleanup();
  return 0;
}

}  // namespace
}  // namespace monarch::bench

int main(int argc, char** argv) {
  const monarch::bench::TraceOutGuard trace(argc, argv);
  return monarch::bench::Run();
}
