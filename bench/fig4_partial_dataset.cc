// Figure 4 (§IV-A): vanilla-lustre versus MONARCH on the 200 GiB-scale
// dataset — the one that does NOT fit the local tier (vanilla-caching is
// structurally excluded, exactly as in the paper).
//
// Shape targets from the paper:
//   - LeNet total time drops ~24%, AlexNet ~12%, ResNet-50 flat;
//   - in epochs 2-3 MONARCH still issues PFS reads for the unplaced
//     remainder (~360k of 798,340 ops per epoch at paper scale, i.e.
//     ~45% of steady-state epoch traffic still hits Lustre);
//   - over the whole run MONARCH cuts PFS ops by ~55% on average;
//   - metadata initialisation roughly doubles versus the 100 GiB dataset.
//
// To measure the steady-state split directly, each run trains in two
// phases against the same backends: phase 1 is the placement epoch,
// phase 2 the remaining epochs; PFS counters are diffed per phase.
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "bench_common.h"
#include "dlsim/cluster.h"
#include "dlsim/monarch_opener.h"
#include "dlsim/record_opener.h"
#include "dlsim/setups.h"

namespace monarch::bench {
namespace {

using dlsim::ExperimentConfig;

dlsim::TrainerConfig PhaseConfig(const ExperimentConfig& config,
                                 int epochs) {
  dlsim::TrainerConfig tc;
  tc.model = config.model;
  tc.epochs = epochs;
  tc.batch_size = config.batch_size;
  tc.num_gpus = config.num_gpus;
  tc.loader.reader_threads = config.reader_threads;
  tc.loader.read_chunk_bytes = config.read_chunk_bytes;
  tc.loader.shuffle_seed = config.run_seed;
  return tc;
}

// Peer-caching extension (ISSUE 4): the same 200 GiB-scale dataset that
// overflows ONE node's local tier FITS the aggregate quota of two nodes.
// With cooperative peer caching each node stages its consistent-hash
// half, reads the other half over the interconnect, and steady-state
// epochs stop touching the PFS entirely — versus plain MONARCH, where
// every node re-reads its unplaced ~45% from Lustre each epoch.
//
// Steady-state PFS demand reads are estimated from the Monarch level
// counters: epoch 1 reads each file from the PFS at most once, so
// max(0, pfs_demand_reads - files) / (E-1) bounds the per-epoch
// steady-state traffic (exact for the non-peer arm).
int RunPeerExtension(BenchEnv& env,
                     std::vector<std::pair<std::string, double>>& json) {
  PrintBanner(std::cout,
              "Figure 4 extension: 2 nodes, cooperative peer caching "
              "(LeNet)");
  Table table({"setup", "epoch1_s", "steady_s", "pfs_demand_reads",
               "steady_pfs_reads/epoch", "peer_reads", "peer_GiB"});

  for (const bool peer_sharing : {false, true}) {
    dlsim::ClusterConfig config;
    config.num_jobs = 2;
    config.use_monarch = true;
    config.peer_sharing = peer_sharing;
    config.dataset = workload::DatasetSpec::ImageNet200GiB(env.scale);
    config.model = dlsim::ModelProfile::LeNet();
    config.epochs = env.epochs;
    // One node holds ~57% of the dataset; two nodes hold all of it.
    config.local_quota_bytes = static_cast<std::uint64_t>(
        115.0 * env.scale * static_cast<double>(kMiB));
    // Two distinct owners stage every file (ISSUE 7): peer reads survive
    // a holder loss, at the cost of 2x staged bytes.
    config.peer_replication = 2;
    config.seed = 11;

    auto result = dlsim::RunClusterExperiment(
        env.work_dir / "pfs_peer",
        env.work_dir / (peer_sharing ? "peer_on" : "peer_off"), config);
    if (!result.ok()) {
      std::cerr << "peer extension run failed: " << result.status() << "\n";
      return 1;
    }

    RunningSummary epoch1;
    RunningSummary steady;
    double pfs_demand = 0;
    double peer_reads = 0;
    double files = 0;
    for (const auto& job : result.value().jobs) {
      epoch1.Add(job.training.EpochSeconds(1));
      for (int e = 2; e <= env.epochs; ++e) {
        steady.Add(job.training.EpochSeconds(e));
      }
      const auto& stats = job.monarch_stats;
      pfs_demand += static_cast<double>(stats.pfs_reads());
      files += static_cast<double>(stats.files_indexed);
      const int peer_level = static_cast<int>(stats.levels.size()) - 2;
      if (peer_sharing && peer_level >= 1) {
        peer_reads += static_cast<double>(
            stats.levels[static_cast<std::size_t>(peer_level)].reads);
      }
    }
    const double steady_pfs =
        env.epochs > 1
            ? std::max(0.0, pfs_demand - files) / (env.epochs - 1)
            : 0.0;
    const double gib = static_cast<double>(1ULL << 30);
    const std::string key =
        peer_sharing ? "peer.monarch-peer" : "peer.monarch";
    table.AddRow({peer_sharing ? "monarch-peer" : "monarch",
                  Table::Num(epoch1.mean(), 2), Table::Num(steady.mean(), 2),
                  Table::Num(pfs_demand, 0), Table::Num(steady_pfs, 1),
                  Table::Num(peer_reads, 0),
                  Table::Num(static_cast<double>(result.value().peer_bytes) /
                                 gib,
                             3)});
    json.emplace_back(key + ".steady_pfs_reads_per_epoch", steady_pfs);
    json.emplace_back(key + ".pfs_demand_reads", pfs_demand);
    json.emplace_back(key + ".peer_reads", peer_reads);
    std::cout << "  done: peer extension "
              << (peer_sharing ? "monarch-peer" : "monarch") << "\n";
  }
  table.PrintAscii(std::cout);
  std::cout << "(dataset > one node's quota but <= the 2-node aggregate: "
               "with peer sharing the\nsteady-state PFS column collapses "
               "to ~0 — the unplaced remainder is served by the\npeer "
               "that owns it instead of Lustre)\n";
  return 0;
}

// Policy sweep: dataset/quota overcommit ratios x the pluggable
// eviction policies, LeNet with look-ahead on. Phase 1 is the placement
// epoch; phase 2 measures the steady state: epoch seconds and PFS MiB
// read per epoch, averaged over the runs. The trainer publishes the run
// schedule, so the evicting policies rank victims by it (Belady).
// Gate: no evicting policy's steady epoch may be more than 10 % slower
// than first-fit's (which never evicts) at the same overcommit.
constexpr double kSweepSlowdownBound = 1.10;

int RunPolicySweep(BenchEnv& env,
                   std::vector<std::pair<std::string, double>>& json,
                   bool& gate_held) {
  PrintBanner(std::cout,
              "Figure 4 sweep: eviction policy vs dataset/quota overcommit "
              "(LeNet, look-ahead on)");
  const std::vector<std::pair<std::string, double>> ratios{
      {"1.1x", 1.1}, {"2x", 2.0}, {"4x", 4.0}, {"10x", 10.0}};
  const std::vector<std::string> policies{"first-fit", "lru", "hotspot"};
  Table table({"overcommit", "policy", "steady_s", "pfs_MiB/epoch",
               "evictions", "evict_refused", "vs_first-fit"});
  std::vector<std::string> failures;

  for (const auto& [label, ratio] : ratios) {
    double first_fit_steady = 0;
    for (const auto& policy : policies) {
      RunningSummary steady;
      RunningSummary pfs_mib;
      RunningSummary evictions;
      RunningSummary refused;
      for (int run = 0; run < env.runs; ++run) {
        ExperimentConfig config;
        config.dataset = workload::DatasetSpec::ImageNet200GiB(env.scale);
        config.model = dlsim::ModelProfile::LeNet();
        config.epochs = env.epochs;
        config.placement_policy = policy;
        config.run_seed = static_cast<std::uint64_t>(4100 + run);

        const auto pfs_root = env.work_dir / "pfs_sweep";
        auto manifest = dlsim::EnsureDataset(pfs_root, config.dataset);
        if (!manifest.ok()) {
          std::cerr << "sweep dataset failed: " << manifest.status() << "\n";
          return 1;
        }
        config.local_quota_bytes = static_cast<std::uint64_t>(
            static_cast<double>(manifest.value().total_bytes) / ratio);
        // A look-ahead deeper than the cache just churns speculative
        // copies against each other: cap it at the cache's file count.
        const std::uint64_t files = manifest.value().num_files();
        const std::uint64_t cache_files = std::max<std::uint64_t>(
            1, config.local_quota_bytes /
                   std::max<std::uint64_t>(
                       1, manifest.value().total_bytes / files));
        config.prefetch_lookahead = static_cast<int>(std::clamp<std::uint64_t>(
            std::min(files / 2, cache_files), 4, 64));

        auto setup = dlsim::MakeMonarchSetup(
            pfs_root,
            env.work_dir / ("sweep_" + policy + "_" + label + "_r" +
                            std::to_string(run)),
            config);
        if (!setup.ok()) {
          std::cerr << "sweep setup failed: " << setup.status() << "\n";
          return 1;
        }
        core::Monarch& monarch = *setup.value().monarch;

        // Phase 1 places; phase 2 measures the steady state.
        dlsim::Trainer phase1(setup.value().files,
                              std::make_unique<dlsim::MonarchOpener>(monarch),
                              PhaseConfig(config, 1));
        if (auto result = phase1.Train(); !result.ok()) {
          std::cerr << "sweep phase 1 failed: " << result.status() << "\n";
          return 1;
        }
        monarch.DrainPlacements();
        const auto pfs_after_e1 = setup.value().pfs_engine->Stats().Snapshot();

        dlsim::Trainer phase2(setup.value().files,
                              std::make_unique<dlsim::MonarchOpener>(monarch),
                              PhaseConfig(config, env.epochs - 1));
        auto result2 = phase2.Train();
        if (!result2.ok()) {
          std::cerr << "sweep phase 2 failed: " << result2.status() << "\n";
          return 1;
        }
        const auto pfs_steady =
            setup.value().pfs_engine->Stats().Snapshot() - pfs_after_e1;
        const auto stats = monarch.Stats();
        steady.Add(result2.value().total_seconds / (env.epochs - 1));
        pfs_mib.Add(static_cast<double>(pfs_steady.bytes_read) /
                    static_cast<double>(kMiB) / (env.epochs - 1));
        evictions.Add(static_cast<double>(stats.placement.evictions));
        refused.Add(static_cast<double>(stats.placement.eviction_refused));
      }

      if (policy == "first-fit") first_fit_steady = steady.mean();
      const double slowdown =
          first_fit_steady > 0 ? steady.mean() / first_fit_steady : 1.0;
      table.AddRow({label, policy, Table::Num(steady.mean(), 3),
                    Table::Num(pfs_mib.mean(), 1),
                    Table::Num(evictions.mean(), 0),
                    Table::Num(refused.mean(), 0), Table::Num(slowdown, 2)});
      const std::string key = "sweep." + policy + "." + label;
      json.emplace_back(key + ".steady_epoch_seconds", steady.mean());
      json.emplace_back(key + ".steady_pfs_mib_per_epoch", pfs_mib.mean());
      json.emplace_back(key + ".evictions", evictions.mean());
      if (policy != "first-fit" && slowdown > kSweepSlowdownBound) {
        failures.push_back(policy + " @ " + label + ": steady epoch " +
                           Table::Num(steady.mean(), 3) + " s is " +
                           Table::Num(slowdown, 2) + "x first-fit's " +
                           Table::Num(first_fit_steady, 3) + " s");
      }
      std::cout << "  done: sweep " << policy << " @ " << label << "\n";
    }
  }
  table.PrintAscii(std::cout);
  std::cout << "(steady = epochs after the first, mean of " << env.runs
            << " runs; gate: every evicting policy's steady epoch within "
            << kSweepSlowdownBound << "x first-fit's)\n";
  for (const std::string& failure : failures) {
    std::cout << "FAIL sweep: " << failure << "\n";
  }
  gate_held = failures.empty();
  return 0;
}

int Run() {
  BenchEnv env = BenchEnv::FromEnvironment("fig4");
  const char* arms_env = std::getenv("MONARCH_FIG4_ARMS");
  const std::string arms = arms_env != nullptr ? arms_env : "all";
  std::cout << "fig4_partial_dataset: runs=" << env.runs
            << " scale=" << env.scale << " epochs=" << env.epochs << "\n";
  if (env.epochs < 2) {
    std::cerr << "fig4 needs MONARCH_BENCH_EPOCHS >= 2\n";
    return 1;
  }

  // MONARCH_FIG4_ARMS: all (default) | sweep (policy sweep only, for
  // bench_smoke) | paper (figure arms only, skip the sweep).
  bool gate_held = true;
  if (arms == "sweep") {
    std::vector<CellResult> cells;
    std::vector<std::pair<std::string, double>> json_metrics;
    if (const int rc = RunPolicySweep(env, json_metrics, gate_held); rc != 0) {
      return rc;
    }
    WriteBenchJson(env, "fig4", cells, json_metrics);
    env.Cleanup();
    return gate_held ? 0 : 1;
  }

  const std::vector<dlsim::ModelProfile> models{
      dlsim::ModelProfile::LeNet(), dlsim::ModelProfile::AlexNet(),
      dlsim::ModelProfile::ResNet50()};

  std::vector<CellResult> cells;
  RunningSummary metadata_init_seconds;
  RunningSummary monarch_steady_pfs_reads;   ///< per steady epoch
  RunningSummary monarch_epoch1_pfs_reads;
  RunningSummary vanilla_steady_pfs_reads;
  RunningSummary placed_fraction;

  for (const bool use_monarch : {false, true}) {
    for (const auto& model : models) {
      CellResult cell;
      cell.setup = use_monarch ? "monarch" : "vanilla-lustre";
      cell.model = model.name;
      for (int run = 0; run < env.runs; ++run) {
        ExperimentConfig config;
        config.dataset = workload::DatasetSpec::ImageNet200GiB(env.scale);
        config.model = model;
        config.epochs = env.epochs;
        config.local_quota_bytes = static_cast<std::uint64_t>(
            115.0 * env.scale * static_cast<double>(kMiB));
        config.run_seed = static_cast<std::uint64_t>(4000 + run);

        const auto pfs_root = env.work_dir / ("pfs_r" + std::to_string(run));
        auto setup =
            use_monarch
                ? dlsim::MakeMonarchSetup(
                      pfs_root,
                      env.work_dir / ("local_" + model.name + "_r" +
                                      std::to_string(run)),
                      config)
                : dlsim::MakeVanillaLustreSetup(pfs_root, config);
        if (!setup.ok()) {
          std::cerr << "setup failed: " << setup.status() << "\n";
          return 1;
        }

        // Fresh opener per phase, bound to the same backends/middleware.
        auto make_opener = [&]() -> dlsim::RecordFileOpenerPtr {
          if (use_monarch) {
            return std::make_unique<dlsim::MonarchOpener>(
                *setup.value().monarch);
          }
          return std::make_unique<dlsim::EngineOpener>(
              setup.value().pfs_engine);
        };

        const auto pfs_at_start = setup.value().pfs_engine->Stats().Snapshot();

        // Phase 1: the placement epoch.
        dlsim::Trainer phase1(setup.value().files, make_opener(),
                              PhaseConfig(config, 1));
        auto result1 = phase1.Train();
        if (!result1.ok()) {
          std::cerr << "phase 1 failed: " << result1.status() << "\n";
          return 1;
        }
        if (use_monarch) setup.value().monarch->DrainPlacements();
        const auto pfs_after_e1 =
            setup.value().pfs_engine->Stats().Snapshot();

        // Phase 2: the steady-state epochs.
        dlsim::Trainer phase2(setup.value().files, make_opener(),
                              PhaseConfig(config, env.epochs - 1));
        auto result2 = phase2.Train();
        if (!result2.ok()) {
          std::cerr << "phase 2 failed: " << result2.status() << "\n";
          return 1;
        }
        const auto pfs_at_end = setup.value().pfs_engine->Stats().Snapshot();

        // Stitch the phases into one per-epoch series.
        dlsim::TrainingResult combined = std::move(result1).value();
        for (auto epoch : result2.value().epochs) {
          epoch.epoch += 1;
          combined.epochs.push_back(epoch);
        }
        combined.total_seconds += result2.value().total_seconds;

        const double steady_reads =
            static_cast<double>((pfs_at_end - pfs_after_e1).read_ops) /
            (env.epochs - 1);
        if (use_monarch) {
          monarch_epoch1_pfs_reads.Add(
              static_cast<double>((pfs_after_e1 - pfs_at_start).read_ops));
          monarch_steady_pfs_reads.Add(steady_reads);
          const auto stats = setup.value().monarch->Stats();
          metadata_init_seconds.Add(stats.metadata_init_seconds);
          placed_fraction.Add(
              static_cast<double>(stats.placement.completed) /
              static_cast<double>(stats.files_indexed));
          cell.AccumulateMonarch(stats);
        } else {
          vanilla_steady_pfs_reads.Add(steady_reads);
        }

        const auto local =
            setup.value().local_engine
                ? setup.value().local_engine->Stats().Snapshot()
                : storage::IoStatsSnapshot{};
        cell.Accumulate(combined, pfs_at_end - pfs_at_start, local,
                        env.epochs);
      }
      std::cout << "  done: " << cell.setup << " / " << model.name << "\n";
      cells.push_back(std::move(cell));
    }
  }

  PrintEpochTable(
      "Figure 4: per-epoch training time, 200 GiB-scale dataset "
      "(seconds, mean±sd)",
      cells, env.epochs);

  PrintBanner(std::cout,
              "Figure 4 summary: MONARCH total-time change vs vanilla-lustre");
  Table summary({"model", "monarch vs vanilla"});
  for (std::size_t m = 0; m < models.size(); ++m) {
    summary.AddRow(
        {models[m].name,
         RelativeChange(cells[m].total_seconds.mean(),
                        cells[models.size() + m].total_seconds.mean())});
  }
  summary.PrintAscii(std::cout);

  PrintPfsPressureTable("Figure 4: backend I/O operations per run", cells);

  PrintBanner(std::cout, "Figure 4: PFS read-operation reduction (whole run)");
  Table reduction({"model", "vanilla_pfs_reads", "monarch_pfs_reads",
                   "reduction"});
  for (std::size_t m = 0; m < models.size(); ++m) {
    const double vanilla = cells[m].pfs_read_ops.mean();
    const double monarch = cells[models.size() + m].pfs_read_ops.mean();
    reduction.AddRow({models[m].name, Table::Num(vanilla, 0),
                      Table::Num(monarch, 0),
                      RelativeChange(vanilla, monarch)});
  }
  reduction.PrintAscii(std::cout);
  std::cout << "(paper: ~55% average PFS-op reduction over the full "
               "training workload)\n";

  PrintBanner(std::cout, "Figure 4: steady-state (epoch 2+) PFS traffic");
  std::cout << "vanilla per-epoch PFS reads : "
            << MeanSd(vanilla_steady_pfs_reads, 0) << "\n"
            << "monarch per-epoch PFS reads : "
            << MeanSd(monarch_steady_pfs_reads, 0) << "\n"
            << "monarch epoch-1  PFS reads  : "
            << MeanSd(monarch_epoch1_pfs_reads, 0) << "\n"
            << "fraction of dataset placed  : " << MeanSd(placed_fraction, 3)
            << "\n"
            << "(paper: ~360,000 of 798,340 per-epoch ops still reach "
               "Lustre in epochs 2-3)\n";

  PrintBanner(std::cout, "Figure 4: MONARCH metadata initialisation");
  std::cout << "metadata-init seconds (mean±sd): "
            << MeanSd(metadata_init_seconds, 4)
            << "  (paper: ~52 s at full scale, ~2x the 100 GiB dataset)\n";

  std::vector<std::pair<std::string, double>> json_metrics{
      {"metadata_init_seconds_mean", metadata_init_seconds.mean()},
      {"vanilla_steady_pfs_reads_mean", vanilla_steady_pfs_reads.mean()},
      {"monarch_steady_pfs_reads_mean", monarch_steady_pfs_reads.mean()},
      {"monarch_epoch1_pfs_reads_mean", monarch_epoch1_pfs_reads.mean()},
      {"placed_fraction_mean", placed_fraction.mean()}};

  if (const int rc = RunPeerExtension(env, json_metrics); rc != 0) return rc;
  if (arms != "paper") {
    if (const int rc = RunPolicySweep(env, json_metrics, gate_held); rc != 0) {
      return rc;
    }
  }

  WriteBenchJson(env, "fig4", cells, json_metrics);
  env.Cleanup();
  return gate_held ? 0 : 1;
}

}  // namespace
}  // namespace monarch::bench

int main(int argc, char** argv) {
  const monarch::bench::TraceOutGuard trace(argc, argv);
  return monarch::bench::Run();
}
