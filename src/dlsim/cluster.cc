#include "dlsim/cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "ckpt/checkpoint_manager.h"
#include "cluster/peer_group.h"
#include "cluster/restage_pump.h"
#include "dlsim/monarch_opener.h"
#include "dlsim/record_opener.h"
#include "qos/admission.h"
#include "qos/bandwidth_broker.h"
#include "storage/device_model.h"
#include "storage/engine_factory.h"
#include "storage/posix_engine.h"
#include "storage/throttled_engine.h"
#include "util/clock.h"
#include "util/rng.h"

namespace monarch::dlsim {

namespace fs = std::filesystem;

namespace {

/// Shared churn state: the cluster-wide file-open counter the schedule
/// keys off, and a per-node read gate. A down node's reader threads park
/// in AwaitUp — the trainer pauses mid-epoch and resumes on revive, so it
/// still consumes every sample (digest-comparable against no-churn runs).
class ChurnGate {
 public:
  explicit ChurnGate(int nodes) : down_(static_cast<std::size_t>(nodes), 0) {}

  void CountOpen() {
    opens_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t opens() const {
    return opens_.load(std::memory_order_relaxed);
  }

  void SetDown(int node, bool down) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      down_[static_cast<std::size_t>(node)] = down ? 1 : 0;
    }
    cv_.notify_all();
  }

  void AwaitUp(int node) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return released_ || down_[static_cast<std::size_t>(node)] == 0;
    });
  }

  /// End-of-run failsafe: unblock every parked reader unconditionally.
  void ReleaseAll() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::atomic<std::uint64_t> opens_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> down_;
  bool released_ = false;
};

/// Byte-source wrapper parking every ReadAt while the node is down: a
/// crashed trainer freezes instantly, mid-file included — it must not
/// keep dialing the dead fabric from sources opened before the kill.
class GatedSource final : public tfrecord::RandomAccessSource {
 public:
  GatedSource(tfrecord::RandomAccessSourcePtr inner,
              std::shared_ptr<ChurnGate> gate, int node)
      : inner_(std::move(inner)), gate_(std::move(gate)), node_(node) {}

  Result<std::size_t> ReadAt(std::uint64_t offset,
                             std::span<std::byte> dst) override {
    gate_->AwaitUp(node_);
    return inner_->ReadAt(offset, dst);
  }
  Result<std::uint64_t> Size() override { return inner_->Size(); }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

 private:
  tfrecord::RandomAccessSourcePtr inner_;
  std::shared_ptr<ChurnGate> gate_;
  const int node_;
};

/// Wraps a node's opener with its churn gate: every Open first waits out
/// any outage of the node, then ticks the cluster-wide open counter that
/// drives the event schedule.
class GatedOpener final : public RecordFileOpener {
 public:
  GatedOpener(RecordFileOpenerPtr inner, std::shared_ptr<ChurnGate> gate,
              int node)
      : inner_(std::move(inner)), gate_(std::move(gate)), node_(node) {}

  Result<tfrecord::RandomAccessSourcePtr> Open(
      const std::string& path) override {
    gate_->AwaitUp(node_);
    gate_->CountOpen();
    MONARCH_ASSIGN_OR_RETURN(tfrecord::RandomAccessSourcePtr source,
                             inner_->Open(path));
    return tfrecord::RandomAccessSourcePtr(std::make_unique<GatedSource>(
        std::move(source), gate_, node_));
  }

  void OnEpochStart(int epoch) override { inner_->OnEpochStart(epoch); }
  void OnRunSchedule(
      const std::vector<std::vector<std::string>>& epochs) override {
    inner_->OnRunSchedule(epochs);
  }

  [[nodiscard]] std::string Name() const override {
    return "gated:" + inner_->Name();
  }

 private:
  RecordFileOpenerPtr inner_;
  std::shared_ptr<ChurnGate> gate_;
  const int node_;
};

/// Data-prep workload (ISSUE 10): `passes` sequential full-dataset
/// sweeps, every byte of every file in manifest order. The classic cache
/// killer — under QoS the scan tenant's low-retention marking keeps it
/// from evicting any trainer's working set.
Result<TrainingResult> RunScanJob(const std::vector<std::string>& files,
                                  RecordFileOpener& opener, int passes,
                                  std::size_t chunk_bytes) {
  TrainingResult result;
  std::vector<std::byte> buffer(std::max<std::size_t>(chunk_bytes, 1));
  const Stopwatch total;
  for (int pass = 1; pass <= std::max(passes, 1); ++pass) {
    opener.OnEpochStart(pass);
    EpochResult epoch;
    epoch.epoch = pass;
    const Stopwatch watch;
    for (const std::string& path : files) {
      MONARCH_ASSIGN_OR_RETURN(tfrecord::RandomAccessSourcePtr source,
                               opener.Open(path));
      MONARCH_ASSIGN_OR_RETURN(const std::uint64_t size, source->Size());
      std::uint64_t offset = 0;
      while (offset < size) {
        MONARCH_ASSIGN_OR_RETURN(
            const std::size_t n,
            source->ReadAt(offset, std::span<std::byte>(buffer)));
        if (n == 0) break;
        offset += n;
      }
      ++epoch.samples;
    }
    epoch.wall_seconds = watch.ElapsedSeconds();
    result.epochs.push_back(epoch);
  }
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

/// Model-serving workload (ISSUE 10): restore the model from the
/// write-back checkpoint tier, then serve latency-sensitive point reads
/// (one small read per "request"). Reports the per-request p99 — the
/// number the interactive class's isolation gate is judged on.
Result<TrainingResult> RunInferenceJob(const std::vector<std::string>& files,
                                       RecordFileOpener& opener,
                                       ckpt::CheckpointManager* ckpt,
                                       std::uint64_t model_bytes,
                                       int iterations, std::size_t read_bytes,
                                       std::uint64_t seed, double* p99_us) {
  if (ckpt != nullptr) {
    // Publish the model once, as training would have; every iteration
    // below restores it the way a (re)starting replica does.
    std::vector<std::byte> model(model_bytes);
    for (std::size_t i = 0; i < model.size(); ++i) {
      model[i] = static_cast<std::byte>((i * 131) & 0xff);
    }
    MONARCH_RETURN_IF_ERROR(ckpt->Save("serving-model", model));
    MONARCH_RETURN_IF_ERROR(ckpt->Flush());
  }
  TrainingResult result;
  std::vector<double> latencies_us;
  std::vector<std::byte> buffer(std::max<std::size_t>(read_bytes, 1));
  Xoshiro256 rng(seed);
  const Stopwatch total;
  for (int it = 1; it <= std::max(iterations, 1); ++it) {
    EpochResult epoch;
    epoch.epoch = it;
    const Stopwatch watch;
    if (ckpt != nullptr) {
      MONARCH_RETURN_IF_ERROR(ckpt->Restore("serving-model").status());
    }
    for (std::size_t request = 0; request < files.size(); ++request) {
      const std::string& path =
          files[rng.NextBounded(static_cast<std::uint64_t>(files.size()))];
      const Stopwatch request_watch;
      MONARCH_ASSIGN_OR_RETURN(tfrecord::RandomAccessSourcePtr source,
                               opener.Open(path));
      MONARCH_RETURN_IF_ERROR(
          source->ReadAt(0, std::span<std::byte>(buffer)).status());
      latencies_us.push_back(request_watch.ElapsedSeconds() * 1e6);
      ++epoch.samples;
    }
    epoch.wall_seconds = watch.ElapsedSeconds();
    result.epochs.push_back(epoch);
  }
  result.total_seconds = total.ElapsedSeconds();
  if (p99_us != nullptr && !latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    const std::size_t idx = std::min(
        latencies_us.size() - 1,
        static_cast<std::size_t>(0.99 * static_cast<double>(
                                            latencies_us.size())));
    *p99_us = latencies_us[idx];
  }
  return result;
}

}  // namespace

double ClusterResult::MeanEpochSeconds() const {
  double total = 0;
  std::size_t epochs = 0;
  for (const JobResult& job : jobs) {
    for (const EpochResult& epoch : job.training.epochs) {
      total += epoch.wall_seconds;
      ++epochs;
    }
  }
  return epochs == 0 ? 0 : total / static_cast<double>(epochs);
}

double ClusterResult::MeanTotalSeconds() const {
  double total = 0;
  for (const JobResult& job : jobs) total += job.training.total_seconds;
  return jobs.empty() ? 0 : total / static_cast<double>(jobs.size());
}

std::uint64_t ClusterResult::TotalPfsReadOps() const {
  std::uint64_t total = 0;
  for (const JobResult& job : jobs) total += job.pfs_stats.read_ops;
  return total;
}

std::uint64_t ClusterResult::TotalPfsReadBytes() const {
  std::uint64_t total = 0;
  for (const JobResult& job : jobs) total += job.pfs_stats.bytes_read;
  return total;
}

Result<ClusterResult> RunClusterExperiment(const fs::path& pfs_root,
                                           const fs::path& local_root,
                                           const ClusterConfig& config) {
  if (config.num_jobs < 1) {
    return InvalidArgumentError("cluster needs at least one job");
  }

  // Stage the dataset once at host speed.
  {
    storage::PosixEngine raw(pfs_root, "dataset-gen");
    auto existing = workload::LoadManifest(raw, config.dataset);
    if (!existing.ok()) {
      MONARCH_RETURN_IF_ERROR(
          workload::GenerateDataset(raw, config.dataset).status());
    }
  }
  storage::PosixEngine listing(pfs_root, "listing");
  MONARCH_ASSIGN_OR_RETURN(const auto manifest,
                           workload::LoadManifest(listing, config.dataset));

  // ONE shared PFS device: every job's engine wrapper shares this token
  // bucket, so job B's reads slow job A's — real cross-job contention,
  // no synthetic process needed.
  auto shared_pfs_device =
      std::make_shared<storage::DeviceModel>(storage::DeviceProfile::LustrePfs());

  // Cooperative peer caching: one directory + one interconnect shared by
  // every monarch job. Outlives the Monarch instances below (their read
  // paths hold PeerViews pointing into the group).
  std::unique_ptr<cluster::PeerGroup> peer_group;
  if (config.use_monarch && config.peer_sharing) {
    cluster::PeerOptions peer_options;
    peer_options.interconnect_bandwidth_bps = config.interconnect_bandwidth_bps;
    peer_options.interconnect_latency =
        Micros(static_cast<std::int64_t>(config.interconnect_latency_us));
    peer_options.directory_shards = config.directory_shards;
    peer_options.replication = config.peer_replication;
    peer_options.deferred_nodes = config.deferred_join_nodes;
    peer_group =
        std::make_unique<cluster::PeerGroup>(config.num_jobs, peer_options);
  }

  // The chaos schedule: scripted events plus seeded random kill/revive
  // pairs, all keyed to the cluster-wide open counter. Random kills land
  // between 15% and 70% of the run's expected opens and revive half an
  // epoch's worth of opens later.
  std::vector<ChurnEvent> schedule = config.churn_schedule;
  if (peer_group && config.churn_random_kills > 0) {
    Xoshiro256 rng(config.churn_seed);
    const std::uint64_t opens_per_epoch =
        manifest.file_paths.size() *
        static_cast<std::uint64_t>(config.num_jobs);
    const std::uint64_t total_opens =
        opens_per_epoch * static_cast<std::uint64_t>(config.epochs);
    for (int i = 0; i < config.churn_random_kills; ++i) {
      ChurnEvent kill;
      kill.kind = ChurnKind::kKill;
      kill.node = static_cast<int>(
          rng.NextBounded(static_cast<std::uint64_t>(config.num_jobs)));
      kill.after_opens =
          total_opens * 15 / 100 +
          rng.NextBounded(std::max<std::uint64_t>(total_opens * 55 / 100, 1));
      ChurnEvent revive;
      revive.kind = ChurnKind::kRevive;
      revive.node = kill.node;
      revive.after_opens = kill.after_opens + opens_per_epoch / 2;
      schedule.push_back(kill);
      schedule.push_back(revive);
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const ChurnEvent& a, const ChurnEvent& b) {
                       return a.after_opens < b.after_opens;
                     });
  }
  const bool churn_active =
      peer_group && (!schedule.empty() || !config.deferred_join_nodes.empty());
  std::shared_ptr<ChurnGate> gate;
  if (churn_active) {
    gate = std::make_shared<ChurnGate>(config.num_jobs);
    // Deferred members read nothing until their join event fires.
    for (const int node : config.deferred_join_nodes) {
      gate->SetDown(node, true);
    }
  }

  // Multi-tenant QoS (ISSUE 10): one shared broker + admission gate for
  // the whole cluster; every job becomes a tenant.
  qos::BandwidthBrokerPtr broker;
  if (config.qos.enabled && config.qos.total_bandwidth_bps > 0) {
    broker = std::make_shared<qos::BandwidthBroker>(
        qos::BandwidthBroker::Options{
            .total_rate_bps = config.qos.total_bandwidth_bps});
  }
  std::unique_ptr<qos::AdmissionController> admission;
  if (config.qos.enabled && config.admission_capacity_bytes > 0) {
    admission = std::make_unique<qos::AdmissionController>(
        qos::AdmissionController::Options{
            .capacity_bytes = config.admission_capacity_bytes});
  }
  // A job's placement footprint: the dataset it will try to keep
  // resident (every job here trains/scans the same shared dataset).
  const std::uint64_t job_footprint_bytes = manifest.total_bytes;

  struct Job {
    storage::StorageEnginePtr pfs_engine;
    storage::StorageEnginePtr local_engine;
    std::unique_ptr<core::Monarch> monarch;
    std::unique_ptr<Trainer> trainer;
    JobSpec spec;                       ///< workload + QoS identity
    qos::TenantContext tenant;
    /// Set for non-training workloads (the trainer owns it otherwise).
    RecordFileOpenerPtr opener;
    /// Inference jobs restore from here (monarch jobs only).
    std::unique_ptr<ckpt::CheckpointManager> ckpt;
    bool admitted = true;               ///< written only by the job thread
    double read_p99_us = 0;
  };
  std::vector<Job> jobs(static_cast<std::size_t>(config.num_jobs));

  for (int j = 0; j < config.num_jobs; ++j) {
    Job& job = jobs[static_cast<std::size_t>(j)];
    if (static_cast<std::size_t>(j) < config.job_specs.size()) {
      job.spec = config.job_specs[static_cast<std::size_t>(j)];
    }
    job.tenant.tenant_id = j;
    job.tenant.name = "job" + std::to_string(j);
    job.tenant.io_class = job.spec.io_class;
    job.tenant.weight = job.spec.weight > 0
                            ? job.spec.weight
                            : config.qos.ClassWeight(job.spec.io_class);
    job.tenant.low_retention = job.spec.io_class == qos::IoClass::kScan;
    job.pfs_engine = std::make_shared<storage::ThrottledEngine>(
        std::make_shared<storage::PosixEngine>(pfs_root,
                                               "pfs-job" + std::to_string(j)),
        shared_pfs_device);

    TrainerConfig tc;
    tc.model = config.model;
    tc.epochs = config.epochs;
    tc.batch_size = config.batch_size;
    tc.num_gpus = config.num_gpus;
    tc.loader.reader_threads = config.reader_threads;
    tc.loader.read_chunk_bytes = config.read_chunk_bytes;
    tc.loader.shuffle_seed = config.seed * 97 + static_cast<std::uint64_t>(j);

    RecordFileOpenerPtr opener;
    if (config.use_monarch) {
      job.local_engine = storage::MakeLocalSsdEngine(
          local_root / ("job" + std::to_string(j)));
      core::MonarchConfig monarch_config;
      monarch_config.cache_tiers.push_back(core::TierSpec{
          "local-ssd", job.local_engine, config.local_quota_bytes});
      monarch_config.pfs = core::TierSpec{"lustre", job.pfs_engine, 0};
      monarch_config.dataset_dir = config.dataset.directory;
      monarch_config.placement.num_threads = config.placement_threads;
      if (config.qos.enabled) {
        monarch_config.placement.qos = config.qos;
        monarch_config.qos_broker = broker;
        monarch_config.tenant = job.tenant;
      }
      if (peer_group) {
        // Register this node's local tier as a peer-read source, then
        // give its Monarch the peer tier + the directory-backed view.
        peer_group->RegisterNode(j, job.local_engine);
        monarch_config.peer_tier =
            core::TierSpec{"peer", peer_group->MakePeerEngine(j), 0};
        monarch_config.peer_view = peer_group->MakePeerView(j);
      }
      MONARCH_ASSIGN_OR_RETURN(
          job.monarch, core::Monarch::Create(std::move(monarch_config)));
      auto monarch_opener = std::make_unique<MonarchOpener>(*job.monarch);
      if (config.qos.enabled) monarch_opener->SetTenant(job.tenant);
      opener = std::move(monarch_opener);
      if (gate) {
        opener = std::make_unique<GatedOpener>(std::move(opener), gate, j);
      }
      if (job.spec.workload == JobWorkload::kInference) {
        ckpt::CheckpointOptions ckpt_options;
        ckpt_options.qos_broker = broker;
        job.ckpt = std::make_unique<ckpt::CheckpointManager>(
            job.monarch->hierarchy(), std::move(ckpt_options));
      }
    } else {
      opener = std::make_unique<EngineOpener>(job.pfs_engine);
    }
    if (job.spec.workload == JobWorkload::kTraining) {
      job.trainer = std::make_unique<Trainer>(manifest.file_paths,
                                              std::move(opener), tc);
    } else {
      job.opener = std::move(opener);
    }
  }

  // Replication repair: one bounded-rate pump per node drains the
  // directory's re-staging queue through that node's prefetch lane.
  std::vector<std::unique_ptr<cluster::RestagePump>> pumps;
  if (peer_group) {
    cluster::RestagePump::Options pump_options;
    pump_options.bandwidth_bps = config.restage_bandwidth_bps;
    for (int j = 0; j < config.num_jobs; ++j) {
      core::Monarch* monarch = jobs[static_cast<std::size_t>(j)].monarch.get();
      if (monarch == nullptr) continue;
      pumps.push_back(std::make_unique<cluster::RestagePump>(
          peer_group->directory(), j,
          [monarch](const std::string& name) {
            return monarch->RestageFile(name);
          },
          pump_options));
    }
  }

  obs::Counter* failover_counter = obs::MetricsRegistry::Global().GetCounter(
      "net.peer_failover", "ops",
      "peer reads rescued by another live holder after a replica failed");
  const std::uint64_t failovers_before = failover_counter->Value();

  // Run every job on its own host thread (a "compute node").
  std::vector<Result<TrainingResult>> outcomes(
      static_cast<std::size_t>(config.num_jobs),
      Result<TrainingResult>(InternalError("not run")));
  std::vector<std::thread> threads;
  threads.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    threads.emplace_back([&, j] {
      Job& job = jobs[j];
      // Install the job's tenant on its host thread: direct monarch calls
      // (scan/inference) attribute here; the trainer's reader threads get
      // theirs from the opener's TenantSource wrapper.
      std::optional<qos::ScopedTenant> scope;
      if (config.qos.enabled) scope.emplace(job.tenant);
      if (admission != nullptr) {
        if (!admission->AwaitAdmission(job.tenant, job_footprint_bytes)) {
          job.admitted = false;
          outcomes[j] = TrainingResult{};  // rejected: the job does no I/O
          return;
        }
      }
      switch (job.spec.workload) {
        case JobWorkload::kTraining:
          outcomes[j] = job.trainer->Train();
          break;
        case JobWorkload::kScan:
          outcomes[j] = RunScanJob(manifest.file_paths, *job.opener,
                                   config.epochs, config.read_chunk_bytes);
          break;
        case JobWorkload::kInference:
          outcomes[j] = RunInferenceJob(
              manifest.file_paths, *job.opener, job.ckpt.get(),
              /*model_bytes=*/std::uint64_t{4} << 20, config.epochs,
              config.read_chunk_bytes,
              config.seed * 131 + static_cast<std::uint64_t>(j),
              &job.read_p99_us);
          break;
      }
      if (admission != nullptr) admission->Release(job.tenant.tenant_id);
    });
  }

  // The chaos driver: fires each scheduled event once the open counter
  // crosses its threshold. If the counter stalls (every remaining reader
  // is parked behind a gate, or training already finished) the next event
  // fires anyway — a revive must not deadlock against the outage it ends.
  std::uint64_t events_fired = 0;
  std::thread churn_driver;
  std::atomic<bool> training_done{false};
  if (churn_active) {
    churn_driver = std::thread([&] {
      using namespace std::chrono_literals;
      constexpr auto kStallWindow = 700ms;
      for (const ChurnEvent& event : schedule) {
        std::uint64_t last_opens = gate->opens();
        auto last_progress = std::chrono::steady_clock::now();
        while (gate->opens() < event.after_opens &&
               !training_done.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(2ms);
          const std::uint64_t now_opens = gate->opens();
          const auto now = std::chrono::steady_clock::now();
          if (now_opens != last_opens) {
            last_opens = now_opens;
            last_progress = now;
          } else if (now - last_progress > kStallWindow) {
            break;  // stalled: fire the event to unwedge the cluster
          }
        }
        switch (event.kind) {
          case ChurnKind::kKill:
            // Park the node's readers and take it off the fabric FIRST;
            // the directory retraction follows after the modelled
            // detection lag — in that window survivors still resolve the
            // dead holder, time out, and fail over to a replica.
            gate->SetDown(event.node, true);
            peer_group->network()->SetNodeDown(event.node, true);
            if (config.churn_detection_lag_us > 0) {
              std::this_thread::sleep_for(std::chrono::microseconds(
                  config.churn_detection_lag_us));
            }
            peer_group->KillNode(event.node);
            break;
          case ChurnKind::kRevive: {
            // Re-advertise the copies that survived on the node's local
            // tier BEFORE rejoining, so the rejoin delta only repairs
            // what was actually lost.
            core::Monarch* monarch =
                jobs[static_cast<std::size_t>(event.node)].monarch.get();
            if (monarch != nullptr) monarch->ReadvertisePlacedCopies();
            peer_group->ReviveNode(event.node);
            gate->SetDown(event.node, false);
            break;
          }
          case ChurnKind::kJoin:
            peer_group->JoinNode(event.node);
            gate->SetDown(event.node, false);
            break;
        }
        ++events_fired;
      }
    });
  }

  for (std::thread& t : threads) t.join();
  training_done.store(true, std::memory_order_release);
  if (churn_driver.joinable()) churn_driver.join();
  if (gate) gate->ReleaseAll();

  // Let the repair pumps finish the queued re-staging before stopping
  // them — replication should be restored by the time we report health.
  if (peer_group) {
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (peer_group->directory().RestageQueueDepth() > 0 &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (auto& pump : pumps) pump->Stop();
  }

  ClusterResult result;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    MONARCH_RETURN_IF_ERROR(outcomes[j].status());
    JobResult job_result;
    job_result.job_index = static_cast<int>(j);
    job_result.training = std::move(outcomes[j]).value();
    job_result.pfs_stats = jobs[j].pfs_engine->Stats().Snapshot();
    job_result.io_class = jobs[j].tenant.io_class;
    job_result.admitted = jobs[j].admitted;
    job_result.read_p99_us = jobs[j].read_p99_us;
    if (jobs[j].ckpt) jobs[j].ckpt->Shutdown();
    if (jobs[j].monarch) {
      jobs[j].monarch->DrainPlacements();
      job_result.monarch_stats = jobs[j].monarch->Stats();
    }
    if (peer_group) {
      job_result.peer_stats =
          peer_group->directory().StatsFor(static_cast<int>(j));
    }
    result.jobs.push_back(std::move(job_result));
  }
  if (peer_group) {
    result.peer_transfers = peer_group->network()->transfers();
    result.peer_bytes = peer_group->network()->bytes_transferred();
    result.churn_events_fired = events_fired;
    result.membership_version = peer_group->directory().membership_version();
    result.restage_enqueued =
        peer_group->directory().restage_enqueued_total();
    result.restage_completed =
        peer_group->directory().restage_completed_total();
    result.restage_queue_end = peer_group->directory().RestageQueueDepth();
    result.rpc_timeouts = peer_group->network()->rpc_timeouts();
    result.peer_failovers = failover_counter->Value() - failovers_before;
    result.replication = peer_group->directory().CheckReplication();
  }
  if (admission != nullptr) {
    const qos::AdmissionController::Stats admission_stats =
        admission->GetStats();
    result.qos_admitted = admission_stats.admitted;
    result.qos_queued = admission_stats.queued;
    result.qos_rejected = admission_stats.rejected;
  }
  return result;
}

}  // namespace monarch::dlsim
