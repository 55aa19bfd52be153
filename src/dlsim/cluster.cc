#include "dlsim/cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "cluster/peer_group.h"
#include "dlsim/monarch_opener.h"
#include "dlsim/record_opener.h"
#include "qos/bandwidth_broker.h"
#include "storage/device_model.h"
#include "storage/engine_factory.h"
#include "storage/posix_engine.h"
#include "storage/throttled_engine.h"
#include "util/clock.h"

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
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++opens_;
    }
    opened_cv_.notify_all();
  }

  /// Block until `target` files have been opened, the run is released,
  /// or no open arrives for `stall`: then every remaining reader is
  /// parked behind a gate, and the caller's event must fire anyway — a
  /// revive must not deadlock against the outage it ends.
  void AwaitOpens(std::uint64_t target, Duration stall) {
    std::unique_lock<std::mutex> lock(mu_);
    while (opens_ < target && !released_) {
      const std::uint64_t seen = opens_;
      if (!opened_cv_.wait_for(lock, stall, [&] {
            return opens_ != seen || released_;
          })) {
        return;
      }
    }
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

  /// Training ended: unblock every parked reader, and every open wait,
  /// unconditionally.
  void ReleaseAll() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    opened_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;         ///< readers waiting out a downed node
  std::condition_variable opened_cv_;  ///< the churn driver's open waits
  std::uint64_t opens_ = 0;
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
    peer_group =
        std::make_unique<cluster::PeerGroup>(config.num_jobs, peer_options);
  }

  // The chaos schedule is keyed to the cluster-wide open counter.
  std::shared_ptr<ChurnGate> gate;
  if (peer_group && !config.churn_schedule.empty()) {
    gate = std::make_shared<ChurnGate>(config.num_jobs);
  }

  // Multi-tenant QoS: one shared broker for the whole cluster; every job
  // becomes a tenant.
  qos::BandwidthBrokerPtr broker;
  if (config.qos.enabled && config.qos.total_bandwidth_bps > 0) {
    broker = std::make_shared<qos::BandwidthBroker>(
        qos::BandwidthBroker::Options{
            .total_rate_bps = config.qos.total_bandwidth_bps});
  }

  struct Job {
    storage::StorageEnginePtr pfs_engine;
    storage::StorageEnginePtr local_engine;
    std::unique_ptr<core::Monarch> monarch;
    std::unique_ptr<Trainer> trainer;
    JobSpec spec;                       ///< workload + QoS identity
    qos::TenantContext tenant;
    /// Set for scan jobs (the trainer owns it otherwise).
    RecordFileOpenerPtr opener;
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
      // (scan) attribute here; the trainer's reader threads get theirs
      // from the opener's TenantSource wrapper.
      std::optional<qos::ScopedTenant> scope;
      if (config.qos.enabled) scope.emplace(job.tenant);
      switch (job.spec.workload) {
        case JobWorkload::kTraining:
          outcomes[j] = job.trainer->Train();
          break;
        case JobWorkload::kScan:
          outcomes[j] = RunScanJob(manifest.file_paths, *job.opener,
                                   config.epochs, config.read_chunk_bytes);
          break;
      }
    });
  }

  // The chaos driver: fires each scheduled event once the open counter
  // crosses its threshold. If the counter stalls (every remaining reader
  // is parked behind a gate) for the stall window, or training already
  // finished, the next event fires anyway. Each membership change hands
  // its repair copies to the new owners' prefetch lanes.
  std::uint64_t events_fired = 0;
  std::thread churn_driver;
  if (gate) {
    churn_driver = std::thread([&] {
      for (const ChurnEvent& event : config.churn_schedule) {
        gate->AwaitOpens(event.after_opens, Millis(700));
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
        }
        ++events_fired;
      }
    });
  }

  for (std::thread& t : threads) t.join();
  if (gate) gate->ReleaseAll();
  if (churn_driver.joinable()) churn_driver.join();

  ClusterResult result;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    MONARCH_RETURN_IF_ERROR(outcomes[j].status());
    JobResult job_result;
    job_result.job_index = static_cast<int>(j);
    job_result.training = std::move(outcomes[j]).value();
    job_result.pfs_stats = jobs[j].pfs_engine->Stats().Snapshot();
    job_result.io_class = jobs[j].tenant.io_class;
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
    result.restage_enqueued = peer_group->restage_enqueued();
    result.restage_completed = peer_group->restage_completed();
    result.rpc_timeouts = peer_group->network()->rpc_timeouts();
    result.peer_failovers = failover_counter->Value() - failovers_before;
    result.replication = peer_group->directory().CheckReplication();
  }
  return result;
}

}  // namespace monarch::dlsim
