#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <span>
#include <thread>
#include <utility>

#include "ckpt/checkpoint_manager.h"
#include "core/monarch.h"
#include "dlsim/cluster.h"
#include "dlsim/monarch_opener.h"
#include "dlsim/trainer.h"
#include "stats.h"
#include "storage/device_model.h"
#include "storage/engine_factory.h"
#include "storage/memory_engine.h"
#include "storage/posix_engine.h"
#include "storage/throttled_engine.h"
#include "tfrecord/reader.h"
#include "timed.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/small_file_dataset.h"

namespace suite {

namespace fs = std::filesystem;
using monarch::Result;
using monarch::Status;
namespace core = monarch::core;
namespace dlsim = monarch::dlsim;
namespace storage = monarch::storage;
namespace workload = monarch::workload;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint64_t kKiB = 1024;

// Shared by every training workload. Storage, not preprocessing, must set
// the epoch time, or the storage layers barely move the result: at 50 us
// per sample the readers can preprocess far faster than a cold epoch
// reads, while a 2 ms step keeps the GPU loop off the critical path.
dlsim::ModelProfile IoBoundProfile() {
  dlsim::ModelProfile profile;
  profile.name = "io-bound";
  profile.step_time = monarch::Millis(2);
  profile.preprocess_per_sample = monarch::Micros(50);
  return profile;
}
constexpr std::uint64_t kBatch = 256;
constexpr int kGpus = 4;
constexpr std::size_t kReadChunk = 64 * kKiB;
constexpr int kPlacementThreads = 6;  // the paper's configuration

double Mib(std::uint64_t bytes) { return static_cast<double>(bytes) / kMiB; }
double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  return monarch::SplitMix64(seed * 0x9E3779B97F4A7C15ull + salt).Next();
}

/// Run `count` items on `clients` threads (a closed loop: each client
/// takes the next item only after finishing its previous one). Returns
/// the first error; the other clients stop at their next item.
Status ParallelFor(int clients, std::size_t count,
                   const std::function<Status(std::size_t)>& item) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex error_mu;
  Status first_error = Status::Ok();
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count || stop.load(std::memory_order_relaxed)) return;
        Status status = item(i);
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = std::move(status);
          stop.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return first_error;
}

/// Storage counters of a single-node rep (engine IoStats deltas).
void AddStorage(const storage::IoStatsSnapshot& pfs,
                const storage::IoStatsSnapshot& local, RepResult* out) {
  auto& m = out->layer;
  m["storage.pfs.read_ops"] = static_cast<double>(pfs.read_ops);
  m["storage.pfs.read_mib"] = Mib(pfs.bytes_read);
  m["storage.pfs.write_mib"] = Mib(pfs.bytes_written);
  m["storage.pfs.meta_ops"] = static_cast<double>(pfs.metadata_ops);
  m["storage.local.read_ops"] = static_cast<double>(local.read_ops);
  m["storage.local.read_mib"] = Mib(local.bytes_read);
  m["storage.local.write_mib"] = Mib(local.bytes_written);
  out->pfs_read_bytes = pfs.bytes_read;
  out->pfs_read_ops = pfs.read_ops;
}

/// Read-path, placement and pack counters, summed over the nodes first
/// so ratios are ratios of totals. Levels: cache tiers, then the peer
/// tier when `peer`, then the PFS.
void AddMonarch(std::span<const core::MonarchStats> nodes, bool peer,
                RepResult* out) {
  std::map<std::string, double> sum;
  double reads = 0, tier_reads = 0, tier_bytes = 0, peer_reads = 0;
  for (const core::MonarchStats& s : nodes) {
    const std::size_t caches = s.levels.size() - 1 - (peer ? 1 : 0);
    for (std::size_t i = 0; i < s.levels.size(); ++i) {
      const auto& level = s.levels[i];
      reads += static_cast<double>(level.reads);
      if (i < caches) {
        tier_reads += static_cast<double>(level.reads);
        tier_bytes += static_cast<double>(level.bytes);
      } else if (i + 1 < s.levels.size()) {
        peer_reads += static_cast<double>(level.reads);
      }
    }
    const core::PlacementStats& p = s.placement;
    const auto add = [&](const char* key, std::uint64_t value) {
      sum[key] += static_cast<double>(value);
    };
    add("degraded", s.degraded_fallbacks);
    add("prefetch_hits", s.prefetch_hits);
    add("chunk_hits", s.chunk_hits);
    add("chunk_misses", s.chunk_misses);
    add("staged", p.bytes_staged);
    add("completed", p.completed);
    add("rejected_no_space", p.rejected_no_space);
    add("evictions", p.evictions);
    add("evicted", p.evicted_bytes);
    add("eviction_refused", p.eviction_refused);
    add("prefetch_scheduled", p.prefetch_scheduled);
    add("prefetch_completed", p.prefetch_completed);
    add("stored", p.chunk_stored_bytes);
    add("chunks_evicted", p.chunks_evicted);
  }
  auto& m = out->layer;
  m["core.read.calls"] = reads;
  m["core.read.tier_share"] = Ratio(tier_reads, reads);
  m["core.read.peer_share"] = Ratio(peer_reads, reads);
  m["core.read.degraded_fallbacks"] = sum["degraded"];
  m["core.placement.staged_mib"] = sum["staged"] / kMiB;
  m["core.placement.completed"] = sum["completed"];
  m["core.placement.rejected_no_space"] = sum["rejected_no_space"];
  m["core.placement.evictions"] = sum["evictions"];
  m["core.placement.evicted_mib"] = sum["evicted"] / kMiB;
  m["core.placement.eviction_refused"] = sum["eviction_refused"];
  m["core.placement.prefetch_scheduled"] = sum["prefetch_scheduled"];
  m["core.placement.prefetch_hit_ratio"] =
      Ratio(sum["prefetch_hits"], sum["prefetch_completed"]);
  m["core.placement.reuse_ratio"] = Ratio(tier_bytes, sum["staged"]);
  m["pack.chunk_hits"] = sum["chunk_hits"];
  m["pack.chunk_misses"] = sum["chunk_misses"];
  m["pack.chunk_hit_ratio"] =
      Ratio(sum["chunk_hits"], sum["chunk_hits"] + sum["chunk_misses"]);
  m["pack.stored_mib"] = sum["stored"] / kMiB;
  m["pack.effective_capacity"] = Ratio(sum["staged"], sum["stored"]);
  m["pack.chunks_evicted"] = sum["chunks_evicted"];
  out->reads = static_cast<std::uint64_t>(reads);
  out->attempted += static_cast<std::uint64_t>(reads);
}

/// Trainer-side split of epoch time (per-epoch medians).
void AddTrainer(const std::vector<dlsim::EpochResult>& epochs,
                double wall_seconds, RepResult* out) {
  std::vector<double> stall, compute, ckpt;
  double samples = 0;
  for (const dlsim::EpochResult& e : epochs) {
    stall.push_back(e.read_stall_seconds);
    compute.push_back(e.compute_seconds);
    ckpt.push_back(e.checkpoint_seconds);
    samples += static_cast<double>(e.samples);
  }
  auto& m = out->layer;
  m["dlsim.read_stall_s"] = Median(stall);
  m["dlsim.compute_s"] = Median(compute);
  m["dlsim.samples_per_s"] = Ratio(samples, wall_seconds);
  m["ckpt.stall_s"] = Median(ckpt);
}

/// Digest of every record in `files` read straight off the raw PFS
/// directory: what each epoch's sample_digest must equal.
Result<std::uint64_t> OracleDigest(const fs::path& pfs_root,
                                   const std::vector<std::string>& files) {
  auto raw = std::make_shared<storage::PosixEngine>(pfs_root, "oracle");
  std::uint64_t digest = 0;
  for (const std::string& path : files) {
    monarch::tfrecord::EngineSource source(raw, path);
    monarch::tfrecord::TFRecordReader reader(source);
    for (;;) {
      auto record = reader.ReadRecord();
      if (!record.ok()) {
        if (record.status().code() == monarch::StatusCode::kOutOfRange) break;
        return record.status();
      }
      digest += monarch::Crc32c(record.value());
    }
  }
  return digest;
}

Status CheckDigests(const std::vector<dlsim::EpochResult>& epochs,
                    std::uint64_t oracle) {
  for (const dlsim::EpochResult& e : epochs) {
    if (e.sample_digest != oracle) {
      return monarch::DataLossError("epoch " + std::to_string(e.epoch) +
                                    " sample digest differs from the oracle");
    }
  }
  return Status::Ok();
}

Result<workload::DatasetManifest> GenerateTfRecords(
    const fs::path& pfs_root, const workload::DatasetSpec& spec) {
  fs::create_directories(pfs_root);
  storage::PosixEngine raw(pfs_root, "dataset-gen");
  return workload::GenerateDataset(raw, spec);
}

void RemoveTree(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// train-fit, train-overflow, train-ckpt: one node, TFRecord shards on a
// Lustre-modelled PFS directory (contention process off: it is random by
// design and would swamp any bound), a local-SSD-modelled cache tier.

struct TrainingShape {
  workload::DatasetSpec dataset;
  double quota_share = 1.0;  ///< local quota as a share of the dataset
  std::string policy;        ///< empty = first-fit
  int prefetch_lookahead = 0;
  int readers = 3;           ///< + the training loop = 4 load threads
  int epochs = 5;
  bool checkpoints = false;
};

constexpr int kCkptKeepLast = 2;
constexpr std::uint64_t kCkptEverySteps = 8;
constexpr std::uint64_t kCkptBytes = 8ull << 20;

class TrainingWorkload final : public Workload {
 public:
  TrainingWorkload(TrainingShape shape, std::uint64_t seed, fs::path work)
      : shape_(std::move(shape)), seed_(seed), work_(std::move(work)) {
    shape_.dataset.seed = MixSeed(seed_, shape_.dataset.seed);
  }

  Status Prepare() override {
    MONARCH_ASSIGN_OR_RETURN(manifest_,
                             GenerateTfRecords(work_ / "pfs", shape_.dataset));
    MONARCH_ASSIGN_OR_RETURN(oracle_,
                             OracleDigest(work_ / "pfs", manifest_.file_paths));
    return Status::Ok();
  }

  Status RunRep(int rep, RepResult* out) override {
    const fs::path local_root = work_ / ("local-" + std::to_string(rep));
    RemoveTree(local_root);
    fs::create_directories(local_root);
    auto pfs = std::make_shared<TimedEngine>(
        storage::MakeLustreEngine(work_ / "pfs", seed_, /*contended=*/false),
        TimedEngine::Tier::kPfs);
    auto local = std::make_shared<TimedEngine>(
        storage::MakeLocalSsdEngine(local_root), TimedEngine::Tier::kLocal);
    const auto pfs_before = pfs->Stats().Snapshot();
    const auto local_before = local->Stats().Snapshot();

    core::MonarchConfig config;
    const auto quota = static_cast<std::uint64_t>(
        shape_.quota_share * static_cast<double>(manifest_.total_bytes));
    config.cache_tiers.push_back(core::TierSpec{"local-ssd", local, quota});
    config.pfs = core::TierSpec{"lustre", pfs, 0};
    config.dataset_dir = shape_.dataset.directory;
    config.placement.num_threads = kPlacementThreads;
    config.placement.prefetch_lookahead = shape_.prefetch_lookahead;
    MONARCH_ASSIGN_OR_RETURN(config.policy,
                             core::MakePlacementPolicyByName(shape_.policy));

    const monarch::Stopwatch setup;
    MONARCH_ASSIGN_OR_RETURN(auto monarch,
                             core::Monarch::Create(std::move(config)));
    out->setup_s = setup.ElapsedSeconds();

    std::unique_ptr<monarch::ckpt::CheckpointManager> manager;
    std::unique_ptr<TimedSink> sink;
    dlsim::TrainerConfig tc;
    tc.model = IoBoundProfile();
    tc.epochs = shape_.epochs;
    tc.batch_size = kBatch;
    tc.num_gpus = kGpus;
    tc.loader.reader_threads = shape_.readers;
    tc.loader.read_chunk_bytes = kReadChunk;
    tc.loader.shuffle_seed =
        MixSeed(seed_, 1000 + static_cast<std::uint64_t>(rep));
    if (shape_.checkpoints) {
      monarch::ckpt::CheckpointOptions options;
      options.keep_last = kCkptKeepLast;
      manager = std::make_unique<monarch::ckpt::CheckpointManager>(
          monarch->hierarchy(), std::move(options));
      sink = std::make_unique<TimedSink>(*manager);
      tc.checkpoint_sink = sink.get();
      tc.checkpoint_every_steps = kCkptEverySteps;
      tc.checkpoint_bytes = kCkptBytes;
    }
    dlsim::Trainer trainer(
        manifest_.file_paths,
        std::make_unique<TimedOpener>(
            std::make_unique<dlsim::MonarchOpener>(*monarch)),
        tc);
    auto trained = trainer.Train();
    if (!trained.ok()) {
      out->failed = 1;
      return trained.status();
    }
    {
      const ScopedSpan span(Layer::kCoreDrain);
      monarch->DrainPlacements();
    }
    const dlsim::TrainingResult& result = trained.value();
    for (const dlsim::EpochResult& e : result.epochs) {
      out->epoch_s.push_back(e.wall_seconds);
    }
    MONARCH_RETURN_IF_ERROR(CheckDigests(result.epochs, oracle_));

    if (manager) {
      MONARCH_RETURN_IF_ERROR(sink->Flush());
      MONARCH_RETURN_IF_ERROR(CheckCheckpoints(*manager, *sink, out));
    }
    AddStorage(pfs->Stats().Snapshot() - pfs_before,
               local->Stats().Snapshot() - local_before, out);
    const core::MonarchStats stats = monarch->Stats();
    AddMonarch(std::span<const core::MonarchStats>(&stats, 1), false, out);
    AddTrainer(result.epochs, result.total_seconds, out);

    manager.reset();
    monarch.reset();
    RemoveTree(local_root);
    RemoveTree(work_ / "pfs" / "ckpt");
    return Status::Ok();
  }

 private:
  /// After Flush every retained checkpoint must be durable and restore
  /// to the bytes that were saved.
  static Status CheckCheckpoints(monarch::ckpt::CheckpointManager& manager,
                                 TimedSink& sink, RepResult* out) {
    const auto stats = manager.GetStats();
    auto& m = out->layer;
    m["ckpt.saves"] = static_cast<double>(stats.saves);
    m["ckpt.drain_mib"] = Mib(stats.drain_bytes);
    m["ckpt.local_evictions"] = static_cast<double>(stats.local_evictions);
    m["ckpt.direct_pfs_writes"] = static_cast<double>(stats.direct_pfs_writes);
    m["ckpt.drain_retries"] = static_cast<double>(stats.drain_retries);
    out->attempted += stats.saves;
    for (const auto& entry : manager.ManifestView()) {
      if (entry.state != monarch::ckpt::CkptState::kDurable) {
        return monarch::DataLossError("checkpoint " + entry.name +
                                      " not durable after Flush");
      }
      ++out->attempted;
      auto restored = sink.Restore(entry.name);
      if (!restored.ok()) {
        ++out->failed;
        return restored.status();
      }
      if (sink.SavedCrc(entry.name) != monarch::Crc32c(restored.value())) {
        return monarch::DataLossError("checkpoint " + entry.name +
                                      " restored with a different CRC");
      }
    }
    return Status::Ok();
  }

  TrainingShape shape_;
  const std::uint64_t seed_;
  const fs::path work_;
  workload::DatasetManifest manifest_;
  std::uint64_t oracle_ = 0;
};

// ---------------------------------------------------------------------------
// smallfile-packed: many small files packed into container extents,
// served chunk by chunk with the lz codec. Both tiers are memory engines
// under the Lustre and local-SSD device models.

constexpr std::uint64_t kSmallFiles = 2048;
constexpr std::uint64_t kSmallMeanBytes = 32 * kKiB;
constexpr std::uint64_t kSmallExtentBytes = 4ull << 20;
constexpr std::uint64_t kSmallChunkBytes = 8 * kKiB;
constexpr double kSmallQuotaShare = 0.75;  // only lz makes the data fit
constexpr int kSmallClients = 4;
constexpr int kSmallEpochs = 4;

class SmallFileWorkload final : public Workload {
 public:
  explicit SmallFileWorkload(std::uint64_t seed) : seed_(seed) {
    spec_.directory = "smallfiles";
    spec_.num_files = kSmallFiles;
    spec_.num_classes = 64;
    spec_.mean_file_bytes = kSmallMeanBytes;
    spec_.seed = MixSeed(seed, 9);
    spec_.pack_extent_bytes = kSmallExtentBytes;
  }

  Status Prepare() override {
    pfs_store_ = std::make_shared<storage::MemoryEngine>("pfs");
    MONARCH_ASSIGN_OR_RETURN(
        const workload::SmallFileManifest manifest,
        workload::GeneratePackedSmallFiles(*pfs_store_, spec_));
    logical_bytes_ = manifest.total_bytes;
    for (std::uint64_t i = 0; i < spec_.num_files; ++i) {
      const std::vector<std::byte> payload =
          workload::SmallFilePayload(spec_, i);
      names_.push_back(workload::SmallFilePath(spec_, i));
      sizes_.push_back(payload.size());
      crcs_.push_back(monarch::Crc32c(payload));
    }
    return Status::Ok();
  }

  Status RunRep(int rep, RepResult* out) override {
    auto pfs = std::make_shared<TimedEngine>(
        std::make_shared<storage::ThrottledEngine>(
            pfs_store_, std::make_shared<storage::DeviceModel>(
                            storage::DeviceProfile::LustrePfs())),
        TimedEngine::Tier::kPfs);
    auto local = std::make_shared<TimedEngine>(
        std::make_shared<storage::ThrottledEngine>(
            std::make_shared<storage::MemoryEngine>("local"),
            std::make_shared<storage::DeviceModel>(
                storage::DeviceProfile::LocalSsd())),
        TimedEngine::Tier::kLocal);
    const auto pfs_before = pfs->Stats().Snapshot();
    const auto local_before = local->Stats().Snapshot();

    core::MonarchConfig config;
    config.cache_tiers.push_back(core::TierSpec{
        "local", local,
        static_cast<std::uint64_t>(kSmallQuotaShare *
                                   static_cast<double>(logical_bytes_))});
    config.pfs = core::TierSpec{"pfs", pfs, 0};
    config.dataset_dir = spec_.directory;
    config.placement.num_threads = kSmallClients;
    config.placement.pack.enabled = true;
    config.placement.pack.chunk_bytes = kSmallChunkBytes;
    config.placement.pack.codec = "lz";

    const monarch::Stopwatch setup;
    MONARCH_ASSIGN_OR_RETURN(auto monarch,
                             core::Monarch::Create(std::move(config)));
    out->setup_s = setup.ElapsedSeconds();

    std::vector<std::size_t> order(names_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (int epoch = 0; epoch < kSmallEpochs; ++epoch) {
      monarch::Xoshiro256 rng(MixSeed(seed_, static_cast<std::uint64_t>(
                                                 rep * 100 + epoch)));
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
      const monarch::Stopwatch wall;
      MONARCH_RETURN_IF_ERROR(ParallelFor(
          kSmallClients, order.size(), [&](std::size_t k) -> Status {
            const std::size_t f = order[k];
            thread_local std::vector<std::byte> buffer;
            buffer.resize(sizes_[f]);
            Result<std::size_t> read = std::size_t{0};
            {
              const ScopedSpan span(Layer::kCoreRead);
              read = monarch->Read(names_[f], 0, buffer);
            }
            if (!read.ok()) return read.status();
            if (read.value() != sizes_[f] ||
                monarch::Crc32c(buffer) != crcs_[f]) {
              return monarch::DataLossError("small file " + names_[f] +
                                            " read back wrong bytes");
            }
            return Status::Ok();
          }));
      out->epoch_s.push_back(wall.ElapsedSeconds());
    }
    {
      const ScopedSpan span(Layer::kCoreDrain);
      monarch->DrainPlacements();
    }
    AddStorage(pfs->Stats().Snapshot() - pfs_before,
               local->Stats().Snapshot() - local_before, out);
    const core::MonarchStats stats = monarch->Stats();
    AddMonarch(std::span<const core::MonarchStats>(&stats, 1), false, out);
    return Status::Ok();
  }

 private:
  const std::uint64_t seed_;
  workload::SmallFileSpec spec_;
  std::shared_ptr<storage::MemoryEngine> pfs_store_;
  std::uint64_t logical_bytes_ = 0;
  std::vector<std::string> names_;
  std::vector<std::size_t> sizes_;
  std::vector<std::uint32_t> crcs_;
};

// ---------------------------------------------------------------------------
// warm-read: the hot read path over a fully staged tier. The warm pass
// in set-up stages every file; after it every read is a metadata lookup,
// a serve-ladder decision and a copy from the local tier.
//
// The local tier is a memory engine under a latency-only device model.
// With no modelled time at all, the epochs measure only CPU speed, and on
// a shared host that drifted by up to 30% between runs minutes apart.
// With kWarmTierLatency per operation, the read path's own CPU cost is
// about an eighth of each read: still visible, but the drift shrinks
// below the bounds. core.read.self_s in the traced run shows the CPU cost
// undiluted.

constexpr std::uint64_t kWarmFiles = 512;
constexpr std::uint64_t kWarmMeanBytes = 128 * kKiB;  // +-50%
constexpr std::uint64_t kWarmRequestBytes = 64 * kKiB;
constexpr monarch::Duration kWarmTierLatency = std::chrono::microseconds(50);
// Two clients, not four: the modelled wait is a spin (PreciseSleep spins
// waits under 120 us), and a spinning client on every core would lose its
// deadline to any other runnable thread.
constexpr int kWarmClients = 2;
constexpr int kWarmEpochs = 6;
constexpr std::size_t kWarmReadsPerEpoch = 8192;
constexpr std::size_t kWarmVerifyEvery = 64;

storage::DeviceProfile WarmTierProfile() {
  storage::DeviceProfile profile;
  profile.name = "warm-tier";
  profile.read_bandwidth_bps = 1e12;  // latency only: no bandwidth cap
  profile.write_bandwidth_bps = 1e12;
  profile.read_latency = kWarmTierLatency;
  profile.write_latency = kWarmTierLatency;
  profile.metadata_latency = kWarmTierLatency;
  return profile;
}

class WarmReadWorkload final : public Workload {
 public:
  explicit WarmReadWorkload(std::uint64_t seed) : seed_(seed) {}

  Status Prepare() override {
    pfs_store_ = std::make_shared<storage::MemoryEngine>("pfs");
    monarch::Xoshiro256 sizes(MixSeed(seed_, 17));
    for (std::uint64_t f = 0; f < kWarmFiles; ++f) {
      const std::uint64_t bytes =
          kWarmMeanBytes / 2 + sizes.NextBounded(kWarmMeanBytes + 1);
      std::vector<std::byte> data(bytes);
      monarch::SplitMix64 fill(MixSeed(seed_, 1000 + f));
      for (std::size_t i = 0; i < data.size(); i += 8) {
        const std::uint64_t word = fill.Next();
        std::memcpy(data.data() + i, &word,
                    std::min<std::size_t>(8, data.size() - i));
      }
      File file;
      file.name = "warm/f" + std::to_string(f) + ".bin";
      file.bytes = bytes;
      for (std::uint64_t off = 0; off < bytes; off += kWarmRequestBytes) {
        const std::size_t n = std::min(kWarmRequestBytes, bytes - off);
        file.block_crcs.push_back(
            monarch::Crc32c(std::span<const std::byte>(data).subspan(off, n)));
      }
      MONARCH_RETURN_IF_ERROR(pfs_store_->Write(file.name, data));
      total_bytes_ += bytes;
      files_.push_back(std::move(file));
    }
    return Status::Ok();
  }

  Status RunRep(int rep, RepResult* out) override {
    auto pfs = std::make_shared<TimedEngine>(
        std::make_shared<storage::ThrottledEngine>(
            pfs_store_, std::make_shared<storage::DeviceModel>(
                            storage::DeviceProfile::LustrePfs())),
        TimedEngine::Tier::kPfs);
    auto local = std::make_shared<TimedEngine>(
        std::make_shared<storage::ThrottledEngine>(
            std::make_shared<storage::MemoryEngine>("local"),
            std::make_shared<storage::DeviceModel>(WarmTierProfile())),
        TimedEngine::Tier::kLocal);
    const auto pfs_before = pfs->Stats().Snapshot();
    const auto local_before = local->Stats().Snapshot();

    core::MonarchConfig config;
    config.cache_tiers.push_back(
        core::TierSpec{"local", local, total_bytes_ + kWarmMeanBytes});
    config.pfs = core::TierSpec{"pfs", pfs, 0};
    config.dataset_dir = "warm";

    // Set-up is Create plus the warm pass that stages every file.
    const monarch::Stopwatch setup;
    MONARCH_ASSIGN_OR_RETURN(auto monarch,
                             core::Monarch::Create(std::move(config)));
    MONARCH_RETURN_IF_ERROR(ParallelFor(
        kWarmClients, files_.size(), [&](std::size_t f) -> Status {
          thread_local std::vector<std::byte> whole;
          whole.resize(files_[f].bytes);
          MONARCH_ASSIGN_OR_RETURN(const std::size_t n,
                                   monarch->Read(files_[f].name, 0, whole));
          if (n != files_[f].bytes) {
            return monarch::DataLossError("warm pass short read of " +
                                          files_[f].name);
          }
          return Status::Ok();
        }));
    monarch->DrainPlacements();
    out->setup_s = setup.ElapsedSeconds();
    const std::uint64_t warm_reads = monarch->Stats().total_reads();

    struct Request {
      std::uint32_t file;
      std::uint32_t block;
    };
    std::vector<Request> requests(kWarmReadsPerEpoch);
    for (int epoch = 0; epoch < kWarmEpochs; ++epoch) {
      monarch::Xoshiro256 rng(
          MixSeed(seed_, static_cast<std::uint64_t>(rep * 100 + epoch)));
      for (Request& r : requests) {
        r.file = static_cast<std::uint32_t>(rng.NextBounded(kWarmFiles));
        r.block = static_cast<std::uint32_t>(
            rng.NextBounded(files_[r.file].block_crcs.size()));
      }
      const monarch::Stopwatch wall;
      MONARCH_RETURN_IF_ERROR(ParallelFor(
          kWarmClients, requests.size(), [&](std::size_t k) -> Status {
            const File& file = files_[requests[k].file];
            const std::uint64_t offset =
                std::uint64_t{requests[k].block} * kWarmRequestBytes;
            thread_local std::vector<std::byte> buffer(kWarmRequestBytes);
            const std::size_t want =
                std::min(kWarmRequestBytes, file.bytes - offset);
            Result<std::size_t> read = std::size_t{0};
            {
              const ScopedSpan span(Layer::kCoreRead);
              read = monarch->Read(file.name, offset,
                                   std::span<std::byte>(buffer).first(want));
            }
            if (!read.ok()) return read.status();
            if (read.value() != want ||
                (k % kWarmVerifyEvery == 0 &&
                 monarch::Crc32c(std::span<const std::byte>(buffer).first(
                     want)) != file.block_crcs[requests[k].block])) {
              return monarch::DataLossError("warm read of " + file.name +
                                            " returned wrong bytes");
            }
            return Status::Ok();
          }));
      out->epoch_s.push_back(wall.ElapsedSeconds());
    }
    AddStorage(pfs->Stats().Snapshot() - pfs_before,
               local->Stats().Snapshot() - local_before, out);
    const core::MonarchStats stats = monarch->Stats();
    AddMonarch(std::span<const core::MonarchStats>(&stats, 1), false, out);
    out->reads -= warm_reads;  // the rate covers the timed epochs only
    return Status::Ok();
  }

 private:
  struct File {
    std::string name;
    std::uint64_t bytes = 0;
    std::vector<std::uint32_t> block_crcs;  ///< per 64 KiB request
  };

  const std::uint64_t seed_;
  std::shared_ptr<storage::MemoryEngine> pfs_store_;
  std::vector<File> files_;
  std::uint64_t total_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// cluster-peer: two nodes sharing one PFS device, each staging its shard
// and serving the other's over the modelled fabric.

constexpr int kClusterNodes = 2;
constexpr int kClusterReaders = 1;  // 2 readers + 2 training loops = 4
constexpr int kClusterEpochs = 4;
constexpr double kClusterQuotaShare = 0.625;

class ClusterWorkload final : public Workload {
 public:
  ClusterWorkload(std::uint64_t seed, fs::path work)
      : seed_(seed), work_(std::move(work)) {
    dataset_ = workload::DatasetSpec::ImageNet200GiB(0.375);
    dataset_.seed = MixSeed(seed_, dataset_.seed);
  }

  Status Prepare() override {
    MONARCH_ASSIGN_OR_RETURN(manifest_,
                             GenerateTfRecords(work_ / "pfs", dataset_));
    MONARCH_ASSIGN_OR_RETURN(oracle_,
                             OracleDigest(work_ / "pfs", manifest_.file_paths));
    return Status::Ok();
  }

  Status RunRep(int rep, RepResult* out) override {
    const fs::path local_root = work_ / ("nodes-" + std::to_string(rep));
    RemoveTree(local_root);
    dlsim::ClusterConfig config;
    config.num_jobs = kClusterNodes;
    config.dataset = dataset_;
    config.model = IoBoundProfile();
    config.epochs = kClusterEpochs;
    config.batch_size = kBatch;
    config.num_gpus = kGpus;
    config.reader_threads = kClusterReaders;
    config.read_chunk_bytes = kReadChunk;
    config.local_quota_bytes = static_cast<std::uint64_t>(
        kClusterQuotaShare * static_cast<double>(manifest_.total_bytes));
    config.placement_threads = kPlacementThreads;
    config.seed = MixSeed(seed_, 1000 + static_cast<std::uint64_t>(rep));
    config.peer_sharing = true;
    config.peer_replication = 1;
    auto ran = dlsim::RunClusterExperiment(work_ / "pfs", local_root, config);
    if (!ran.ok()) {
      out->failed = 1;
      return ran.status();
    }
    const dlsim::ClusterResult& result = ran.value();

    std::vector<core::MonarchStats> nodes;
    std::vector<dlsim::EpochResult> all_epochs;
    storage::IoStatsSnapshot pfs;
    double max_node_pfs = 0;
    out->epoch_s.assign(kClusterEpochs, 0);
    for (const dlsim::JobResult& job : result.jobs) {
      MONARCH_RETURN_IF_ERROR(CheckDigests(job.training.epochs, oracle_));
      out->setup_s =
          std::max(out->setup_s, job.monarch_stats.metadata_init_seconds);
      for (std::size_t e = 0; e < job.training.epochs.size() &&
                              e < out->epoch_s.size();
           ++e) {
        out->epoch_s[e] =
            std::max(out->epoch_s[e], job.training.epochs[e].wall_seconds);
      }
      all_epochs.insert(all_epochs.end(), job.training.epochs.begin(),
                        job.training.epochs.end());
      nodes.push_back(job.monarch_stats);
      pfs += job.pfs_stats;
      max_node_pfs = std::max(max_node_pfs, Mib(job.pfs_stats.bytes_read));
    }
    // The engines live inside RunClusterExperiment; local-tier traffic
    // comes from each node's read and staging counters instead.
    storage::IoStatsSnapshot local;
    for (const core::MonarchStats& s : nodes) {
      local.read_ops += s.levels.front().reads;
      local.bytes_read += s.levels.front().bytes;
      local.bytes_written += s.placement.bytes_staged;
    }
    AddStorage(pfs, local, out);
    AddMonarch(nodes, /*peer=*/true, out);
    double wall = 0;
    for (const double e : out->epoch_s) wall += e;
    AddTrainer(all_epochs, wall, out);
    auto& m = out->layer;
    m["net.peer_mib"] = Mib(result.peer_bytes);
    m["net.peer_transfers"] = static_cast<double>(result.peer_transfers);
    m["net.rpc_timeouts"] = static_cast<double>(result.rpc_timeouts);
    m["cluster.pfs_mib_max_node"] = max_node_pfs;
    RemoveTree(local_root);
    return Status::Ok();
  }

 private:
  const std::uint64_t seed_;
  const fs::path work_;
  workload::DatasetSpec dataset_;
  workload::DatasetManifest manifest_;
  std::uint64_t oracle_ = 0;
};

TrainingShape FitShape() {
  TrainingShape shape;
  shape.dataset = workload::DatasetSpec::ImageNet100GiB();
  shape.quota_share = 1.25;
  return shape;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const fs::path& work_dir) {
  if (name == "train-fit") {
    return std::make_unique<TrainingWorkload>(FitShape(), seed, work_dir);
  }
  if (name == "train-overflow") {
    TrainingShape shape;
    shape.dataset = workload::DatasetSpec::ImageNet200GiB(0.5);
    shape.quota_share = 0.5;
    shape.policy = "lru";
    shape.prefetch_lookahead = 16;
    return std::make_unique<TrainingWorkload>(shape, seed, work_dir);
  }
  if (name == "train-ckpt") {
    TrainingShape shape = FitShape();
    shape.quota_share = 1.1;
    shape.checkpoints = true;
    return std::make_unique<TrainingWorkload>(shape, seed, work_dir);
  }
  if (name == "smallfile-packed") {
    return std::make_unique<SmallFileWorkload>(seed);
  }
  if (name == "warm-read") return std::make_unique<WarmReadWorkload>(seed);
  if (name == "cluster-peer") {
    return std::make_unique<ClusterWorkload>(seed, work_dir);
  }
  return nullptr;
}

}  // namespace suite
