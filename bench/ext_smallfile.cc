// Small-file packing extension bench (ISSUE 9): packed container
// extents + chunk-granularity staging + transparent compression versus
// the naive loose-file layout, over the same ImageNet-style small-file
// dataset.
//
// Three arms, each a fresh Monarch over a memory PFS + one memory cache
// tier:
//   naive       loose files, whole-file staging (pack disabled)
//   packed-none container extents, 8 KiB chunk staging, codec none
//   packed-lz   container extents, 8 KiB chunk staging, codec lz
//
// Per arm: a timed first epoch (full sequential read of every file,
// CRC32C-sampled against the generator's ground truth), a warm second
// epoch, and a COLD sparse pass on a fresh Monarch that touches only the
// first 4 KiB of every 4th file — the partial-read pattern whose PFS
// traffic must scale with bytes *touched*, not file sizes.
//
// Gates (exit 1 on failure, 2 on error):
//   g1  sample digests byte-identical across all three arms
//   g2  packed sparse PFS bytes <= 0.5x the naive arm's
//   g3  packed sparse PFS bytes <= 4x the bytes actually touched
//   g4  packed-lz effective local-tier capacity >= 1.5x
//   g5  packed full-epoch PFS bytes <= 1.05x the naive arm's (a chunk
//       miss donates the bytes it read to chunk staging, so staging
//       never reads them a second time)
//   g6  a warm packed epoch issues at most one local-tier read op per
//       whole-file read (a file's chunks stage as one run object, and a
//       read fetches each run it touches with one tier read)
//   g7  a packed first epoch issues at most 2 x extents PFS read ops (a
//       whole-file miss reads its extent stretch — the file and its
//       unstaged neighbours — with one read, and reads of the
//       neighbours join their staging)
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/monarch.h"
#include "storage/memory_engine.h"
#include "util/crc32c.h"
#include "workload/small_file_dataset.h"

namespace monarch::bench {
namespace {

constexpr std::uint64_t kChunkBytes = 8 * 1024;
constexpr std::uint64_t kProbeBytes = 4 * 1024;
constexpr std::uint64_t kSparseStride = 4;
constexpr std::uint64_t kDigestStride = 7;
constexpr std::uint64_t kTierQuota = 1ULL << 30;

struct ArmResult {
  std::string name;
  double first_epoch_s = 0;
  double warm_epoch_s = 0;
  std::uint64_t epoch_pfs_bytes = 0;
  std::uint64_t epoch_pfs_ops = 0;  ///< PFS read ops, first epoch
  std::uint64_t pack_extents = 0;
  std::uint64_t sparse_pfs_bytes = 0;
  std::uint64_t sparse_touched_bytes = 0;
  std::uint64_t local_tier_bytes = 0;
  double effective_capacity = 1.0;  ///< staged logical / stored bytes
  std::uint64_t chunk_hits = 0;
  std::uint64_t warm_local_read_ops = 0;  ///< local-tier reads, warm epoch
  std::uint64_t sample_digest = 0;
};

workload::SmallFileSpec DatasetSpec(double scale) {
  workload::SmallFileSpec spec;
  spec.directory = "data";
  spec.num_files = std::max<std::uint64_t>(
      96, static_cast<std::uint64_t>(768 * scale));
  spec.num_classes = 16;
  spec.mean_file_bytes = 64 * 1024;
  spec.file_size_jitter = 0.5;
  spec.run_fraction = 0.5;
  spec.seed = 7;
  spec.pack_extent_bytes = 4 * 1024 * 1024;
  return spec;
}

core::MonarchConfig ArmConfig(std::shared_ptr<storage::MemoryEngine> pfs,
                              std::shared_ptr<storage::MemoryEngine> local,
                              const std::string& codec) {
  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{"local", std::move(local),
                                              kTierQuota});
  config.pfs = core::TierSpec{"pfs", std::move(pfs), 0};
  config.dataset_dir = "data";
  config.placement.num_threads = 4;
  if (!codec.empty()) {
    config.placement.pack.enabled = true;
    config.placement.pack.chunk_bytes = kChunkBytes;
    config.placement.pack.codec = codec;
  }
  return config;
}

/// Full sequential read of every file; CRC32C every kDigestStride-th
/// file into a rolling digest checked against `expect_payloads`.
bool RunEpoch(core::Monarch& monarch, const workload::SmallFileSpec& spec,
              bool verify, std::uint64_t* digest) {
  std::vector<std::byte> buf;
  for (std::uint64_t f = 0; f < spec.num_files; ++f) {
    const std::string path = workload::SmallFilePath(spec, f);
    const std::vector<std::byte> expect = workload::SmallFilePayload(spec, f);
    buf.resize(expect.size());
    auto read = monarch.Read(path, 0, buf);
    if (!read.ok() || read.value() != expect.size()) {
      std::cerr << "epoch read failed: " << path << "\n";
      return false;
    }
    if (verify && f % kDigestStride == 0) {
      const std::uint32_t crc = Crc32c(buf);
      if (crc != Crc32c(expect)) {
        std::cerr << "payload mismatch: " << path << "\n";
        return false;
      }
      *digest = *digest * 1315423911ULL + crc;
    }
  }
  return true;
}

/// One arm, end to end. `codec` empty = naive loose-file arm.
bool RunArm(const workload::SmallFileSpec& spec, const std::string& codec,
            const std::string& label, ArmResult* out) {
  out->name = label;
  auto pfs = std::make_shared<storage::MemoryEngine>("pfs");
  const bool packed = !codec.empty();
  auto manifest = packed ? workload::GeneratePackedSmallFiles(*pfs, spec)
                         : workload::GenerateSmallFiles(*pfs, spec);
  if (!manifest.ok()) {
    std::cerr << label << ": generate failed: " << manifest.status() << "\n";
    return false;
  }

  // --- First + warm epochs --------------------------------------------
  auto local = std::make_shared<storage::MemoryEngine>("local");
  auto monarch = core::Monarch::Create(ArmConfig(pfs, local, codec));
  if (!monarch.ok()) {
    std::cerr << label << ": create failed: " << monarch.status() << "\n";
    return false;
  }
  const auto pfs_before = pfs->Stats().Snapshot();
  const Stopwatch first_timer;
  if (!RunEpoch(**monarch, spec, /*verify=*/true, &out->sample_digest)) {
    return false;
  }
  monarch.value()->DrainPlacements();
  out->first_epoch_s = first_timer.ElapsedSeconds();
  const auto epoch_pfs = pfs->Stats().Snapshot() - pfs_before;
  out->epoch_pfs_bytes = epoch_pfs.bytes_read;
  out->epoch_pfs_ops = epoch_pfs.read_ops;

  const auto local_before = local->Stats().Snapshot();
  const Stopwatch warm_timer;
  std::uint64_t warm_digest = 0;
  if (!RunEpoch(**monarch, spec, /*verify=*/false, &warm_digest)) {
    return false;
  }
  out->warm_epoch_s = warm_timer.ElapsedSeconds();
  out->warm_local_read_ops =
      (local->Stats().Snapshot() - local_before).read_ops;
  out->local_tier_bytes = local->TotalBytes();

  const auto stats = monarch.value()->Stats();
  out->chunk_hits = stats.chunk_hits;
  out->pack_extents = stats.pack_extents;
  if (stats.placement.chunk_stored_bytes > 0) {
    out->effective_capacity =
        static_cast<double>(stats.placement.bytes_staged) /
        static_cast<double>(stats.placement.chunk_stored_bytes);
  }
  monarch.value()->Shutdown();

  // --- Cold sparse pass: fresh Monarch + fresh tier, same dataset -----
  auto sparse_local = std::make_shared<storage::MemoryEngine>("local");
  auto sparse = core::Monarch::Create(ArmConfig(pfs, sparse_local, codec));
  if (!sparse.ok()) {
    std::cerr << label << ": sparse create failed: " << sparse.status()
              << "\n";
    return false;
  }
  const auto sparse_before = pfs->Stats().Snapshot();
  std::vector<std::byte> probe(kProbeBytes);
  for (std::uint64_t f = 0; f < spec.num_files; f += kSparseStride) {
    auto read =
        sparse.value()->Read(workload::SmallFilePath(spec, f), 0, probe);
    if (!read.ok()) {
      std::cerr << label << ": sparse read failed\n";
      return false;
    }
    out->sparse_touched_bytes += read.value();
  }
  sparse.value()->DrainPlacements();
  out->sparse_pfs_bytes =
      (pfs->Stats().Snapshot() - sparse_before).bytes_read;
  sparse.value()->Shutdown();
  return true;
}

int Run() {
  BenchEnv env = BenchEnv::FromEnvironment("ext_smallfile");
  const workload::SmallFileSpec spec = DatasetSpec(env.scale);
  std::cout << "ext_smallfile: " << spec.num_files << " files, mean "
            << FormatByteSize(spec.mean_file_bytes) << ", chunk "
            << FormatByteSize(kChunkBytes) << "\n";

  std::vector<ArmResult> arms(3);
  if (!RunArm(spec, "", "naive", &arms[0]) ||
      !RunArm(spec, "none", "packed-none", &arms[1]) ||
      !RunArm(spec, "lz", "packed-lz", &arms[2])) {
    return 2;
  }

  PrintBanner(std::cout, "Small-file dataset: packed chunks vs naive");
  Table table({"arm", "first_ep_s", "warm_ep_s", "warm_tier_ops",
               "epoch_pfs", "epoch_pfs_ops", "sparse_pfs", "touched",
               "tier_bytes", "eff_cap"});
  std::vector<std::pair<std::string, double>> json_metrics;
  for (const ArmResult& arm : arms) {
    table.AddRow({arm.name, Table::Num(arm.first_epoch_s, 3),
                  Table::Num(arm.warm_epoch_s, 3),
                  std::to_string(arm.warm_local_read_ops),
                  FormatByteSize(arm.epoch_pfs_bytes),
                  std::to_string(arm.epoch_pfs_ops),
                  FormatByteSize(arm.sparse_pfs_bytes),
                  FormatByteSize(arm.sparse_touched_bytes),
                  FormatByteSize(arm.local_tier_bytes),
                  Table::Num(arm.effective_capacity, 2) + "x"});
    json_metrics.emplace_back(arm.name + ".first_epoch_seconds",
                              arm.first_epoch_s);
    json_metrics.emplace_back(arm.name + ".warm_epoch_seconds",
                              arm.warm_epoch_s);
    json_metrics.emplace_back(arm.name + ".epoch_pfs_bytes",
                              static_cast<double>(arm.epoch_pfs_bytes));
    json_metrics.emplace_back(arm.name + ".epoch_pfs_read_ops",
                              static_cast<double>(arm.epoch_pfs_ops));
    json_metrics.emplace_back(arm.name + ".sparse_pfs_bytes",
                              static_cast<double>(arm.sparse_pfs_bytes));
    json_metrics.emplace_back(arm.name + ".sparse_touched_bytes",
                              static_cast<double>(arm.sparse_touched_bytes));
    json_metrics.emplace_back(arm.name + ".local_tier_bytes",
                              static_cast<double>(arm.local_tier_bytes));
    json_metrics.emplace_back(arm.name + ".effective_capacity",
                              arm.effective_capacity);
    json_metrics.emplace_back(arm.name + ".chunk_hits",
                              static_cast<double>(arm.chunk_hits));
    json_metrics.emplace_back(arm.name + ".warm_local_read_ops",
                              static_cast<double>(arm.warm_local_read_ops));
  }
  table.PrintAscii(std::cout);

  // --- Gates -----------------------------------------------------------
  bool ok = true;
  const ArmResult& naive = arms[0];
  if (arms[1].sample_digest != naive.sample_digest ||
      arms[2].sample_digest != naive.sample_digest) {
    std::cout << "GATE g1 FAILED: sample digests differ across arms\n";
    ok = false;
  }
  for (std::size_t i = 1; i < arms.size(); ++i) {
    const ArmResult& arm = arms[i];
    if (2 * arm.sparse_pfs_bytes > naive.sparse_pfs_bytes) {
      std::cout << "GATE g2 FAILED: " << arm.name << " sparse PFS bytes "
                << arm.sparse_pfs_bytes << " > 0.5x naive "
                << naive.sparse_pfs_bytes << "\n";
      ok = false;
    }
    if (arm.sparse_pfs_bytes > 4 * arm.sparse_touched_bytes) {
      std::cout << "GATE g3 FAILED: " << arm.name << " sparse PFS bytes "
                << arm.sparse_pfs_bytes << " > 4x touched "
                << arm.sparse_touched_bytes << "\n";
      ok = false;
    }
    if (static_cast<double>(arm.epoch_pfs_bytes) >
        1.05 * static_cast<double>(naive.epoch_pfs_bytes)) {
      std::cout << "GATE g5 FAILED: " << arm.name << " epoch PFS bytes "
                << arm.epoch_pfs_bytes << " > 1.05x naive "
                << naive.epoch_pfs_bytes << "\n";
      ok = false;
    }
    if (arm.warm_local_read_ops > spec.num_files) {
      std::cout << "GATE g6 FAILED: " << arm.name << " warm epoch issued "
                << arm.warm_local_read_ops << " local-tier read ops for "
                << spec.num_files << " whole-file reads\n";
      ok = false;
    }
    if (arm.epoch_pfs_ops > 2 * arm.pack_extents) {
      std::cout << "GATE g7 FAILED: " << arm.name << " first epoch issued "
                << arm.epoch_pfs_ops << " PFS read ops for "
                << arm.pack_extents << " extents (> 2 per extent)\n";
      ok = false;
    }
  }
  if (arms[2].effective_capacity < 1.5) {
    std::cout << "GATE g4 FAILED: packed-lz effective capacity "
              << Table::Num(arms[2].effective_capacity, 2) << "x < 1.5x\n";
    ok = false;
  }
  json_metrics.emplace_back("gates_passed", ok ? 1.0 : 0.0);
  WriteBenchJson(env, "ext_smallfile", {}, json_metrics);
  env.Cleanup();

  if (!ok) return 1;
  std::cout << "GATES OK: sparse PFS traffic scales with bytes touched; "
               "a packed epoch reads the PFS once, about one op per "
               "extent; a warm packed read is one tier op; lz stretches "
               "the local tier "
            << Table::Num(arms[2].effective_capacity, 2) << "x\n";
  return 0;
}

}  // namespace
}  // namespace monarch::bench

int main(int argc, char** argv) {
  const monarch::bench::TraceOutGuard trace(argc, argv);
  return monarch::bench::Run();
}
