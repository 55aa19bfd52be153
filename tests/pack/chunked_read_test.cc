// End-to-end chunk-granularity staging (ISSUE 9): partial reads must be
// byte-identical to whole-file reads with the codec on and off, across
// eviction races and the degradation ladder, and sparse access must
// stage (and bill) only the chunks actually touched. A whole-file miss
// reads its extent stretch with one PFS op and stages the neighbours it
// claimed; reads of claimed chunks join the task staging them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../gate_engine.h"
#include "../test_support.h"
#include "core/monarch.h"
#include "core/placement_policy.h"
#include "pack/chunk_map.h"
#include "qos/tenant.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"
#include "util/clock.h"
#include "util/rng.h"
#include "workload/small_file_dataset.h"

namespace monarch::core {
namespace {

class ChunkedReadTest : public ::testing::Test {
 protected:
  static workload::SmallFileSpec Spec() {
    workload::SmallFileSpec spec;
    spec.directory = "data";
    spec.num_files = 12;
    spec.num_classes = 3;
    spec.mean_file_bytes = 4 * 1024;
    spec.file_size_jitter = 0.4;
    spec.seed = 21;
    spec.pack_extent_bytes = 16 * 1024;
    return spec;
  }

  /// Packed dataset + pack-enabled Monarch over a memory PFS and one
  /// memory cache tier.
  /// `configure` may adjust the config last (resilience, tier engines).
  Result<std::unique_ptr<Monarch>> Build(
      const std::string& codec, std::uint64_t quota = 1'000'000,
      const std::string& policy = "",
      const std::function<void(MonarchConfig&)>& configure = {}) {
    spec_ = Spec();
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    local_ = std::make_shared<storage::MemoryEngine>("local");
    auto manifest = workload::GeneratePackedSmallFiles(*pfs_, spec_);
    if (!manifest.ok()) return manifest.status();
    total_bytes_ = manifest.value().total_bytes;

    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", local_, quota});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    config.placement.num_threads = 2;
    config.placement.pack.enabled = true;
    config.placement.pack.chunk_bytes = 1024;
    config.placement.pack.codec = codec;
    if (!policy.empty()) {
      auto made = MakePlacementPolicyByName(policy);
      if (!made.ok()) return made.status();
      config.policy = std::move(made).value();
    }
    if (configure) configure(config);
    return Monarch::Create(std::move(config));
  }

  /// Read `length` bytes of file `index` at `offset` and check them
  /// against the generator's payload.
  void ReadAndCheck(Monarch& monarch, std::uint64_t index,
                    std::uint64_t offset, std::uint64_t length) {
    const std::vector<std::byte> whole = Expected(index);
    const std::string name = workload::SmallFilePath(spec_, index);
    std::vector<std::byte> got(length);
    auto read = monarch.Read(name, offset, got);
    ASSERT_OK(read);
    got.resize(read.value());
    ASSERT_EQ(length, got.size()) << "file " << index << " offset " << offset;
    EXPECT_TRUE(std::equal(
        got.begin(), got.end(),
        whole.begin() + static_cast<std::ptrdiff_t>(offset)))
        << "file " << index << " offset " << offset << " len " << length;
  }

  /// The chunk map of file `index` (pack mode creates it on first read).
  pack::ChunkMap& ChunksOf(Monarch& monarch, std::uint64_t index) {
    FileInfoPtr info =
        monarch.metadata().Lookup(workload::SmallFilePath(spec_, index));
    EXPECT_NE(nullptr, info);
    EXPECT_NE(nullptr, info->chunk_map());
    return *info->chunk_map();
  }

  /// Index of a file with at least `min_bytes` bytes.
  std::uint64_t FileOfAtLeast(std::uint64_t min_bytes) const {
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      if (Expected(f).size() >= min_bytes) return f;
    }
    ADD_FAILURE() << "no file of " << min_bytes << " bytes";
    return 0;
  }

  std::uint64_t PfsReadOps() { return pfs_->Stats().Snapshot().read_ops; }
  std::uint64_t LocalReadOps() {
    return local_->Stats().Snapshot().read_ops;
  }

  /// Names of every object on the cache tier, or of `file`'s run
  /// objects when given.
  std::vector<std::string> TierObjects(const std::string& file = "") {
    std::vector<std::string> names;
    auto listed = local_->ListFiles("");
    EXPECT_OK(listed);
    if (listed.ok()) {
      for (const storage::FileStat& stat : listed.value()) {
        if (file.empty() || stat.path.rfind(file + "#", 0) == 0) {
          names.push_back(stat.path);
        }
      }
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  /// The files of `index`'s pack extent (itself included), in extent
  /// order: the neighbours a whole-file miss of it reads ahead.
  std::vector<std::uint64_t> ExtentFiles(Monarch& monarch,
                                         std::uint64_t index) {
    const pack::PackIndex& pack = *monarch.pack_index();
    const pack::PackEntry* entry =
        pack.Find(workload::SmallFilePath(spec_, index));
    EXPECT_NE(nullptr, entry);
    std::vector<std::uint64_t> files;
    for (const pack::ExtentMember& member :
         pack.ExtentMembers(entry->extent)) {
      for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
        if (workload::SmallFilePath(spec_, f) == member.name) {
          files.push_back(f);
        }
      }
    }
    return files;
  }

  /// Stored bytes of every resident run, across all files.
  std::uint64_t ResidentStoredBytes(Monarch& monarch) {
    std::uint64_t total = 0;
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      const FileInfoPtr info =
          monarch.metadata().Lookup(workload::SmallFilePath(spec_, f));
      if (info != nullptr && info->chunk_map() != nullptr) {
        total += info->chunk_map()->ResidentStoredBytes();
      }
    }
    return total;
  }

  std::vector<std::byte> Expected(std::uint64_t index) const {
    return workload::SmallFilePayload(spec_, index);
  }

  void ExpectSliceMatches(Monarch& monarch, std::uint64_t index,
                          std::uint64_t offset, std::size_t length) {
    const std::vector<std::byte> whole = Expected(index);
    std::vector<std::byte> buf(length);
    auto read = monarch.Read(workload::SmallFilePath(spec_, index), offset,
                             buf);
    ASSERT_OK(read);
    const std::size_t expect_n = static_cast<std::size_t>(
        offset >= whole.size()
            ? 0
            : std::min<std::uint64_t>(length, whole.size() - offset));
    ASSERT_EQ(expect_n, read.value())
        << "file " << index << " offset " << offset;
    EXPECT_TRUE(std::equal(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(expect_n),
        whole.begin() + static_cast<std::ptrdiff_t>(offset)))
        << "file " << index << " offset " << offset << " len " << length;
  }

  workload::SmallFileSpec spec_;
  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::shared_ptr<storage::MemoryEngine> local_;
  std::uint64_t total_bytes_ = 0;
};

TEST_F(ChunkedReadTest, PartialReadsMatchWholeFileColdAndWarm) {
  for (const std::string codec : {"none", "lz"}) {
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    // Cold pass: everything comes from the packed PFS extents.
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      ExpectSliceMatches(**monarch, f, 0, 512);
      ExpectSliceMatches(**monarch, f, 700, 900);
      ExpectSliceMatches(**monarch, f, 3000, 8 * 1024);
    }
    monarch.value()->DrainPlacements();
    // Warm pass: the same slices now come from resident chunks.
    const auto hits_before = monarch.value()->Stats().chunk_hits;
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      ExpectSliceMatches(**monarch, f, 0, 512);
      ExpectSliceMatches(**monarch, f, 700, 900);
      ExpectSliceMatches(**monarch, f, 1, 1024);  // straddles chunks 0/1
    }
    const MonarchStats stats = monarch.value()->Stats();
    EXPECT_GT(stats.chunk_hits, hits_before)
        << "codec " << codec
        << ": warm reads must be served from resident chunks";
    if (codec == "none") {
      EXPECT_EQ(stats.placement.bytes_staged,
                stats.placement.chunk_stored_bytes)
          << "an uncompressed chunk is stored at its logical size";
    }
  }
}

TEST_F(ChunkedReadTest, SparseReadsStageOnlyTouchedChunks) {
  auto monarch = Build("none");
  ASSERT_OK(monarch);
  // Touch only the first 100 bytes of every file: exactly chunk 0 of
  // each file should become resident.
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    ExpectSliceMatches(**monarch, f, 0, 100);
  }
  monarch.value()->DrainPlacements();
  EXPECT_EQ(spec_.num_files * 1024, local_->TotalBytes())
      << "only the touched 1 KiB chunk of each file may be staged";
  EXPECT_LT(local_->TotalBytes(), total_bytes_ / 2)
      << "sparse staging must not fetch whole files";
  const MonarchStats stats = monarch.value()->Stats();
  EXPECT_EQ(spec_.num_files, stats.placement.chunks_staged);
  EXPECT_GT(stats.pack_extents, 0u);
  EXPECT_EQ(spec_.num_files, stats.pack_logical_files);
}

TEST_F(ChunkedReadTest, CompressedChunksShrinkTierFootprint) {
  auto monarch = Build("lz");
  ASSERT_OK(monarch);
  std::vector<std::byte> buf(16 * 1024);
  std::uint64_t logical = 0;
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    auto read =
        monarch.value()->Read(workload::SmallFilePath(spec_, f), 0, buf);
    ASSERT_OK(read);
    logical += read.value();
  }
  monarch.value()->DrainPlacements();
  EXPECT_GT(local_->TotalBytes(), 0u);
  EXPECT_LT(local_->TotalBytes(), logical * 3 / 4)
      << "run-heavy payloads must compress on stage-in";
  // And the compressed copies decode back byte-identically.
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    ExpectSliceMatches(**monarch, f, 0, 16 * 1024);
    ExpectSliceMatches(**monarch, f, 1500, 300);
  }
}

TEST_F(ChunkedReadTest, CorruptStagedChunkDegradesToPfs) {
  auto monarch = Build("lz");
  ASSERT_OK(monarch);
  const std::string name = workload::SmallFilePath(spec_, 0);
  std::vector<std::byte> buf(2048);
  ASSERT_OK(monarch.value()->Read(name, 0, buf));
  monarch.value()->DrainPlacements();

  // Flip the staged chunk object's bytes behind the driver's back.
  const std::string object = pack::ChunkObjectName(name, 0);
  auto stored = local_->FileSize(object);
  ASSERT_OK(stored);
  std::vector<std::byte> garbage(stored.value(), std::byte{0x5C});
  ASSERT_OK(local_->Write(object, garbage));

  const auto corrupt_before = monarch.value()->Stats().fallbacks_corruption;
  ExpectSliceMatches(**monarch, 0, 0, 2048);  // correct despite corruption
  EXPECT_EQ(corrupt_before + 1,
            monarch.value()->Stats().fallbacks_corruption);
  // The bad copy was dropped; a later pass re-stages and serves it again.
  monarch.value()->DrainPlacements();
  ExpectSliceMatches(**monarch, 0, 0, 2048);
}

TEST_F(ChunkedReadTest, EvictionUnderPressureKeepsReadsCorrect) {
  // Quota holds ~3 files of chunks; LRU evicts chunk sets under pressure.
  auto monarch = Build("none", /*quota=*/12 * 1024, "lru");
  ASSERT_OK(monarch);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      ExpectSliceMatches(**monarch, f, 0, 4 * 1024);
    }
  }
  monarch.value()->DrainPlacements();
  const MonarchStats stats = monarch.value()->Stats();
  EXPECT_GT(stats.placement.chunks_evicted, 0u)
      << "staging past the quota must evict earlier chunk copies";
  EXPECT_LE(local_->TotalBytes(), 12 * 1024u);
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    ExpectSliceMatches(**monarch, f, 100, 2000);
  }
}

TEST_F(ChunkedReadTest, CleanupDropsChunkCopies) {
  auto monarch = Build("none");
  ASSERT_OK(monarch);
  std::vector<std::byte> buf(1024);
  for (std::uint64_t f = 0; f < 4; ++f) {
    ASSERT_OK(
        monarch.value()->Read(workload::SmallFilePath(spec_, f), 0, buf));
  }
  monarch.value()->DrainPlacements();
  ASSERT_GT(local_->TotalBytes(), 0u);
  EXPECT_EQ(4u, monarch.value()->CleanupStagedCopies());
  EXPECT_EQ(0u, local_->TotalBytes());
  EXPECT_EQ(0u, monarch.value()->Stats().levels[0].occupancy_bytes);
}

// Chunk-miss donation: a pack-mode miss already read the requested bytes
// from the PFS, so the chunks it covered in full are staged from those
// bytes; only partly covered edge chunks are re-read. A whole-file miss
// reads its extent stretch, so its neighbours' bytes are donated too.
TEST_F(ChunkedReadTest, WholeFileMissDonatesEveryChunk) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    const std::uint64_t f = FileOfAtLeast(3 * 1024);
    const std::uint64_t size = Expected(f).size();
    const std::vector<std::uint64_t> staged = ExtentFiles(m, f);
    ASSERT_GT(staged.size(), 1u);
    std::uint64_t staged_bytes = 0;
    for (const std::uint64_t g : staged) staged_bytes += Expected(g).size();

    const std::uint64_t ops_before = PfsReadOps();
    ReadAndCheck(m, f, 0, size);
    m.DrainPlacements();
    EXPECT_EQ(ops_before + 1, PfsReadOps())
        << "staging must reuse the miss's bytes, not re-read the PFS";
    EXPECT_EQ(staged_bytes, m.Stats().placement.donated_bytes);
    EXPECT_EQ(staged_bytes - size, m.Stats().pack_readahead_bytes);
    EXPECT_EQ(0u, m.Stats().placement.donation_held_bytes);

    // Every chunk of every staged file now serves byte-identical data
    // from the tier.
    const std::uint64_t hits_before = m.Stats().chunk_hits;
    std::uint64_t chunks = 0;
    for (const std::uint64_t g : staged) {
      const pack::ChunkMap& cm = ChunksOf(m, g);
      EXPECT_EQ(cm.num_chunks(), cm.ResidentCount()) << "file " << g;
      for (std::uint32_t c = 0; c < cm.num_chunks(); ++c) {
        ReadAndCheck(m, g, cm.ChunkOffset(c), cm.ChunkLogicalBytes(c));
      }
      chunks += cm.num_chunks();
    }
    EXPECT_EQ(hits_before + chunks, m.Stats().chunk_hits);
    EXPECT_EQ(ops_before + 1, PfsReadOps());
  }
}

TEST_F(ChunkedReadTest, UnalignedPartialMissDonatesEveryServedByte) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    const std::uint64_t f = FileOfAtLeast(4 * 1024 + 1);
    const std::uint64_t size = Expected(f).size();

    // [700, 3300) with 1 KiB chunks: chunks 1 and 2 are covered, the
    // edge chunks 0 and 3 only partly. Every served byte is donated;
    // staging reads only the rest of the edge chunks from the PFS.
    std::uint64_t ops_before = PfsReadOps();
    ReadAndCheck(m, f, 700, 2600);
    m.DrainPlacements();
    EXPECT_EQ(ops_before + 1 + 2, PfsReadOps())
        << "only the two edge stretches may be re-read";
    EXPECT_EQ(2600u, m.Stats().placement.donated_bytes);
    EXPECT_EQ(4u, ChunksOf(m, f).ResidentCount());

    // A read from inside chunk 4 to the end of the file covers every
    // later chunk, the short last one included: one edge re-read.
    const std::uint64_t from = 4 * 1024 + 1;
    ops_before = PfsReadOps();
    const std::uint64_t donated_before = m.Stats().placement.donated_bytes;
    ReadAndCheck(m, f, from, size - from);
    m.DrainPlacements();
    EXPECT_EQ(ops_before + 1 + 1, PfsReadOps());
    EXPECT_EQ(donated_before + (size - from),
              m.Stats().placement.donated_bytes);

    // The staged chunks serve the same bytes back.
    ReadAndCheck(m, f, 1024, 2048);
    ReadAndCheck(m, f, 0, 700);
  }
}

TEST_F(ChunkedReadTest, DonatedChunkFailingReadbackIsDropped) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    storage::FaultyEngine::FaultSpec faults;
    faults.read_corruption_rate = 1.0;  // every readback is corrupt
    auto monarch = Build(codec, 1'000'000, "", [&](MonarchConfig& config) {
      config.resilience.verify_staged_writes = true;
      config.cache_tiers[0].engine =
          std::make_shared<storage::FaultyEngine>(local_, faults);
    });
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    const std::uint64_t f = FileOfAtLeast(3 * 1024);
    const std::uint64_t size = Expected(f).size();

    // The miss stages the file's extent neighbours as well: each staged
    // run fails its readback.
    const std::uint64_t staged = ExtentFiles(m, f).size();
    const std::uint64_t ops_before = PfsReadOps();
    ReadAndCheck(m, f, 0, size);
    m.DrainPlacements();
    EXPECT_EQ(ops_before + 1, PfsReadOps());
    const MonarchStats stats = m.Stats();
    EXPECT_EQ(staged, stats.placement.quarantined);
    EXPECT_EQ(0u, stats.placement.chunks_staged);
    EXPECT_EQ(0u, ChunksOf(m, f).ResidentCount());
    EXPECT_EQ(0u, local_->TotalBytes()) << "the bad copy must be deleted";
    EXPECT_EQ(0u, stats.levels[0].occupancy_bytes);

    // The file still reads correctly, from the PFS.
    const std::uint64_t misses_before = stats.chunk_misses;
    ReadAndCheck(m, f, 0, size);
    EXPECT_EQ(misses_before + 1, m.Stats().chunk_misses);
    m.DrainPlacements();
  }
}

// Run layout: a staging pass writes each stretch of consecutive chunks
// it claimed as one tier object, and a read fetches each run segment it
// touches with one tier read. A whole-file miss stages the file
// and each extent neighbour it read ahead as one run object apiece.
TEST_F(ChunkedReadTest, WholeFileMissStagesOneRunObject) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    const std::uint64_t f = FileOfAtLeast(3 * 1024);
    const std::uint64_t size = Expected(f).size();
    const std::vector<std::uint64_t> staged = ExtentFiles(m, f);

    const std::uint64_t pfs_before = PfsReadOps();
    ReadAndCheck(m, f, 0, size);
    m.DrainPlacements();
    std::vector<std::string> objects;
    std::uint64_t stored = 0;
    for (const std::uint64_t g : staged) {
      const pack::ChunkMap& cm = ChunksOf(m, g);
      ASSERT_EQ(cm.num_chunks(), cm.ResidentCount()) << "file " << g;
      objects.push_back(
          pack::ChunkObjectName(workload::SmallFilePath(spec_, g), 0));
      stored += cm.ResidentStoredBytes();
    }
    std::sort(objects.begin(), objects.end());
    EXPECT_EQ(objects, TierObjects());
    EXPECT_EQ(stored, local_->TotalBytes());

    // Warm: a read of each whole file costs one tier op, and
    // none of it touches the PFS again. Without a codec, a read-ahead
    // neighbour's first read is served from its deposit instead (the
    // verified bytes its staging kept for it): no tier op at all.
    for (const std::uint64_t g : staged) {
      const bool deposit = codec == "none" && g != f;
      const std::uint64_t ops_before = LocalReadOps();
      const std::uint64_t hits_before = m.Stats().chunk_hits;
      const std::uint64_t deposit_hits_before = m.Stats().deposit_hits;
      ReadAndCheck(m, g, 0, Expected(g).size());
      EXPECT_EQ(ops_before + (deposit ? 0 : 1), LocalReadOps())
          << "file " << g;
      EXPECT_EQ(hits_before + 1, m.Stats().chunk_hits) << "file " << g;
      EXPECT_EQ(deposit_hits_before + (deposit ? 1 : 0),
                m.Stats().deposit_hits)
          << "file " << g;
    }
    EXPECT_EQ(pfs_before + 1, PfsReadOps());
  }
}

TEST_F(ChunkedReadTest, ReadSpanningTwoRunsCostsOneOpPerRun) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    const std::uint64_t f = FileOfAtLeast(4 * 1024);
    const std::string name = workload::SmallFilePath(spec_, f);

    // Two misses, two runs: [700, 2600) claims chunks 0-2, and
    // [2600, 4096) then claims chunk 3 (chunk 2 is already resident).
    ReadAndCheck(m, f, 700, 1900);
    m.DrainPlacements();
    ReadAndCheck(m, f, 2600, 4096 - 2600);
    m.DrainPlacements();
    EXPECT_EQ((std::vector<std::string>{pack::ChunkObjectName(name, 0),
                                        pack::ChunkObjectName(name, 3)}),
              TierObjects());
    const pack::ChunkMap& cm = ChunksOf(m, f);
    EXPECT_EQ(0u, cm.Meta(2).run_start);
    EXPECT_EQ(3u, cm.Meta(3).run_start);

    // An unaligned read across both runs: oracle bytes from the tier,
    // one op per run.
    const std::uint64_t ops_before = LocalReadOps();
    const std::uint64_t hits_before = m.Stats().chunk_hits;
    ReadAndCheck(m, f, 1500, 3900 - 1500);
    EXPECT_EQ(ops_before + 2, LocalReadOps());
    EXPECT_EQ(hits_before + 1, m.Stats().chunk_hits);
  }
}

TEST_F(ChunkedReadTest, EvictionAndCleanupDeleteEveryRunObject) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    // Quota for ~3 files: LRU evicts whole files, run by run.
    auto monarch = Build(codec, /*quota=*/6 * 1024, "lru");
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
        const std::uint64_t size = Expected(f).size();
        // Two misses per file: its head, then the rest — two runs.
        ReadAndCheck(m, f, 0, std::min<std::uint64_t>(size, 1500));
        m.DrainPlacements();
        if (size > 1500) ReadAndCheck(m, f, 1500, size - 1500);
        m.DrainPlacements();
      }
    }
    EXPECT_GT(m.Stats().placement.chunks_evicted, 0u);
    // No orphan: every object on the tier is a resident run.
    std::uint64_t resident = 0;
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      resident += ChunksOf(m, f).ResidentStoredBytes();
    }
    EXPECT_EQ(resident, local_->TotalBytes());
    EXPECT_EQ(resident, m.Stats().levels[0].occupancy_bytes);

    EXPECT_GT(m.CleanupStagedCopies(), 0u);
    EXPECT_TRUE(TierObjects().empty());
    EXPECT_EQ(0u, m.Stats().levels[0].occupancy_bytes);
  }
}

TEST_F(ChunkedReadTest, CorruptRunDropsAllItsChunks) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    // The identity codec only checks whole chunks, and only with
    // verify_on_read.
    auto monarch = Build(codec, 1'000'000, "", [](MonarchConfig& config) {
      config.resilience.verify_on_read = true;
    });
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    const std::uint64_t f = FileOfAtLeast(3 * 1024);
    const std::string name = workload::SmallFilePath(spec_, f);
    const std::uint64_t size = Expected(f).size();
    ReadAndCheck(m, f, 0, size);
    m.DrainPlacements();
    const pack::ChunkMap& cm = ChunksOf(m, f);
    ASSERT_EQ(cm.num_chunks(), cm.ResidentCount());

    // Garble the middle of the run object, inside chunk 1's bytes.
    const std::string object = pack::ChunkObjectName(name, 0);
    std::vector<std::byte> bytes(local_->FileSize(object).value());
    ASSERT_OK(local_->Read(object, 0, bytes));
    const std::uint32_t at = cm.Meta(1).run_offset;
    for (std::uint32_t b = 0; b < cm.Meta(1).stored_bytes; ++b) {
      bytes[at + b] ^= std::byte{0x5C};
    }
    ASSERT_OK(local_->Write(object, bytes));

    // A read of chunk 1 alone still returns oracle bytes, and drops the
    // whole run: every chunk, the object and its quota. Its PFS miss
    // then stages chunk 1 alone, as a run of its own.
    const auto corrupt_before = m.Stats().fallbacks_corruption;
    ReadAndCheck(m, f, 1024, 1024);
    EXPECT_EQ(corrupt_before + 1, m.Stats().fallbacks_corruption);
    m.DrainPlacements();
    EXPECT_EQ(1u, cm.ResidentCount());
    EXPECT_TRUE(cm.IsResident(1));
    EXPECT_EQ(std::vector<std::string>{pack::ChunkObjectName(name, 1)},
              TierObjects(name));
    EXPECT_EQ(ResidentStoredBytes(m), m.Stats().levels[0].occupancy_bytes);

    // The next pass re-stages it, and the tier serves it again.
    ReadAndCheck(m, f, 0, size);
    m.DrainPlacements();
    EXPECT_EQ(cm.num_chunks(), cm.ResidentCount());
    const std::uint64_t hits_before = m.Stats().chunk_hits;
    ReadAndCheck(m, f, 1024, 1024);
    EXPECT_EQ(hits_before + 1, m.Stats().chunk_hits);
  }
}

TEST_F(ChunkedReadTest, ReadServesChunkFromMiddleOfRun) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    const std::uint64_t f = FileOfAtLeast(3 * 1024);
    const std::vector<std::byte> whole = Expected(f);
    const std::string name = workload::SmallFilePath(spec_, f);
    ReadAndCheck(m, f, 0, whole.size());
    m.DrainPlacements();

    const std::uint64_t ops_before = LocalReadOps();
    const std::uint64_t served_before = m.Stats().levels[0].reads;
    std::vector<std::byte> got(1024 - 5);
    auto read = m.Read(name, 2048 + 5, got);
    ASSERT_OK(read);
    EXPECT_EQ(served_before + 1, m.Stats().levels[0].reads)
        << "served by the tier";
    ASSERT_EQ(1024u - 5, read.value()) << "the rest of chunk 2";
    EXPECT_TRUE(std::equal(got.begin(), got.end(), whole.begin() + 2048 + 5));
    EXPECT_EQ(ops_before + 1, LocalReadOps());
  }
}

// A run object deleted behind the driver must not stay "resident": the
// read that finds it gone drops the run and its quota, so the next miss
// re-stages it and later reads are served by the tier again.
TEST_F(ChunkedReadTest, VanishedRunObjectIsDroppedAndRestaged) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    const std::uint64_t f = FileOfAtLeast(3 * 1024);
    const std::string name = workload::SmallFilePath(spec_, f);
    const std::uint64_t size = Expected(f).size();
    ReadAndCheck(m, f, 0, size);
    m.DrainPlacements();
    ASSERT_OK(local_->Delete(pack::ChunkObjectName(name, 0)));

    const std::uint64_t misses_before = m.Stats().chunk_misses;
    ReadAndCheck(m, f, 0, size);  // from the PFS
    EXPECT_LT(misses_before, m.Stats().chunk_misses);
    m.DrainPlacements();

    const pack::ChunkMap& cm = ChunksOf(m, f);
    EXPECT_EQ(cm.num_chunks(), cm.ResidentCount());
    EXPECT_EQ(ResidentStoredBytes(m), m.Stats().levels[0].occupancy_bytes)
        << "the vanished run's quota must be released once";
    const std::uint64_t hits_before = m.Stats().chunk_hits;
    const std::uint64_t pfs_before = PfsReadOps();
    ReadAndCheck(m, f, 0, size);
    EXPECT_LT(hits_before, m.Stats().chunk_hits);
    EXPECT_EQ(pfs_before, PfsReadOps()) << "the tier serves it again";
  }
}

// Undonated stretches (look-ahead, Prestage, repair) are read from the PFS
// once per run, not once per chunk.
TEST_F(ChunkedReadTest, PrestageReadsEachFileWithOnePfsRead) {
  for (const std::string codec : {"none", "lz"}) {
    SCOPED_TRACE("codec " + codec);
    auto monarch = Build(codec);
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    std::uint64_t chunks = 0;
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      chunks += (Expected(f).size() + 1023) / 1024;
    }
    ASSERT_GT(chunks, spec_.num_files);
    const std::uint64_t ops_before = PfsReadOps();
    EXPECT_EQ(spec_.num_files, m.Prestage(/*block=*/true));
    EXPECT_EQ(ops_before + spec_.num_files, PfsReadOps());
    EXPECT_EQ(chunks, m.Stats().placement.chunks_staged);
    EXPECT_EQ(spec_.num_files, TierObjects().size());
    for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
      ReadAndCheck(m, f, 0, Expected(f).size());
    }
    EXPECT_EQ(ops_before + spec_.num_files, PfsReadOps());
  }
}

// Read-ahead rides only on whole-file misses: a partial read and a
// low-retention (scan) tenant stage just what they touch, so sparse
// traffic keeps scaling with bytes touched.
TEST_F(ChunkedReadTest, PartialAndScanMissesNeverReadAhead) {
  auto monarch = Build("none");
  ASSERT_OK(monarch);
  Monarch& m = **monarch;
  const std::vector<std::uint64_t> extent = ExtentFiles(m, 0);
  ASSERT_GE(extent.size(), 3u);
  ReadAndCheck(m, extent[0], 0, Expected(extent[0]).size() - 1);
  {
    qos::TenantContext scan;
    scan.name = "scan";
    scan.io_class = qos::IoClass::kScan;
    scan.low_retention = true;
    const qos::ScopedTenant scope(scan);
    ReadAndCheck(m, extent[2], 0, Expected(extent[2]).size());
  }
  m.DrainPlacements();
  const MonarchStats stats = m.Stats();
  EXPECT_EQ(0u, stats.pack_stretch_reads);
  EXPECT_EQ(0u, stats.pack_readahead_bytes);
  for (std::size_t i = 3; i < extent.size(); ++i) {
    EXPECT_TRUE(TierObjects(workload::SmallFilePath(spec_, extent[i])).empty())
        << "file " << extent[i] << " was read ahead";
  }
}

TEST_F(ChunkedReadTest, ReadAheadStopsAtTheTierFreeQuota) {
  std::vector<std::uint64_t> extent;
  {
    auto probe = Build("none");
    ASSERT_OK(probe);
    extent = ExtentFiles(**probe, 0);
  }
  ASSERT_GE(extent.size(), 3u);
  const std::uint64_t first = Expected(extent[0]).size();
  const std::uint64_t second = Expected(extent[1]).size();
  const std::uint64_t third = Expected(extent[2]).size();
  // Room for the extent's first two files and half of the third.
  const std::uint64_t quota = first + second + third / 2;
  auto monarch = Build("none", quota);
  ASSERT_OK(monarch);
  Monarch& m = **monarch;

  // The first file of the extent reads ahead to the right only.
  const std::uint64_t ops_before = PfsReadOps();
  ReadAndCheck(m, extent[0], 0, first);
  m.DrainPlacements();
  EXPECT_EQ(ops_before + 1, PfsReadOps());
  EXPECT_EQ(1u, m.Stats().pack_stretch_reads);
  EXPECT_EQ(second, m.Stats().pack_readahead_bytes);
  for (const std::uint64_t f : {extent[0], extent[1]}) {
    EXPECT_EQ(ChunksOf(m, f).num_chunks(), ChunksOf(m, f).ResidentCount())
        << "file " << f;
  }
  EXPECT_TRUE(
      TierObjects(workload::SmallFilePath(spec_, extent[2])).empty());
  EXPECT_LE(local_->TotalBytes(), quota);

  // The third file no longer fits the free quota: it is read alone.
  ReadAndCheck(m, extent[2], 0, third);
  m.DrainPlacements();
  EXPECT_EQ(ops_before + 2, PfsReadOps());
  EXPECT_EQ(1u, m.Stats().pack_stretch_reads);
  EXPECT_EQ(second, m.Stats().pack_readahead_bytes);
}

// N readers of one cold extent, two per file, all at once: every PFS op
// is a stretch read, and every other read joins the task staging its
// file (or finds it resident) instead of reading the PFS.
TEST_F(ChunkedReadTest, ConcurrentReadersOfOneColdExtentCostOnePfsOpPerStretch) {
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto monarch = Build("lz");
    ASSERT_OK(monarch);
    Monarch& m = **monarch;
    const std::vector<std::uint64_t> extent = ExtentFiles(m, 0);
    const int n = static_cast<int>(2 * extent.size());
    // Publish the namespace snapshot before the race, so the readers
    // contend only on the staging paths under test.
    for (const std::uint64_t f : extent) {
      ASSERT_NE(nullptr,
                m.metadata().Lookup(workload::SmallFilePath(spec_, f)));
    }
    const std::uint64_t ops_before = PfsReadOps();
    std::atomic<int> ready{0};
    std::atomic<bool> wrong{false};
    std::vector<std::thread> readers;
    readers.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
      readers.emplace_back([&, t] {
        const std::uint64_t f = extent[static_cast<std::size_t>(t) %
                                       extent.size()];
        const std::vector<std::byte> expected = Expected(f);
        std::vector<std::byte> buf(expected.size());
        ready.fetch_add(1);
        while (ready.load() < n) std::this_thread::yield();
        auto read = m.Read(workload::SmallFilePath(spec_, f), 0, buf);
        if (!read.ok() || buf != expected) wrong.store(true);
      });
    }
    for (std::thread& reader : readers) reader.join();
    m.DrainPlacements();
    EXPECT_FALSE(wrong.load());
    const MonarchStats stats = m.Stats();
    EXPECT_GE(stats.pack_stretch_reads, 1u);
    EXPECT_EQ(ops_before + stats.pack_stretch_reads, PfsReadOps());
    EXPECT_EQ(stats.pack_stretch_reads, stats.chunk_misses);
    EXPECT_EQ(static_cast<std::uint64_t>(n),
              stats.chunk_hits + stats.chunk_misses);
    for (const std::uint64_t f : extent) {
      EXPECT_EQ(ChunksOf(m, f).num_chunks(), ChunksOf(m, f).ResidentCount())
          << "file " << f;
    }
  }
}

// A read of a neighbour whose prefetch task is still queued promotes the
// task to the demand lane and waits for its copy instead of reading the
// PFS.
TEST_F(ChunkedReadTest, ReadOfAQueuedNeighbourPromotesAndJoinsIt) {
  std::vector<std::uint64_t> ahead;
  std::uint64_t held = 0;
  {
    auto probe = Build("none");
    ASSERT_OK(probe);
    ahead = ExtentFiles(**probe, 0);
    while (std::find(ahead.begin(), ahead.end(), held) != ahead.end()) {
      ++held;
    }
  }
  ASSERT_GE(ahead.size(), 2u);
  ASSERT_LT(held, spec_.num_files);
  std::shared_ptr<testing::GateEngine> gate;
  auto monarch = Build("lz", 1'000'000, "", [&](MonarchConfig& config) {
    config.placement.num_threads = 1;
    gate = std::make_shared<testing::GateEngine>(
        pack::ChunkObjectName(workload::SmallFilePath(spec_, held), 0),
        local_);
    config.cache_tiers[0].engine = gate;
  });
  // After the Monarch: an early return frees the parked write first.
  const testing::GateRelease release_gate(gate);
  ASSERT_OK(monarch);
  Monarch& m = **monarch;
  std::vector<std::byte> head(100);
  ASSERT_OK(m.Read(workload::SmallFilePath(spec_, held), 0, head));
  gate->AwaitBlocked();
  ReadAndCheck(m, ahead[0], 0, Expected(ahead[0]).size());
  ASSERT_EQ(1u, m.Stats().pack_stretch_reads);

  const std::uint64_t pfs_before = PfsReadOps();
  std::thread reader([&] {
    ReadAndCheck(m, ahead[1], 0, Expected(ahead[1]).size());
  });
  const Stopwatch waited;
  while (m.Stats().placement.prefetch_promoted == 0 &&
         waited.ElapsedSeconds() < 5) {
    std::this_thread::yield();
  }
  gate->ReleaseBlocked();
  reader.join();
  m.DrainPlacements();
  const MonarchStats stats = m.Stats();
  EXPECT_EQ(1u, stats.placement.prefetch_promoted);
  EXPECT_EQ(1u, stats.copy_joins);
  EXPECT_EQ(1u, stats.prefetch_hits);
  EXPECT_EQ(pfs_before, PfsReadOps()) << "the joined read touched the PFS";
}

// Read-ahead is speculative: under an evicting policy with no run
// schedule, a neighbour that finds no room is refused rather than evict
// a resident, and it still reads correctly, from the PFS.
TEST_F(ChunkedReadTest, NeighboursNeverEvictWithoutASchedule) {
  std::vector<std::uint64_t> ahead;
  std::vector<std::uint64_t> others;
  {
    auto probe = Build("none");
    ASSERT_OK(probe);
    ahead = ExtentFiles(**probe, 0);
  }
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    if (std::find(ahead.begin(), ahead.end(), f) == ahead.end()) {
      others.push_back(f);
    }
  }
  ASSERT_GE(ahead.size(), 2u);
  ASSERT_GE(others.size(), 3u);
  // One worker, held mid-write on `held`'s staging, so the read-ahead
  // queues behind it.
  const std::uint64_t held = others[0];
  std::shared_ptr<testing::GateEngine> gate;
  auto monarch = Build("none", 1'000'000, "lru", [&](MonarchConfig& config) {
    config.placement.num_threads = 1;
    gate = std::make_shared<testing::GateEngine>(
        pack::ChunkObjectName(workload::SmallFilePath(spec_, held), 0),
        local_);
    config.cache_tiers[0].engine = gate;
  });
  // After the Monarch: an early return frees the parked write first.
  const testing::GateRelease release_gate(gate);
  ASSERT_OK(monarch);
  Monarch& m = **monarch;
  // Two residents, staged by partial reads (which never read ahead).
  const std::vector<std::uint64_t> residents = {others[1], others[2]};
  for (const std::uint64_t f : residents) {
    const std::uint64_t size = Expected(f).size();
    ReadAndCheck(m, f, 0, size - 1);
    ReadAndCheck(m, f, size - 1, 1);
  }
  m.DrainPlacements();

  std::vector<std::byte> head(100);
  ASSERT_OK(m.Read(workload::SmallFilePath(spec_, held), 0, head));
  gate->AwaitBlocked();
  const std::uint64_t y = ahead[0];
  const std::uint64_t size = Expected(y).size();
  ReadAndCheck(m, y, 0, size);
  ASSERT_EQ(1u, m.Stats().pack_stretch_reads);
  // Leave room for the file alone: its neighbours find none.
  StorageDriver& tier = m.hierarchy().Level(0);
  const std::uint64_t squeeze =
      tier.quota_bytes() - tier.occupancy_bytes() - size;
  ASSERT_TRUE(tier.Reserve(squeeze));
  gate->ReleaseBlocked();
  m.DrainPlacements();

  const MonarchStats stats = m.Stats();
  EXPECT_EQ(0u, stats.placement.chunks_evicted)
      << "a speculative neighbour evicted a resident";
  EXPECT_EQ(ahead.size() - 1, stats.placement.prefetch_cancelled);
  EXPECT_EQ(ChunksOf(m, y).num_chunks(), ChunksOf(m, y).ResidentCount());
  for (const std::uint64_t f : residents) {
    EXPECT_EQ(ChunksOf(m, f).num_chunks(), ChunksOf(m, f).ResidentCount())
        << "resident " << f;
  }
  for (std::size_t i = 1; i < ahead.size(); ++i) {
    const pack::ChunkMap& cm = ChunksOf(m, ahead[i]);
    EXPECT_EQ(0u, cm.ResidentCount()) << "neighbour " << ahead[i];
    EXPECT_EQ(0u, cm.Claims()) << "neighbour " << ahead[i];
    const std::uint64_t misses = m.Stats().chunk_misses;
    ReadAndCheck(m, ahead[i], 0, Expected(ahead[i]).size());
    EXPECT_EQ(misses + 1, m.Stats().chunk_misses) << "served by the PFS";
  }
  m.DrainPlacements();
  tier.Release(squeeze);
}

// A neighbour the staging-memory budget cannot hold is never claimed:
// the stretch stops short of it, so it holds no claim afterwards and
// reads correctly, from the PFS.
TEST_F(ChunkedReadTest, NeighbourRefusedByTheStagingBudgetReadsFromPfs) {
  std::vector<std::uint64_t> ahead;
  std::uint64_t held = 0;
  {
    auto probe = Build("none");
    ASSERT_OK(probe);
    ahead = ExtentFiles(**probe, 0);
    while (std::find(ahead.begin(), ahead.end(), held) != ahead.end()) {
      ++held;
    }
  }
  ASSERT_GE(ahead.size(), 2u);
  ASSERT_LT(held, spec_.num_files);
  // `held`'s partial read donates every byte it served and parks at the
  // gate; the budget then has room for the stretch's own file but not
  // for its first neighbour.
  const std::uint64_t held_size = Expected(held).size();
  const std::uint64_t held_donation = held_size - 1;
  const std::uint64_t y = ahead[0];
  const std::uint64_t budget = held_donation + Expected(y).size() +
                               Expected(ahead[1]).size() / 2;
  std::shared_ptr<testing::GateEngine> gate;
  auto monarch = Build("none", 1'000'000, "", [&](MonarchConfig& config) {
    config.placement.num_threads = 1;
    config.placement.staging_buffer_bytes = budget;
    gate = std::make_shared<testing::GateEngine>(
        pack::ChunkObjectName(workload::SmallFilePath(spec_, held), 0),
        local_);
    config.cache_tiers[0].engine = gate;
  });
  // After the Monarch: an early return frees the parked write first.
  const testing::GateRelease release_gate(gate);
  ASSERT_OK(monarch);
  Monarch& m = **monarch;
  ReadAndCheck(m, held, 0, held_size - 1);
  gate->AwaitBlocked();
  ASSERT_EQ(held_donation, m.Stats().placement.donation_held_bytes);

  ReadAndCheck(m, y, 0, Expected(y).size());
  ASSERT_EQ(1u, m.Stats().pack_stretch_reads);
  gate->ReleaseBlocked();
  m.DrainPlacements();

  EXPECT_EQ(0u, m.Stats().placement.prefetch_cancelled);
  EXPECT_EQ(0u, m.Stats().pack_readahead_bytes) << "the stretch is y alone";
  EXPECT_EQ(ChunksOf(m, y).num_chunks(), ChunksOf(m, y).ResidentCount());
  const FileInfoPtr refused =
      m.metadata().Lookup(workload::SmallFilePath(spec_, ahead[1]));
  ASSERT_NE(nullptr, refused);
  EXPECT_EQ(nullptr, refused->chunk_map()) << "never claimed";
  const std::uint64_t misses = m.Stats().chunk_misses;
  ReadAndCheck(m, ahead[1], 0, Expected(ahead[1]).size());
  EXPECT_EQ(misses + 1, m.Stats().chunk_misses) << "served by the PFS";
  m.DrainPlacements();
}

// A stretch is held once, whole: its file's and its neighbours'
// donations are slices of one buffer, charged to the staging budget
// until the last of their tasks finishes.
TEST_F(ChunkedReadTest, StretchIsChargedOnceUntilItsTasksFinish) {
  std::vector<std::uint64_t> ahead;
  {
    auto probe = Build("none");
    ASSERT_OK(probe);
    ahead = ExtentFiles(**probe, 0);
  }
  ASSERT_GE(ahead.size(), 2u);
  const std::uint64_t y = ahead[0];
  std::shared_ptr<testing::GateEngine> gate;
  auto monarch = Build("none", 1'000'000, "", [&](MonarchConfig& config) {
    config.placement.num_threads = 1;
    gate = std::make_shared<testing::GateEngine>(
        pack::ChunkObjectName(workload::SmallFilePath(spec_, y), 0), local_);
    config.cache_tiers[0].engine = gate;
  });
  // After the Monarch: an early return frees the parked write first.
  const testing::GateRelease release_gate(gate);
  ASSERT_OK(monarch);
  Monarch& m = **monarch;
  ReadAndCheck(m, y, 0, Expected(y).size());
  gate->AwaitBlocked();
  const MonarchStats held = m.Stats();
  ASSERT_EQ(1u, held.pack_stretch_reads);
  ASSERT_GT(held.pack_readahead_bytes, 0u);
  EXPECT_EQ(Expected(y).size() + held.pack_readahead_bytes,
            held.placement.donation_held_bytes);

  gate->ReleaseBlocked();
  m.DrainPlacements();
  const MonarchStats done = m.Stats();
  EXPECT_EQ(0u, done.placement.donation_held_bytes);
  EXPECT_EQ(Expected(y).size() + held.pack_readahead_bytes,
            done.placement.donated_bytes)
      << "every staged byte came from the stretch";
}

// An evictor can find a chunked file still marked placed with no run
// left: another evictor has just dropped its runs and not yet folded it
// back. Its quota went with the runs, so the evictor must release
// nothing more — before the fix it dropped the file as a whole-file copy
// and released its size a second time, and the tier overfilled.
TEST_F(ChunkedReadTest, EvictorFindingAnEmptiedChunkFileReleasesNothing) {
  constexpr std::uint64_t kQuota = 12 * 1024;
  constexpr std::uint64_t kHead = 3 * 1024;
  auto monarch = Build("none", kQuota, "lru");
  ASSERT_OK(monarch);
  Monarch& m = **monarch;
  std::vector<std::uint64_t> files;  // partial heads: no read-ahead
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    if (Expected(f).size() > kHead) files.push_back(f);
  }
  ASSERT_GE(files.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    ReadAndCheck(m, files[i], 0, kHead);
    m.DrainPlacements();
  }
  // The state the first evictor leaves: every run of the oldest file
  // dropped, its object deleted and its bytes released, but the file not
  // yet folded back.
  StorageDriver& tier = m.hierarchy().Level(0);
  const std::string oldest = workload::SmallFilePath(spec_, files[0]);
  pack::ChunkMap& cm = ChunksOf(m, files[0]);
  {
    std::lock_guard lock(cm.placement_mutex());
    const pack::ChunkMap::EvictedRun run = cm.TryEvictRun(0);
    ASSERT_EQ(3u, run.chunks);
    ASSERT_OK(local_->Delete(pack::ChunkObjectName(oldest, run.start)));
    tier.Release(run.stored_bytes);
  }
  ASSERT_EQ(PlacementState::kPlaced,
            m.metadata().Lookup(oldest)->state.load());
  // Two more heads fill the tier; the third must evict, and the LRU
  // ranking offers the emptied file first.
  for (std::size_t i = 3; i < 6; ++i) {
    ReadAndCheck(m, files[i], 0, kHead);
    m.DrainPlacements();
  }
  EXPECT_GT(m.Stats().placement.chunks_evicted, 0u);
  EXPECT_EQ(ResidentStoredBytes(m), tier.occupancy_bytes());
  EXPECT_LE(local_->TotalBytes(), kQuota);
}

// TSan stress: concurrent chunked readers racing chunk eviction driven
// by staging pressure on a tiny quota. Every read must return the right
// bytes no matter which side of an eviction it lands on.
TEST_F(ChunkedReadTest, ConcurrentReadersSurviveChunkEviction) {
  auto monarch = Build("lz", /*quota=*/8 * 1024, "lru");
  ASSERT_OK(monarch);
  std::vector<std::vector<std::byte>> expected;
  for (std::uint64_t f = 0; f < spec_.num_files; ++f) {
    expected.push_back(Expected(f));
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      std::vector<std::byte> buf(3 * 1024);
      for (int i = 0; i < 200 && !failed.load(); ++i) {
        const auto f = rng() % spec_.num_files;
        const auto& whole = expected[f];
        const std::uint64_t offset = rng() % whole.size();
        auto read = monarch.value()->Read(
            workload::SmallFilePath(spec_, f), offset, buf);
        if (!read.ok()) {
          failed.store(true);
          ADD_FAILURE() << read.status().ToString();
          break;
        }
        const std::size_t expect_n = static_cast<std::size_t>(
            std::min<std::uint64_t>(buf.size(), whole.size() - offset));
        if (read.value() != expect_n ||
            !std::equal(buf.begin(),
                        buf.begin() + static_cast<std::ptrdiff_t>(expect_n),
                        whole.begin() +
                            static_cast<std::ptrdiff_t>(offset))) {
          failed.store(true);
          ADD_FAILURE() << "wrong bytes: file " << f << " offset " << offset;
          break;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  monarch.value()->DrainPlacements();
  EXPECT_GT(monarch.value()->Stats().placement.chunks_evicted, 0u)
      << "the stress run must actually exercise eviction";
}

}  // namespace
}  // namespace monarch::core
