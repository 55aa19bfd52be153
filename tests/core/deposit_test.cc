// Deposits: a staged run whose copy has a reader coming keeps its
// verified bytes in memory, and that reader is served from them instead
// of reading the run back from its tier (DESIGN.md §3 "Deposits").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../gate_engine.h"
#include "../test_support.h"
#include "core/monarch.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::GateEngine;
using monarch::testing::GateRelease;

constexpr std::size_t kRun = 4096;  // staging_chunk_bytes: one run each
constexpr std::size_t kSlice = 1024;

std::string NameOf(std::size_t file) {
  return "data/f" + std::to_string(file);
}

std::vector<std::byte> Payload(std::size_t file, std::size_t bytes) {
  std::vector<std::byte> out(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::byte>((file * 131 + i * 7 + i / 251) & 0xff);
  }
  return out;
}

struct WorldOptions {
  std::size_t files = 4;
  std::size_t file_bytes = 2 * kRun + 512;  // three runs
  std::uint64_t quota = 1 << 20;
  bool lru = false;  ///< LRU eviction; first-fit otherwise
  int lookahead = 0;
  std::uint64_t staging_buffer_bytes = 1 << 20;
  bool verify_staged_writes = true;
  bool verify_on_read = false;
  bool restage_after_quarantine = true;
  int threads = 2;
  /// Hold the first write of this object (GateEngine) when set.
  std::string gated;
};

/// A Monarch over a memory PFS and one memory cache tier, behind a
/// FaultyEngine (and a GateEngine when asked); `local_` counts the
/// tier's data reads.
class DepositTest : public ::testing::Test {
 protected:
  void Build(WorldOptions options) {
    options_ = options;
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    for (std::size_t f = 0; f < options.files; ++f) {
      ASSERT_OK(pfs_->Write(NameOf(f), Payload(f, options.file_bytes)));
    }
    local_ = std::make_shared<storage::MemoryEngine>("local");
    faulty_ = std::make_shared<storage::FaultyEngine>(
        local_, storage::FaultyEngine::FaultSpec{});
    storage::StorageEnginePtr tier = faulty_;
    if (!options.gated.empty()) {
      gate_ = std::make_shared<GateEngine>(options.gated, faulty_);
      tier = gate_;
    }
    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", tier, options.quota});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    if (options.lru) config.policy = MakeLruPolicy();
    config.placement.num_threads = options.threads;
    config.placement.staging_chunk_bytes = kRun;
    config.placement.staging_buffer_bytes = options.staging_buffer_bytes;
    config.placement.prefetch_lookahead = options.lookahead;
    config.resilience.retry.max_attempts = 1;
    config.resilience.verify_staged_writes = options.verify_staged_writes;
    config.resilience.verify_on_read = options.verify_on_read;
    config.resilience.restage_after_quarantine =
        options.restage_after_quarantine;
    auto monarch = Monarch::Create(std::move(config));
    ASSERT_OK(monarch);
    monarch_ = std::move(monarch).value();
  }

  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    for (std::size_t f = 0; f < options_.files; ++f) {
      names.push_back(NameOf(f));
    }
    return names;
  }

  /// Look-ahead stages every file, in namespace order.
  void Prefetch() {
    monarch_->InstallRunSchedule({Names()});
    monarch_->DrainPlacements();
  }

  /// Demand-stage every file with whole-file reads, which keep no
  /// deposit: nobody is coming for the bytes.
  void StageAll() {
    for (std::size_t f = 0; f < options_.files; ++f) {
      EXPECT_EQ(Payload(f, options_.file_bytes),
                Read(f, 0, options_.file_bytes));
    }
    monarch_->DrainPlacements();
    EXPECT_EQ(0u, Held());
  }

  /// `n` bytes of file `f` at `offset`.
  std::vector<std::byte> Read(std::size_t f, std::uint64_t offset,
                              std::size_t n) {
    std::vector<std::byte> buf(n);
    auto read = monarch_->Read(NameOf(f), offset, buf);
    EXPECT_OK(read);
    buf.resize(read.value_or(0));
    return buf;
  }

  /// One visit of file `f`: its pin, and kSlice reads.
  std::vector<std::byte> Visit(std::size_t f) {
    ReadLease visit = monarch_->PinVisit(NameOf(f));
    std::vector<std::byte> out;
    for (std::uint64_t offset = 0; offset < options_.file_bytes;
         offset += kSlice) {
      const std::vector<std::byte> slice = Read(f, offset, kSlice);
      out.insert(out.end(), slice.begin(), slice.end());
    }
    return out;
  }

  std::uint64_t LocalReads() { return local_->Stats().Snapshot().read_ops; }
  std::uint64_t PfsReads() { return pfs_->Stats().Snapshot().read_ops; }
  /// Reads the PFS level served (staging's own PFS reads not counted).
  std::uint64_t PfsServed() { return monarch_->Stats().pfs_reads(); }
  /// Reads the local tier (level 0) served, from its objects or deposits.
  std::uint64_t TierServed() { return monarch_->Stats().levels[0].reads; }
  std::uint64_t Held() {
    return monarch_->Stats().placement.deposit_held_bytes;
  }
  std::uint64_t Hits() { return monarch_->Stats().deposit_hits; }
  FileInfoPtr InfoOf(std::size_t f) {
    FileInfoPtr info = monarch_->metadata().Lookup(NameOf(f));
    if (info == nullptr) ADD_FAILURE() << NameOf(f) << " is not indexed";
    return info;
  }
  PlacementState StateOf(std::size_t f) {
    const FileInfoPtr info = InfoOf(f);
    return info != nullptr ? info->state.load() : PlacementState::kPfsOnly;
  }

  WorldOptions options_;
  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::shared_ptr<storage::MemoryEngine> local_;
  std::shared_ptr<storage::FaultyEngine> faulty_;
  std::shared_ptr<GateEngine> gate_;
  std::unique_ptr<Monarch> monarch_;
  // After the Monarch: an early return frees the parked write first.
  GateRelease release_gate_{gate_};
};

TEST_F(DepositTest, LookaheadVisitReadsNothingBeyondTheReadBack) {
  WorldOptions options;
  options.lookahead = 8;
  Build(options);
  Prefetch();
  const MonarchStats staged = monarch_->Stats();
  ASSERT_EQ(options.files, staged.placement.prefetch_completed);
  const std::uint64_t runs = staged.placement.chunks_copied;
  EXPECT_EQ(3 * options.files, runs);
  EXPECT_EQ(runs, LocalReads()) << "one read-back per staged run";
  EXPECT_EQ(options.files * options.file_bytes, Held());

  for (std::size_t f = 0; f < options.files; ++f) {
    EXPECT_EQ(Payload(f, options.file_bytes), Visit(f)) << "file " << f;
  }
  EXPECT_EQ(runs, LocalReads()) << "the visits read nothing from the tier";
  EXPECT_EQ(0u, monarch_->Stats().pfs_reads());
  const std::uint64_t slices = (options.file_bytes + kSlice - 1) / kSlice;
  EXPECT_EQ(options.files * slices, TierServed()) << "every slice from level 0";
  EXPECT_EQ(options.files * slices, Hits());
  // Every run's last byte was served, so no file holds a deposit.
  EXPECT_EQ(0u, Held());
}

TEST_F(DepositTest, JoinedReaderGetsRemainingSlicesFromDeposit) {
  WorldOptions options;
  options.files = 1;
  options.file_bytes = kRun;
  options.threads = 1;
  options.gated = pack::ChunkObjectName(NameOf(0), 0);
  Build(options);
  const std::vector<std::byte> expected = Payload(0, kRun);

  // The open reads its slice from the PFS and schedules the copy, which
  // the gate holds mid-write; the rest of the file joins that copy.
  std::vector<std::byte> whole = Read(0, 0, kSlice);
  gate_->AwaitBlocked();
  std::thread joiner([&] {
    for (std::uint64_t offset = kSlice; offset < kRun; offset += kSlice) {
      const std::vector<std::byte> slice = Read(0, offset, kSlice);
      whole.insert(whole.end(), slice.begin(), slice.end());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate_->ReleaseBlocked();
  joiner.join();
  monarch_->DrainPlacements();

  EXPECT_EQ(expected, whole);
  const MonarchStats stats = monarch_->Stats();
  EXPECT_EQ(1u, stats.copy_joins);
  EXPECT_EQ(kRun / kSlice - 1, stats.deposit_hits);
  EXPECT_EQ(1u, LocalReads()) << "only the copy's read-back read the tier";
  EXPECT_EQ(2u, PfsReads()) << "the open's slice, then the copy's rest";
  EXPECT_EQ(0u, Held()) << "released at the run's last byte";
}

TEST_F(DepositTest, FinishedReaderLeavesNoDeposit) {
  WorldOptions options;
  options.files = 1;
  options.file_bytes = kRun;
  options.threads = 1;
  options.gated = pack::ChunkObjectName(NameOf(0), 0);
  Build(options);
  // A whole-file read returns before its copy publishes: nobody is
  // coming for the bytes, so the copy keeps none.
  EXPECT_EQ(Payload(0, kRun), Read(0, 0, kRun));
  gate_->AwaitBlocked();
  gate_->ReleaseBlocked();
  monarch_->DrainPlacements();
  EXPECT_EQ(PlacementState::kPlaced, StateOf(0));
  EXPECT_EQ(0u, Held());
  EXPECT_EQ(Payload(0, kRun), Read(0, 0, kRun));
  EXPECT_EQ(2u, LocalReads()) << "the read-back, then the tier read";
  EXPECT_EQ(0u, Hits());
}

TEST_F(DepositTest, EvictionDropsTheDeposit) {
  WorldOptions options;
  options.files = 2;
  options.file_bytes = kRun;
  options.quota = kRun;
  options.lru = true;
  options.threads = 1;
  Build(options);
  {
    // A visit is open while its demand copy publishes: the copy deposits.
    ReadLease visit = monarch_->PinVisit(NameOf(0));
    Read(0, 0, kSlice);
    monarch_->DrainPlacements();
  }
  ASSERT_EQ(kRun, Held());

  // File 1's copy evicts file 0, and its deposit goes with the run.
  Read(1, 0, kRun);
  monarch_->DrainPlacements();
  EXPECT_EQ(1u, monarch_->Stats().placement.evictions);
  EXPECT_EQ(PlacementState::kPfsOnly, StateOf(0));
  EXPECT_EQ(0u, Held());

  const std::vector<std::byte> expected = Payload(0, kRun);
  const std::uint64_t pfs_before = PfsServed();
  EXPECT_EQ(std::vector<std::byte>(expected.begin() + kSlice,
                                   expected.begin() + 2 * kSlice),
            Read(0, kSlice, kSlice));
  EXPECT_EQ(pfs_before + 1, PfsServed()) << "served by the PFS";
  EXPECT_EQ(0u, Hits());
}

TEST_F(DepositTest, QuarantineParksTheFileAndDropsItsDeposits) {
  WorldOptions options;
  options.files = 1;
  options.file_bytes = 2 * kRun;
  options.lookahead = 8;
  options.verify_on_read = true;
  options.restage_after_quarantine = false;
  Build(options);
  Prefetch();
  ASSERT_EQ(2 * kRun, Held());
  const std::vector<std::byte> expected = Payload(0, 2 * kRun);

  // Run 0 is served from its deposit, which goes at its last byte.
  EXPECT_EQ(std::vector<std::byte>(expected.begin(), expected.begin() + kRun),
            Read(0, 0, kRun));
  EXPECT_EQ(kRun, Held());
  // A new visit reads run 0 from the tier, which corrupts it: the run is
  // quarantined, the file parked, and run 1's deposit goes too.
  faulty_->CorruptNextReads(1);
  EXPECT_EQ(std::vector<std::byte>(expected.begin(), expected.begin() + kRun),
            Read(0, 0, kRun));
  const MonarchStats stats = monarch_->Stats();
  EXPECT_EQ(1u, stats.placement.quarantined);
  EXPECT_EQ(1u, stats.fallbacks_corruption);
  EXPECT_EQ(PlacementState::kUnplaceable, StateOf(0));
  EXPECT_EQ(0u, Held());

  const std::uint64_t pfs_before = PfsServed();
  EXPECT_EQ(std::vector<std::byte>(expected.begin() + kRun, expected.end()),
            Read(0, kRun, kRun));
  EXPECT_EQ(pfs_before + 1, PfsServed()) << "run 1 is served by the PFS";
  EXPECT_EQ(1u, Hits());
}

TEST_F(DepositTest, NoRoomParkDropsTheDeposit) {
  WorldOptions options;
  options.files = 1;
  options.file_bytes = 2 * kRun;
  options.quota = kRun;  // first-fit: run 1 never fits, nothing evicts
  options.threads = 1;
  Build(options);
  const std::vector<std::byte> expected = Payload(0, 2 * kRun);
  {
    ReadLease visit = monarch_->PinVisit(NameOf(0));
    EXPECT_EQ(expected, Read(0, 0, 2 * kRun));
    monarch_->DrainPlacements();
  }
  EXPECT_EQ(PlacementState::kUnplaceable, StateOf(0));
  EXPECT_EQ(0u, monarch_->Stats().levels[0].occupancy_bytes);
  EXPECT_EQ(0u, Held()) << "run 0's deposit went when the file was parked";

  const std::uint64_t pfs_before = PfsServed();
  EXPECT_EQ(std::vector<std::byte>(expected.begin(), expected.begin() + kSlice),
            Read(0, 0, kSlice));
  EXPECT_EQ(pfs_before + 1, PfsServed());
  EXPECT_EQ(0u, Hits());
}

TEST_F(DepositTest, CleanupDropsEveryDeposit) {
  WorldOptions options;
  options.lookahead = 8;
  Build(options);
  Prefetch();
  ASSERT_EQ(options.files * options.file_bytes, Held());
  EXPECT_EQ(options.files, monarch_->CleanupStagedCopies());
  EXPECT_EQ(0u, Held());

  const std::uint64_t pfs_before = PfsServed();
  EXPECT_EQ(Payload(1, options.file_bytes), Read(1, 0, options.file_bytes));
  EXPECT_EQ(pfs_before + 1, PfsServed());
  EXPECT_EQ(0u, Hits());
}

TEST_F(DepositTest, ShutdownDropsEveryDeposit) {
  WorldOptions options;
  options.lookahead = 8;
  Build(options);
  Prefetch();
  ASSERT_EQ(options.files * options.file_bytes, Held());
  monarch_->Shutdown();
  EXPECT_EQ(0u, Held());
  EXPECT_EQ(options.files, monarch_->Stats().placement.completed)
      << "the runs stay staged";
}

TEST_F(DepositTest, CorruptReadBackDepositsNothingAndQuarantines) {
  WorldOptions options;
  options.files = 1;
  options.file_bytes = kRun;
  options.lookahead = 8;
  Build(options);
  faulty_->CorruptNextReads(1);  // the staging read-back
  Prefetch();
  const MonarchStats stats = monarch_->Stats();
  EXPECT_EQ(1u, stats.placement.quarantined);
  EXPECT_EQ(0u, stats.placement.completed);
  EXPECT_EQ(0u, Held());
  const FileInfoPtr info = InfoOf(0);
  ASSERT_TRUE(info != nullptr && info->chunk_map() != nullptr);
  EXPECT_EQ(0u, info->chunk_map()->ResidentCount());

  // The next visit re-stages the file; only a copy that passed its
  // read-back may serve it from memory.
  EXPECT_EQ(Payload(0, kRun), Visit(0));
  monarch_->DrainPlacements();
  EXPECT_EQ(1u, monarch_->Stats().placement.completed);
  EXPECT_EQ(1u, monarch_->Stats().placement.quarantined);
}

TEST_F(DepositTest, DepositsYieldToDonations) {
  WorldOptions options;
  options.files = 3;
  options.file_bytes = kRun;
  options.staging_buffer_bytes = 2 * kRun;
  options.lookahead = 2;
  Build(options);
  monarch_->InstallRunSchedule({{NameOf(0), NameOf(1)}});
  monarch_->DrainPlacements();
  ASSERT_EQ(2 * kRun, Held()) << "two deposits fill the budget";

  // File 2's open donates its bytes to its copy: the budget makes room
  // by dropping a deposit, so the copy never re-reads them.
  const std::uint64_t pfs_before = PfsReads();
  EXPECT_EQ(Payload(2, kRun), Read(2, 0, kRun));
  monarch_->DrainPlacements();
  const MonarchStats stats = monarch_->Stats();
  EXPECT_EQ(kRun, stats.placement.donated_bytes);
  EXPECT_EQ(pfs_before + 1, PfsReads()) << "the copy used the donation";
  EXPECT_EQ(PlacementState::kPlaced, StateOf(2));
  EXPECT_EQ(kRun, Held()) << "the oldest deposit made room";
  EXPECT_EQ(0u, stats.placement.donation_held_bytes);
}

// Look-ahead reads the runs of a scheduled file that is already resident
// into deposits before its visit: one tier read per run, and the visit
// reads nothing from the tier.
TEST_F(DepositTest, ResidentFileInTheWindowIsReadAheadBeforeItsVisit) {
  WorldOptions options;
  options.lookahead = 8;
  Build(options);
  StageAll();
  const std::uint64_t tier_reads = LocalReads();
  const MonarchStats staged = monarch_->Stats();

  monarch_->InstallRunSchedule({Names()});
  monarch_->DrainPlacements();
  const MonarchStats ready = monarch_->Stats();
  EXPECT_EQ(3 * options.files, LocalReads() - tier_reads)
      << "one whole read per run";
  EXPECT_EQ(options.files * options.file_bytes, Held());
  EXPECT_EQ(options.files, ready.placement.prefetch_scheduled -
                               staged.placement.prefetch_scheduled);
  EXPECT_EQ(options.files, ready.placement.prefetch_completed -
                               staged.placement.prefetch_completed);

  const std::uint64_t served_before = TierServed();
  for (std::size_t f = 0; f < options.files; ++f) {
    EXPECT_EQ(Payload(f, options.file_bytes), Visit(f)) << "file " << f;
  }
  EXPECT_EQ(3 * options.files, LocalReads() - tier_reads)
      << "the visits read nothing from the tier";
  const MonarchStats read = monarch_->Stats();
  const std::uint64_t slices = (options.file_bytes + kSlice - 1) / kSlice;
  EXPECT_EQ(options.files * slices, TierServed() - served_before)
      << "every slice from level 0";
  EXPECT_EQ(options.files * slices, read.deposit_hits);
  EXPECT_EQ(options.files, read.prefetch_hits - staged.prefetch_hits);
  EXPECT_EQ(0u, read.placement.readahead_unread);
  EXPECT_EQ(0u, Held());
}

// Read-ahead never outgrows the staging budget: with room for one run,
// a window of four holds that one run, and a donation still gets its
// room by reclaiming it — counted as a look-ahead deposit left unread.
TEST_F(DepositTest, ReadAheadHoldsWhatTheBudgetHoldsAndYieldsToDonations) {
  WorldOptions options;
  options.files = 5;
  options.file_bytes = kRun;
  options.staging_buffer_bytes = kRun;
  options.lookahead = 4;
  Build(options);
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_EQ(Payload(f, kRun), Read(f, 0, kRun));
  }
  monarch_->DrainPlacements();
  ASSERT_EQ(0u, Held());

  monarch_->InstallRunSchedule(
      {{NameOf(0), NameOf(1), NameOf(2), NameOf(3)}});
  monarch_->DrainPlacements();
  EXPECT_EQ(kRun, Held()) << "one run fits the budget";
  EXPECT_EQ(1u, monarch_->Stats().placement.prefetch_completed);

  // File 4's open donates its bytes: the read-ahead deposit makes room.
  const std::uint64_t pfs_before = PfsReads();
  const std::uint64_t donated = monarch_->Stats().placement.donated_bytes;
  EXPECT_EQ(Payload(4, kRun), Read(4, 0, kRun));
  monarch_->DrainPlacements();
  const MonarchStats stats = monarch_->Stats();
  EXPECT_EQ(kRun, stats.placement.donated_bytes - donated);
  EXPECT_EQ(pfs_before + 1, PfsReads()) << "the copy used the donation";
  EXPECT_EQ(PlacementState::kPlaced, StateOf(4));
  EXPECT_EQ(1u, stats.placement.readahead_unread);
  EXPECT_EQ(0u, Held());
}

// A read-ahead still queued when its file's visit begins is run by the
// visit's reader itself — one tier read per run, then slices from memory
// — and StopPlacement drops the ones still queued, holding nothing.
TEST_F(DepositTest, QueuedReadAheadIsRunByItsReaderOrDroppedAtStop) {
  WorldOptions options;
  options.files = 4;
  options.lookahead = 8;
  options.threads = 1;
  options.gated = pack::ChunkObjectName(NameOf(3), 0);
  Build(options);
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(Payload(f, options.file_bytes),
              Read(f, 0, options.file_bytes));
  }
  monarch_->DrainPlacements();
  // File 3's copy parks the only worker at the gate; the read-aheads of
  // the resident files queue behind it.
  Read(3, 0, kSlice);
  gate_->AwaitBlocked();
  monarch_->InstallRunSchedule({{NameOf(0), NameOf(1), NameOf(2)}});
  const std::uint64_t tier_reads = LocalReads();

  EXPECT_EQ(Payload(0, options.file_bytes), Visit(0));
  EXPECT_EQ(3u, LocalReads() - tier_reads) << "one read per run";
  const MonarchStats visited = monarch_->Stats();
  EXPECT_EQ(1u, visited.placement.prefetch_promoted);
  EXPECT_EQ((options.file_bytes + kSlice - 1) / kSlice, visited.deposit_hits);
  EXPECT_EQ(0u, visited.prefetch_hits) << "the reader read its own runs";

  monarch_->StopPlacement();
  EXPECT_EQ(2u, monarch_->Stats().placement.prefetch_cancelled);
  for (const std::size_t f : {1, 2}) {
    EXPECT_FALSE(InfoOf(f)->reading_ahead.load()) << "file " << f;
  }
  gate_->ReleaseBlocked();
  monarch_->DrainPlacements();
  EXPECT_EQ(4u, LocalReads() - tier_reads)
      << "nothing read ahead: only file 3's read-back";
  EXPECT_EQ(0u, Held());
  EXPECT_EQ(Payload(1, options.file_bytes), Visit(1));
  monarch_->CleanupStagedCopies();
  EXPECT_EQ(0u, Held());
}

TEST_F(DepositTest, WithoutVerificationDepositsTheWrittenBytes) {
  WorldOptions options;
  options.lookahead = 8;
  options.verify_staged_writes = false;
  Build(options);
  Prefetch();
  EXPECT_EQ(0u, LocalReads()) << "no read-back";
  EXPECT_EQ(options.files * options.file_bytes, Held());
  for (std::size_t f = 0; f < options.files; ++f) {
    EXPECT_EQ(Payload(f, options.file_bytes), Visit(f))
        << "file " << f;
  }
  EXPECT_EQ(0u, LocalReads());
  EXPECT_EQ(0u, Held());
}

// Readers race look-ahead staging, LRU eviction and the
// donations that push deposits out of a small budget: every byte served
// is the oracle's, the budget is never overrun, and nothing stays held.
TEST_F(DepositTest, ReadersEvictionAndStagingStress) {
  WorldOptions options;
  options.files = 24;
  options.file_bytes = kRun + 700;  // two runs
  options.quota = 6 * (kRun + 700);
  options.lru = true;
  options.lookahead = 4;
  options.staging_buffer_bytes = 6 * kRun;
  options.threads = 3;
  Build(options);
  std::vector<std::string> order;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (std::size_t f = 0; f < options.files; ++f) {
      order.push_back(NameOf((f * 7 + static_cast<std::size_t>(epoch) * 5) %
                             options.files));
    }
  }
  monarch_->InstallRunSchedule({order});

  std::atomic<std::size_t> next{0};
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> overrun{0};
  std::thread sampler([&] {
    while (!done.load()) {
      // The two gauges load apart, so only each one is checked live.
      const PlacementStats p = monarch_->Stats().placement;
      const std::uint64_t held =
          std::max(p.deposit_held_bytes, p.donation_held_bytes);
      if (held > options.staging_buffer_bytes) overrun.store(held);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (std::size_t i = next++; i < order.size(); i = next++) {
        const std::size_t f = static_cast<std::size_t>(
            std::stoul(order[i].substr(NameOf(0).size() - 1)));
        if (Visit(f) != Payload(f, options.file_bytes)) ++mismatches;
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  done.store(true);
  sampler.join();

  EXPECT_EQ(0, mismatches.load());
  EXPECT_EQ(0u, overrun.load()) << "held bytes overran the staging budget";
  EXPECT_GT(Hits(), 0u);
  EXPECT_GT(monarch_->Stats().placement.evictions, 0u);
  monarch_->Shutdown();
  EXPECT_EQ(0u, Held());
}

}  // namespace
}  // namespace monarch::core
