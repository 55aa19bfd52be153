// Pipelined staging engine tests: the fair staging queue (demand
// priority, promotion, in-flight gauge), the chunked copy path (donated
// and streamed copies record the same chunk CRCs, bounded peak memory,
// donated prefixes), the look-ahead prefetch window driven by the run
// schedule (Monarch::InstallRunSchedule), and reads joining a copy
// already in flight.
// Suite names (StagingPipeline*, BufferPool*) are part of
// scripts/check.sh's TSan filter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../gate_engine.h"
#include "../test_support.h"
#include "file_state.h"
#include "stage_file.h"
#include "core/monarch.h"
#include "core/placement_handler.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"
#include "util/buffer_pool.h"
#include "util/crc32c.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;
using monarch::testing::GateEngine;
using monarch::testing::GateRelease;
using monarch::testing::Text;

// ---------------------------------------------------------------------------
// BufferPool

TEST(BufferPoolTest, ReusesBuffersAndTracksPeak) {
  BufferPool pool(/*capacity_bytes=*/32, /*chunk_bytes=*/8);
  EXPECT_EQ(8u, pool.chunk_bytes());
  EXPECT_EQ(32u, pool.capacity_bytes());
  EXPECT_EQ(0u, pool.in_use_bytes());
  {
    auto a = pool.Acquire();
    auto b = pool.Acquire();
    EXPECT_EQ(8u, a.bytes().size());
    EXPECT_EQ(16u, pool.in_use_bytes());
    EXPECT_EQ(16u, pool.peak_in_use_bytes());
  }
  EXPECT_EQ(0u, pool.in_use_bytes());
  // The high-water mark survives the release; a fresh lease reuses a
  // pooled buffer without raising it.
  auto c = pool.Acquire();
  EXPECT_EQ(8u, pool.in_use_bytes());
  EXPECT_EQ(16u, pool.peak_in_use_bytes());
}

TEST(BufferPoolTest, AcquireBlocksWhenBudgetExhausted) {
  BufferPool pool(/*capacity_bytes=*/8, /*chunk_bytes=*/8);  // one buffer
  auto held = std::make_unique<BufferPool::Lease>(pool.Acquire());

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto lease = pool.Acquire();
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load())
      << "second Acquire must block while the whole budget is leased";

  held.reset();  // return the buffer; the waiter proceeds
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(8u, pool.peak_in_use_bytes()) << "budget was never exceeded";
}

TEST(BufferPoolTest, TryAcquireNeverBlocksAndLeavesTheSpareItIsAskedFor) {
  BufferPool pool(/*capacity_bytes=*/24, /*chunk_bytes=*/8);  // three
  auto first = pool.TryAcquire(/*keep_free=*/1);
  auto second = pool.TryAcquire(/*keep_free=*/1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // One buffer left: a holder keeping one free is refused at once, a
  // TryAcquire keeping none free takes it, and then even that is refused.
  EXPECT_FALSE(pool.TryAcquire(/*keep_free=*/1).has_value());
  auto last = pool.TryAcquire(/*keep_free=*/0);
  ASSERT_TRUE(last.has_value());
  EXPECT_FALSE(pool.TryAcquire(/*keep_free=*/0).has_value());
  EXPECT_EQ(24u, pool.in_use_bytes());
  first.reset();
  EXPECT_TRUE(pool.TryAcquire(/*keep_free=*/0).has_value())
      << "a returned buffer is reused";
  EXPECT_EQ(24u, pool.peak_in_use_bytes());
}

// ---------------------------------------------------------------------------
// PlacementHandler two-lane pipeline

class StagingPipelineTest : public ::testing::Test {
 protected:
  void Build(std::vector<std::uint64_t> quotas, PlacementOptions options = {},
             int num_threads = 2,
             std::shared_ptr<GateEngine> tier0_engine = nullptr,
             ResilienceOptions resilience = {},
             PeerViewPtr peer_view = nullptr) {
    pfs_engine_ = std::make_shared<storage::MemoryEngine>("pfs");
    std::vector<StorageDriverPtr> drivers;
    cache_engines_.clear();
    for (std::size_t i = 0; i < quotas.size(); ++i) {
      storage::StorageEnginePtr engine;
      if (i == 0 && tier0_engine) {
        engine = tier0_engine;
      } else {
        engine =
            std::make_shared<storage::MemoryEngine>("tier" + std::to_string(i));
      }
      cache_engines_.push_back(engine);
      drivers.push_back(std::make_unique<StorageDriver>(
          "tier" + std::to_string(i), engine, quotas[i], false));
    }
    drivers.push_back(
        std::make_unique<StorageDriver>("pfs", pfs_engine_, 0, true));
    hierarchy_ = std::move(StorageHierarchy::Create(std::move(drivers))).value();
    options.num_threads = num_threads;
    handler_ = std::make_unique<PlacementHandler>(
        *hierarchy_, metadata_, MakeFirstFitPolicy(), options, resilience,
        std::move(peer_view));
  }

  FileInfoPtr AddPfsFile(const std::string& name, const std::string& data) {
    EXPECT_TRUE(pfs_engine_->Write(name, Bytes(data)).ok());
    metadata_.Register(name, data.size());
    return metadata_.Lookup(name);
  }

  /// Claim + schedule in one step (what the read path and look-ahead do).
  void Stage(const FileInfoPtr& file,
             std::optional<std::vector<std::byte>> content,
             StagingLane lane = StagingLane::kDemand) {
    ASSERT_TRUE(StageFile(*handler_, file,
                          content ? std::span<const std::byte>(*content)
                                  : std::span<const std::byte>{},
                          lane))
        << file->name;
  }

  storage::StorageEnginePtr pfs_engine_;
  std::vector<storage::StorageEnginePtr> cache_engines_;
  std::unique_ptr<StorageHierarchy> hierarchy_;
  MetadataContainer metadata_;
  std::unique_ptr<PlacementHandler> handler_;
};

/// The staged bytes of `file`, read back run object by run object.
std::string StagedBytes(storage::StorageEngine& tier, const FileInfo& file) {
  const pack::ChunkMap& cm = *file.chunk_map();
  std::string staged;
  for (std::uint32_t c = 0; c < cm.num_chunks(); ++c) {
    std::vector<std::byte> chunk(cm.ChunkLogicalBytes(c));
    auto read = tier.Read(pack::ChunkObjectName(file.name, c), 0, chunk);
    EXPECT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(Crc32c(chunk), cm.Meta(c).crc_logical) << file.name << c;
    staged += Text(chunk);
  }
  return staged;
}

TEST_F(StagingPipelineTest, ChunkedCopyMatchesFullBufferCrc) {
  PlacementOptions options;
  options.staging_chunk_bytes = 7;    // odd size => uneven final chunk
  options.staging_buffer_bytes = 14;  // two buffers
  Build({1000}, options);

  std::string payload;
  for (int i = 0; i < 100; ++i) payload.push_back(static_cast<char>('a' + i % 26));

  auto full = AddPfsFile("full", payload);
  auto chunked = AddPfsFile("chunked", payload);
  Stage(full, Bytes(payload));    // every chunk from the donation
  Stage(chunked, std::nullopt);   // every chunk from its own PFS read
  handler_->Drain();

  ASSERT_TRUE(full->Placed());
  ASSERT_TRUE(chunked->Placed());

  // Every chunk's recorded CRC matches its staged bytes, and both copies
  // record the same CRCs.
  EXPECT_EQ(payload, StagedBytes(*cache_engines_[0], *full));
  EXPECT_EQ(payload, StagedBytes(*cache_engines_[0], *chunked));
  for (std::uint32_t c = 0; c < 15; ++c) {
    EXPECT_EQ(full->chunk_map()->Meta(c).crc_logical,
              chunked->chunk_map()->Meta(c).crc_logical);
  }

  const auto stats = handler_->Stats();
  EXPECT_EQ(30u, stats.chunks_copied)
      << "100 bytes / 7-byte chunks: one run object per chunk per file";
}

TEST_F(StagingPipelineTest, PeakStagingMemoryBoundedByPool) {
  PlacementOptions options;
  options.staging_buffer_bytes = 4096;  // pool: 4 x 1 KiB chunks
  options.staging_chunk_bytes = 1024;
  Build({1 << 20}, options, /*num_threads=*/4);

  // Every file is 16x larger than a chunk and 4x larger than the whole
  // pool; a naive full-file copy would peak at 8 x 16 KiB.
  const std::string payload(16 * 1024, 'x');
  std::vector<FileInfoPtr> files;
  for (int i = 0; i < 8; ++i) {
    auto file = AddPfsFile("big" + std::to_string(i), payload);
    Stage(file, std::nullopt);
    files.push_back(std::move(file));
  }
  handler_->Drain();

  for (const auto& file : files) {
    EXPECT_TRUE(file->Placed()) << file->name;
  }
  EXPECT_EQ(4096u, handler_->buffer_pool().capacity_bytes());
  EXPECT_LE(handler_->buffer_pool().peak_in_use_bytes(),
            handler_->buffer_pool().capacity_bytes())
      << "staging memory must stay within staging_buffer_bytes";
  EXPECT_EQ(8u * 16 * 1024, handler_->Stats().bytes_staged);
}

TEST_F(StagingPipelineTest, DemandNeverQueuedBehindPrefetch) {
  auto gate = std::make_shared<GateEngine>("blocker#c0");
  Build({1000}, {}, /*num_threads=*/1, gate);

  // Park the single worker inside a prefetch copy, then queue more
  // prefetches and finally one demand task.
  auto blocker = AddPfsFile("blocker", "bbbbbbbbbb");
  Stage(blocker, Bytes("bbbbbbbbbb"), StagingLane::kPrefetch);
  gate->AwaitBlocked();

  std::vector<FileInfoPtr> prefetches;
  for (int i = 0; i < 4; ++i) {
    auto file = AddPfsFile("p" + std::to_string(i), "pppppppppp");
    Stage(file, Bytes("pppppppppp"), StagingLane::kPrefetch);
    prefetches.push_back(std::move(file));
  }
  auto demand = AddPfsFile("demand", "dddddddddd");
  Stage(demand, Bytes("dddddddddd"), StagingLane::kDemand);

  {
    const auto stats = handler_->Stats();
    EXPECT_EQ(1u, stats.queue_depth[qos::ClassIndex(qos::IoClass::kTraining)]);
    EXPECT_EQ(4u, stats.queue_depth[qos::ClassIndex(qos::IoClass::kPrefetch)]);
    EXPECT_EQ(10u, stats.inflight_bytes) << "only the gated blocker copies";
  }

  gate->ReleaseBlocked();
  handler_->Drain();
  EXPECT_EQ(0u, handler_->Stats().inflight_bytes);

  const auto order = gate->write_order();
  ASSERT_EQ(6u, order.size());
  EXPECT_EQ("blocker#c0", order[0]);
  EXPECT_EQ("demand#c0", order[1])
      << "the demand task must pop before every queued prefetch";
  EXPECT_TRUE(demand->Placed());
  for (const auto& file : prefetches) {
    EXPECT_TRUE(file->Placed()) << file->name;
  }
  EXPECT_EQ(5u, handler_->Stats().prefetch_scheduled);
  EXPECT_EQ(5u, handler_->Stats().prefetch_completed);
}

TEST_F(StagingPipelineTest, PrefetchNeverEvictsEvenInEvictionMode) {
  PlacementOptions options;
  options.enable_eviction = true;
  Build({15}, options);

  auto placed = AddPfsFile("placed", "0123456789");
  placed->last_access.store(1);
  Stage(placed, std::nullopt);
  handler_->Drain();
  ASSERT_TRUE(placed->Placed());

  // Speculative work must not push a placed file out...
  auto hinted = AddPfsFile("hinted", "0123456789");
  Stage(hinted, std::nullopt, StagingLane::kPrefetch);
  handler_->Drain();
  EXPECT_TRUE(placed->Placed());
  EXPECT_TRUE(PfsOnly(*hinted))
      << "a prefetch rejection is retryable, never parks";
  EXPECT_EQ(0u, handler_->Stats().evictions);
  EXPECT_EQ(1u, handler_->Stats().prefetch_cancelled);

  // ...but the same file staged on the demand lane may evict.
  Stage(hinted, std::nullopt, StagingLane::kDemand);
  handler_->Drain();
  EXPECT_TRUE(hinted->Placed());
  EXPECT_TRUE(PfsOnly(*placed));
  EXPECT_EQ(1u, handler_->Stats().evictions);
}

TEST_F(StagingPipelineTest, PromoteToDemandJumpsTheQueue) {
  auto gate = std::make_shared<GateEngine>("blocker#c0");
  Build({1000}, {}, /*num_threads=*/1, gate);

  auto blocker = AddPfsFile("blocker", "bbbbbbbbbb");
  Stage(blocker, Bytes("bbbbbbbbbb"), StagingLane::kDemand);
  gate->AwaitBlocked();

  auto first = AddPfsFile("first", "aaaaaaaaaa");
  auto second = AddPfsFile("second", "cccccccccc");
  Stage(first, Bytes("aaaaaaaaaa"), StagingLane::kPrefetch);
  Stage(second, Bytes("cccccccccc"), StagingLane::kPrefetch);

  // Demand overtakes `second`: it moves to the demand lane and runs
  // before `first` even though it was queued after it.
  EXPECT_TRUE(handler_->PromoteToDemand(second));
  EXPECT_FALSE(handler_->PromoteToDemand(blocker))
      << "a running copy has left the queues; nothing to promote";

  gate->ReleaseBlocked();
  handler_->Drain();

  const auto order = gate->write_order();
  ASSERT_EQ(3u, order.size());
  EXPECT_EQ("second#c0", order[1]) << "promoted task runs on the demand lane";
  EXPECT_EQ("first#c0", order[2]);
  const auto stats = handler_->Stats();
  EXPECT_EQ(1u, stats.prefetch_promoted);
  EXPECT_EQ(1u, stats.prefetch_completed)
      << "a promoted copy completes as demand, not prefetch";
}

TEST_F(StagingPipelineTest, CancelPrefetchesReturnsFilesRetryable) {
  auto gate = std::make_shared<GateEngine>("blocker#c0");
  Build({1000}, {}, /*num_threads=*/1, gate);

  auto blocker = AddPfsFile("blocker", "bbbbbbbbbb");
  Stage(blocker, Bytes("bbbbbbbbbb"), StagingLane::kDemand);
  gate->AwaitBlocked();

  std::vector<FileInfoPtr> hinted;
  for (int i = 0; i < 3; ++i) {
    auto file = AddPfsFile("h" + std::to_string(i), "hhhhhhhhhh");
    file->Transition(FileInfo::kLookahead);
    Stage(file, std::nullopt, StagingLane::kPrefetch);
    hinted.push_back(std::move(file));
  }

  EXPECT_EQ(3u, handler_->CancelPrefetches());
  for (const auto& file : hinted) {
    EXPECT_TRUE(PfsOnly(*file)) << file->name;
    EXPECT_FALSE(file->Has(FileInfo::kLookahead)) << file->name;
  }
  EXPECT_EQ(3u, handler_->Stats().prefetch_cancelled);

  gate->ReleaseBlocked();
  handler_->Drain();
  // Cancelled != abandoned: the files can be staged again later.
  Stage(hinted[0], std::nullopt, StagingLane::kDemand);
  handler_->Drain();
  EXPECT_TRUE(hinted[0]->Placed());
}

TEST_F(StagingPipelineTest, DonatedPrefixIsNotReReadFromPfs) {
  PlacementOptions options;
  options.staging_chunk_bytes = 4;
  options.staging_buffer_bytes = 16;  // room for the 10-byte donation
  Build({1000}, options);

  const std::string payload = "0123456789ABCDEFGHIJ";  // 20 bytes
  auto file = AddPfsFile("f", payload);
  const auto before = pfs_engine_->Stats().Snapshot();

  // The triggering read covered the first 10 bytes; the pipeline must
  // fetch only the remaining 10 from the PFS.
  Stage(file, Bytes(payload.substr(0, 10)));
  handler_->Drain();

  ASSERT_TRUE(file->Placed());
  const auto delta = pfs_engine_->Stats().Snapshot() - before;
  EXPECT_EQ(10u, delta.bytes_read)
      << "donated leading bytes must enter the pipeline from memory";
  EXPECT_EQ(10u, handler_->Stats().donated_bytes);

  // Chunk 2 straddles the donation: its donated half came from memory,
  // its other half from the PFS, and its CRC covers both.
  EXPECT_EQ(payload, StagedBytes(*cache_engines_[0], *file));
}

TEST_F(StagingPipelineTest, DonationsShareTheStagingBudget) {
  PlacementOptions options;
  options.staging_chunk_bytes = 4;
  options.staging_buffer_bytes = 20;  // room for two 10-byte donations
  auto gate = std::make_shared<GateEngine>("held#c0");
  Build({1000}, options, /*num_threads=*/1, gate);

  const std::string payload = "0123456789";
  auto held = AddPfsFile("held", payload);
  auto queued = AddPfsFile("queued", payload);
  auto next = AddPfsFile("next", payload);
  const auto before = pfs_engine_->Stats().Snapshot();

  // The only worker parks inside "held"'s copy while "queued" waits:
  // their two donations fill the budget.
  Stage(held, Bytes(payload));
  gate->AwaitBlocked();
  Stage(queued, Bytes(payload));
  EXPECT_EQ(20u, handler_->Stats().donation_held_bytes);

  // The next miss would overrun it, so it stages without its donation.
  Stage(next, Bytes(payload));
  EXPECT_EQ(20u, handler_->Stats().donation_held_bytes);

  gate->ReleaseBlocked();
  handler_->Drain();
  for (const auto& file : {held, queued, next}) {
    EXPECT_TRUE(file->Placed()) << file->name;
    EXPECT_EQ(payload, StagedBytes(*cache_engines_[0], *file)) << file->name;
  }
  const auto delta = pfs_engine_->Stats().Snapshot() - before;
  EXPECT_EQ(10u, delta.bytes_read)
      << "only the undonated file may re-read the PFS";
  EXPECT_EQ(20u, handler_->Stats().donated_bytes);
  EXPECT_EQ(0u, handler_->Stats().donation_held_bytes)
      << "every charge returns once staging is quiescent";

  // A donation enqueued after scheduling stopped is released with its
  // claim.
  auto late = AddPfsFile("late", payload);
  handler_->StopScheduling();
  Stage(late, Bytes(payload));
  EXPECT_TRUE(PfsOnly(*late));
  EXPECT_EQ(0u, handler_->Stats().donation_held_bytes);
}

TEST_F(StagingPipelineTest, JoinableMarksDemandCopiesNotQueuedHints) {
  auto gate = std::make_shared<GateEngine>("blocker#c0");
  Build({1000}, {}, /*num_threads=*/1, gate);

  // A running copy is joinable whatever its lane.
  auto blocker = AddPfsFile("blocker", "bbbbbbbbbb");
  Stage(blocker, Bytes("bbbbbbbbbb"), StagingLane::kPrefetch);
  gate->AwaitBlocked();
  EXPECT_TRUE(blocker->Has(FileInfo::kJoinable));

  // Queued behind it: the demand copy is joinable, the hint is not —
  // until a demand read promotes it.
  auto demand = AddPfsFile("demand", "dddddddddd");
  auto hinted = AddPfsFile("hinted", "hhhhhhhhhh");
  Stage(demand, std::nullopt, StagingLane::kDemand);
  Stage(hinted, std::nullopt, StagingLane::kPrefetch);
  EXPECT_TRUE(demand->Has(FileInfo::kJoinable));
  EXPECT_FALSE(hinted->Has(FileInfo::kJoinable));
  EXPECT_TRUE(handler_->PromoteToDemand(hinted));
  EXPECT_TRUE(hinted->Has(FileInfo::kJoinable));

  gate->ReleaseBlocked();
  handler_->Drain();
  for (const auto& file : {blocker, demand, hinted}) {
    EXPECT_TRUE(file->Placed()) << file->name;
    EXPECT_FALSE(file->Has(FileInfo::kJoinable)) << file->name;
    EXPECT_FALSE(file->Await(FileInfo::kJoinable)) << "nothing left to join";
  }

  // A task dropped unrun (enqueued after stop) leaves nothing to join.
  auto late = AddPfsFile("late", "llllllllll");
  handler_->StopScheduling();
  Stage(late, std::nullopt, StagingLane::kDemand);
  EXPECT_TRUE(PfsOnly(*late));
  EXPECT_FALSE(late->Has(FileInfo::kJoinable));
}

/// A peer view that counts each file's OnCopyBegin / OnCopyEnd.
class CountingPeerView final : public PeerView {
 public:
  bool HasRemoteCopy(const std::string&) override { return false; }
  bool ShouldStageLocally(const std::string&) override { return true; }
  void OnStaged(const std::string&, int) override {}
  void OnDropped(const std::string&) override {}
  void SetStageEntry(StageEntry) override {}
  bool RequestOwnerStage(const std::string&) override { return false; }
  bool AwaitRemoteCopy(const std::string&) override { return false; }
  void OnCopyBegin(const std::string& name) override {
    std::lock_guard lock(mu_);
    ++counts_[name].first;
  }
  void OnCopyEnd(const std::string& name) override {
    std::lock_guard lock(mu_);
    ++counts_[name].second;
  }

  /// (begins, ends) reported for `name`.
  std::pair<int, int> Counts(const std::string& name) const {
    std::lock_guard lock(mu_);
    const auto it = counts_.find(name);
    return it != counts_.end() ? it->second : std::pair<int, int>{};
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<int, int>> counts_;
};

TEST_F(StagingPipelineTest, JoinableCopyReachesThePeerViewOnEdgesOnly) {
  auto gate = std::make_shared<GateEngine>("blocker#c0");
  auto peers = std::make_shared<CountingPeerView>();
  Build({1000}, {}, /*num_threads=*/1, gate, {}, peers);
  auto blocker = AddPfsFile("blocker", "bbbbbbbbbb");
  Stage(blocker, Bytes("bbbbbbbbbb"), StagingLane::kPrefetch);
  gate->AwaitBlocked();

  // A demand copy as a read's miss makes it: a joinable claim, then the
  // demand task, then the worker that runs it. Each of the three marks
  // the copy joinable; the peer view hears the first only.
  auto demand = AddPfsFile("demand", "dddddddddd");
  std::vector<std::uint32_t> chunks = handler_->Claim(
      demand, 0, UINT32_MAX, /*whole=*/false, /*joinable=*/true);
  ASSERT_EQ(1u, chunks.size());
  EXPECT_EQ(std::make_pair(1, 0), peers->Counts("demand"));
  handler_->ScheduleChunkPlacement(demand, std::move(chunks), {},
                                   StagingLane::kDemand);
  EXPECT_EQ(std::make_pair(1, 0), peers->Counts("demand"));

  // A queued look-ahead copy is not joinable until a read promotes it.
  auto ahead = AddPfsFile("ahead", "aaaaaaaaaa");
  ahead->Transition(FileInfo::kLookahead);
  Stage(ahead, std::nullopt, StagingLane::kPrefetch);
  EXPECT_EQ(std::make_pair(0, 0), peers->Counts("ahead"));
  ASSERT_TRUE(handler_->PromoteToDemand(ahead));
  EXPECT_EQ(std::make_pair(1, 0), peers->Counts("ahead"));

  gate->ReleaseBlocked();
  handler_->Drain();
  for (const auto& file : {blocker, demand, ahead}) {
    EXPECT_TRUE(file->Placed()) << file->name;
    EXPECT_EQ(std::make_pair(1, 1), peers->Counts(file->name)) << file->name;
  }
}

TEST_F(StagingPipelineTest, RacingRunDoesNotUnparkAParkedFile) {
  // Two tasks stage one two-chunk file. B's write of chunk 1 is held at
  // the gate while A's write of chunk 0 fails and, at the one-attempt
  // cap, parks the file. B's run then lands: it must not be published.
  auto faulty = std::make_shared<storage::FaultyEngine>(
      std::make_shared<storage::MemoryEngine>("tier0"),
      storage::FaultyEngine::FaultSpec{});
  auto gate = std::make_shared<GateEngine>("racy#c1", faulty);
  PlacementOptions options;
  options.staging_chunk_bytes = 8;
  ResilienceOptions resilience;
  resilience.max_placement_attempts = 1;
  Build({1000}, options, /*num_threads=*/2, gate, resilience);
  const std::string payload = "aaaaaaaabbbbbbbb";
  auto file = AddPfsFile("racy", payload);
  pack::ChunkMap* cm = file->EnsureChunkMap(options.staging_chunk_bytes);
  ASSERT_EQ(2u, cm->num_chunks());

  ASSERT_TRUE(cm->TryClaim(1));
  handler_->ScheduleChunkPlacement(file, {1}, {}, StagingLane::kDemand);
  gate->AwaitBlocked();

  faulty->FailUntilHealed();
  ASSERT_TRUE(cm->TryClaim(0));
  handler_->ScheduleChunkPlacement(file, {0}, {}, StagingLane::kDemand);
  // A releases its claim, ending the file's joinable copy, only after
  // the park.
  EXPECT_TRUE(file->Await(FileInfo::kJoinable));
  ASSERT_TRUE(Parked(*file));
  faulty->Heal();

  gate->ReleaseBlocked();
  handler_->Drain();
  EXPECT_TRUE(Parked(*file));
  EXPECT_EQ(0u, cm->ResidentCount());
  EXPECT_EQ(0u, hierarchy_->Level(0).occupancy_bytes());
  EXPECT_FALSE(cache_engines_[0]->Exists("racy#c1").value_or(true));
  const auto stats = handler_->Stats();
  EXPECT_EQ(1u, stats.failed) << "the refused run is not a failure";
  EXPECT_EQ(1u, stats.abandoned);
  EXPECT_EQ(0u, stats.completed);
}

// ---------------------------------------------------------------------------
// Monarch look-ahead prefetching (InstallRunSchedule -> TakeAhead window)

class StagingPipelineMonarchTest : public ::testing::Test {
 protected:
  Result<std::unique_ptr<Monarch>> Build(
      std::uint64_t local_quota,
      const std::vector<std::pair<std::string, std::string>>& files,
      PlacementOptions placement = {}, int num_threads = 2,
      storage::StorageEnginePtr local_engine = nullptr) {
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    local_ = local_engine ? std::move(local_engine)
                          : std::make_shared<storage::MemoryEngine>("local");
    for (const auto& [name, data] : files) {
      EXPECT_TRUE(pfs_->Write("data/" + name, Bytes(data)).ok());
    }
    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", local_, local_quota});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    placement.num_threads = num_threads;
    config.placement = placement;
    return Monarch::Create(std::move(config));
  }

  std::string ReadAll(Monarch& monarch, const std::string& name,
                      std::size_t size) {
    std::vector<std::byte> buf(size);
    auto read = monarch.Read(name, 0, buf);
    EXPECT_TRUE(read.ok()) << read.status();
    buf.resize(read.value_or(0));
    return Text(buf);
  }

  std::shared_ptr<storage::MemoryEngine> pfs_;
  storage::StorageEnginePtr local_;
};

TEST_F(StagingPipelineMonarchTest, HintedEpochServesEntirelyFromCache) {
  PlacementOptions placement;
  placement.prefetch_lookahead = 8;
  auto monarch = Build(1 << 20,
                       {{"f1", "one"},
                        {"f2", "two"},
                        {"f3", "three"},
                        {"f4", "four"},
                        {"f5", "five"},
                        {"f6", "six"}},
                       placement);
  ASSERT_OK(monarch);

  const std::vector<std::string> order{"data/f1", "data/f2", "data/f3",
                                       "data/f4", "data/f5", "data/f6"};
  monarch.value()->InstallRunSchedule({order});
  monarch.value()->DrainPlacements();

  auto stats = monarch.value()->Stats();
  EXPECT_EQ(6u, stats.placement.prefetch_scheduled);
  EXPECT_EQ(6u, stats.placement.prefetch_completed);

  EXPECT_EQ("one", ReadAll(**monarch, "data/f1", 3));
  EXPECT_EQ("three", ReadAll(**monarch, "data/f3", 5));
  EXPECT_EQ("six", ReadAll(**monarch, "data/f6", 3));

  stats = monarch.value()->Stats();
  EXPECT_EQ(3u, stats.prefetch_hits)
      << "every demand read hit a look-ahead copy";
  EXPECT_EQ(0u, stats.pfs_reads())
      << "a fully prefetched epoch never touches the PFS on the read path";
}

TEST_F(StagingPipelineMonarchTest, LookaheadWindowLimitsClaims) {
  PlacementOptions placement;
  placement.prefetch_lookahead = 2;
  auto monarch = Build(1 << 20,
                       {{"f1", "one"},
                        {"f2", "two"},
                        {"f3", "three"},
                        {"f4", "four"}},
                       placement);
  ASSERT_OK(monarch);

  const std::vector<std::string> order{"data/f1", "data/f2", "data/f3",
                                       "data/f4"};
  monarch.value()->InstallRunSchedule({order});
  monarch.value()->DrainPlacements();
  EXPECT_EQ(2u, monarch.value()->Stats().placement.prefetch_scheduled)
      << "the cursor claims at most `lookahead` files ahead of demand";

  // A demand read of f1 moves the cursor and claims f3 (window [f2, f3]).
  ReadAll(**monarch, "data/f1", 3);
  monarch.value()->DrainPlacements();
  EXPECT_EQ(3u, monarch.value()->Stats().placement.prefetch_scheduled);

  // Reading out of schedule order still advances past the furthest read.
  ReadAll(**monarch, "data/f3", 5);
  monarch.value()->DrainPlacements();
  EXPECT_EQ(4u, monarch.value()->Stats().placement.prefetch_scheduled);
}

TEST_F(StagingPipelineMonarchTest, DemandOvertakePromotesQueuedHint) {
  auto gate = std::make_shared<GateEngine>("data/b#c0");
  PlacementOptions placement;
  placement.prefetch_lookahead = 8;
  auto monarch = Build(
      1 << 20,
      {{"b", "blocker-bytes"}, {"f2", "two"}, {"f3", "three"}, {"f4", "four"}},
      placement, /*num_threads=*/1, gate);
  ASSERT_OK(monarch);

  // Look-ahead claims all four files; the single worker blocks inside the
  // first copy, so f2..f4 sit queued on the prefetch lane.
  const std::vector<std::string> order{"data/b", "data/f2", "data/f3",
                                       "data/f4"};
  monarch.value()->InstallRunSchedule({order});
  gate->AwaitBlocked();

  // Demand overtakes the queued prefetch of f3: the copy moves to the
  // demand lane, and the read waits for it instead of reading the PFS.
  std::string read;
  std::thread reader([&] { read = ReadAll(**monarch, "data/f3", 5); });
  while (monarch.value()->Stats().placement.prefetch_promoted == 0) {
    std::this_thread::yield();
  }
  gate->ReleaseBlocked();
  reader.join();
  monarch.value()->DrainPlacements();
  EXPECT_EQ("three", read);
  auto stats = monarch.value()->Stats();
  EXPECT_EQ(1u, stats.placement.prefetch_promoted);
  EXPECT_EQ(1u, stats.copy_joins);
  EXPECT_EQ(0u, stats.pfs_reads()) << "the read was served by the copy";

  // The promoted copy ran before the remaining prefetches.
  const auto write_order = gate->write_order();
  ASSERT_EQ(4u, write_order.size());
  EXPECT_EQ("data/f3#c0", write_order[1]);
}

// A look-ahead copy a demand read promotes still completes as a
// prefetch: its file keeps its kLookahead bit, so its first tier read is a
// prefetch hit, and hits never outnumber completed prefetches.
TEST_F(StagingPipelineMonarchTest, PromotedLookaheadCompletesAsAPrefetch) {
  auto gate = std::make_shared<GateEngine>("data/b#c0");
  PlacementOptions placement;
  placement.prefetch_lookahead = 8;
  auto monarch = Build(1 << 20, {{"b", "blocker-bytes"}, {"f2", "two"}},
                       placement, /*num_threads=*/1, gate);
  const GateRelease release_gate(gate);
  ASSERT_OK(monarch);
  Monarch& m = **monarch;
  m.InstallRunSchedule({{"data/b", "data/f2"}});
  gate->AwaitBlocked();

  // f2's look-ahead copy waits behind b's: the read promotes and joins it.
  std::string read;
  std::thread reader([&] { read = ReadAll(m, "data/f2", 3); });
  while (m.Stats().placement.prefetch_promoted == 0) {
    std::this_thread::yield();
  }
  gate->ReleaseBlocked();
  reader.join();
  m.DrainPlacements();
  EXPECT_EQ("two", read);
  EXPECT_EQ("blocker-bytes", ReadAll(m, "data/b", 13));

  const MonarchStats stats = m.Stats();
  EXPECT_EQ(1u, stats.placement.prefetch_promoted);
  EXPECT_EQ(2u, stats.prefetch_hits) << "both reads found look-ahead copies";
  EXPECT_EQ(2u, stats.placement.prefetch_completed)
      << "the promoted copy counts as a completed prefetch";
  EXPECT_LE(stats.prefetch_hits, stats.placement.prefetch_completed);
}

TEST_F(StagingPipelineMonarchTest, StopPlacementCancelsQueuedHints) {
  auto gate = std::make_shared<GateEngine>("data/b#c0");
  PlacementOptions placement;
  placement.prefetch_lookahead = 8;
  auto monarch = Build(
      1 << 20,
      {{"b", "blocker-bytes"}, {"f2", "two"}, {"f3", "three"}, {"f4", "four"}},
      placement, /*num_threads=*/1, gate);
  ASSERT_OK(monarch);

  monarch.value()->InstallRunSchedule(
      {{"data/b", "data/f2", "data/f3", "data/f4"}});
  gate->AwaitBlocked();

  monarch.value()->StopPlacement();
  gate->ReleaseBlocked();
  monarch.value()->DrainPlacements();

  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(3u, stats.placement.prefetch_cancelled)
      << "queued prefetches are dropped when placement stops";
  EXPECT_EQ(1u, stats.placement.completed)
      << "the in-flight copy runs to completion";
  // Cancelled files stay readable (from the PFS, placement being stopped).
  EXPECT_EQ("two", ReadAll(**monarch, "data/f2", 3));
  EXPECT_EQ("four", ReadAll(**monarch, "data/f4", 4));
}

TEST_F(StagingPipelineMonarchTest, HintIsNoOpWhenLookaheadDisabled) {
  auto monarch = Build(1 << 20, {{"f1", "one"}, {"f2", "two"}});
  ASSERT_OK(monarch);

  monarch.value()->InstallRunSchedule({{"data/f1", "data/f2"}});
  monarch.value()->DrainPlacements();

  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(0u, stats.placement.prefetch_scheduled)
      << "prefetch_lookahead=0 disables the cursor entirely";
  EXPECT_EQ(0u, stats.placement.scheduled);
  EXPECT_EQ("one", ReadAll(**monarch, "data/f1", 3));
}

TEST_F(StagingPipelineMonarchTest, LookaheadWindowCrossesEpochBoundary) {
  PlacementOptions placement;
  placement.prefetch_lookahead = 2;
  auto monarch = Build(1 << 20,
                       {{"f1", "one"},
                        {"f2", "two"},
                        {"f3", "three"},
                        {"f4", "four"},
                        {"f5", "five"}},
                       placement);
  ASSERT_OK(monarch);

  const std::vector<std::string> epoch1{"data/f1", "data/f2", "data/f3"};
  const std::vector<std::string> epoch2{"data/f4", "data/f5", "data/f1"};
  monarch.value()->InstallRunSchedule({epoch1, epoch2});
  monarch.value()->DrainPlacements();
  EXPECT_EQ(2u, monarch.value()->Stats().placement.prefetch_scheduled);

  // Read epoch 1 in order, letting each window land first. The window
  // does not stop at the epoch's end: reading its last file claims
  // epoch 2's files up to two ahead of it.
  ReadAll(**monarch, "data/f1", 3);
  monarch.value()->DrainPlacements();
  ReadAll(**monarch, "data/f2", 3);
  monarch.value()->DrainPlacements();
  EXPECT_EQ(4u, monarch.value()->Stats().placement.prefetch_scheduled)
      << "reading f2 claims f4, epoch 2's first file";
  ReadAll(**monarch, "data/f3", 5);
  monarch.value()->DrainPlacements();
  EXPECT_EQ(5u, monarch.value()->Stats().placement.prefetch_scheduled)
      << "reading epoch 1's last file claims f5";

  EXPECT_EQ("four", ReadAll(**monarch, "data/f4", 4));
  EXPECT_EQ("five", ReadAll(**monarch, "data/f5", 4));
  const auto stats = monarch.value()->Stats();
  EXPECT_EQ(5u, stats.prefetch_hits)
      << "epoch 2 opens on copies staged during epoch 1";
  EXPECT_EQ(0u, stats.pfs_reads());
}

TEST_F(StagingPipelineMonarchTest,
       FirstFitPrefetchesFromRunScheduleWithoutRankingByIt) {
  // First-fit with look-ahead keeps the schedule for prefetch only: its
  // prefetch lane never evicts, and the enable_eviction ablation's
  // demand lane keeps its LRU ranking.
  PlacementOptions placement;
  placement.prefetch_lookahead = 8;
  placement.enable_eviction = true;
  auto monarch = Build(/*local_quota=*/6,
                       {{"f1", "one"}, {"f2", "two"}, {"f3", "six"}},
                       placement, /*num_threads=*/1);
  ASSERT_OK(monarch);

  monarch.value()->InstallRunSchedule(
      {{"data/f1", "data/f2", "data/f3", "data/f1"}});
  monarch.value()->DrainPlacements();
  EXPECT_EQ("policy (first-fit)", monarch.value()->EvictionRanking());
  auto stats = monarch.value()->Stats();
  EXPECT_EQ(3u, stats.placement.prefetch_scheduled);
  EXPECT_EQ(2u, stats.placement.prefetch_completed)
      << "f3 found no room, and a first-fit prefetch never evicts";
  EXPECT_EQ(0u, stats.placement.evictions);

  ReadAll(**monarch, "data/f1", 3);
  ReadAll(**monarch, "data/f2", 3);
  EXPECT_EQ(2u, monarch.value()->Stats().prefetch_hits);

  // The demand read of f3 evicts by LRU: f1 was read least recently,
  // though the schedule needs it next (Belady would drop f2).
  ReadAll(**monarch, "data/f3", 3);
  monarch.value()->DrainPlacements();
  const MetadataContainer& metadata = monarch.value()->metadata();
  EXPECT_TRUE(PfsOnly(*metadata.Lookup("data/f1")));
  EXPECT_TRUE(metadata.Lookup("data/f2")->Placed());
  EXPECT_TRUE(metadata.Lookup("data/f3")->Placed());
  EXPECT_EQ(1u, monarch.value()->Stats().placement.evictions);
}

// ---------------------------------------------------------------------------
// Joining an in-flight copy: a whole-file read bound for the PFS while a
// copy of the file is moving waits for the copy and serves from it.

constexpr std::size_t kJoinFileBytes = 4096;
constexpr std::size_t kJoinChunkBytes = 1024;

std::string JoinPayload(char seed) {
  std::string payload(kJoinFileBytes, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(seed + i % 23);
  }
  return payload;
}

/// One Monarch whose single cache tier is a GateEngine holding the first
/// write of one file, over a FaultyEngine (write failures, corrupt
/// read-backs) over memory. Two files: `data/target`, whose later chunks
/// are read while a copy of it is in flight, and `data/blocker`.
class StagingPipelineJoinTest : public ::testing::Test {
 protected:
  void Build(const std::string& gated, std::uint64_t quota = 1 << 20,
             PlacementPolicyPtr policy = nullptr,
             std::size_t blocker_bytes = kJoinFileBytes) {
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    ASSERT_OK(pfs_->Write("data/target", Bytes(target_)));
    ASSERT_OK(pfs_->Write("data/blocker",
                          Bytes(JoinPayload('b').substr(0, blocker_bytes))));
    faulty_ = std::make_shared<storage::FaultyEngine>(
        std::make_shared<storage::MemoryEngine>("local"),
        storage::FaultyEngine::FaultSpec{});
    gate_ = std::make_shared<GateEngine>(pack::ChunkObjectName(gated, 0),
                                         faulty_);
    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", gate_, quota});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    config.placement.num_threads = 1;
    config.policy = std::move(policy);
    config.resilience.retry.max_attempts = 1;
    auto monarch = Monarch::Create(std::move(config));
    ASSERT_OK(monarch);
    monarch_ = std::move(monarch).value();
  }

  /// A test that passed leaves its Monarch quiescent.
  void TearDown() override {
    if (monarch_ != nullptr && !HasFailure()) ExpectQuiescent(*monarch_);
  }

  /// The `kJoinChunkBytes` of `name` at `offset`.
  std::string ReadChunk(const std::string& name, std::uint64_t offset) {
    std::vector<std::byte> buf(kJoinChunkBytes);
    auto read = monarch_->Read(name, offset, buf);
    EXPECT_OK(read);
    buf.resize(read.value_or(0));
    return Text(buf);
  }

  /// Read a later chunk of the target on another thread — the read that
  /// joins the in-flight copy — and check it is waiting on that copy.
  void StartJoiner() {
    joiner_ = std::thread([this] {
      joined_bytes_ = ReadChunk("data/target", kJoinChunkBytes);
      joiner_done_.store(true);
    });
    const FileInfoPtr info = monarch_->metadata().Lookup("data/target");
    ASSERT_TRUE(info != nullptr);
    EXPECT_TRUE(AwaitJoiners(*info))
        << "a read bound for the PFS must wait for the copy in flight";
    EXPECT_TRUE(info->Has(FileInfo::kJoinable));
    EXPECT_FALSE(joiner_done_.load());
  }

  /// Wait for the joiner, check it got the right bytes, and let the
  /// copies (a failed one is re-tried by the joiner's read) settle.
  void FinishJoiner() {
    joiner_.join();
    EXPECT_EQ(target_.substr(kJoinChunkBytes, kJoinChunkBytes), joined_bytes_);
    monarch_->DrainPlacements();
    const FileInfoPtr info = monarch_->metadata().Lookup("data/target");
    ASSERT_TRUE(info != nullptr);
    EXPECT_FALSE(info->Has(FileInfo::kJoinable));
  }

  const std::string target_ = JoinPayload('t');
  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::shared_ptr<storage::FaultyEngine> faulty_;
  std::shared_ptr<GateEngine> gate_;
  std::unique_ptr<Monarch> monarch_;
  // After the Monarch: an early return frees the parked write first.
  GateRelease release_gate_{gate_};
  std::thread joiner_;
  std::atomic<bool> joiner_done_{false};
  std::string joined_bytes_;
};

TEST_F(StagingPipelineJoinTest, JoinerWakesOnPublishAndServesFromTier) {
  Build("data/target");
  // The open reads chunk 0 from the PFS and schedules the copy, which
  // the gate holds mid-flight.
  EXPECT_EQ(target_.substr(0, kJoinChunkBytes), ReadChunk("data/target", 0));
  gate_->AwaitBlocked();
  StartJoiner();
  gate_->ReleaseBlocked();
  FinishJoiner();

  const MonarchStats stats = monarch_->Stats();
  EXPECT_EQ(1u, stats.copy_joins);
  EXPECT_EQ(1u, stats.levels[0].reads) << "the joiner read the published copy";
  EXPECT_EQ(1u, stats.deposit_hits)
      << "from the deposit its copy kept for it, not from the tier";
  EXPECT_EQ(1u, faulty_->Stats().Snapshot().read_ops)
      << "the copy's read-back is the tier's only read";
  EXPECT_EQ(1u, stats.pfs_reads()) << "only the open touched the PFS";
}

TEST_F(StagingPipelineJoinTest, JoinerWakesOnCopyWriteFailureToPfs) {
  Build("data/target");
  EXPECT_EQ(target_.substr(0, kJoinChunkBytes), ReadChunk("data/target", 0));
  gate_->AwaitBlocked();
  StartJoiner();
  faulty_->FailNextWrites(1);  // the held write fails once released
  gate_->ReleaseBlocked();
  FinishJoiner();

  const MonarchStats stats = monarch_->Stats();
  EXPECT_EQ(0u, stats.copy_joins);
  EXPECT_EQ(2u, stats.pfs_reads()) << "the failed copy sends the joiner on";
  EXPECT_GE(stats.placement.failed, 1u);
}

TEST_F(StagingPipelineJoinTest, JoinerWakesOnVerificationMismatchToPfs) {
  Build("data/target");  // verify_staged_writes is on by default
  EXPECT_EQ(target_.substr(0, kJoinChunkBytes), ReadChunk("data/target", 0));
  gate_->AwaitBlocked();
  StartJoiner();
  faulty_->CorruptNextReads(1);  // the copy's read-back
  gate_->ReleaseBlocked();
  FinishJoiner();

  const MonarchStats stats = monarch_->Stats();
  EXPECT_EQ(0u, stats.copy_joins);
  EXPECT_EQ(2u, stats.pfs_reads());
  EXPECT_GE(stats.placement.quarantined, 1u);
}

TEST_F(StagingPipelineJoinTest, JoinerWakesOnLruNoSpaceRefusalToPfs) {
  // The tier holds the 1 KiB blocker but never the 4 KiB target, even
  // after evicting everything.
  Build("data/blocker", /*quota=*/2048, MakeLruPolicy(),
        /*blocker_bytes=*/kJoinChunkBytes);
  EXPECT_EQ(JoinPayload('b').substr(0, kJoinChunkBytes),
            ReadChunk("data/blocker", 0));
  gate_->AwaitBlocked();  // the only worker is held
  // The target's demand copy queues behind it; the joiner waits on it.
  EXPECT_EQ(target_.substr(0, kJoinChunkBytes), ReadChunk("data/target", 0));
  StartJoiner();
  gate_->ReleaseBlocked();
  FinishJoiner();

  const MonarchStats stats = monarch_->Stats();
  EXPECT_EQ(0u, stats.copy_joins);
  EXPECT_EQ(1u, stats.placement.rejected_no_space);
  const FileInfoPtr info = monarch_->metadata().Lookup("data/target");
  ASSERT_TRUE(info != nullptr);
  EXPECT_TRUE(info->Has(FileInfo::kStageRefused));
}

TEST_F(StagingPipelineJoinTest, JoinerWakesAcrossShutdownWithQueuedCopy) {
  Build("data/blocker");
  EXPECT_EQ(JoinPayload('b').substr(0, kJoinChunkBytes),
            ReadChunk("data/blocker", 0));
  gate_->AwaitBlocked();
  EXPECT_EQ(target_.substr(0, kJoinChunkBytes), ReadChunk("data/target", 0));
  StartJoiner();
  // Stop and shut down while the target's demand copy is still queued:
  // demand work survives the stop, runs once the worker is free, and
  // its exit wakes the joiner.
  monarch_->StopPlacement();
  std::thread shutdown([this] { monarch_->Shutdown(); });
  gate_->ReleaseBlocked();
  shutdown.join();
  FinishJoiner();
  EXPECT_EQ(1u, monarch_->Stats().copy_joins);
}

TEST_F(StagingPipelineJoinTest, ColdChunkedReadCostsTwoPfsReads) {
  Build("data/target");
  const auto before = pfs_->Stats().Snapshot();
  std::string whole;
  std::thread reader([&] {
    for (std::uint64_t offset = 0; offset < kJoinFileBytes;
         offset += kJoinChunkBytes) {
      whole += ReadChunk("data/target", offset);
    }
  });
  // Hold the copy until the next read waits on it.
  gate_->AwaitBlocked();
  EXPECT_TRUE(AwaitJoiners(*monarch_->metadata().Lookup("data/target")));
  gate_->ReleaseBlocked();
  reader.join();
  monarch_->DrainPlacements();

  EXPECT_EQ(target_, whole);
  // The open's chunk, then the copy of the remainder — the other chunks
  // join the copy instead of re-reading the file, and are served from
  // the deposit it kept for them: the tier is read once, by the copy's
  // read-back.
  EXPECT_EQ(2u, (pfs_->Stats().Snapshot() - before).read_ops);
  EXPECT_EQ(1u, monarch_->Stats().copy_joins);
  EXPECT_EQ(kJoinFileBytes / kJoinChunkBytes - 1,
            monarch_->Stats().deposit_hits);
  EXPECT_EQ(1u, faulty_->Stats().Snapshot().read_ops);
}

}  // namespace
}  // namespace monarch::core
