// Eviction-correctness tests for the ISSUE 6 placement policies: the
// ranking rules (LRU, hotspot decay), the run schedule (RunSchedule*:
// its clock, look-ahead window and Belady ordering) and the handler-side
// mechanics they plug into (read pins, schedule-ranked eviction on both
// lanes, peer-directory notifications, dynamic headroom after refusals).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "../test_support.h"
#include "stage_file.h"
#include "cluster/peer_group.h"
#include "core/metadata_container.h"
#include "core/placement_handler.h"
#include "core/placement_policy.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;

// ---------------------------------------------------------------------
// Policy-level: victim ranking rules, no handler involved.
// ---------------------------------------------------------------------

class EvictionPolicyTest : public ::testing::Test {
 protected:
  /// Register a file and mark it placed on level 0.
  FileInfoPtr Placed(const std::string& name, std::uint64_t last_access = 0) {
    metadata_.Register(name, 16);
    FileInfoPtr info = metadata_.Lookup(name);
    info->EnsureChunkMap(16)->AssignTier(0);
    info->state.store(PlacementState::kPlaced);
    info->last_access.store(last_access);
    return info;
  }

  /// Register a PFS-only file (an eviction's "incoming" side).
  FileInfoPtr Incoming(const std::string& name) {
    metadata_.Register(name, 16);
    return metadata_.Lookup(name);
  }

  static std::vector<std::string> Names(const std::vector<FileInfoPtr>& v) {
    std::vector<std::string> names;
    for (const auto& f : v) names.push_back(f->name);
    return names;
  }

  MetadataContainer metadata_;
};

TEST_F(EvictionPolicyTest, FactoryKnowsEveryPolicyAndRejectsTypos) {
  for (const auto& [name, evicts] : std::vector<std::pair<std::string, bool>>{
           {"first-fit", false},
           {"lru", true},
           {"hotspot", true}}) {
    auto policy = MakePlacementPolicyByName(name);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ((*policy)->Name(), name);
    EXPECT_EQ((*policy)->EvictsUnderPressure(), evicts) << name;
  }
  // "" means "the default" for configs that never set the key.
  ASSERT_TRUE(MakePlacementPolicyByName("").ok());
  EXPECT_EQ((*MakePlacementPolicyByName(""))->Name(), "first-fit");
  EXPECT_FALSE(MakePlacementPolicyByName("belady").ok());
  EXPECT_FALSE(MakePlacementPolicyByName("LRU").ok()) << "names are exact";
  // The removed Belady policy points its users at the replacement.
  const auto removed = MakePlacementPolicyByName("clairvoyant");
  ASSERT_FALSE(removed.ok());
  EXPECT_NE(removed.status().message().find("'lru'"), std::string::npos)
      << removed.status();
}

TEST_F(EvictionPolicyTest, LruRanksOldestAccessFirst) {
  Placed("a", /*last_access=*/30);
  Placed("b", /*last_access=*/10);
  Placed("c", /*last_access=*/20);
  auto incoming = Incoming("d");
  LruPolicy lru;
  EXPECT_EQ(Names(lru.SelectVictims(metadata_, *incoming)),
            (std::vector<std::string>{"b", "c", "a"}));
  // The incoming file itself is never its own victim.
  auto self = Placed("e", 1);
  const auto victims = Names(lru.SelectVictims(metadata_, *self));
  EXPECT_EQ(std::count(victims.begin(), victims.end(), "e"), 0);
}

TEST_F(EvictionPolicyTest, HotspotDecayHalvesCountsAndEvictsColdestFirst) {
  HotspotPolicy policy(/*decay_interval=*/8);
  auto hot = Placed("hot");
  auto cold = Placed("cold");
  for (int i = 0; i < 6; ++i) policy.OnAccess(*hot);
  policy.OnAccess(*cold);
  EXPECT_EQ(policy.FrequencyOf("hot"), 6u);
  EXPECT_EQ(policy.FrequencyOf("cold"), 1u);

  auto incoming = Incoming("new");
  auto victims = Names(policy.SelectVictims(metadata_, *incoming));
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims.front(), "cold");

  // The 8th access triggers the dm-cache halving; zeroed buckets drop.
  policy.OnAccess(*hot);
  EXPECT_EQ(policy.FrequencyOf("hot"), 3u);
  EXPECT_EQ(policy.FrequencyOf("cold"), 0u);
}

// ---------------------------------------------------------------------
// RunSchedule: the published run order — its clock, its look-ahead
// window and its Belady ranking (after Dryden et al.'s clairvoyant
// prefetcher).
// ---------------------------------------------------------------------

class RunScheduleTest : public EvictionPolicyTest {};

TEST_F(RunScheduleTest, TracksScheduleClockAndNextAccess) {
  RunSchedule schedule;
  EXPECT_EQ(schedule.length(), 0u) << "nothing installed yet";
  schedule.Install({"a", "b", "a", "c"});
  EXPECT_EQ(schedule.length(), 4u);
  EXPECT_EQ(schedule.clock(), 0u);
  ASSERT_TRUE(schedule.NextAccessOf("a").has_value());
  EXPECT_EQ(*schedule.NextAccessOf("a"), 0u);
  EXPECT_EQ(*schedule.NextAccessOf("b"), 1u);
  EXPECT_FALSE(schedule.NextAccessOf("never-named").has_value());

  schedule.NoteAccess("a");
  EXPECT_EQ(schedule.clock(), 1u);
  EXPECT_EQ(*schedule.NextAccessOf("a"), 2u);
  schedule.NoteAccess("b");
  schedule.NoteAccess("a");
  EXPECT_EQ(schedule.clock(), 3u);
  EXPECT_FALSE(schedule.NextAccessOf("a").has_value())
      << "both occurrences consumed";

  // Reinstalling a schedule resets the clock and the consumed history.
  schedule.Install({"b", "a"});
  EXPECT_EQ(schedule.clock(), 0u);
  EXPECT_EQ(*schedule.NextAccessOf("a"), 1u);
}

TEST_F(RunScheduleTest, LateVisitConsumesItsOwnPosition) {
  // Two readers: "y" (position 1) is opened before "x" (position 0).
  // The clock passes x's position, but x's late visit must consume that
  // position, not its next epoch's, or the clock would jump an epoch.
  RunSchedule schedule;
  schedule.Install({"x", "y", "z", "w", "x", "y", "z", "w"});
  schedule.NoteAccess("y");
  EXPECT_EQ(schedule.clock(), 2u);
  EXPECT_EQ(*schedule.NextAccessOf("x"), 0u) << "late, so needed now";
  schedule.NoteAccess("x");
  EXPECT_EQ(schedule.clock(), 2u);
  EXPECT_EQ(*schedule.NextAccessOf("x"), 4u);

  // A visit that never came ("z" at 2) is dropped once the file's next
  // position lies closer to the clock than the missed one.
  schedule.NoteAccess("w");
  EXPECT_EQ(*schedule.NextAccessOf("z"), 2u);
  schedule.NoteAccess("x");
  schedule.NoteAccess("y");
  EXPECT_EQ(schedule.clock(), 6u);
  EXPECT_EQ(*schedule.NextAccessOf("z"), 6u);
}

TEST_F(RunScheduleTest, EvictsFarthestNextAccess) {
  Placed("soon");
  Placed("later");
  Placed("farthest");
  Placed("one-shot");
  auto incoming = Incoming("incoming");
  RunSchedule schedule;
  schedule.Install({"one-shot", "incoming", "soon", "later", "farthest"});
  schedule.NoteAccess("one-shot");
  const auto victims = schedule.SelectVictims(metadata_, *incoming, true);
  ASSERT_TRUE(victims.has_value());
  // Belady: a file never named again goes first, then farthest next use;
  // the demand lane may take any of them (the handler stops once space
  // suffices).
  EXPECT_EQ(Names(*victims),
            (std::vector<std::string>{"one-shot", "farthest", "later", "soon"}));
}

TEST_F(RunScheduleTest, ProtectsSoonerNeededResidents) {
  // The resident is needed BEFORE the prefetched file: evicting it would
  // trade a near hit for a far one, so the eviction is refused.
  Placed("resident");
  Placed("after");
  auto incoming = Incoming("incoming");
  RunSchedule schedule;
  schedule.Install({"filler", "resident", "incoming", "after"});
  EXPECT_EQ(Names(*schedule.SelectVictims(metadata_, *incoming, false)),
            std::vector<std::string>{"after"});

  // The same file being demand-read RIGHT NOW is worth "now": every
  // resident may yield.
  EXPECT_EQ(Names(*schedule.SelectVictims(metadata_, *incoming, true)),
            (std::vector<std::string>{"after", "resident"}));
}

TEST_F(RunScheduleTest, RefusesPrefetchOfNeverAgainFile) {
  Placed("resident");
  auto incoming = Incoming("one-shot");
  RunSchedule schedule;
  schedule.Install({"one-shot", "filler", "resident"});
  schedule.NoteAccess("one-shot");  // its only occurrence is consumed
  // A speculative prefetch of a never-again file cannot pay off.
  EXPECT_TRUE(schedule.SelectVictims(metadata_, *incoming, false)->empty());
  // But an active demand read of it still deserves the space.
  EXPECT_FALSE(schedule.SelectVictims(metadata_, *incoming, true)->empty());
}

TEST_F(RunScheduleTest, WithoutScheduleDegradesToLru) {
  Placed("old", /*last_access=*/1);
  Placed("new", /*last_access=*/2);
  auto incoming = Incoming("incoming");
  RunSchedule schedule;
  EXPECT_FALSE(schedule.SelectVictims(metadata_, *incoming, true).has_value());
  schedule.Install({});
  EXPECT_EQ(schedule.length(), 0u) << "an empty sequence uninstalls";
  LruPolicy lru;
  EXPECT_EQ(Names(lru.SelectVictims(metadata_, *incoming)),
            (std::vector<std::string>{"old", "new"}));
}

TEST_F(RunScheduleTest, TakeAheadHandsOutEachPositionOnce) {
  RunSchedule schedule;
  EXPECT_TRUE(schedule.TakeAhead(4).empty()) << "nothing installed yet";
  schedule.Install({"a", "b", "c", "a", "d"});
  EXPECT_EQ(schedule.TakeAhead(2), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(schedule.TakeAhead(2).empty())
      << "the window has not moved since";

  // The window follows the clock: one visit opens one more position,
  // and a visit that skips ahead opens everything up to its reach.
  schedule.NoteAccess("a");
  EXPECT_EQ(schedule.TakeAhead(2), std::vector<std::string>{"c"});
  schedule.NoteAccess("c");
  EXPECT_EQ(schedule.clock(), 3u);
  EXPECT_EQ(schedule.TakeAhead(2), (std::vector<std::string>{"a", "d"}))
      << "a name is handed out again at its next position";
  EXPECT_TRUE(schedule.TakeAhead(10).empty()) << "the schedule is spent";
}

TEST_F(RunScheduleTest, TakeAheadRestartsOnInstall) {
  RunSchedule schedule;
  schedule.Install({"a", "b", "c"});
  EXPECT_EQ(schedule.TakeAhead(8),
            (std::vector<std::string>{"a", "b", "c"}));
  schedule.Install({"c", "b"});
  EXPECT_EQ(schedule.TakeAhead(1), std::vector<std::string>{"c"});
  schedule.Install({});
  EXPECT_TRUE(schedule.TakeAhead(8).empty()) << "uninstalled";
}

// ---------------------------------------------------------------------
// Handler-level: pins, peer notifications, dynamic headroom.
// ---------------------------------------------------------------------

class EvictionHandlerTest : public ::testing::Test {
 protected:
  void Build(std::uint64_t quota, PlacementPolicyPtr policy,
             PeerViewPtr peer_view = nullptr,
             std::uint64_t staging_chunk_bytes = 0) {
    pfs_engine_ = std::make_shared<storage::MemoryEngine>("pfs");
    std::vector<StorageDriverPtr> drivers;
    tier_engine_ = std::make_shared<storage::MemoryEngine>("tier0");
    drivers.push_back(
        std::make_unique<StorageDriver>("tier0", tier_engine_, quota, false));
    drivers.push_back(
        std::make_unique<StorageDriver>("pfs", pfs_engine_, 0, true));
    hierarchy_ =
        std::move(StorageHierarchy::Create(std::move(drivers))).value();
    PlacementOptions options;
    options.num_threads = 2;
    if (staging_chunk_bytes > 0) {
      options.staging_chunk_bytes = staging_chunk_bytes;
    }
    handler_ = std::make_unique<PlacementHandler>(
        *hierarchy_, metadata_, std::move(policy), options,
        ResilienceOptions{}, std::move(peer_view));
  }

  FileInfoPtr AddPfsFile(const std::string& name, const std::string& data) {
    EXPECT_TRUE(pfs_engine_->Write(name, Bytes(data)).ok());
    metadata_.Register(name, data.size());
    return metadata_.Lookup(name);
  }

  /// Claim + demand-stage + drain.
  void Stage(const FileInfoPtr& file) {
    ASSERT_TRUE(StageFile(*handler_, file));
    handler_->Drain();
  }

  /// Claim + prefetch-stage + drain.
  void Prefetch(const FileInfoPtr& file) {
    ASSERT_TRUE(StageFile(*handler_, file, {}, StagingLane::kPrefetch));
    handler_->Drain();
  }

  storage::StorageEnginePtr pfs_engine_;
  storage::StorageEnginePtr tier_engine_;
  std::unique_ptr<StorageHierarchy> hierarchy_;
  MetadataContainer metadata_;
  std::unique_ptr<PlacementHandler> handler_;
};

TEST_F(EvictionHandlerTest, ReadPinBlocksEvictionUntilReleased) {
  Build(/*quota=*/15, MakeLruPolicy());
  auto f1 = AddPfsFile("f1", "0123456789");
  f1->last_access.store(1);
  Stage(f1);
  ASSERT_EQ(PlacementState::kPlaced, f1->state.load());

  // A demand read is mid-flight on f1's staged copy.
  f1->read_pins.fetch_add(1);

  auto f2 = AddPfsFile("f2", "0123456789");
  f2->last_access.store(2);
  Stage(f2);

  // The only victim was pinned: f1 survives with its copy intact, f2
  // bounces as retryable (not unplaceable) with stage_refused latched.
  EXPECT_EQ(PlacementState::kPlaced, f1->state.load());
  EXPECT_EQ(0, f1->chunk_map()->tier());
  EXPECT_EQ(PlacementState::kPfsOnly, f2->state.load());
  EXPECT_TRUE(f2->stage_refused.load());
  const auto stats = handler_->Stats();
  EXPECT_EQ(0u, stats.evictions);
  EXPECT_GE(stats.eviction_pinned_skips, 1u);
  EXPECT_GE(stats.eviction_refused, 1u);
  std::vector<std::byte> buf(10);
  EXPECT_TRUE(tier_engine_->Read("f1#c0", 0, buf).ok())
      << "the pinned copy's bytes must still be on the tier";

  // The pin is released (the read finished): now the eviction goes
  // through. The next visit's offset-0 read re-arms stage_refused; the
  // handler-level equivalent is clearing it before re-claiming.
  f1->read_pins.fetch_sub(1);
  f2->stage_refused.store(false);
  Stage(f2);
  EXPECT_EQ(PlacementState::kPlaced, f2->state.load());
  EXPECT_EQ(PlacementState::kPfsOnly, f1->state.load());
  EXPECT_EQ(1u, handler_->Stats().evictions);
}

TEST_F(EvictionHandlerTest, DynamicHeadroomAfterRefusal) {
  // Regression for the free-space-only-grows assumption: under an
  // eviction-capable policy a no-space rejection must stay retryable,
  // because headroom is dynamic — the same file can fit later once an
  // eviction frees room. (Under first-fit the same rejection is
  // terminal: kUnplaceable.)
  Build(/*quota=*/15, MakeLruPolicy());
  auto resident = AddPfsFile("resident", "0123456789");
  Stage(resident);
  ASSERT_EQ(PlacementState::kPlaced, resident->state.load());

  // The schedule says the resident is needed before "blocked" is ever
  // read, so a prefetch of "blocked" may not displace it.
  auto blocked = AddPfsFile("blocked", "0123456789");
  handler_->InstallSchedule({"resident", "blocked"});
  Prefetch(blocked);
  EXPECT_EQ(PlacementState::kPfsOnly, blocked->state.load())
      << "refusal must leave the file retryable, not unplaceable";
  EXPECT_GE(handler_->Stats().eviction_refused, 1u);

  // The schedule advances past the resident's last access: now the same
  // incoming file wins and the previously-refused placement succeeds.
  handler_->NoteAccess(*resident);
  Prefetch(blocked);
  EXPECT_EQ(PlacementState::kPlaced, blocked->state.load());
  EXPECT_EQ(PlacementState::kPfsOnly, resident->state.load());
  EXPECT_EQ(1u, handler_->Stats().evictions);
  EXPECT_EQ(10u, hierarchy_->Level(0).occupancy_bytes())
      << "evicted quota must be released, placed quota reserved";
}

TEST_F(EvictionHandlerTest, ScheduledLruEvictsFarthestNextUse) {
  // With a published schedule an lru handler ranks by next use, not by
  // recency: "recent" was read last but is not needed again until after
  // "stale", so it is the one that yields.
  Build(/*quota=*/25, MakeLruPolicy());
  auto stale = AddPfsFile("stale", "0123456789");
  stale->last_access.store(1);
  Stage(stale);
  auto recent = AddPfsFile("recent", "0123456789");
  recent->last_access.store(2);
  Stage(recent);
  handler_->InstallSchedule({"incoming", "stale", "recent"});
  EXPECT_EQ("schedule (clock 0 of 3 accesses)", handler_->EvictionRanking());

  auto incoming = AddPfsFile("incoming", "0123456789");
  handler_->NoteAccess(*incoming);
  EXPECT_EQ("schedule (clock 1 of 3 accesses)", handler_->EvictionRanking());
  Stage(incoming);
  EXPECT_EQ(PlacementState::kPlaced, incoming->state.load());
  EXPECT_EQ(PlacementState::kPlaced, stale->state.load())
      << "the least recent file is needed soonest and must stay";
  EXPECT_EQ(PlacementState::kPfsOnly, recent->state.load());
}

TEST_F(EvictionHandlerTest, ScheduledPrefetchMayEvictUnderLru) {
  Build(/*quota=*/15, MakeLruPolicy());
  EXPECT_EQ("policy (lru)", handler_->EvictionRanking());
  auto resident = AddPfsFile("resident", "0123456789");
  Stage(resident);
  auto wanted = AddPfsFile("wanted", "0123456789");

  // Without a schedule a prefetch is a guess and may not evict.
  Prefetch(wanted);
  EXPECT_EQ(PlacementState::kPfsOnly, wanted->state.load());
  EXPECT_EQ(PlacementState::kPlaced, resident->state.load());

  // With one, "wanted" is a certain read ahead of the resident's next
  // use, so the prefetch lane takes its space.
  handler_->InstallSchedule({"wanted", "resident"});
  Prefetch(wanted);
  EXPECT_EQ(PlacementState::kPlaced, wanted->state.load());
  EXPECT_EQ(PlacementState::kPfsOnly, resident->state.load());
  EXPECT_EQ(1u, handler_->Stats().prefetch_completed);
}

TEST_F(EvictionHandlerTest, FirstFitIgnoresTheSchedule) {
  // A non-evicting policy never consults the schedule: it keeps ranking
  // by itself, and its prefetch lane never evicts.
  Build(/*quota=*/15, MakeFirstFitPolicy());
  auto resident = AddPfsFile("resident", "0123456789");
  Stage(resident);
  handler_->InstallSchedule({"wanted", "resident"});
  EXPECT_EQ("policy (first-fit)", handler_->EvictionRanking());
  auto wanted = AddPfsFile("wanted", "0123456789");
  Prefetch(wanted);
  EXPECT_EQ(PlacementState::kPfsOnly, wanted->state.load());
  EXPECT_EQ(PlacementState::kPlaced, resident->state.load());
}

TEST_F(EvictionHandlerTest, EvictionsCountOneEventPerFileDropped) {
  // Three-chunk files: an eviction drops every run of its victim, and
  // counts one eviction per file, not per run.
  Build(/*quota=*/30, MakeLruPolicy(), nullptr, /*staging_chunk_bytes=*/4);
  std::vector<FileInfoPtr> files;
  for (int i = 0; i < 5; ++i) {
    files.push_back(AddPfsFile("f" + std::to_string(i), "0123456789"));
    files.back()->last_access.store(static_cast<std::uint64_t>(i + 1));
    Stage(files.back());
  }
  const auto stats = handler_->Stats();
  EXPECT_EQ(2u, stats.evictions) << "f0 and f1 made room for f3 and f4";
  EXPECT_EQ(6u, stats.chunks_evicted);
  EXPECT_EQ(20u, stats.evicted_bytes);
  EXPECT_EQ(15u, stats.chunks_copied) << "one run object per chunk";
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(i < 2 ? PlacementState::kPfsOnly : PlacementState::kPlaced,
              files[static_cast<std::size_t>(i)]->state.load())
        << i;
  }
  EXPECT_EQ(30u, hierarchy_->Level(0).occupancy_bytes());
}

TEST_F(EvictionHandlerTest, EvictionNotifiesPeerDirectory) {
  // A cooperatively-cached node must stop advertising an evicted copy:
  // the handler's OnDropped path ends in FileDirectory::MarkEvicted.
  cluster::PeerGroup group(2);
  group.RegisterNode(0, std::make_shared<storage::MemoryEngine>("n0"));
  group.RegisterNode(1, std::make_shared<storage::MemoryEngine>("n1"));
  Build(/*quota=*/15, MakeLruPolicy(), group.MakePeerView(0));

  auto f1 = AddPfsFile("data/f1", "0123456789");
  f1->last_access.store(1);
  Stage(f1);
  ASSERT_EQ(PlacementState::kPlaced, f1->state.load());
  EXPECT_TRUE(group.directory().PlacedHolder("data/f1", /*exclude_node=*/1)
                  .has_value())
      << "publishing must advertise the copy to peers";

  auto f2 = AddPfsFile("data/f2", "0123456789");
  f2->last_access.store(2);
  Stage(f2);
  ASSERT_EQ(PlacementState::kPfsOnly, f1->state.load());
  EXPECT_FALSE(group.directory().PlacedHolder("data/f1", /*exclude_node=*/1)
                   .has_value())
      << "eviction must retract the peer advertisement (MarkEvicted)";
  EXPECT_TRUE(group.directory().PlacedHolder("data/f2", /*exclude_node=*/1)
                  .has_value());
}

}  // namespace
}  // namespace monarch::core
