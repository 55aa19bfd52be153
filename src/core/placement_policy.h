// Placement policies: which writable level receives a fetched file, and
// — since ISSUE 6 — which placed files yield their space when a tier is
// full.
//
// The paper's policy (§III-A) is hierarchical first-fit: fill level 0
// until its capacity is reached, then level 1, ... until all local levels
// are full; never evict. That collapses on partial-fit datasets (fig4),
// so the interface now carries an eviction side too:
//
//   PickLevel        stage-in decision (reserves quota; race-free)
//   SelectVictims    evict-out decision: placed files to drop, best first
//   OnAccess         one demand access of a file (policy bookkeeping)
//
// Shipped policies (docs/PLACEMENT.md is the handbook):
//   first-fit  the paper's: fastest-tier-first, never evicts on its own
//   lru        first-fit staging + least-recently-accessed eviction
//   hotspot    first-fit staging + dm-cache-style decayed-frequency
//              eviction (cold files go first)
//
// When the trainer publishes the run's schedule, an evicting policy's
// handler ranks victims by RunSchedule (Belady) instead of the policy's
// SelectVictims, and look-ahead prefetch stages the files it names next.
//
// PickLevel both selects a level and reserves the quota on it (the
// reservation is the only way the decision can be made race-free under a
// concurrent thread pool); the caller must Release on failure. The
// eviction hooks are called by the PlacementHandler, which owns the
// claim/delete/notify mechanics — a policy only ranks candidates.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/metadata_container.h"
#include "core/storage_hierarchy.h"
#include "util/status.h"

namespace monarch::core {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Choose a writable level with room for `bytes` and reserve the quota.
  /// nullopt when no level can hold the file.
  virtual std::optional<int> PickLevel(StorageHierarchy& hierarchy,
                                       std::uint64_t bytes) = 0;

  [[nodiscard]] virtual std::string Name() const = 0;

  /// Whether the DEMAND lane may evict placed files when PickLevel finds
  /// no room. The paper's policies answer no (never evict); lru and
  /// hotspot answer yes.
  [[nodiscard]] virtual bool EvictsUnderPressure() const { return false; }

  /// One demand access of `file` (the read path calls this once per file
  /// visit, not per chunk). Default: ignored — FileInfo::last_access is
  /// maintained by the read path regardless.
  virtual void OnAccess(const FileInfo& /*file*/) {}

  /// Rank placed files other than `incoming` as eviction candidates,
  /// best victim first. May return files the caller cannot claim (lost
  /// races, pinned reads): the caller walks the list until enough space
  /// is free. The default is LRU order, so any policy combined with the
  /// `enable_eviction` ablation keeps the pre-ISSUE-6 behaviour.
  virtual std::vector<FileInfoPtr> SelectVictims(
      const MetadataContainer& metadata, const FileInfo& incoming);
};

using PlacementPolicyPtr = std::unique_ptr<PlacementPolicy>;

/// The paper's policy: descend from level 0, take the first tier that has
/// room.
class FirstFitPolicy : public PlacementPolicy {
 public:
  std::optional<int> PickLevel(StorageHierarchy& hierarchy,
                               std::uint64_t bytes) override;
  [[nodiscard]] std::string Name() const override { return "first-fit"; }
};

/// First-fit staging plus least-recently-accessed eviction: the
/// schedule-free baseline. Under uniform-random per-epoch access LRU
/// approximates FIFO and churns (the paper's "I/O trashing" argument),
/// which is exactly what the fig4 policy sweep quantifies.
class LruPolicy final : public FirstFitPolicy {
 public:
  [[nodiscard]] std::string Name() const override { return "lru"; }
  [[nodiscard]] bool EvictsUnderPressure() const override { return true; }
  // SelectVictims: the base-class LRU ranking.
};

/// First-fit staging plus dm-cache-style hot-spot eviction: per-file
/// access counts, halved every `decay_interval` accesses so stale heat
/// drains away; the coldest (lowest count, oldest access) files go first.
class HotspotPolicy final : public FirstFitPolicy {
 public:
  explicit HotspotPolicy(std::uint64_t decay_interval = 256);

  [[nodiscard]] std::string Name() const override { return "hotspot"; }
  [[nodiscard]] bool EvictsUnderPressure() const override { return true; }
  void OnAccess(const FileInfo& file) override;
  std::vector<FileInfoPtr> SelectVictims(const MetadataContainer& metadata,
                                         const FileInfo& incoming) override;

  /// Current decayed access count of `name` (tests).
  [[nodiscard]] std::uint64_t FrequencyOf(const std::string& name) const;

 private:
  const std::uint64_t decay_interval_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::uint64_t> frequency_;  ///< under mu_
  std::uint64_t accesses_since_decay_ = 0;                    ///< under mu_
};

/// The run's published demand access order (Monarch::InstallRunSchedule:
/// every epoch's shuffled file list, concatenated), owned by the
/// PlacementHandler — the one source of "what is read next". Install
/// records each file's schedule positions, NoteAccess consumes one per
/// file visit and advances the access clock, TakeAhead hands the
/// look-ahead window to prefetch, and SelectVictims ranks placed files
/// the Belady way: farthest next use first. Thread-safe.
class RunSchedule {
 public:
  /// Replace the schedule and restart the clock and the look-ahead
  /// window; an empty sequence uninstalls it.
  void Install(const std::vector<std::string>& sequence);
  /// One demand visit of `name`: consume its pending position and move
  /// the clock past it.
  void NoteAccess(const std::string& name);
  /// The names at the positions not yet handed out, up to (excluding)
  /// `clock + n`; each position is handed out once per Install. The
  /// window runs on across epoch boundaries.
  [[nodiscard]] std::vector<std::string> TakeAhead(std::uint64_t n);

  /// Schedule positions consumed so far (the clock) and in total; a
  /// length of 0 means no schedule is installed.
  [[nodiscard]] std::uint64_t clock() const;
  [[nodiscard]] std::uint64_t length() const;
  /// Position of `name`'s next pending access, or nullopt when the
  /// schedule never (again) names it.
  [[nodiscard]] std::optional<std::uint64_t> NextAccessOf(
      const std::string& name) const;

  /// Placed files other than `incoming`, farthest next use first and
  /// never-again files ahead of all. A demand staging (`incoming_active`:
  /// its read is running now) may take any of them. A prefetch only
  /// those needed later than its own next access, and none at all when
  /// the schedule never names it again. nullopt when no schedule is
  /// installed: the caller ranks by its policy instead.
  [[nodiscard]] std::optional<std::vector<FileInfoPtr>> SelectVictims(
      const MetadataContainer& metadata, const FileInfo& incoming,
      bool incoming_active) const;

 private:
  /// Next pending position of `name`, `kNever` when none. Caller holds
  /// mu_.
  std::uint64_t NextAccessLocked(const std::string& name) const;

  static constexpr std::uint64_t kNever = ~0ull;

  mutable std::mutex mu_;
  /// Per-file pending schedule positions, ascending. Under mu_.
  mutable std::unordered_map<std::string, std::deque<std::uint64_t>>
      positions_;
  /// The sequence itself, as pointers to positions_' keys (stable: map
  /// nodes are only freed by Install). Under mu_.
  std::vector<const std::string*> sequence_;
  std::uint64_t clock_ = 0;  ///< under mu_
  std::uint64_t taken_ = 0;  ///< under mu_; first position not handed out
};

PlacementPolicyPtr MakeFirstFitPolicy();
PlacementPolicyPtr MakeLruPolicy();
PlacementPolicyPtr MakeHotspotPolicy(std::uint64_t decay_interval = 256);

/// Per-policy tuning knobs (`[placement]` INI section; docs/CONFIG.md).
struct PlacementPolicyKnobs {
  std::uint64_t hotspot_decay_interval = 256;
};

/// Construct a policy from its config name: first-fit | lru | hotspot.
/// Unknown names are errors (config typos fail before a multi-hour job
/// starts).
Result<PlacementPolicyPtr> MakePlacementPolicyByName(
    const std::string& name, const PlacementPolicyKnobs& knobs = {});

}  // namespace monarch::core
