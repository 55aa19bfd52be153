#include "core/placement_policy.h"

#include <algorithm>
#include <utility>

namespace monarch::core {

namespace {

/// Placed files with a live metadata entry, paired with a ranking key.
/// The shared scaffolding of every SelectVictims implementation.
template <typename KeyFn>
std::vector<FileInfoPtr> RankedPlacedFiles(const MetadataContainer& metadata,
                                           const FileInfo& incoming,
                                           KeyFn key, bool ascending) {
  struct Candidate {
    FileInfoPtr file;
    std::uint64_t key;
  };
  std::vector<Candidate> candidates;
  for (const auto& entry : metadata.Snapshot()) {
    if (entry.name == incoming.name) continue;
    FileInfoPtr info = metadata.Lookup(entry.name);
    if (!info || !info->Placed()) continue;
    const std::optional<std::uint64_t> k = key(*info);
    if (!k.has_value()) continue;  // the key fn vetoed this candidate
    candidates.push_back(Candidate{std::move(info), *k});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [ascending](const Candidate& a, const Candidate& b) {
                     return ascending ? a.key < b.key : a.key > b.key;
                   });
  std::vector<FileInfoPtr> out;
  out.reserve(candidates.size());
  for (Candidate& c : candidates) out.push_back(std::move(c.file));
  return out;
}

}  // namespace

std::vector<FileInfoPtr> PlacementPolicy::SelectVictims(
    const MetadataContainer& metadata, const FileInfo& incoming) {
  // LRU order: oldest access stamp first. This is both the LruPolicy
  // ranking and the default for the enable_eviction ablation.
  return RankedPlacedFiles(
      metadata, incoming,
      [](const FileInfo& f) -> std::optional<std::uint64_t> {
        return f.last_access.load(std::memory_order_relaxed);
      },
      /*ascending=*/true);
}

std::optional<int> FirstFitPolicy::PickLevel(StorageHierarchy& hierarchy,
                                             std::uint64_t bytes) {
  const int pfs = hierarchy.pfs_level();
  for (int level = 0; level < pfs; ++level) {
    if (hierarchy.Level(level).Reserve(bytes)) return level;
  }
  return std::nullopt;
}

HotspotPolicy::HotspotPolicy(std::uint64_t decay_interval)
    : decay_interval_(std::max<std::uint64_t>(1, decay_interval)) {}

void HotspotPolicy::OnAccess(const FileInfo& file) {
  std::lock_guard lock(mu_);
  ++frequency_[file.name];
  if (++accesses_since_decay_ < decay_interval_) return;
  // Periodic decay (dm-cache): halve every bucket so heat is recency-
  // weighted; buckets that reach zero are dropped to bound the map.
  accesses_since_decay_ = 0;
  for (auto it = frequency_.begin(); it != frequency_.end();) {
    it->second /= 2;
    it = it->second == 0 ? frequency_.erase(it) : std::next(it);
  }
}

std::uint64_t HotspotPolicy::FrequencyOf(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = frequency_.find(name);
  return it == frequency_.end() ? 0 : it->second;
}

std::vector<FileInfoPtr> HotspotPolicy::SelectVictims(
    const MetadataContainer& metadata, const FileInfo& incoming) {
  std::lock_guard lock(mu_);
  // Coldest first: lowest decayed count, ties broken by oldest access.
  // The count is packed into the key's high bits so one 64-bit sort key
  // expresses (frequency, recency); counts are capped accordingly.
  return RankedPlacedFiles(
      metadata, incoming,
      [this](const FileInfo& f) -> std::optional<std::uint64_t> {
        const auto it = frequency_.find(f.name);
        const std::uint64_t count =
            std::min<std::uint64_t>(it == frequency_.end() ? 0 : it->second,
                                    (1ull << 20) - 1);
        const std::uint64_t stamp =
            f.last_access.load(std::memory_order_relaxed) &
            ((1ull << 44) - 1);
        return (count << 44) | stamp;
      },
      /*ascending=*/true);
}

void RunSchedule::Install(const std::vector<std::string>& sequence) {
  std::lock_guard lock(mu_);
  positions_.clear();
  sequence_.clear();
  sequence_.reserve(sequence.size());
  clock_ = 0;
  taken_ = 0;
  for (std::uint64_t i = 0; i < sequence.size(); ++i) {
    const auto it = positions_.try_emplace(sequence[i]).first;
    it->second.push_back(i);
    sequence_.push_back(&it->first);
  }
}

std::uint64_t RunSchedule::NextAccessLocked(const std::string& name) const {
  const auto it = positions_.find(name);
  if (it == positions_.end()) return kNever;
  std::deque<std::uint64_t>& queue = it->second;
  // Reader threads interleave, so a pending position behind the clock is
  // usually a visit running late: it is needed now. It is a visit that
  // never came once the file's following position lies closer to the
  // clock; drop it then.
  while (queue.size() > 1 && queue.front() < clock_ &&
         (queue[1] <= clock_ || clock_ - queue.front() > queue[1] - clock_)) {
    queue.pop_front();
  }
  return queue.empty() ? kNever : queue.front();
}

void RunSchedule::NoteAccess(const std::string& name) {
  std::lock_guard lock(mu_);
  const std::uint64_t position = NextAccessLocked(name);
  if (position == kNever) return;
  positions_.find(name)->second.pop_front();
  clock_ = std::max(clock_, position + 1);
}

std::vector<std::string> RunSchedule::TakeAhead(std::uint64_t n) {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  for (const std::uint64_t end = std::min<std::uint64_t>(
           sequence_.size(), clock_ + n);
       taken_ < end; ++taken_) {
    names.push_back(*sequence_[taken_]);
  }
  return names;
}

std::uint64_t RunSchedule::clock() const {
  std::lock_guard lock(mu_);
  return clock_;
}

std::uint64_t RunSchedule::length() const {
  std::lock_guard lock(mu_);
  return sequence_.size();
}

std::optional<std::uint64_t> RunSchedule::NextAccessOf(
    const std::string& name) const {
  std::lock_guard lock(mu_);
  const std::uint64_t next = NextAccessLocked(name);
  if (next == kNever) return std::nullopt;
  return next;
}

std::optional<std::vector<FileInfoPtr>> RunSchedule::SelectVictims(
    const MetadataContainer& metadata, const FileInfo& incoming,
    bool incoming_active) const {
  std::lock_guard lock(mu_);
  if (sequence_.empty()) return std::nullopt;
  // The bar a victim's next use must clear: none for a demand staging,
  // whose read is running now; the prefetched file's own next access
  // otherwise.
  std::uint64_t bar = 0;
  if (!incoming_active) {
    bar = NextAccessLocked(incoming.name);
    if (bar == kNever) return std::vector<FileInfoPtr>{};
  }
  return RankedPlacedFiles(
      metadata, incoming,
      [this, bar, incoming_active](
          const FileInfo& f) -> std::optional<std::uint64_t> {
        const std::uint64_t next = NextAccessLocked(f.name);
        if (!incoming_active && next <= bar) return std::nullopt;
        return next;
      },
      /*ascending=*/false);
}

PlacementPolicyPtr MakeFirstFitPolicy() {
  return std::make_unique<FirstFitPolicy>();
}
PlacementPolicyPtr MakeLruPolicy() { return std::make_unique<LruPolicy>(); }
PlacementPolicyPtr MakeHotspotPolicy(std::uint64_t decay_interval) {
  return std::make_unique<HotspotPolicy>(decay_interval);
}

Result<PlacementPolicyPtr> MakePlacementPolicyByName(
    const std::string& name, const PlacementPolicyKnobs& knobs) {
  if (name.empty() || name == "first-fit") return MakeFirstFitPolicy();
  if (name == "lru") return MakeLruPolicy();
  if (name == "hotspot") {
    return MakeHotspotPolicy(knobs.hotspot_decay_interval);
  }
  if (name == "clairvoyant") {
    return InvalidArgumentError(
        "placement policy 'clairvoyant' was removed: every evicting policy "
        "ranks by the run schedule when one is published; use 'lru'");
  }
  return InvalidArgumentError(
      "unknown placement policy '" + name +
      "' (expected first-fit | lru | hotspot)");
}

}  // namespace monarch::core
