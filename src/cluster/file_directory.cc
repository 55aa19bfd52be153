#include "cluster/file_directory.h"

#include <algorithm>

#include "obs/event_tracer.h"
#include "obs/json.h"

namespace monarch::cluster {

namespace {

/// Virtual nodes per cluster member. Enough to spread shard boundaries
/// evenly for small clusters without making the ring search noticeable.
constexpr int kVirtualNodes = 64;

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

FileDirectory::FileDirectory(int num_nodes, int replication,
                             std::size_t shards,
                             const std::vector<int>& deferred_nodes)
    : num_nodes_(std::max(num_nodes, 1)),
      replication_(std::clamp(replication, 1, std::max(num_nodes, 1))),
      map_(shards) {
  vnode_points_.resize(static_cast<std::size_t>(num_nodes_));
  for (int node = 0; node < num_nodes_; ++node) {
    auto& points = vnode_points_[static_cast<std::size_t>(node)];
    points.reserve(kVirtualNodes);
    for (int replica = 0; replica < kVirtualNodes; ++replica) {
      const std::string key =
          "node-" + std::to_string(node) + "#" + std::to_string(replica);
      points.push_back(RingHash(key));
    }
  }

  auto initial = std::make_shared<Membership>();
  initial->version = 1;
  initial->state.assign(static_cast<std::size_t>(num_nodes_), NodeState::kUp);
  for (const int node : deferred_nodes) {
    if (node >= 0 && node < num_nodes_) {
      initial->state[static_cast<std::size_t>(node)] = NodeState::kAbsent;
    }
  }
  // A cluster with zero initial members is meaningless — keep node 0.
  if (std::none_of(initial->state.begin(), initial->state.end(),
                   [](NodeState s) { return s == NodeState::kUp; })) {
    initial->state[0] = NodeState::kUp;
  }
  initial->live_count = static_cast<int>(
      std::count(initial->state.begin(), initial->state.end(), NodeState::kUp));
  initial->ring = BuildRing(initial->state);
  membership_ = std::move(initial);

  remote_hits_.reserve(static_cast<std::size_t>(num_nodes_));
  for (int node = 0; node < num_nodes_; ++node) {
    remote_hits_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  lookups_ = registry.GetCounter(
      "cluster.directory.lookups", "ops",
      "remote-copy lookups against the cluster file directory");
  remote_hits_total_ = registry.GetCounter(
      "cluster.directory.remote_hits", "ops",
      "peer reads resolved to another node's staged copy");
  transitions_ = registry.GetCounter(
      "cluster.membership.transitions", "ops",
      "cluster membership transitions applied (up/down/join)");
  obs_source_ = registry.AddSource([this] {
    std::vector<obs::MetricSample> out;
    obs::MetricSample entries;
    entries.name = "cluster.directory.entries";
    entries.kind = obs::MetricKind::kGauge;
    entries.unit = "files";
    entries.gauge = static_cast<std::int64_t>(this->entries());
    entries.help = "files the cluster directory has seen placed";
    out.push_back(std::move(entries));
    obs::MetricSample placed;
    placed.name = "cluster.directory.placed";
    placed.kind = obs::MetricKind::kGauge;
    placed.unit = "copies";
    placed.gauge = static_cast<std::int64_t>(placed_copies());
    placed.help = "staged copies currently advertised across the cluster";
    out.push_back(std::move(placed));
    obs::MetricSample version;
    version.name = "cluster.membership.version";
    version.kind = obs::MetricKind::kGauge;
    version.unit = "version";
    version.gauge = static_cast<std::int64_t>(membership_version());
    version.help = "current cluster membership version";
    out.push_back(std::move(version));
    obs::MetricSample live;
    live.name = "cluster.membership.live_nodes";
    live.kind = obs::MetricKind::kGauge;
    live.unit = "nodes";
    live.gauge = live_nodes();
    live.help = "cluster members currently up";
    out.push_back(std::move(live));
    return out;
  });
}

std::uint64_t FileDirectory::RingHash(const std::string& key) {
  // FNV-1a 64-bit: stable across platforms, unlike std::hash.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

FileDirectory::MembershipPtr FileDirectory::membership() const {
  std::lock_guard lock(view_mu_);
  return membership_;
}

void FileDirectory::Publish(MembershipPtr next) {
  std::lock_guard lock(view_mu_);
  membership_ = std::move(next);
}

std::vector<std::pair<std::uint64_t, int>> FileDirectory::BuildRing(
    const std::vector<NodeState>& state) const {
  std::vector<std::pair<std::uint64_t, int>> ring;
  for (int node = 0; node < num_nodes_; ++node) {
    if (state[static_cast<std::size_t>(node)] == NodeState::kAbsent) continue;
    for (const std::uint64_t point :
         vnode_points_[static_cast<std::size_t>(node)]) {
      ring.emplace_back(point, node);
    }
  }
  std::sort(ring.begin(), ring.end());
  return ring;
}

std::vector<int> FileDirectory::OwnerNodesIn(const Membership& m,
                                             const std::string& name) const {
  std::vector<int> owners;
  if (m.ring.empty()) return owners;
  // Degenerate all-down cluster: walk ring order over the non-absent
  // members so PrimaryOwner stays defined (reads degrade to the PFS
  // anyway — no live holder ever resolves).
  const bool live_only = m.live_count > 0;
  const int target =
      live_only ? std::min(replication_, m.live_count) : replication_;
  owners.reserve(static_cast<std::size_t>(target));
  const std::uint64_t point = RingHash(name);
  auto it = std::lower_bound(
      m.ring.begin(), m.ring.end(), point,
      [](const auto& entry, std::uint64_t p) { return entry.first < p; });
  // Walk the ring clockwise collecting distinct nodes; wraps at the end.
  for (std::size_t step = 0;
       step < m.ring.size() &&
       owners.size() < static_cast<std::size_t>(target);
       ++step, ++it) {
    if (it == m.ring.end()) it = m.ring.begin();
    if (live_only &&
        m.state[static_cast<std::size_t>(it->second)] != NodeState::kUp) {
      continue;
    }
    if (!Contains(owners, it->second)) owners.push_back(it->second);
  }
  return owners;
}

int FileDirectory::PrimaryOwner(const std::string& name) const {
  const std::vector<int> owners = OwnerNodes(name);
  return owners.empty() ? 0 : owners.front();
}

std::vector<int> FileDirectory::OwnerNodes(const std::string& name) const {
  const MembershipPtr m = membership();
  return OwnerNodesIn(*m, name);
}

bool FileDirectory::IsOwner(const std::string& name, int node) const {
  return Contains(OwnerNodes(name), node);
}

NodeState FileDirectory::StateOf(int node) const {
  if (node < 0 || node >= num_nodes_) return NodeState::kAbsent;
  const MembershipPtr m = membership();
  return m->state[static_cast<std::size_t>(node)];
}

std::uint64_t FileDirectory::membership_version() const {
  return membership()->version;
}

int FileDirectory::live_nodes() const { return membership()->live_count; }

MembershipDelta FileDirectory::NodeDown(int node) {
  std::lock_guard transition(transition_mu_);
  const MembershipPtr old_m = membership();
  if (node < 0 || node >= num_nodes_ ||
      old_m->state[static_cast<std::size_t>(node)] != NodeState::kUp) {
    return MembershipDelta{old_m->version, 0, {}, false};
  }
  auto next = std::make_shared<Membership>(*old_m);
  next->version = old_m->version + 1;
  next->state[static_cast<std::size_t>(node)] = NodeState::kDown;
  next->live_count = old_m->live_count - 1;
  // A down node keeps its vnodes (ownership walks *past* it), so the
  // ring is unchanged — only the state vector differs.
  return FinishTransition(old_m, std::move(next), node, "down", node);
}

MembershipDelta FileDirectory::NodeUp(int node) {
  std::lock_guard transition(transition_mu_);
  const MembershipPtr old_m = membership();
  if (node < 0 || node >= num_nodes_ ||
      old_m->state[static_cast<std::size_t>(node)] != NodeState::kDown) {
    return MembershipDelta{old_m->version, 0, {}, false};
  }
  auto next = std::make_shared<Membership>(*old_m);
  next->version = old_m->version + 1;
  next->state[static_cast<std::size_t>(node)] = NodeState::kUp;
  next->live_count = old_m->live_count + 1;
  return FinishTransition(old_m, std::move(next), -1, "up", node);
}

MembershipDelta FileDirectory::NodeJoin(int node) {
  std::lock_guard transition(transition_mu_);
  const MembershipPtr old_m = membership();
  if (node < 0 || node >= num_nodes_ ||
      old_m->state[static_cast<std::size_t>(node)] != NodeState::kAbsent) {
    return MembershipDelta{old_m->version, 0, {}, false};
  }
  auto next = std::make_shared<Membership>(*old_m);
  next->version = old_m->version + 1;
  next->state[static_cast<std::size_t>(node)] = NodeState::kUp;
  next->live_count = old_m->live_count + 1;
  next->ring = BuildRing(next->state);
  return FinishTransition(old_m, std::move(next), -1, "join", node);
}

MembershipDelta FileDirectory::FinishTransition(
    const MembershipPtr& old_m, std::shared_ptr<Membership> next,
    int retract_node, const char* kind, int node) {
  MembershipDelta delta;
  delta.version = next->version;
  delta.applied = true;
  // Publish FIRST: from this point no reader resolves a holder that the
  // new view says is dead — the atomic retraction the tentpole asks for.
  const MembershipPtr new_m = next;
  Publish(std::move(next));
  // Peers waiting on a copy re-check liveness: a downed copier no longer
  // holds them, a revived one does again.
  { std::lock_guard lock(copy_mu_); }
  copy_cv_.notify_all();

  // Ownership-delta scan: diff the owner set of every known file under
  // the old vs new view, physically retract the downed node's rows, and
  // collect a repair pair for every live owner missing a copy.
  struct Row {
    std::string name;
    std::vector<int> holders;
  };
  std::vector<Row> rows;
  rows.reserve(map_.Size());
  map_.ForEach([&rows](const std::string& name, const Entry& entry) {
    rows.push_back(Row{name, entry.holders});
  });

  std::vector<std::string> retracted;
  for (Row& row : rows) {
    if (retract_node >= 0 && Contains(row.holders, retract_node)) {
      retracted.push_back(row.name);
      std::erase(row.holders, retract_node);
    }
    const std::vector<int> old_owners = OwnerNodesIn(*old_m, row.name);
    const std::vector<int> new_owners = OwnerNodesIn(*new_m, row.name);
    const bool reowned = old_owners != new_owners;
    if (reowned) ++delta.files_reowned;

    int live_holders = 0;
    for (const int holder : row.holders) {
      if (new_m->state[static_cast<std::size_t>(holder)] == NodeState::kUp) {
        ++live_holders;
      }
    }
    const int target = std::min(replication_, std::max(new_m->live_count, 1));
    if (live_holders >= target && !reowned) continue;
    // Owners are distinct, so each (owner, file) pair appears once.
    for (const int owner : new_owners) {
      if (new_m->state[static_cast<std::size_t>(owner)] == NodeState::kUp &&
          !Contains(row.holders, owner)) {
        delta.repair.emplace_back(owner, row.name);
      }
    }
  }
  for (const std::string& name : retracted) {
    map_.Update(name, [retract_node](Entry& entry) {
      std::erase(entry.holders, retract_node);
    });
  }

  if (transitions_ != nullptr) transitions_->Increment();
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant(
        "membership.transition", "cluster",
        "\"kind\":" + obs::JsonQuote(kind) +
            ",\"node\":" + std::to_string(node) +
            ",\"version\":" + std::to_string(delta.version) +
            ",\"reowned\":" + std::to_string(delta.files_reowned) +
            ",\"restage\":" + std::to_string(delta.repair.size()));
  }
  return delta;
}

ReplicationHealth FileDirectory::CheckReplication() const {
  ReplicationHealth health;
  const MembershipPtr m = membership();
  const int target = std::min(replication_, std::max(m->live_count, 1));
  map_.ForEach([&](const std::string&, const Entry& entry) {
    ++health.files;
    int live_holders = 0;
    for (const int holder : entry.holders) {
      if (holder >= 0 && holder < num_nodes_ &&
          m->state[static_cast<std::size_t>(holder)] == NodeState::kUp) {
        ++live_holders;
      }
    }
    if (live_holders >= target) {
      ++health.at_target;
    } else {
      ++health.below_target;
      if (live_holders == 0) ++health.unhosted;
    }
  });
  return health;
}

void FileDirectory::MarkPlaced(const std::string& name, int node, int level) {
  map_.Insert(name, Entry{});
  map_.Update(name, [&](Entry& entry) {
    if (!Contains(entry.holders, node)) entry.holders.push_back(node);
    entry.level = level;
  });
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("directory.place", "cluster",
                         "\"file\":" + obs::JsonQuote(name) +
                             ",\"node\":" + std::to_string(node) +
                             ",\"level\":" + std::to_string(level));
  }
}

void FileDirectory::MarkEvicted(const std::string& name, int node) {
  const bool known = map_.Update(name, [&](Entry& entry) {
    entry.holders.erase(
        std::remove(entry.holders.begin(), entry.holders.end(), node),
        entry.holders.end());
  });
  if (!known) return;
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant("directory.evict", "cluster",
                         "\"file\":" + obs::JsonQuote(name) +
                             ",\"node\":" + std::to_string(node));
  }
}

std::vector<int> FileDirectory::PlacedHolders(const std::string& name,
                                              int exclude_node) const {
  if (lookups_ != nullptr) lookups_->Increment();
  std::vector<int> out;
  const std::optional<Entry> entry = map_.Find(name);
  if (!entry.has_value() || entry->holders.empty()) return out;
  const MembershipPtr m = membership();
  const auto is_live = [&](int node) {
    return node >= 0 && node < num_nodes_ &&
           m->state[static_cast<std::size_t>(node)] == NodeState::kUp;
  };
  // Prefer holders in ring order so replicated shards spread peer load
  // the same deterministic way staging spread the copies; only LIVE
  // holders are ever returned (a downed node's ads are ghosts).
  for (const int owner : OwnerNodesIn(*m, name)) {
    if (owner == exclude_node || !is_live(owner)) continue;
    if (Contains(entry->holders, owner)) out.push_back(owner);
  }
  for (const int holder : entry->holders) {
    if (holder == exclude_node || !is_live(holder)) continue;
    if (!Contains(out, holder)) out.push_back(holder);
  }
  return out;
}

std::optional<int> FileDirectory::PlacedHolder(const std::string& name,
                                               int exclude_node) const {
  const std::vector<int> holders = PlacedHolders(name, exclude_node);
  if (holders.empty()) return std::nullopt;
  return holders.front();
}

void FileDirectory::CountRemoteHit(int node) {
  if (node < 0 || node >= num_nodes_) return;
  remote_hits_[static_cast<std::size_t>(node)]->fetch_add(
      1, std::memory_order_relaxed);
  if (remote_hits_total_ != nullptr) remote_hits_total_->Increment();
}

void FileDirectory::BeginCopy(const std::string& name, int node) {
  if (node < 0 || node >= num_nodes_) return;
  std::lock_guard lock(copy_mu_);
  std::vector<int>& nodes = copying_[name];
  if (!Contains(nodes, node)) nodes.push_back(node);
}

void FileDirectory::EndCopy(const std::string& name, int node) {
  {
    std::lock_guard lock(copy_mu_);
    auto it = copying_.find(name);
    if (it == copying_.end()) return;
    std::erase(it->second, node);
    if (it->second.empty()) copying_.erase(it);
  }
  copy_cv_.notify_all();
}

bool FileDirectory::AwaitCopies(const std::string& name, int exclude_node) {
  std::unique_lock lock(copy_mu_);
  const auto copying = [&] {
    auto it = copying_.find(name);
    if (it == copying_.end()) return false;
    const MembershipPtr m = membership();
    return std::any_of(it->second.begin(), it->second.end(), [&](int node) {
      return node != exclude_node &&
             m->state[static_cast<std::size_t>(node)] == NodeState::kUp;
    });
  };
  if (!copying()) return false;
  copy_cv_.wait(lock, [&] { return !copying(); });
  return true;
}

std::uint64_t FileDirectory::entries() const { return map_.Size(); }

std::uint64_t FileDirectory::placed_copies() const {
  std::uint64_t total = 0;
  map_.ForEach([&total](const std::string&, const Entry& entry) {
    total += entry.holders.size();
  });
  return total;
}

DirectoryNodeStats FileDirectory::StatsFor(int node) const {
  DirectoryNodeStats stats;
  stats.node = node;
  if (node < 0 || node >= num_nodes_) return stats;
  stats.state = StateOf(node);
  stats.remote_hits = remote_hits_[static_cast<std::size_t>(node)]->load(
      std::memory_order_relaxed);
  map_.ForEach([&](const std::string& name, const Entry& entry) {
    if (PrimaryOwner(name) == node) ++stats.owned;
    if (Contains(entry.holders, node)) ++stats.placed;
  });
  return stats;
}

}  // namespace monarch::cluster
