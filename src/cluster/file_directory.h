// FileDirectory: the cluster-wide placement map behind cooperative peer
// caching (ISSUE 4), grown a versioned membership view (ISSUE 7). Every
// node runs its own Monarch instance; the directory is the piece they
// share. It answers three questions:
//
//   * ownership — which node is responsible for STAGING a file. Decided
//     by a consistent-hash vnode ring over the *live* membership, so each
//     node stages exactly its shard of the dataset and the aggregate PFS
//     staging traffic is the dataset once, not once per node. When a node
//     dies or joins, ownership walks past it and only ~1/N of the
//     namespace changes hands (consistent hashing).
//   * placement — which nodes currently HOLD a staged copy. Updated by
//     the placement callbacks (core/PeerView) as copies are published,
//     evicted, or quarantined, and consulted by the read path to route
//     demand reads across live holders before falling back to the PFS.
//   * joins — which nodes hold a copy still IN FLIGHT that a peer may
//     wait for instead of reading the file from the PFS itself. Waiters
//     ignore nodes that are not live, and membership changes wake them.
//   * repair — what must move to restore the replication factor after a
//     loss (or hand a shard to a joiner). Each membership transition
//     computes the ownership delta and returns its repair set: the
//     (node, file) pairs a live node now owns but holds no live copy of.
//     PeerGroup hands each pair to that node's staging queue on the
//     prefetch lane.
//
// Membership is a copy-on-write snapshot (ring + per-node state +
// version) swapped atomically on every NodeUp/NodeDown/NodeJoin: the
// instant a node is marked down, every reader's PlacedHolders() stops
// returning it — advertisements from a downed node are retracted
// atomically, readers never dial a ghost. The slower map scan that
// physically erases its holder rows and computes the repair set follows
// outside the readers' path.
//
// Built on util/ShardedMap: lookups from every node's reader threads and
// updates from every node's placement pool proceed under striped locks.
// Entries are never erased — an evicted file keeps its row with an empty
// holder list, which keeps Mark/lookup races benign.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "util/sharded_map.h"

namespace monarch::cluster {

/// Membership state of one cluster node.
enum class NodeState : std::uint8_t {
  kAbsent = 0,  ///< not yet joined (deferred member)
  kUp = 1,      ///< live: owns its shard, serves peer reads
  kDown = 2,    ///< failed: ownership walks past it, ads retracted
};

/// What one membership transition changed — returned by NodeUp/NodeDown/
/// NodeJoin so harnesses and tests can assert the consistent-hashing
/// property (only ~1/N of files re-owned) and the repair work created.
struct MembershipDelta {
  std::uint64_t version = 0;        ///< membership version after the change
  std::uint64_t files_reowned = 0;  ///< entries whose owner set changed
  /// (node, file): a live owner of the file holding no copy of it; each
  /// pair appears once.
  std::vector<std::pair<int, std::string>> repair;
  bool applied = false;             ///< false: invalid transition, no-op
};

/// Cluster-wide replication health: live staged copies per file vs the
/// effective target min(replication, live nodes).
struct ReplicationHealth {
  std::uint64_t files = 0;
  std::uint64_t at_target = 0;
  std::uint64_t below_target = 0;  ///< fewer live copies than target
  std::uint64_t unhosted = 0;      ///< no live copy at all (PFS only)
};

/// Per-node view of the directory for cluster results and tests: how
/// much of the namespace the node owns, how many copies it currently
/// holds, how often peers pulled from it, and its membership state.
struct DirectoryNodeStats {
  int node = 0;
  std::uint64_t owned = 0;        ///< entries whose primary owner is node
  std::uint64_t placed = 0;       ///< entries node currently holds
  std::uint64_t remote_hits = 0;  ///< peer reads served from node's copy
  NodeState state = NodeState::kUp;
};

class FileDirectory {
 public:
  /// `num_nodes` cluster members (node ids 0..num_nodes-1), each file
  /// owned by `replication` distinct live nodes (clamped to num_nodes),
  /// map striped over `shards` locks. Nodes listed in `deferred_nodes`
  /// start kAbsent (no vnodes) and enter the ring via NodeJoin() — at
  /// least one node always starts up.
  explicit FileDirectory(int num_nodes, int replication = 1,
                         std::size_t shards = 16,
                         const std::vector<int>& deferred_nodes = {});

  FileDirectory(const FileDirectory&) = delete;
  FileDirectory& operator=(const FileDirectory&) = delete;

  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] int replication() const noexcept { return replication_; }

  // ---- membership -------------------------------------------------------

  /// Mark `node` failed: bump the version (readers immediately stop
  /// resolving to it), retract its advertisements, recompute ownership,
  /// and return the repair set for files that lost a live owner/copy.
  MembershipDelta NodeDown(int node);

  /// A previously-down member returns. Its surviving local copies are NOT
  /// assumed: the node re-advertises them itself (MarkPlaced /
  /// Monarch::ReadvertisePlacedCopies) — ideally *before* NodeUp so the
  /// rejoin delta sees them and skips redundant repair work.
  MembershipDelta NodeUp(int node);

  /// A deferred member (kAbsent) joins the ring: its vnodes are added,
  /// ownership of ~1/N of files moves to it, and the handoff is its
  /// share of the repair set.
  MembershipDelta NodeJoin(int node);

  [[nodiscard]] NodeState StateOf(int node) const;
  [[nodiscard]] bool IsLive(int node) const {
    return StateOf(node) == NodeState::kUp;
  }
  /// Monotonic membership version (starts at 1, +1 per transition).
  [[nodiscard]] std::uint64_t membership_version() const;
  [[nodiscard]] int live_nodes() const;

  // ---- ownership --------------------------------------------------------

  /// The node responsible for staging `name` (first live owner on the
  /// ring; falls back to ring order over non-absent members if nothing is
  /// live so callers never see an empty cluster).
  [[nodiscard]] int PrimaryOwner(const std::string& name) const;

  /// The min(replication, live nodes) distinct live nodes that should
  /// stage `name`, primary first (ring walk order).
  [[nodiscard]] std::vector<int> OwnerNodes(const std::string& name) const;

  /// Whether `node` is one of OwnerNodes(name) — the staging gate each
  /// Monarch instance consults before claiming a file.
  [[nodiscard]] bool IsOwner(const std::string& name, int node) const;

  // ---- placement --------------------------------------------------------

  /// `node` published a readable copy of `name` on its tier `level`.
  void MarkPlaced(const std::string& name, int node, int level);

  /// `node` dropped its copy (eviction, quarantine, or cleanup).
  void MarkEvicted(const std::string& name, int node);

  /// Every LIVE node currently holding a staged copy of `name`, excluding
  /// `exclude_node` (the asker — its own copies are served locally).
  /// Owners come first in ring order, then other live holders; non-live
  /// holders are never returned. Empty when no live peer holds the file.
  [[nodiscard]] std::vector<int> PlacedHolders(const std::string& name,
                                               int exclude_node) const;

  /// First of PlacedHolders() — the ring-order-preferred live holder.
  [[nodiscard]] std::optional<int> PlacedHolder(const std::string& name,
                                                int exclude_node) const;

  /// Count one peer read served from `node`'s copy (resolver callback).
  void CountRemoteHit(int node);

  // ---- in-flight copies (joins) -----------------------------------------

  /// `node` began a joinable copy of `name` (queued demand or running).
  void BeginCopy(const std::string& name, int node);

  /// `node`'s joinable copy of `name` ended (published, failed, dropped).
  void EndCopy(const std::string& name, int node);

  /// Block while a live node other than `exclude_node` holds a joinable
  /// copy of `name`. True when it waited.
  bool AwaitCopies(const std::string& name, int exclude_node);

  // ---- stats ------------------------------------------------------------

  [[nodiscard]] ReplicationHealth CheckReplication() const;

  /// Files known to the directory (placed at least once).
  [[nodiscard]] std::uint64_t entries() const;
  /// Currently placed (name, node) pairs across the cluster.
  [[nodiscard]] std::uint64_t placed_copies() const;

  [[nodiscard]] DirectoryNodeStats StatsFor(int node) const;

 private:
  struct Entry {
    std::vector<int> holders;  ///< nodes with a readable copy, unordered
    int level = -1;            ///< tier level at the most recent placement
  };

  /// Copy-on-write membership snapshot: one atomic pointer swap makes a
  /// transition visible to every reader at once.
  struct Membership {
    std::uint64_t version = 1;
    std::vector<NodeState> state;  ///< indexed by node id
    /// Sorted (point, node) vnodes of every non-absent member; ownership
    /// walks it clockwise skipping kDown nodes.
    std::vector<std::pair<std::uint64_t, int>> ring;
    int live_count = 0;
  };
  using MembershipPtr = std::shared_ptr<const Membership>;

  /// Hash ring point for (node, replica) — stable FNV-1a, independent of
  /// std::hash so ownership is reproducible across runs and platforms.
  [[nodiscard]] static std::uint64_t RingHash(const std::string& key);

  [[nodiscard]] MembershipPtr membership() const;
  void Publish(MembershipPtr next);
  [[nodiscard]] std::vector<std::pair<std::uint64_t, int>> BuildRing(
      const std::vector<NodeState>& state) const;

  /// Owners of `name` under snapshot `m` (live-first walk; see
  /// PrimaryOwner for the all-down fallback).
  [[nodiscard]] std::vector<int> OwnerNodesIn(const Membership& m,
                                              const std::string& name) const;

  /// Shared transition tail: publish `next`, retract the ads of
  /// `retract_node` (or -1), diff ownership old vs new, collect repair.
  MembershipDelta FinishTransition(const MembershipPtr& old_m,
                                   std::shared_ptr<Membership> next,
                                   int retract_node, const char* kind,
                                   int node);

  const int num_nodes_;
  const int replication_;
  /// Precomputed vnode points per node (hash keys fixed at construction,
  /// so a node's vnodes land identically whenever it is in the ring).
  std::vector<std::vector<std::uint64_t>> vnode_points_;

  /// Serializes transitions (held across the ownership-delta scan).
  std::mutex transition_mu_;
  /// Guards the snapshot pointer only (swap/copy, never held long).
  mutable std::mutex view_mu_;
  MembershipPtr membership_;

  ShardedMap<std::string, Entry> map_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> remote_hits_;

  /// Joinable copies in flight: file -> nodes copying it. Waiters sleep
  /// on copy_cv_, woken by EndCopy and by every membership transition.
  std::mutex copy_mu_;
  std::condition_variable copy_cv_;
  std::unordered_map<std::string, std::vector<int>> copying_;

  // docs/OBSERVABILITY.md `cluster.directory.*` / `cluster.membership.*`.
  obs::Counter* lookups_ = nullptr;
  obs::Counter* remote_hits_total_ = nullptr;
  obs::Counter* transitions_ = nullptr;
  // Last member: the source callback reads map_ and membership_.
  obs::SourceRegistration obs_source_;
};

}  // namespace monarch::cluster
