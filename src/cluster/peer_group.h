// PeerGroup: per-cluster wiring for cooperative peer caching (ISSUE 4)
// and the churn-survival machinery on top of it (ISSUE 7).
//
// One PeerGroup represents the set of nodes sharing their local tiers.
// It owns the cluster FileDirectory and the simulated interconnect
// (net/NetworkModel, one shared token bucket — concurrent peer transfers
// contend for the same fabric), and hands each node the two objects its
// Monarch instance needs:
//
//   * MakePeerEngine(node) — a net/PeerEngine whose resolver picks a
//     LIVE holder from the directory (excluding the node itself) by
//     power-of-two-choices on per-holder in-flight transfers, skips
//     holders quarantined after consecutive failures, and serves the
//     read from that holder's registered local engine through the
//     network model. Plug it in as MonarchConfig::peer_tier.
//   * MakePeerView(node)   — the core/PeerView gluing the node's
//     placement callbacks and staging gate to the directory. Plug it in
//     as MonarchConfig::peer_view. Through it each node's Monarch also
//     registers its stage entry, so a non-owner about to read a cold
//     file asks the owner to stage it and joins that copy instead of
//     pulling the file from the PFS a second time.
//
// Churn control (ISSUE 7): KillNode/ReviveNode/JoinNode drive the
// directory's membership AND the fabric's reachability together, so a
// killed node both disappears from holder resolution and times out any
// RPC that races the membership change. Each then repairs: every
// (node, file) pair of the transition's repair set goes to that node's
// stage entry on the PREFETCH lane, on the calling thread. The staging
// queue's background band is the only repair throttle, and the chunk
// claims the entry takes drop a copy already placed or in flight.
//
// Usage (dlsim::RunClusterExperiment):
//   cluster::PeerGroup group(num_jobs, options);
//   for each job j:  group.RegisterNode(j, local_engine_j);
//   for each job j:  config.peer_tier = {"peer", group.MakePeerEngine(j)};
//                    config.peer_view = group.MakePeerView(j);
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/file_directory.h"
#include "core/peer_view.h"
#include "net/network_model.h"
#include "obs/metrics_registry.h"
#include "storage/storage_engine.h"
#include "util/clock.h"

namespace monarch::cluster {

struct PeerOptions {
  /// Interconnect bandwidth shared by all peer transfers.
  double interconnect_bandwidth_bps = 1.2e9;
  /// One-way hop latency charged per peer RPC/transfer.
  Duration interconnect_latency = Micros(150);
  /// Lock stripes of the cluster file directory.
  std::size_t directory_shards = 16;
  /// Distinct owner nodes staging each file (1 = no redundancy).
  int replication = 1;
  /// Nodes that start OUTSIDE the ring and enter it via JoinNode().
  std::vector<int> deferred_nodes;
  /// Distinct holders a peer read tries before the failure escapes to
  /// the degradation ladder (1 = no replica failover).
  int max_failover_holders = 2;
  /// Consecutive transfer failures before a holder is quarantined from
  /// holder selection (it stays eligible when it is the only choice).
  int quarantine_failures = 3;
  Duration quarantine_cooldown = Millis(50);
};

class PeerGroup {
 public:
  explicit PeerGroup(int num_nodes, PeerOptions options = {});

  PeerGroup(const PeerGroup&) = delete;
  PeerGroup& operator=(const PeerGroup&) = delete;

  /// Install `engine` as node `node`'s local tier — the engine peer reads
  /// of that node's copies are served from. Must be called for every node
  /// before the first read; reads resolved to an unregistered node fail
  /// as kNotFound (and degrade to the PFS).
  void RegisterNode(int node, storage::StorageEnginePtr engine);

  /// The peer tier engine for node `node` (read-only; name "peer<node>").
  [[nodiscard]] storage::StorageEnginePtr MakePeerEngine(int node);

  /// The placement/staging view for node `node`.
  [[nodiscard]] core::PeerViewPtr MakePeerView(int node);

  // ---- churn control (ISSUE 7) -----------------------------------------

  /// Fail `node`: fabric RPCs to it time out, the directory retracts its
  /// ads, ownership shifts, and the survivors stage what they now own.
  MembershipDelta KillNode(int node);

  /// Bring a killed node back. Call Monarch::ReadvertisePlacedCopies()
  /// on the node FIRST so its surviving copies are in the directory
  /// before the rejoin delta decides what still needs repair.
  MembershipDelta ReviveNode(int node);

  /// A deferred member enters the ring and stages its shard handoff.
  MembershipDelta JoinNode(int node);

  /// Repair pairs handed to stage entries, and those a copy was claimed
  /// for (`cluster.restage.enqueued` / `.completed`, this group only).
  [[nodiscard]] std::uint64_t restage_enqueued() const noexcept {
    return restage_enqueued_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t restage_completed() const noexcept {
    return restage_completed_.load(std::memory_order_relaxed);
  }

  // ---- accessors --------------------------------------------------------

  [[nodiscard]] FileDirectory& directory() noexcept { return directory_; }
  [[nodiscard]] const FileDirectory& directory() const noexcept {
    return directory_;
  }
  [[nodiscard]] const net::NetworkModelPtr& network() const noexcept {
    return network_;
  }
  [[nodiscard]] int num_nodes() const noexcept {
    return directory_.num_nodes();
  }
  [[nodiscard]] const PeerOptions& options() const noexcept {
    return options_;
  }

  /// Install (empty: remove) `node`'s stage entry. Removal waits for
  /// RequestStage calls in flight against it.
  void SetStageEntry(int node, core::PeerView::StageEntry entry);

  /// Run `node`'s stage entry for `name` on `lane`: the bytes it
  /// claimed, 0 when it claimed nothing or none is installed.
  std::uint64_t RequestStage(int node, const std::string& name,
                             core::StagingLane lane);

  /// The engine registered for `node`, or null. Used by the resolver.
  [[nodiscard]] storage::StorageEnginePtr NodeEngine(int node) const;

  /// Transfers currently in flight against `node`'s copy (p2c input).
  [[nodiscard]] int InflightFor(int node) const;
  /// Whether `node` is currently quarantined from holder selection.
  [[nodiscard]] bool Quarantined(int node) const;

  // Resolver callbacks (net/PeerEngine::Resolver lifecycle).
  void OnTransferStart(int node);
  void OnTransferDone(int node, bool ok);

 private:
  /// Per-holder selection state: in-flight transfers (power-of-two-
  /// choices) and failure streaks (quarantine).
  struct HolderState {
    std::atomic<int> inflight{0};
    std::atomic<int> fail_streak{0};
    /// steady_clock::now().time_since_epoch() deadline; 0 = healthy.
    std::atomic<std::int64_t> quarantined_until_ns{0};
  };

  /// Dispatch `delta`'s repair set (see the class comment).
  MembershipDelta Repair(MembershipDelta delta);

  PeerOptions options_;
  FileDirectory directory_;
  net::NetworkModelPtr network_;
  /// Guards engines_: registration races resolver lookups in tests that
  /// bring nodes up while others already read.
  mutable std::mutex engines_mu_;
  std::vector<storage::StorageEnginePtr> engines_;
  std::vector<std::unique_ptr<HolderState>> holder_state_;
  /// Per-node stage entries: requests run under the shared lock, so
  /// SetStageEntry's exclusive lock waits them out.
  std::shared_mutex stage_mu_;
  std::vector<core::PeerView::StageEntry> stage_entries_;

  std::atomic<std::uint64_t> restage_enqueued_{0};
  std::atomic<std::uint64_t> restage_completed_{0};
  // docs/OBSERVABILITY.md `cluster.restage.*`.
  obs::Counter* enqueued_counter_ = nullptr;
  obs::Counter* completed_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
};

}  // namespace monarch::cluster
