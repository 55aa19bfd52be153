// PeerView: what one Monarch instance (one node) sees of the cluster's
// cooperative peer cache (ISSUE 4). Implemented by the cluster layer on
// top of its FileDirectory; core stays free of any cluster dependency.
//
// The contract mirrors the directory protocol in DESIGN.md:
//  * consistent-hash shard ownership decides WHO stages a file —
//    ShouldStageLocally() gates every local staging trigger (demand,
//    prefetch, prestage), so each file is pulled from the PFS by its
//    owner node(s) only, once cluster-wide;
//  * HasRemoteCopy() is the read path's peer rung — true when some OTHER
//    node currently advertises a placed copy this node could fetch over
//    the interconnect instead of hitting the PFS;
//  * OnStaged()/OnDropped() keep the directory in sync with this node's
//    placements (publish, quarantine, eviction, cleanup);
//  * joins: a non-owner about to read a cold file from the PFS instead
//    asks its owner to stage it (RequestOwnerStage), waits for that copy
//    (AwaitRemoteCopy) and reads it over the peer rung. OnCopyBegin()/
//    OnCopyEnd() publish this node's joinable copies; SetStageEntry()
//    is how the owner's Monarch takes those requests;
//  * repair: after a membership change the cluster hands each file a
//    live node now owns but holds no copy of to that node's stage entry
//    on the PREFETCH lane, so re-staging is background placement work
//    like any look-ahead copy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace monarch::core {

/// Which queue a staging task belongs to. Demand tasks (read-triggered)
/// always pop before prefetch tasks (look-ahead and repair).
enum class StagingLane { kDemand, kPrefetch };

class PeerView {
 public:
  virtual ~PeerView() = default;

  /// Some other node holds a placed copy of `name` (serve it via the
  /// peer tier before falling back to the PFS).
  virtual bool HasRemoteCopy(const std::string& name) = 0;

  /// This node is a shard owner of `name` and may stage it locally.
  /// False means the file belongs to a peer's shard: read it owner-first
  /// over the interconnect, never copy it into this node's tiers.
  virtual bool ShouldStageLocally(const std::string& name) = 0;

  /// This node published a placed copy of `name` on its local `level`.
  virtual void OnStaged(const std::string& name, int level) = 0;

  /// This node's placed copy of `name` is gone (quarantine, eviction,
  /// shutdown cleanup) — stop advertising it to peers.
  virtual void OnDropped(const std::string& name) = 0;

  /// How a node stages a file on the cluster's behalf: claim a copy of
  /// `name` on `lane` (demand for a peer's read, prefetch for repair).
  /// Returns the file's bytes when a copy was claimed, 0 otherwise.
  using StageEntry =
      std::function<std::uint64_t(const std::string& name, StagingLane lane)>;

  /// Install this node's stage entry, or remove it with an empty one.
  /// Removal waits for calls in flight, so the entry's target may be
  /// destroyed once it returns.
  virtual void SetStageEntry(StageEntry entry) = 0;

  /// Ask the primary live owner of `name` to claim a demand copy of it.
  /// False when this node is that owner, the owner has no stage entry,
  /// or it claimed nothing (placed, already in flight, unplaceable).
  virtual bool RequestOwnerStage(const std::string& name) = 0;

  /// Block while another live node holds a joinable copy of `name`;
  /// membership changes wake the wait. True when it waited.
  virtual bool AwaitRemoteCopy(const std::string& name) = 0;

  /// This node's joinable copy of `name` began / ended (reported on the
  /// set and clear edges of the file's FileInfo::kJoinable bit).
  virtual void OnCopyBegin(const std::string& name) = 0;
  virtual void OnCopyEnd(const std::string& name) = 0;
};

using PeerViewPtr = std::shared_ptr<PeerView>;

}  // namespace monarch::core
