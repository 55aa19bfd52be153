// NetworkModel: the simulated compute-cluster interconnect behind the
// cooperative peer cache (ISSUE 4). Mirrors storage/device_model.h: a
// configured bandwidth becomes a token bucket shared by every transfer
// crossing the fabric, and each operation pays a fixed per-hop latency.
//
// One instance per interconnect; every PeerEngine in the cluster shares
// the same model (and therefore the same bandwidth), so node A pulling a
// file from node B slows node C's peer reads — the same real-contention
// trick the shared-PFS device model plays, applied to the network.
//
// Profiles are expressed at the benches' 1/1000 simulation scale, like
// DeviceProfile: what matters is the *ratio* to the storage devices —
// a node-local interconnect (Infiniband class) is far wider than one
// client's share of a saturated Lustre mount and its round trip is an
// order of magnitude cheaper than an OSS round trip, which is exactly
// why peer-served reads beat PFS re-staging.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics_registry.h"
#include "qos/bandwidth_broker.h"
#include "util/clock.h"
#include "util/rate_limiter.h"

namespace monarch::net {

struct NetworkProfile {
  std::string name = "interconnect";
  /// Aggregate fabric bandwidth shared by all peer transfers.
  double bandwidth_bps = 1.2e9;
  /// Fixed cost of one traversal (request or response) between nodes.
  Duration hop_latency = Micros(150);
  /// How long a peer RPC to a dead/partitioned node blocks before the
  /// caller gives up UNAVAILABLE (ISSUE 7 outage injection). Sized like
  /// a full PFS round trip at simulation scale: failure detection is
  /// never cheaper than the slow path it protects.
  Duration rpc_timeout = Micros(1200);

  /// HPC-cluster interconnect at simulation scale: ~3x the local-SSD
  /// read bandwidth and ~1/8 the Lustre per-op latency, so a peer hop is
  /// decisively cheaper than a PFS round trip but not free.
  static NetworkProfile ClusterInterconnect();
};

class NetworkModel {
 public:
  explicit NetworkModel(NetworkProfile profile);

  /// Block for the simulated duration of moving `bytes` across the
  /// fabric (one hop of latency plus the bandwidth share).
  void ChargeTransfer(std::uint64_t bytes);

  /// Block for one metadata round trip (directory lookup, stat).
  void ChargeRpc();

  // ---- fault injection (ISSUE 7) ---------------------------------------
  // Node outages and fabric partitions are modelled as reachability: a
  // peer RPC whose endpoint is down or on the far side of a partition
  // blocks for `rpc_timeout` (ChargeRpcTimeout) and fails UNAVAILABLE at
  // the caller. Masks cover node ids 0..63 — beyond that nodes are
  // always reachable (the virtual-time engine will widen this).

  /// Mark `node` dead (true) or alive (false) on the fabric.
  void SetNodeDown(int node, bool down);

  /// Split the fabric: nodes whose bit is set in `group_mask` can only
  /// reach each other, likewise the complement. 0 clears the partition.
  void SetPartition(std::uint64_t group_mask);

  /// Whether a transfer `from` -> `to` can currently cross the fabric.
  /// Negative ids (unknown endpoint) are always reachable.
  [[nodiscard]] bool Reachable(int from, int to) const;

  /// Block for the modelled failure-detection timeout of one dead RPC
  /// and count it (`net.rpc_timeouts`).
  void ChargeRpcTimeout();

  /// Install the per-tenant bandwidth broker (ISSUE 10): transfers then
  /// additionally charge the calling thread's ambient tenant, so one
  /// job's peer traffic cannot crowd out another's fabric share. Install
  /// before the model is shared across threads.
  void SetQosBroker(qos::BandwidthBrokerPtr broker) {
    qos_broker_ = std::move(broker);
  }

  [[nodiscard]] const NetworkProfile& profile() const noexcept {
    return profile_;
  }

  /// Expected uncontended service time for a transfer of `bytes` —
  /// calibration checks, mirroring DeviceModel::PredictRead.
  [[nodiscard]] Duration PredictTransfer(std::uint64_t bytes) const;

  [[nodiscard]] std::uint64_t transfers() const noexcept {
    return transfers_local_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_transferred() const noexcept {
    return bytes_local_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rpc_timeouts() const noexcept {
    return timeouts_local_.load(std::memory_order_relaxed);
  }

 private:
  NetworkProfile profile_;
  RateLimiter bucket_;
  std::atomic<std::uint64_t> transfers_local_{0};
  std::atomic<std::uint64_t> bytes_local_{0};
  std::atomic<std::uint64_t> timeouts_local_{0};
  /// Bit n set = node n dead / in partition group (ids ≥ 64 unaffected).
  std::atomic<std::uint64_t> down_mask_{0};
  std::atomic<std::uint64_t> partition_mask_{0};
  qos::BandwidthBrokerPtr qos_broker_;      ///< null = no enforcement
  obs::Counter* transfers_ = nullptr;       ///< `net.transfers`
  obs::Counter* bytes_transferred_ = nullptr;  ///< `net.bytes_transferred`
  obs::Counter* rpc_timeouts_ = nullptr;    ///< `net.rpc_timeouts`
};

using NetworkModelPtr = std::shared_ptr<NetworkModel>;

}  // namespace monarch::net
