#include "net/network_model.h"

namespace monarch::net {

NetworkProfile NetworkProfile::ClusterInterconnect() {
  NetworkProfile p;
  p.name = "cluster-interconnect";
  // Frontera-class fat-tree share at 1/1000 byte scale: wide enough that
  // serving a 1 MiB record file costs ~1 ms of fabric time against the
  // ~6+ ms the same file costs through a contended Lustre client, and a
  // 150 us hop against Lustre's 1200 us OSS round trip.
  p.bandwidth_bps = 1.2e9;
  p.hop_latency = Micros(150);
  return p;
}

NetworkModel::NetworkModel(NetworkProfile profile)
    : profile_(std::move(profile)), bucket_(profile_.bandwidth_bps) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  transfers_ = registry.GetCounter(
      "net.transfers", "ops",
      "peer-to-peer transfers carried by the simulated interconnect");
  bytes_transferred_ = registry.GetCounter(
      "net.bytes_transferred", "bytes",
      "bytes moved across the simulated interconnect");
  rpc_timeouts_ = registry.GetCounter(
      "net.rpc_timeouts", "ops",
      "peer RPCs that timed out against a dead or partitioned node");
}

void NetworkModel::SetNodeDown(int node, bool down) {
  if (node < 0 || node >= 64) return;
  const std::uint64_t bit = 1ull << node;
  if (down) {
    down_mask_.fetch_or(bit, std::memory_order_relaxed);
  } else {
    down_mask_.fetch_and(~bit, std::memory_order_relaxed);
  }
}

void NetworkModel::SetPartition(std::uint64_t group_mask) {
  partition_mask_.store(group_mask, std::memory_order_relaxed);
}

bool NetworkModel::Reachable(int from, int to) const {
  const auto side = [](std::uint64_t mask, int node) {
    return node >= 0 && node < 64 && (mask & (1ull << node)) != 0;
  };
  const std::uint64_t down = down_mask_.load(std::memory_order_relaxed);
  if (side(down, from) || side(down, to)) return false;
  const std::uint64_t split = partition_mask_.load(std::memory_order_relaxed);
  if (split == 0 || from < 0 || to < 0) return true;
  return side(split, from) == side(split, to);
}

void NetworkModel::ChargeRpcTimeout() {
  PreciseSleep(profile_.rpc_timeout);
  timeouts_local_.fetch_add(1, std::memory_order_relaxed);
  if (rpc_timeouts_ != nullptr) rpc_timeouts_->Increment();
}

void NetworkModel::ChargeTransfer(std::uint64_t bytes) {
  // Per-tenant share first (who may use the fabric), then the shared
  // bucket (what the fabric can physically carry).
  if (qos_broker_ != nullptr && qos_broker_->enabled()) {
    const qos::TenantContext* tenant = qos::CurrentTenant();
    if (tenant != nullptr) qos_broker_->Acquire(tenant->tenant_id, bytes);
  }
  const Duration wait = bucket_.Reserve(static_cast<double>(bytes));
  PreciseSleep(profile_.hop_latency + wait);
  transfers_local_.fetch_add(1, std::memory_order_relaxed);
  bytes_local_.fetch_add(bytes, std::memory_order_relaxed);
  if (transfers_ != nullptr) transfers_->Increment();
  if (bytes_transferred_ != nullptr) bytes_transferred_->Increment(bytes);
}

void NetworkModel::ChargeRpc() { PreciseSleep(profile_.hop_latency); }

Duration NetworkModel::PredictTransfer(std::uint64_t bytes) const {
  return profile_.hop_latency +
         FromSeconds(static_cast<double>(bytes) / profile_.bandwidth_bps);
}

}  // namespace monarch::net
