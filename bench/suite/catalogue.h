// The suite's catalogue: workload names and metric definitions.
// BENCHMARK.json at the repository root lists the same workloads and the
// same metric names, units and directions (plus each end-to-end bound);
// suite_selftest fails when the two drift apart.
#pragma once

#include <string>
#include <vector>

namespace suite {

/// Workload names, in the order run.sh runs them.
inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "train-fit",        "train-overflow", "train-ckpt",
      "smallfile-packed", "warm-read",      "cluster-peer"};
  return names;
}

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" | "higher"
};

/// Reported with tracing off, on every workload; none is ever 0.
inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s", "lower"},
      {"first_epoch_s", "s", "lower"},
      {"steady_epoch_s", "s", "lower"},
      {"pfs_mib_per_epoch", "MiB", "lower"},
      {"pfs_ops_per_epoch", "ops", "lower"},
      {"read_ops_per_s", "1/s", "higher"},
  };
  return metrics;
}

/// Reported by the traced run, on every workload (0 where a layer idles).
inline const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"storage.pfs.read_ops", "count", "lower"},
      {"storage.pfs.read_mib", "MiB", "lower"},
      {"storage.pfs.read_busy_s", "s", "lower"},
      {"storage.pfs.write_mib", "MiB", "lower"},
      {"storage.pfs.write_busy_s", "s", "lower"},
      {"storage.pfs.meta_ops", "count", "lower"},
      {"storage.local.read_ops", "count", "higher"},
      {"storage.local.read_mib", "MiB", "higher"},
      {"storage.local.read_busy_s", "s", "lower"},
      {"storage.local.write_mib", "MiB", "lower"},
      {"storage.local.write_busy_s", "s", "lower"},
      {"core.read.calls", "count", "higher"},
      {"core.read.busy_s", "s", "lower"},
      {"core.read.self_s", "s", "lower"},
      {"core.read.p50_us", "us", "lower"},
      {"core.read.p99_us", "us", "lower"},
      {"core.read.tier_share", "ratio", "higher"},
      {"core.read.peer_share", "ratio", "higher"},
      {"core.read.degraded_fallbacks", "count", "lower"},
      {"core.read.failed", "count", "lower"},
      {"core.placement.staged_mib", "MiB", "lower"},
      {"core.placement.completed", "count", "lower"},
      {"core.placement.rejected_no_space", "count", "lower"},
      {"core.placement.evictions", "count", "lower"},
      {"core.placement.evicted_mib", "MiB", "lower"},
      {"core.placement.eviction_refused", "count", "lower"},
      {"core.placement.prefetch_scheduled", "count", "lower"},
      {"core.placement.prefetch_hit_ratio", "ratio", "higher"},
      {"core.placement.reuse_ratio", "ratio", "higher"},
      {"core.placement.bg_read_busy_s", "s", "lower"},
      {"core.placement.bg_write_busy_s", "s", "lower"},
      {"core.placement.drain_s", "s", "lower"},
      {"pack.chunk_hits", "count", "higher"},
      {"pack.chunk_misses", "count", "lower"},
      {"pack.chunk_hit_ratio", "ratio", "higher"},
      {"pack.stored_mib", "MiB", "lower"},
      {"pack.effective_capacity", "ratio", "higher"},
      {"pack.chunks_evicted", "count", "lower"},
      {"ckpt.saves", "count", "higher"},
      {"ckpt.stall_s", "s", "lower"},
      {"ckpt.save_p50_ms", "ms", "lower"},
      {"ckpt.save_max_ms", "ms", "lower"},
      {"ckpt.flush_s", "s", "lower"},
      {"ckpt.drain_mib", "MiB", "lower"},
      {"ckpt.local_evictions", "count", "lower"},
      {"ckpt.direct_pfs_writes", "count", "lower"},
      {"ckpt.drain_retries", "count", "lower"},
      {"dlsim.read_stall_s", "s", "lower"},
      {"dlsim.compute_s", "s", "lower"},
      {"dlsim.samples_per_s", "1/s", "higher"},
      {"net.peer_mib", "MiB", "higher"},
      {"net.peer_transfers", "count", "higher"},
      {"net.rpc_timeouts", "count", "lower"},
      {"cluster.pfs_mib_max_node", "MiB", "lower"},
      {"obs.trace_overhead_ratio", "ratio", "lower"},
      {"obs.spans_recorded", "count", "higher"},
      {"obs.spans_dropped", "count", "lower"},
      {"process.peak_rss_mib", "MiB", "lower"},
  };
  return metrics;
}

}  // namespace suite
