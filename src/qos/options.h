// QosOptions: engine-free knobs of the multi-tenant QoS layer. The
// `[qos]` INI section fills every field but `total_bandwidth_bps`.
// Carried inside PlacementOptions so the staging pipeline, the eviction
// path and the config parser share one source of truth.
#pragma once

#include <cstdint>

#include "qos/tenant.h"

namespace monarch::qos {

struct QosOptions {
  /// Master switch. Off = the staging pipeline behaves exactly like the
  /// original two-lane demand/prefetch design (all demand classes share
  /// one weight) and no bandwidth shares are enforced.
  bool enabled = false;

  // Per-class fair-queue weights (interactive > training > scan >
  // drain; prefetch rides the background band at drain weight).
  double interactive_weight = 8.0;
  double training_weight = 4.0;
  double scan_weight = 2.0;
  double drain_weight = 1.0;

  /// Aggregate byte rate the dlsim cluster harness's shared bandwidth
  /// broker apportions across tenants (bytes/s; 0 = no broker). A single
  /// Monarch does not read it.
  double total_bandwidth_bps = 0.0;

  /// Scan resistance: cap on the resident bytes low-retention tenants
  /// may hold on the cache tiers. Further scan stagings are refused
  /// (served straight from the PFS) instead of churning the cache.
  /// 0 = no cap beyond the eviction restriction.
  std::uint64_t scan_stage_cap_bytes = 0;

  [[nodiscard]] double ClassWeight(IoClass io_class) const noexcept {
    switch (io_class) {
      case IoClass::kInteractive:
        return interactive_weight;
      case IoClass::kTraining:
        return training_weight;
      case IoClass::kScan:
        return scan_weight;
      case IoClass::kDrain:
      case IoClass::kPrefetch:
        return drain_weight;
    }
    return training_weight;
  }
};

}  // namespace monarch::qos
