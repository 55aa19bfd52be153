// The suite's workloads. Each one generates its inputs from the seed
// (untimed), then runs reps: a fresh MONARCH set-up, timed as set-up,
// followed by its epochs. Every parameter is a constant in workloads.cc.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace suite {

/// What one rep measured. `layer` holds this rep's per-layer counters
/// under their per-layer metric names (main.cc averages them over the
/// traced reps); the span-derived ones come from the recorder instead.
struct RepResult {
  double setup_s = 0;
  std::vector<double> epoch_s;        ///< wall time per epoch
  std::uint64_t pfs_read_bytes = 0;   ///< PFS bytes read over the rep
  std::uint64_t pfs_read_ops = 0;
  std::uint64_t reads = 0;            ///< Monarch reads served in epochs
  std::uint64_t attempted = 0;        ///< reads, saves and restores issued
  std::uint64_t failed = 0;
  double peak_rss_mib = 0;            ///< set by the runner
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed: generate the inputs and the correctness oracle.
  virtual monarch::Status Prepare() = 0;
  /// One rep. A failed correctness check returns kDataLoss.
  virtual monarch::Status RunRep(int rep, RepResult* out) = 0;
};

/// Null for a name not in WorkloadNames(). Files go under `work_dir`.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::filesystem::path& work_dir);

}  // namespace suite
