// Declarative hierarchy configuration.
//
// The paper has "the system designer specify the main MONARCH
// configuration, defining the storage tiers" before execution (§III-B).
// This module parses a small INI dialect into tier specs and builds a
// ready MonarchConfig from it, e.g.:
//
//   [monarch]
//   dataset_dir = imagenet_100g
//   placement_threads = 6
//   fetch_full_file = true
//
//   [tier.0]
//   name = local-ssd
//   profile = ssd           ; ssd | ram | raw
//   root = /tmp/monarch/ssd
//   quota = 115MiB
//
//   [pfs]
//   name = lustre
//   profile = lustre        ; lustre | lustre-quiet | raw
//   root = /tmp/monarch/pfs
//   seed = 42
//
//   [placement]             ; optional — staging-pipeline knobs
//   policy = first-fit      ; first-fit | round-robin | lru | hotspot
//                           ;   (docs/PLACEMENT.md)
//   staging_buffer_bytes = 64MiB   ; chunk-buffer-pool budget
//   staging_chunk_bytes = 4MiB     ; copy granularity
//   prefetch_lookahead = 0         ; scheduled files staged ahead (0 = off)
//   hotspot_decay_interval = 256   ; accesses between frequency halvings
//
//   [resilience]            ; optional — defaults match ResilienceOptions
//   retry_max_attempts = 4
//   retry_initial_backoff_us = 50
//   retry_multiplier = 2.0
//   retry_max_backoff_us = 5000
//   retry_budget_us = 20000
//   health_enabled = true
//   health_window = 64
//   health_min_samples = 16
//   health_error_threshold = 0.5
//   health_cooldown_us = 100000
//   health_half_open_successes = 3
//   verify_staged_writes = true
//   verify_on_read = false
//   max_placement_attempts = 3
//   restage_after_quarantine = true
//
//   [peer]                  ; optional — cooperative peer caching (ISSUE 4)
//   enabled = true
//   interconnect_bandwidth = 1200MiB  ; shared fabric, bytes/second
//   interconnect_latency_us = 150     ; one-way hop latency
//   directory_shards = 16             ; cluster file-directory stripes
//   replication = 1                   ; owner nodes staging each file
//
//   [pack]                  ; optional — small-file packing tier (ISSUE 9)
//   enabled = true          ; chunk-granularity staging + pack-index reads
//   chunk_bytes = 256KiB    ; staging/eviction granularity (<= staging_chunk_bytes)
//   codec = lz              ; none | lz — per-chunk compression on stage-in
//   pack_extent_bytes = 64MiB  ; container extent size used by PackWriter
//
//   [read]                  ; optional — async read-ring hot path (ISSUE 8)
//   ring_depth = 256        ; submission-queue capacity (Submit blocks when full)
//   worker_threads = 2      ; ring workers draining the queue
//   zero_copy = true        ; lend pages from memory-backed tiers (off = copy)
//
//   [checkpoint]            ; optional — write-back checkpoint tier (ISSUE 5)
//   enabled = true
//   dir = ckpt                        ; namespace prefix for checkpoint files
//   keep_last = 3                     ; retention window (0 = keep all)
//   drain_bandwidth = 200MiB          ; PFS drain cap, bytes/second (0 = off)
//   drain_threads = 1
//   verify_on_restore = true
//
//   [qos]                   ; optional — multi-tenant QoS (ISSUE 10)
//   enabled = true          ; weighted fair queue + scan resistance
//   interactive_weight = 8  ; per-class fair-queue/share weights
//   training_weight = 4
//   scan_weight = 2
//   drain_weight = 1
//   tenant_share = 1.0      ; this job's weight among cluster tenants
//   total_bandwidth = 400MiB          ; broker total, bytes/s (0 = no broker)
//   admission_queue_threshold = 0.85  ; footprint fraction that queues a job
//   admission_reject_threshold = 1.5  ; footprint multiple that rejects it
//   work_conserving = true  ; idle tenants lend their share to active ones
//   scan_stage_cap = 64MiB  ; resident bytes a scan tenant may stage (0 = off)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/monarch.h"
#include "pack/options.h"
#include "util/status.h"

namespace monarch::core {

/// Parsed, engine-free view of the configuration (tests inspect this).
struct ParsedTier {
  std::string name;
  std::string profile;   ///< ssd | ram | lustre | lustre-quiet | raw
  std::string root;      ///< host directory (unused for ram)
  std::uint64_t quota_bytes = 0;
  std::uint64_t seed = 42;
};

/// `[peer]` section (ISSUE 4): cooperative peer caching. Engine-free —
/// BuildMonarchConfig ignores it (a single Monarch instance has no
/// peers); the cluster integration layer (dlsim::RunClusterExperiment,
/// the multi-job benches) turns these knobs into a cluster::PeerGroup
/// and installs each node's peer tier and view.
struct ParsedPeer {
  bool enabled = false;
  /// Shared interconnect bandwidth, bytes/second (byte-size syntax).
  std::uint64_t interconnect_bandwidth_bps = 1'200'000'000;
  /// One-way hop latency charged per peer RPC/transfer.
  std::uint64_t interconnect_latency_us = 150;
  /// Lock stripes of the cluster file directory.
  std::uint64_t directory_shards = 16;
  /// Distinct owner nodes staging each file.
  int replication = 1;
  /// Per-node replication-repair bandwidth cap, bytes/second (byte-size
  /// syntax; 0 = uncapped). Bounds cluster::RestagePump after churn.
  std::uint64_t restage_bandwidth_bps = 0;
  /// Distinct holders a peer read tries before the failure escapes to
  /// the degradation ladder (1 = no replica failover).
  int max_failover_holders = 2;
  /// Consecutive transfer failures before a holder is quarantined from
  /// holder selection.
  int quarantine_failures = 3;
  /// Churn harness (dlsim): how long after a node leaves the fabric the
  /// directory notices and retracts it — the replica-failover window.
  std::uint64_t churn_detection_lag_us = 0;
  /// Seeded random kill/revive pairs injected per run (0 = scripted
  /// schedule only) and their seed.
  std::uint64_t churn_random_kills = 0;
  std::uint64_t churn_seed = 42;
};

/// `[checkpoint]` section (ISSUE 5): write-back checkpoint tier. Engine-
/// free like ParsedPeer — BuildMonarchConfig ignores it; the integration
/// layer (dlsim trainer harnesses, the checkpoint benches) turns these
/// knobs into a ckpt::CheckpointManager over the node's hierarchy.
struct ParsedCheckpoint {
  bool enabled = false;
  /// Namespace prefix for checkpoint data files and the manifest.
  std::string dir = "ckpt";
  /// Retention window applied once a checkpoint is durable (0 = keep all).
  int keep_last = 0;
  /// Drain bandwidth cap, bytes/second (byte-size syntax; 0 = uncapped).
  std::uint64_t drain_bandwidth_bytes_per_sec = 0;
  int drain_threads = 1;
  bool verify_on_restore = true;
};

struct ParsedConfig {
  std::string dataset_dir;
  int placement_threads = 6;
  bool fetch_full_file = true;
  /// `[placement]` section; defaults match PlacementOptions.
  std::string placement_policy = "first-fit";
  std::uint64_t staging_buffer_bytes = PlacementOptions{}.staging_buffer_bytes;
  std::uint64_t staging_chunk_bytes = PlacementOptions{}.staging_chunk_bytes;
  int prefetch_lookahead = 0;
  /// Per-policy eviction knobs (docs/PLACEMENT.md).
  PlacementPolicyKnobs policy_knobs;
  std::vector<ParsedTier> cache_tiers;  ///< level order
  ParsedTier pfs;
  /// `[resilience]` section; defaults when the section is absent.
  ResilienceOptions resilience;
  /// `[peer]` section; disabled when the section is absent.
  ParsedPeer peer;
  /// `[checkpoint]` section; disabled when the section is absent.
  ParsedCheckpoint checkpoint;
  /// `[read]` section; ReadRingOptions defaults when absent.
  ReadRingOptions read;
  /// `[pack]` section (ISSUE 9); disabled when the section is absent.
  pack::PackOptions pack;
  /// `[qos]` section (ISSUE 10); disabled when the section is absent.
  /// BuildMonarchConfig copies it into PlacementOptions; the integration
  /// layer (dlsim cluster, benches) additionally builds the shared
  /// BandwidthBroker / AdmissionController from these knobs.
  qos::QosOptions qos;
};

/// Parse the INI text. Unknown sections/keys are errors (config typos
/// should fail loudly before a multi-hour training job starts).
Result<ParsedConfig> ParseConfig(const std::string& ini_text);

/// Instantiate engines per each tier's profile and assemble the
/// MonarchConfig — including the placement policy named by
/// `[placement] policy` (first-fit when unset).
Result<MonarchConfig> BuildMonarchConfig(const ParsedConfig& parsed);

/// One INI key the parser accepts: its section, name, and a sample value
/// the parser is guaranteed to take. `section` is the header as written
/// ("tier.0" stands in for every tier.N).
struct ConfigKeyInfo {
  std::string section;
  std::string key;
  std::string sample;
};

/// Every (section, key) pair ParseConfig accepts, with a valid sample
/// value each. This is the source of truth the docs/CONFIG.md reference
/// is checked against (tests/core/config_doc_test.cc): a key added to
/// the parser must be added here AND documented, or CI fails; a key
/// listed here that the parser rejects also fails (the test feeds every
/// sample through ParseConfig).
std::vector<ConfigKeyInfo> ConfigKeyCatalogue();

/// Convenience: parse + build + Monarch::Create.
Result<std::unique_ptr<Monarch>> MonarchFromIni(const std::string& ini_text);

}  // namespace monarch::core
