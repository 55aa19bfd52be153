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
//   policy = first-fit      ; first-fit | lru | hotspot
//                           ;   (docs/PLACEMENT.md)
//   staging_buffer_bytes = 64MiB   ; chunk-buffer-pool budget
//   staging_chunk_bytes = 4MiB     ; copy granularity
//   prefetch_lookahead = 0         ; scheduled files readied ahead (0 = off):
//                                  ; staged, or read ahead into deposits
//                                  ; when resident here or on a peer
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
//   [pack]                  ; optional — small-file packing tier
//   enabled = true          ; chunk-granularity staging + pack-index reads
//   chunk_bytes = 256KiB    ; staging/eviction granularity (<= staging_chunk_bytes)
//   codec = lz              ; none | lz — per-chunk compression on stage-in
//
//   [qos]                   ; optional — multi-tenant QoS
//   enabled = true          ; weighted fair queue + scan resistance
//   interactive_weight = 8  ; per-class fair-queue/share weights
//   training_weight = 4
//   scan_weight = 2
//   drain_weight = 1
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
  std::uint64_t quota_bytes = 0;  ///< cache tiers only; [pfs] has no quota
  std::uint64_t seed = 42;
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
  /// `[pack]` section; disabled when the section is absent.
  pack::PackOptions pack;
  /// `[qos]` section; disabled when the section is absent.
  /// BuildMonarchConfig copies it into PlacementOptions.
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
