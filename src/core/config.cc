#include "core/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

#include "pack/codec.h"
#include "storage/engine_factory.h"
#include "util/byte_units.h"

namespace monarch::core {

namespace {

std::string Trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

Result<bool> ParseBool(const std::string& value, int line_no) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  return InvalidArgumentError("line " + std::to_string(line_no) +
                              ": bad boolean '" + value + "'");
}

Result<std::uint64_t> ParseU64(const std::string& value, int line_no) {
  std::uint64_t out = 0;
  auto [p, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || p != value.data() + value.size()) {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": bad integer '" + value + "'");
  }
  return out;
}

Result<double> ParseDouble(const std::string& value, int line_no) {
  double out = 0;
  auto [p, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || p != value.data() + value.size()) {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": bad number '" + value + "'");
  }
  return out;
}

Status ApplyResilienceKey(ResilienceOptions& r, const std::string& key,
                          const std::string& value, int line_no) {
  if (key == "retry_max_attempts") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    r.retry.max_attempts = static_cast<int>(n);
  } else if (key == "retry_initial_backoff_us") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t us, ParseU64(value, line_no));
    r.retry.initial_backoff = Micros(static_cast<std::int64_t>(us));
  } else if (key == "retry_multiplier") {
    MONARCH_ASSIGN_OR_RETURN(r.retry.backoff_multiplier,
                             ParseDouble(value, line_no));
  } else if (key == "retry_max_backoff_us") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t us, ParseU64(value, line_no));
    r.retry.max_backoff = Micros(static_cast<std::int64_t>(us));
  } else if (key == "retry_budget_us") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t us, ParseU64(value, line_no));
    r.retry.budget = Micros(static_cast<std::int64_t>(us));
  } else if (key == "health_enabled") {
    MONARCH_ASSIGN_OR_RETURN(r.health.enabled, ParseBool(value, line_no));
  } else if (key == "health_window") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    r.health.window = static_cast<std::size_t>(n);
  } else if (key == "health_min_samples") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    r.health.min_samples = static_cast<std::size_t>(n);
  } else if (key == "health_error_threshold") {
    MONARCH_ASSIGN_OR_RETURN(r.health.error_threshold,
                             ParseDouble(value, line_no));
  } else if (key == "health_cooldown_us") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t us, ParseU64(value, line_no));
    r.health.cooldown = Micros(static_cast<std::int64_t>(us));
  } else if (key == "health_half_open_successes") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    r.health.half_open_successes = static_cast<int>(n);
  } else if (key == "verify_staged_writes") {
    MONARCH_ASSIGN_OR_RETURN(r.verify_staged_writes, ParseBool(value, line_no));
  } else if (key == "verify_on_read") {
    MONARCH_ASSIGN_OR_RETURN(r.verify_on_read, ParseBool(value, line_no));
  } else if (key == "max_placement_attempts") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    r.max_placement_attempts = static_cast<int>(n);
  } else if (key == "restage_after_quarantine") {
    MONARCH_ASSIGN_OR_RETURN(r.restage_after_quarantine,
                             ParseBool(value, line_no));
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown resilience key '" + key + "'");
  }
  return Status::Ok();
}

Status ApplyTierKey(ParsedTier& tier, const std::string& key,
                    const std::string& value, int line_no) {
  if (key == "name") {
    tier.name = value;
  } else if (key == "profile") {
    tier.profile = value;
  } else if (key == "root") {
    tier.root = value;
  } else if (key == "quota") {
    MONARCH_ASSIGN_OR_RETURN(tier.quota_bytes, ParseByteSize(value));
  } else if (key == "seed") {
    MONARCH_ASSIGN_OR_RETURN(tier.seed, ParseU64(value, line_no));
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown tier key '" + key + "'");
  }
  return Status::Ok();
}

Status ApplyPlacementKey(ParsedConfig& config, const std::string& key,
                         const std::string& value, int line_no) {
  if (key == "policy") {
    // Validate eagerly so a typo fails at parse time with a line number,
    // not later in BuildMonarchConfig.
    auto policy = MakePlacementPolicyByName(value);
    if (!policy.ok()) {
      return InvalidArgumentError("line " + std::to_string(line_no) + ": " +
                                  policy.status().message());
    }
    config.placement_policy = value;
  } else if (key == "hotspot_decay_interval") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    if (n == 0) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": hotspot_decay_interval must be >= 1");
    }
    config.policy_knobs.hotspot_decay_interval = n;
  } else if (key == "staging_buffer_bytes") {
    MONARCH_ASSIGN_OR_RETURN(config.staging_buffer_bytes,
                             ParseByteSize(value));
  } else if (key == "staging_chunk_bytes") {
    MONARCH_ASSIGN_OR_RETURN(config.staging_chunk_bytes, ParseByteSize(value));
  } else if (key == "prefetch_lookahead") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    config.prefetch_lookahead = static_cast<int>(n);
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown placement key '" + key + "'");
  }
  return Status::Ok();
}

Status ApplyPeerKey(ParsedPeer& peer, const std::string& key,
                    const std::string& value, int line_no) {
  if (key == "enabled") {
    MONARCH_ASSIGN_OR_RETURN(peer.enabled, ParseBool(value, line_no));
  } else if (key == "interconnect_bandwidth") {
    MONARCH_ASSIGN_OR_RETURN(peer.interconnect_bandwidth_bps,
                             ParseByteSize(value));
  } else if (key == "interconnect_latency_us") {
    MONARCH_ASSIGN_OR_RETURN(peer.interconnect_latency_us,
                             ParseU64(value, line_no));
  } else if (key == "directory_shards") {
    MONARCH_ASSIGN_OR_RETURN(peer.directory_shards, ParseU64(value, line_no));
  } else if (key == "replication") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    if (n == 0) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": replication must be >= 1");
    }
    peer.replication = static_cast<int>(n);
  } else if (key == "restage_bandwidth") {
    MONARCH_ASSIGN_OR_RETURN(peer.restage_bandwidth_bps,
                             ParseByteSize(value));
  } else if (key == "max_failover_holders") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    if (n == 0) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": max_failover_holders must be >= 1");
    }
    peer.max_failover_holders = static_cast<int>(n);
  } else if (key == "quarantine_failures") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    if (n == 0) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": quarantine_failures must be >= 1");
    }
    peer.quarantine_failures = static_cast<int>(n);
  } else if (key == "churn_detection_lag_us") {
    MONARCH_ASSIGN_OR_RETURN(peer.churn_detection_lag_us,
                             ParseU64(value, line_no));
  } else if (key == "churn_random_kills") {
    MONARCH_ASSIGN_OR_RETURN(peer.churn_random_kills,
                             ParseU64(value, line_no));
  } else if (key == "churn_seed") {
    MONARCH_ASSIGN_OR_RETURN(peer.churn_seed, ParseU64(value, line_no));
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown peer key '" + key + "'");
  }
  return Status::Ok();
}

Status ApplyCheckpointKey(ParsedCheckpoint& ckpt, const std::string& key,
                          const std::string& value, int line_no) {
  if (key == "enabled") {
    MONARCH_ASSIGN_OR_RETURN(ckpt.enabled, ParseBool(value, line_no));
  } else if (key == "dir") {
    if (value.empty()) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": checkpoint dir must be non-empty");
    }
    ckpt.dir = value;
  } else if (key == "keep_last") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    ckpt.keep_last = static_cast<int>(n);
  } else if (key == "drain_bandwidth") {
    MONARCH_ASSIGN_OR_RETURN(ckpt.drain_bandwidth_bytes_per_sec,
                             ParseByteSize(value));
  } else if (key == "drain_threads") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    if (n == 0) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": drain_threads must be >= 1");
    }
    ckpt.drain_threads = static_cast<int>(n);
  } else if (key == "verify_on_restore") {
    MONARCH_ASSIGN_OR_RETURN(ckpt.verify_on_restore, ParseBool(value, line_no));
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown checkpoint key '" + key + "'");
  }
  return Status::Ok();
}

Status ApplyPackKey(pack::PackOptions& pack, const std::string& key,
                    const std::string& value, int line_no) {
  if (key == "enabled") {
    MONARCH_ASSIGN_OR_RETURN(pack.enabled, ParseBool(value, line_no));
  } else if (key == "chunk_bytes") {
    MONARCH_ASSIGN_OR_RETURN(pack.chunk_bytes, ParseByteSize(value));
    if (pack.chunk_bytes == 0) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": chunk_bytes must be >= 1");
    }
  } else if (key == "codec") {
    // Validate eagerly: a codec typo should fail with a line number, not
    // silently stage uncompressed.
    auto codec = pack::CodecByName(value);
    if (!codec.ok()) {
      return InvalidArgumentError("line " + std::to_string(line_no) + ": " +
                                  codec.status().message());
    }
    pack.codec = value;
  } else if (key == "pack_extent_bytes") {
    MONARCH_ASSIGN_OR_RETURN(pack.pack_extent_bytes, ParseByteSize(value));
    if (pack.pack_extent_bytes == 0) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": pack_extent_bytes must be >= 1");
    }
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown pack key '" + key + "'");
  }
  return Status::Ok();
}

Status ApplyQosKey(qos::QosOptions& q, const std::string& key,
                   const std::string& value, int line_no) {
  if (key == "enabled") {
    MONARCH_ASSIGN_OR_RETURN(q.enabled, ParseBool(value, line_no));
  } else if (key == "interactive_weight") {
    MONARCH_ASSIGN_OR_RETURN(q.interactive_weight, ParseDouble(value, line_no));
  } else if (key == "training_weight") {
    MONARCH_ASSIGN_OR_RETURN(q.training_weight, ParseDouble(value, line_no));
  } else if (key == "scan_weight") {
    MONARCH_ASSIGN_OR_RETURN(q.scan_weight, ParseDouble(value, line_no));
  } else if (key == "drain_weight") {
    MONARCH_ASSIGN_OR_RETURN(q.drain_weight, ParseDouble(value, line_no));
  } else if (key == "tenant_share") {
    MONARCH_ASSIGN_OR_RETURN(q.tenant_share, ParseDouble(value, line_no));
  } else if (key == "total_bandwidth") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t bps, ParseByteSize(value));
    q.total_bandwidth_bps = static_cast<double>(bps);
  } else if (key == "admission_queue_threshold") {
    MONARCH_ASSIGN_OR_RETURN(q.admission_queue_threshold,
                             ParseDouble(value, line_no));
  } else if (key == "admission_reject_threshold") {
    MONARCH_ASSIGN_OR_RETURN(q.admission_reject_threshold,
                             ParseDouble(value, line_no));
  } else if (key == "work_conserving") {
    MONARCH_ASSIGN_OR_RETURN(q.work_conserving, ParseBool(value, line_no));
  } else if (key == "scan_stage_cap") {
    MONARCH_ASSIGN_OR_RETURN(q.scan_stage_cap_bytes, ParseByteSize(value));
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown qos key '" + key + "'");
  }
  const bool weights_positive =
      q.interactive_weight > 0 && q.training_weight > 0 && q.scan_weight > 0 &&
      q.drain_weight > 0;
  if (!weights_positive) {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": qos class weights must be > 0");
  }
  return Status::Ok();
}

Status ApplyReadKey(ReadRingOptions& read, const std::string& key,
                    const std::string& value, int line_no) {
  if (key == "ring_depth") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    if (n == 0) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": ring_depth must be >= 1");
    }
    read.depth = static_cast<int>(n);
  } else if (key == "worker_threads") {
    MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
    if (n == 0) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": worker_threads must be >= 1");
    }
    read.worker_threads = static_cast<int>(n);
  } else if (key == "zero_copy") {
    MONARCH_ASSIGN_OR_RETURN(read.zero_copy, ParseBool(value, line_no));
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown read key '" + key + "'");
  }
  return Status::Ok();
}

}  // namespace

Result<ParsedConfig> ParseConfig(const std::string& ini_text) {
  ParsedConfig config;
  // tier.<index> sections may appear in any order; collect then sort.
  std::map<int, ParsedTier> tiers;
  bool saw_pfs = false;

  enum class Section {
    kNone,
    kMonarch,
    kTier,
    kPfs,
    kPlacement,
    kResilience,
    kPeer,
    kCheckpoint,
    kRead,
    kPack,
    kQos
  };
  Section section = Section::kNone;
  int tier_index = -1;

  std::istringstream stream(ini_text);
  std::string raw_line;
  int line_no = 0;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    // Strip comments (';' or '#') and whitespace.
    const std::size_t comment = raw_line.find_first_of(";#");
    std::string line =
        Trim(comment == std::string::npos ? raw_line
                                          : raw_line.substr(0, comment));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        return InvalidArgumentError("line " + std::to_string(line_no) +
                                    ": unterminated section header");
      }
      const std::string name = Trim(line.substr(1, line.size() - 2));
      if (name == "monarch") {
        section = Section::kMonarch;
      } else if (name == "pfs") {
        section = Section::kPfs;
        saw_pfs = true;
      } else if (name == "placement") {
        section = Section::kPlacement;
      } else if (name == "resilience") {
        section = Section::kResilience;
      } else if (name == "peer") {
        section = Section::kPeer;
      } else if (name == "checkpoint") {
        section = Section::kCheckpoint;
      } else if (name == "read") {
        section = Section::kRead;
      } else if (name == "pack") {
        section = Section::kPack;
      } else if (name == "qos") {
        section = Section::kQos;
      } else if (name.starts_with("tier.")) {
        MONARCH_ASSIGN_OR_RETURN(
            const std::uint64_t idx,
            ParseU64(name.substr(5), line_no));
        section = Section::kTier;
        tier_index = static_cast<int>(idx);
        tiers.try_emplace(tier_index);
      } else {
        return InvalidArgumentError("line " + std::to_string(line_no) +
                                    ": unknown section '" + name + "'");
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": expected key = value");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));

    switch (section) {
      case Section::kNone:
        return InvalidArgumentError("line " + std::to_string(line_no) +
                                    ": key outside any section");
      case Section::kMonarch:
        if (key == "dataset_dir") {
          config.dataset_dir = value;
        } else if (key == "placement_threads") {
          MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n,
                                   ParseU64(value, line_no));
          config.placement_threads = static_cast<int>(n);
        } else if (key == "fetch_full_file") {
          MONARCH_ASSIGN_OR_RETURN(config.fetch_full_file,
                                   ParseBool(value, line_no));
        } else {
          return InvalidArgumentError("line " + std::to_string(line_no) +
                                      ": unknown monarch key '" + key + "'");
        }
        break;
      case Section::kTier:
        MONARCH_RETURN_IF_ERROR(
            ApplyTierKey(tiers[tier_index], key, value, line_no));
        break;
      case Section::kPfs:
        MONARCH_RETURN_IF_ERROR(ApplyTierKey(config.pfs, key, value, line_no));
        break;
      case Section::kPlacement:
        MONARCH_RETURN_IF_ERROR(
            ApplyPlacementKey(config, key, value, line_no));
        break;
      case Section::kResilience:
        MONARCH_RETURN_IF_ERROR(
            ApplyResilienceKey(config.resilience, key, value, line_no));
        break;
      case Section::kPeer:
        MONARCH_RETURN_IF_ERROR(
            ApplyPeerKey(config.peer, key, value, line_no));
        break;
      case Section::kCheckpoint:
        MONARCH_RETURN_IF_ERROR(
            ApplyCheckpointKey(config.checkpoint, key, value, line_no));
        break;
      case Section::kRead:
        MONARCH_RETURN_IF_ERROR(
            ApplyReadKey(config.read, key, value, line_no));
        break;
      case Section::kPack:
        MONARCH_RETURN_IF_ERROR(
            ApplyPackKey(config.pack, key, value, line_no));
        break;
      case Section::kQos:
        MONARCH_RETURN_IF_ERROR(
            ApplyQosKey(config.qos, key, value, line_no));
        break;
    }
  }

  if (!saw_pfs) return InvalidArgumentError("missing [pfs] section");
  if (tiers.empty()) {
    return InvalidArgumentError("need at least one [tier.N] section");
  }
  int expected = 0;
  for (auto& [idx, tier] : tiers) {
    if (idx != expected) {
      return InvalidArgumentError("tier indices must be contiguous from 0 "
                                  "(missing tier." +
                                  std::to_string(expected) + ")");
    }
    ++expected;
    config.cache_tiers.push_back(std::move(tier));
  }
  if (config.dataset_dir.empty()) {
    return InvalidArgumentError("[monarch] dataset_dir is required");
  }
  return config;
}

namespace {

Result<storage::StorageEnginePtr> MakeEngine(const ParsedTier& tier) {
  if (tier.profile == "ssd") {
    if (tier.root.empty()) {
      return InvalidArgumentError("tier '" + tier.name + "': ssd needs root");
    }
    return storage::MakeLocalSsdEngine(tier.root);
  }
  if (tier.profile == "ram") return storage::MakeRamEngine();
  if (tier.profile == "lustre" || tier.profile == "lustre-quiet") {
    if (tier.root.empty()) {
      return InvalidArgumentError("tier '" + tier.name +
                                  "': lustre needs root");
    }
    return storage::MakeLustreEngine(tier.root, tier.seed,
                                     tier.profile == "lustre");
  }
  if (tier.profile == "raw") {
    if (tier.root.empty()) {
      return InvalidArgumentError("tier '" + tier.name + "': raw needs root");
    }
    return storage::MakeRawEngine(tier.root);
  }
  return InvalidArgumentError("tier '" + tier.name + "': unknown profile '" +
                              tier.profile + "'");
}

}  // namespace

Result<MonarchConfig> BuildMonarchConfig(const ParsedConfig& parsed) {
  MonarchConfig config;
  config.dataset_dir = parsed.dataset_dir;
  config.placement.num_threads = parsed.placement_threads;
  config.placement.fetch_full_file_on_partial_read = parsed.fetch_full_file;
  config.placement.staging_buffer_bytes = parsed.staging_buffer_bytes;
  config.placement.staging_chunk_bytes = parsed.staging_chunk_bytes;
  config.placement.prefetch_lookahead = parsed.prefetch_lookahead;
  // Chunk staging never advertises its copies to the cluster directory,
  // so a packed peer node would serve every file it does not own from
  // the PFS.
  if (parsed.pack.enabled && parsed.peer.enabled) {
    return InvalidArgumentError(
        "[pack] enabled cannot be combined with [peer] enabled: chunk "
        "copies are never shared with peers");
  }
  if (parsed.pack.enabled &&
      parsed.pack.chunk_bytes > parsed.staging_chunk_bytes) {
    return InvalidArgumentError(
        "[pack] chunk_bytes (" + std::to_string(parsed.pack.chunk_bytes) +
        ") must not exceed [placement] staging_chunk_bytes (" +
        std::to_string(parsed.staging_chunk_bytes) +
        "): staged chunks ride the staging buffer pool");
  }
  config.placement.pack = parsed.pack;
  config.placement.qos = parsed.qos;
  config.resilience = parsed.resilience;
  config.read = parsed.read;
  MONARCH_ASSIGN_OR_RETURN(
      config.policy,
      MakePlacementPolicyByName(parsed.placement_policy, parsed.policy_knobs));

  for (const ParsedTier& tier : parsed.cache_tiers) {
    TierSpec spec;
    spec.name = tier.name.empty() ? tier.profile : tier.name;
    MONARCH_ASSIGN_OR_RETURN(spec.engine, MakeEngine(tier));
    spec.quota_bytes = tier.quota_bytes;
    config.cache_tiers.push_back(std::move(spec));
  }
  TierSpec pfs;
  pfs.name = parsed.pfs.name.empty() ? "pfs" : parsed.pfs.name;
  MONARCH_ASSIGN_OR_RETURN(pfs.engine, MakeEngine(parsed.pfs));
  config.pfs = std::move(pfs);
  return config;
}

std::vector<ConfigKeyInfo> ConfigKeyCatalogue() {
  // Keep in lockstep with the Apply*Key functions and the [monarch]
  // switch above — the config_doc_test feeds every sample below through
  // ParseConfig and diffs the key set against docs/CONFIG.md.
  return {
      {"monarch", "dataset_dir", "data"},
      {"monarch", "placement_threads", "6"},
      {"monarch", "fetch_full_file", "true"},
      {"tier.0", "name", "local-ssd"},
      {"tier.0", "profile", "ram"},
      {"tier.0", "root", "/tmp/monarch/ssd"},
      {"tier.0", "quota", "115MiB"},
      {"tier.0", "seed", "42"},
      {"pfs", "name", "lustre"},
      {"pfs", "profile", "ram"},
      {"pfs", "root", "/tmp/monarch/pfs"},
      {"pfs", "quota", "0"},
      {"pfs", "seed", "42"},
      {"placement", "policy", "lru"},
      {"placement", "staging_buffer_bytes", "64MiB"},
      {"placement", "staging_chunk_bytes", "4MiB"},
      {"placement", "prefetch_lookahead", "8"},
      {"placement", "hotspot_decay_interval", "256"},
      {"resilience", "retry_max_attempts", "4"},
      {"resilience", "retry_initial_backoff_us", "50"},
      {"resilience", "retry_multiplier", "2.0"},
      {"resilience", "retry_max_backoff_us", "5000"},
      {"resilience", "retry_budget_us", "20000"},
      {"resilience", "health_enabled", "true"},
      {"resilience", "health_window", "64"},
      {"resilience", "health_min_samples", "16"},
      {"resilience", "health_error_threshold", "0.5"},
      {"resilience", "health_cooldown_us", "100000"},
      {"resilience", "health_half_open_successes", "3"},
      {"resilience", "verify_staged_writes", "true"},
      {"resilience", "verify_on_read", "false"},
      {"resilience", "max_placement_attempts", "3"},
      {"resilience", "restage_after_quarantine", "true"},
      {"peer", "enabled", "true"},
      {"peer", "interconnect_bandwidth", "1200MiB"},
      {"peer", "interconnect_latency_us", "150"},
      {"peer", "directory_shards", "16"},
      {"peer", "replication", "1"},
      {"peer", "restage_bandwidth", "0"},
      {"peer", "max_failover_holders", "2"},
      {"peer", "quarantine_failures", "3"},
      {"peer", "churn_detection_lag_us", "0"},
      {"peer", "churn_random_kills", "0"},
      {"peer", "churn_seed", "42"},
      {"pack", "enabled", "true"},
      {"pack", "chunk_bytes", "256KiB"},
      {"pack", "codec", "lz"},
      {"pack", "pack_extent_bytes", "64MiB"},
      {"qos", "enabled", "true"},
      {"qos", "interactive_weight", "8"},
      {"qos", "training_weight", "4"},
      {"qos", "scan_weight", "2"},
      {"qos", "drain_weight", "1"},
      {"qos", "tenant_share", "1.0"},
      {"qos", "total_bandwidth", "400MiB"},
      {"qos", "admission_queue_threshold", "0.85"},
      {"qos", "admission_reject_threshold", "1.5"},
      {"qos", "work_conserving", "true"},
      {"qos", "scan_stage_cap", "64MiB"},
      {"read", "ring_depth", "256"},
      {"read", "worker_threads", "2"},
      {"read", "zero_copy", "true"},
      {"checkpoint", "enabled", "true"},
      {"checkpoint", "dir", "ckpt"},
      {"checkpoint", "keep_last", "3"},
      {"checkpoint", "drain_bandwidth", "200MiB"},
      {"checkpoint", "drain_threads", "1"},
      {"checkpoint", "verify_on_restore", "true"},
  };
}

Result<std::unique_ptr<Monarch>> MonarchFromIni(const std::string& ini_text) {
  MONARCH_ASSIGN_OR_RETURN(const ParsedConfig parsed, ParseConfig(ini_text));
  MONARCH_ASSIGN_OR_RETURN(MonarchConfig config, BuildMonarchConfig(parsed));
  return Monarch::Create(std::move(config));
}

}  // namespace monarch::core
