#include "core/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
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

// An integer key held in an `int`: a value above INT_MAX is an error,
// not a silent wrap.
Result<int> ParseInt(const std::string& value, int line_no) {
  MONARCH_ASSIGN_OR_RETURN(const std::uint64_t n, ParseU64(value, line_no));
  if (n > static_cast<std::uint64_t>(INT_MAX)) {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": integer '" + value + "' outside [0, " +
                                std::to_string(INT_MAX) + "]");
  }
  return static_cast<int>(n);
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
    MONARCH_ASSIGN_OR_RETURN(r.retry.max_attempts, ParseInt(value, line_no));
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
    MONARCH_ASSIGN_OR_RETURN(r.health.half_open_successes,
                             ParseInt(value, line_no));
  } else if (key == "verify_staged_writes") {
    MONARCH_ASSIGN_OR_RETURN(r.verify_staged_writes, ParseBool(value, line_no));
  } else if (key == "verify_on_read") {
    MONARCH_ASSIGN_OR_RETURN(r.verify_on_read, ParseBool(value, line_no));
  } else if (key == "max_placement_attempts") {
    MONARCH_ASSIGN_OR_RETURN(r.max_placement_attempts,
                             ParseInt(value, line_no));
  } else if (key == "restage_after_quarantine") {
    MONARCH_ASSIGN_OR_RETURN(r.restage_after_quarantine,
                             ParseBool(value, line_no));
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown resilience key '" + key + "'");
  }
  return Status::Ok();
}

// `[pfs]` takes a cache tier's keys except `quota`: staging never
// writes to the PFS, so nothing would read one.
Status ApplyTierKey(ParsedTier& tier, bool is_pfs, const std::string& key,
                    const std::string& value, int line_no) {
  if (key == "name") {
    tier.name = value;
  } else if (key == "profile") {
    tier.profile = value;
  } else if (key == "root") {
    tier.root = value;
  } else if (key == "quota" && !is_pfs) {
    MONARCH_ASSIGN_OR_RETURN(tier.quota_bytes, ParseByteSize(value));
  } else if (key == "seed") {
    MONARCH_ASSIGN_OR_RETURN(tier.seed, ParseU64(value, line_no));
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown " + (is_pfs ? "pfs" : "tier") +
                                " key '" + key + "'");
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
    MONARCH_ASSIGN_OR_RETURN(config.prefetch_lookahead,
                             ParseInt(value, line_no));
  } else {
    return InvalidArgumentError("line " + std::to_string(line_no) +
                                ": unknown placement key '" + key + "'");
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
      } else if (name == "pack") {
        section = Section::kPack;
      } else if (name == "qos") {
        section = Section::kQos;
      } else if (name.starts_with("tier.")) {
        MONARCH_ASSIGN_OR_RETURN(tier_index,
                                 ParseInt(name.substr(5), line_no));
        section = Section::kTier;
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
          MONARCH_ASSIGN_OR_RETURN(config.placement_threads,
                                   ParseInt(value, line_no));
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
            ApplyTierKey(tiers[tier_index], /*is_pfs=*/false, key, value,
                         line_no));
        break;
      case Section::kPfs:
        MONARCH_RETURN_IF_ERROR(
            ApplyTierKey(config.pfs, /*is_pfs=*/true, key, value, line_no));
        break;
      case Section::kPlacement:
        MONARCH_RETURN_IF_ERROR(
            ApplyPlacementKey(config, key, value, line_no));
        break;
      case Section::kResilience:
        MONARCH_RETURN_IF_ERROR(
            ApplyResilienceKey(config.resilience, key, value, line_no));
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
      {"pack", "enabled", "true"},
      {"pack", "chunk_bytes", "256KiB"},
      {"pack", "codec", "lz"},
      {"qos", "enabled", "true"},
      {"qos", "interactive_weight", "8"},
      {"qos", "training_weight", "4"},
      {"qos", "scan_weight", "2"},
      {"qos", "drain_weight", "1"},
      {"qos", "scan_stage_cap", "64MiB"},
  };
}

Result<std::unique_ptr<Monarch>> MonarchFromIni(const std::string& ini_text) {
  MONARCH_ASSIGN_OR_RETURN(const ParsedConfig parsed, ParseConfig(ini_text));
  MONARCH_ASSIGN_OR_RETURN(MonarchConfig config, BuildMonarchConfig(parsed));
  return Monarch::Create(std::move(config));
}

}  // namespace monarch::core
