// Fault-tolerance policy types shared by the storage drivers, the
// placement handler, and the Monarch facade.
//
// MONARCH's premise (§III) is that the PFS always holds the authoritative
// copy, so every failure above it is survivable: transient backend errors
// are retried with bounded exponential backoff, persistently failing
// tiers are routed around by a per-tier circuit breaker (core/tier_health.h),
// and a corrupted staged copy is quarantined back to PFS-resident state.
// The degradation ladder is documented in DESIGN.md ("Failure model &
// degradation ladder"); every rung is observable through the metrics and
// trace events listed in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <optional>

#include "core/tier_health.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/status.h"

namespace monarch::core {

/// Bounded-retry policy for transient (kUnavailable) backend errors.
/// Backoff is exponential with deterministic jitter (seeded util::Rng, so
/// failure-injection tests replay identically) and capped twice: per-delay
/// by `max_backoff` and in total by `budget` — a read never stalls a
/// training step longer than the budget before the caller falls down the
/// hierarchy.
struct RetryPolicy {
  /// Total tries including the first (1 = no retries).
  int max_attempts = 4;
  Duration initial_backoff = Micros(50);
  double backoff_multiplier = 2.0;
  Duration max_backoff = Millis(5);
  /// Cap on the SUM of backoff sleeps for one logical operation.
  Duration budget = Millis(20);
  /// Seed for the jitter stream (mixed with a per-call-site salt).
  std::uint64_t jitter_seed = 42;
};

/// True for errors worth retrying in place (the backend said "try again").
/// kNotFound is NOT retryable: it is either a legitimate miss or an
/// eviction race, and the fix is falling down the hierarchy, not waiting.
[[nodiscard]] inline bool IsRetryableError(const Status& status) noexcept {
  return status.code() == StatusCode::kUnavailable;
}

/// Per-operation backoff schedule. Construct, then call NextDelay() after
/// each failed attempt: a value is how long to sleep before retrying,
/// nullopt means attempts or budget are exhausted and the error should
/// surface to the caller.
class Backoff {
 public:
  Backoff(const RetryPolicy& policy, std::uint64_t salt) noexcept
      : policy_(policy), rng_(policy.jitter_seed ^ salt) {}

  std::optional<Duration> NextDelay() noexcept {
    if (++attempt_ >= policy_.max_attempts) return std::nullopt;
    if (spent_ >= policy_.budget) return std::nullopt;
    // Full jitter over [delay/2, delay): deterministic for a given seed,
    // decorrelated across call sites via the salt.
    const double jitter = 0.5 + 0.5 * rng_.NextDouble();
    Duration delay = std::chrono::duration_cast<Duration>(next_ * jitter);
    if (delay > policy_.max_backoff) delay = policy_.max_backoff;
    if (spent_ + delay > policy_.budget) delay = policy_.budget - spent_;
    spent_ += delay;
    next_ = std::chrono::duration_cast<Duration>(
        next_ * policy_.backoff_multiplier);
    if (next_ > policy_.max_backoff) next_ = policy_.max_backoff;
    return delay;
  }

  /// Failed attempts seen so far (== NextDelay() calls).
  [[nodiscard]] int attempts() const noexcept { return attempt_; }

 private:
  const RetryPolicy& policy_;
  Xoshiro256 rng_;
  int attempt_ = 0;
  Duration next_{policy_.initial_backoff};
  Duration spent_{0};
};

/// Everything the fault-tolerance layer can be tuned with; carried by
/// MonarchConfig and parsed from the `[resilience]` INI section
/// (core/config.h).
struct ResilienceOptions {
  RetryPolicy retry;
  TierHealthOptions health;

  /// After staging a copy, read it back and verify its CRC32C before
  /// publishing the new level — a corrupted write degrades to a failed
  /// placement instead of serving wrong bytes forever.
  bool verify_staged_writes = true;

  /// Verify the recorded CRC32C of every whole chunk a cache-tier read
  /// serves; a mismatch quarantines the run and re-reads from the PFS.
  /// Off by default (costs a checksum pass per chunk read whole).
  bool verify_on_read = false;

  /// Per-file cap on failed staging attempts: after this many the file is
  /// marked unplaceable so a broken file cannot hammer the staging pool
  /// on every subsequent access (it keeps being served by the PFS).
  int max_placement_attempts = 3;

  /// Let a later read re-stage a file after a quarantine removed its
  /// corrupt run (subject to max_placement_attempts); off, the first
  /// quarantine parks the file on the PFS.
  bool restage_after_quarantine = true;
};

}  // namespace monarch::core
