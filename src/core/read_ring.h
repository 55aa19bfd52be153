// ReadRing: io_uring-style asynchronous submission/completion ring over
// Monarch::Read (the tentpole of the zero-copy async hot path).
//
// Callers enqueue BATCHES of ReadOps — copy-mode ops carry a caller
// buffer, lease-mode ops ask for a zero-copy ReadLease — and either
// harvest completions from the completion queue or register a callback
// that fires as each op finishes (the hook dlsim's prefetch pipeline
// feeds from). A small worker pool, started by the first Submit,
// drains the submission queue; each worker pops a batch and sorts it by
// the files' CURRENT hierarchy level before executing, so ops against
// the same tier run back-to-back (per-tier coalescing: the tier's
// breaker/driver state stays hot over the run of ops instead of
// ping-ponging between tiers).
//
// Backpressure: the submission queue is bounded by `depth`; Submit
// blocks while the ring is full, which is what keeps an unbounded
// producer (a 64-thread data loader) from ballooning memory.
//
// Shutdown drains every queued-but-unstarted op into a
// kFailedPrecondition completion (the async analogue of read-after-
// close) and joins the workers; in-flight ops finish normally first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/read_lease.h"
#include "obs/metrics_registry.h"
#include "qos/tenant.h"
#include "util/status.h"

namespace monarch::core {

class Monarch;

struct ReadRingOptions {
  /// Maximum ops queued-but-unstarted before Submit blocks.
  int depth = 256;
  /// Worker threads draining the submission queue.
  int worker_threads = 2;
  /// Serve lease-mode ops through the zero-copy lane when the tier can
  /// lend; off = every lease is a private copy (A/B lever for benches).
  bool zero_copy = true;
};

/// One submitted read. Copy mode (`lease == false`) fills `dst`;
/// lease mode ignores `dst` and returns a ReadLease of up to
/// `max_bytes` from `offset`. `user_data` is echoed in the completion
/// (io_uring idiom) so callers can correlate out-of-order completions.
struct ReadOp {
  std::string name;
  std::uint64_t offset = 0;
  std::span<std::byte> dst{};
  bool lease = false;
  std::uint64_t max_bytes = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t user_data = 0;
};

struct ReadCompletion {
  std::uint64_t user_data = 0;
  /// Bytes read, or the error the degradation ladder surfaced
  /// (kFailedPrecondition for ops cancelled by Shutdown).
  Result<std::size_t> bytes = std::size_t{0};
  /// Valid when the op was lease-mode and succeeded.
  ReadLease lease;
  /// True when the bytes were served through the zero-copy lane.
  bool zero_copy = false;
  /// Hierarchy level that served the read (-1 on error).
  int level = -1;
};

class ReadRing {
 public:
  using CompletionFn = std::function<void(ReadCompletion)>;

  ReadRing(Monarch& monarch, ReadRingOptions options);
  ~ReadRing();
  ReadRing(const ReadRing&) = delete;
  ReadRing& operator=(const ReadRing&) = delete;

  /// Enqueue a batch. Blocks while the ring is full (backpressure).
  /// With a callback, completions are delivered by invoking `on_complete`
  /// from a worker thread (per op, possibly concurrently); without one
  /// they land on the completion queue for Harvest. Returns the number
  /// of ops accepted — less than ops.size() only when the ring is
  /// shutting down (the rest are dropped without completions).
  std::size_t Submit(std::vector<ReadOp> ops, CompletionFn on_complete = {});

  /// Move up to `max` ready completions into `out` (appended).
  /// Non-blocking; returns the number harvested.
  std::size_t Harvest(std::vector<ReadCompletion>& out,
                      std::size_t max = std::numeric_limits<std::size_t>::max());

  /// Like Harvest, but blocks until at least one completion is ready,
  /// every submitted op has completed, or the ring shuts down.
  std::size_t HarvestBlocking(
      std::vector<ReadCompletion>& out,
      std::size_t max = std::numeric_limits<std::size_t>::max());

  /// Cancel queued ops (each completes with kFailedPrecondition), let
  /// in-flight ops finish, join the workers. Idempotent.
  void Shutdown();

  /// Point-in-time ring state for benches and tests.
  struct RingStats {
    int depth = 0;                       ///< configured capacity
    std::size_t queued = 0;              ///< submitted, not yet started
    std::size_t inflight = 0;            ///< started, not yet completed
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;         ///< includes cancelled
    std::uint64_t cancelled = 0;
    std::uint64_t zero_copy_reads = 0;   ///< completions served zero-copy
    std::uint64_t copy_reads = 0;        ///< completions that memcpy'd
    /// zero_copy_reads / (zero_copy_reads + copy_reads), 0 when idle.
    [[nodiscard]] double zero_copy_hit_rate() const noexcept {
      const std::uint64_t total = zero_copy_reads + copy_reads;
      return total == 0 ? 0.0
                        : static_cast<double>(zero_copy_reads) /
                              static_cast<double>(total);
    }
  };
  [[nodiscard]] RingStats Stats() const;

  [[nodiscard]] const ReadRingOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Pending {
    ReadOp op;
    CompletionFn on_complete;  ///< empty = deliver to completion queue
    /// Submitter's ambient tenant, re-installed on the executing worker
    /// so ring reads stay attributable (ISSUE 10). Unset = no tenant.
    std::optional<qos::TenantContext> tenant;
    /// Serving level snapshotted for the per-tier batch sort.
    int level_hint = 0;
  };

  void WorkerLoop();
  /// Execute one op (outside any ring lock) and deliver its completion.
  void Execute(Pending pending);
  void Deliver(Pending& pending, ReadCompletion completion);

  Monarch& monarch_;
  ReadRingOptions options_;

  mutable std::mutex mu_;
  std::condition_variable space_cv_;    ///< submitters waiting for room
  std::condition_variable work_cv_;     ///< workers waiting for ops
  std::condition_variable harvest_cv_;  ///< harvesters waiting for results
  std::deque<Pending> queue_;
  std::vector<ReadCompletion> completions_;
  std::size_t inflight_ = 0;
  bool stop_ = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> zero_copy_reads_{0};
  std::atomic<std::uint64_t> copy_reads_{0};

  // Ring instruments (docs/OBSERVABILITY.md §1, `monarch.readring.*`),
  // resolved once at construction like Monarch's read counters.
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Counter* m_zero_copy_ = nullptr;
  obs::Counter* m_copy_ = nullptr;
  obs::Gauge* m_depth_ = nullptr;
  obs::Gauge* m_queued_ = nullptr;
  obs::Gauge* m_inflight_ = nullptr;

  std::vector<std::thread> workers_;
};

}  // namespace monarch::core
