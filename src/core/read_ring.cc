#include "core/read_ring.h"

#include <algorithm>
#include <utility>

#include "core/monarch.h"
#include "obs/event_tracer.h"

namespace monarch::core {

namespace {
/// Ops a worker claims per queue visit: big enough to amortise the lock
/// and give the per-tier sort something to coalesce, small enough that
/// one slow op doesn't convoy a deep queue behind a single worker.
constexpr std::size_t kWorkerBatch = 8;
}  // namespace

ReadRing::ReadRing(Monarch& monarch, ReadRingOptions options)
    : monarch_(monarch), options_(options) {
  options_.depth = std::max(1, options_.depth);
  options_.worker_threads = std::max(1, options_.worker_threads);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  m_submitted_ = registry.GetCounter("monarch.readring.submitted", "ops",
                                     "read ops accepted by ReadRing::Submit");
  m_completed_ = registry.GetCounter(
      "monarch.readring.completed", "ops",
      "read-ring completions delivered (callbacks + completion queue)");
  m_cancelled_ = registry.GetCounter(
      "monarch.readring.cancelled", "ops",
      "queued read-ring ops cancelled by Shutdown before starting");
  m_zero_copy_ = registry.GetCounter(
      "monarch.readring.zero_copy_reads", "ops",
      "ring completions served through the zero-copy lease lane");
  m_copy_ = registry.GetCounter(
      "monarch.readring.copy_reads", "ops",
      "ring completions that copied into a caller or private buffer");
  m_depth_ = registry.GetGauge("monarch.readring.depth", "ops",
                               "configured submission-ring capacity");
  m_queued_ = registry.GetGauge("monarch.readring.queued", "ops",
                                "ring ops submitted but not yet started");
  m_inflight_ = registry.GetGauge(
      "monarch.readring.inflight", "ops",
      "ring ops a worker is currently executing");
  m_depth_->Set(options_.depth);
}

ReadRing::~ReadRing() { Shutdown(); }

std::size_t ReadRing::Submit(std::vector<ReadOp> ops,
                             CompletionFn on_complete) {
  if (ops.empty()) return 0;
  obs::TraceSpan span("readring.submit", "core");
  // Capture the submitter's tenant once per batch: the ops execute on
  // ring workers, and attribution must survive the thread hop.
  std::optional<qos::TenantContext> tenant;
  if (const qos::TenantContext* ambient = qos::CurrentTenant()) {
    tenant = *ambient;
  }
  std::size_t accepted = 0;
  {
    std::unique_lock lock(mu_);
    // The workers start with the first submission: a Monarch nobody
    // submits to costs no ring threads.
    if (!stop_ && workers_.empty()) {
      workers_.reserve(static_cast<std::size_t>(options_.worker_threads));
      for (int i = 0; i < options_.worker_threads; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    }
    for (ReadOp& op : ops) {
      space_cv_.wait(lock, [this] {
        return stop_ ||
               queue_.size() < static_cast<std::size_t>(options_.depth);
      });
      if (stop_) break;
      queue_.push_back(Pending{std::move(op), on_complete, tenant});
      ++accepted;
      // Wake a worker per op, not once per batch: a batch deeper than
      // the ring must have workers draining WHILE the submitter is
      // still blocked on space_cv_, or neither side ever runs.
      work_cv_.notify_one();
    }
    m_queued_->Set(static_cast<std::int64_t>(queue_.size()));
  }
  if (accepted > 0) {
    submitted_.fetch_add(accepted, std::memory_order_relaxed);
    m_submitted_->Increment(accepted);
    work_cv_.notify_all();
  }
  if (span.active()) {
    span.set_args_json("\"ops\":" + std::to_string(accepted));
  }
  return accepted;
}

std::size_t ReadRing::Harvest(std::vector<ReadCompletion>& out,
                              std::size_t max) {
  std::lock_guard lock(mu_);
  const std::size_t n = std::min(max, completions_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(completions_[i]));
  }
  completions_.erase(completions_.begin(),
                     completions_.begin() + static_cast<std::ptrdiff_t>(n));
  return n;
}

std::size_t ReadRing::HarvestBlocking(std::vector<ReadCompletion>& out,
                                      std::size_t max) {
  std::unique_lock lock(mu_);
  harvest_cv_.wait(lock, [this] {
    return !completions_.empty() || stop_ ||
           (queue_.empty() && inflight_ == 0);
  });
  const std::size_t n = std::min(max, completions_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(completions_[i]));
  }
  completions_.erase(completions_.begin(),
                     completions_.begin() + static_cast<std::ptrdiff_t>(n));
  return n;
}

void ReadRing::Shutdown() {
  std::deque<Pending> orphaned;
  {
    std::lock_guard lock(mu_);
    const bool started = !workers_.empty();
    stop_ = true;
    if (!started) return;  // never started, or already shut down
    orphaned.swap(queue_);
    m_queued_->Set(0);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();

  // Cancel everything that never started. Delivered outside the lock —
  // callbacks may call back into the ring (Harvest) freely.
  for (Pending& pending : orphaned) {
    ReadCompletion completion;
    completion.user_data = pending.op.user_data;
    completion.bytes = FailedPreconditionError("read ring shut down before '" +
                                               pending.op.name + "' started");
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    m_cancelled_->Increment();
    Deliver(pending, std::move(completion));
  }

  std::vector<std::thread> workers;
  {
    std::lock_guard lock(mu_);
    workers.swap(workers_);
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  harvest_cv_.notify_all();
}

ReadRing::RingStats ReadRing::Stats() const {
  RingStats stats;
  stats.depth = options_.depth;
  {
    std::lock_guard lock(mu_);
    stats.queued = queue_.size();
    stats.inflight = inflight_;
  }
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.zero_copy_reads = zero_copy_reads_.load(std::memory_order_relaxed);
  stats.copy_reads = copy_reads_.load(std::memory_order_relaxed);
  return stats;
}

void ReadRing::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      const std::size_t n = std::min(kWorkerBatch, queue_.size());
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      inflight_ += n;
      m_queued_->Set(static_cast<std::int64_t>(queue_.size()));
      m_inflight_->Set(static_cast<std::int64_t>(inflight_));
    }
    space_cv_.notify_all();

    // Per-tier coalescing: group the batch by the files' current serving
    // level so consecutive ops hit the same driver. Stable, so same-tier
    // ops keep their submission order. Levels are snapshotted first:
    // placement and eviction move them concurrently, and a comparator
    // whose answers change mid-sort breaks std::stable_sort's ordering
    // precondition (it can walk off the batch).
    if (batch.size() > 1) {
      for (Pending& pending : batch) {
        pending.level_hint = monarch_.ServingLevelHint(pending.op.name);
      }
      std::stable_sort(batch.begin(), batch.end(),
                       [](const Pending& a, const Pending& b) {
                         return a.level_hint < b.level_hint;
                       });
    }
    for (Pending& pending : batch) {
      Execute(std::move(pending));
    }
    {
      std::lock_guard lock(mu_);
      inflight_ -= batch.size();
      m_inflight_->Set(static_cast<std::int64_t>(inflight_));
    }
    harvest_cv_.notify_all();
  }
}

void ReadRing::Execute(Pending pending) {
  // Re-install the submitter's tenant for the duration of the op so the
  // storage drivers charge the right bandwidth share (ISSUE 10).
  std::optional<qos::ScopedTenant> scope;
  if (pending.tenant.has_value()) scope.emplace(*pending.tenant);
  ReadCompletion completion;
  completion.user_data = pending.op.user_data;
  if (pending.op.lease) {
    auto lease = monarch_.ReadZeroCopy(pending.op.name, pending.op.offset,
                                       pending.op.max_bytes,
                                       options_.zero_copy);
    if (lease.ok()) {
      completion.level = lease.value().level();
      completion.zero_copy = lease.value().zero_copy();
      completion.bytes = lease.value().size();
      completion.lease = std::move(lease).value();
    } else {
      completion.bytes = lease.status();
    }
  } else {
    auto read =
        monarch_.Read(pending.op.name, pending.op.offset, pending.op.dst);
    if (read.ok()) {
      completion.bytes = read.value();
    } else {
      completion.bytes = read.status();
    }
  }
  if (completion.bytes.ok()) {
    if (completion.zero_copy) {
      zero_copy_reads_.fetch_add(1, std::memory_order_relaxed);
      m_zero_copy_->Increment();
    } else {
      copy_reads_.fetch_add(1, std::memory_order_relaxed);
      m_copy_->Increment();
    }
  }
  Deliver(pending, std::move(completion));
}

void ReadRing::Deliver(Pending& pending, ReadCompletion completion) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  m_completed_->Increment();
  if (pending.on_complete) {
    pending.on_complete(std::move(completion));
    return;
  }
  {
    std::lock_guard lock(mu_);
    completions_.push_back(std::move(completion));
  }
  harvest_cv_.notify_all();
}

}  // namespace monarch::core
