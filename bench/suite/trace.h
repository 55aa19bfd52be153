// Span recorder for the suite's traced runs.
//
// The suite times each layer from outside the library: its decorators
// (timed.h) open a ScopedSpan around every call they forward. With the
// recorder disabled a ScopedSpan is inert — no clock read, no allocation
// — so the untraced runs that produce the end-to-end metrics pay one
// relaxed load per call.
//
// Parents come from a thread-local stack: a storage span opened on a
// reader thread while a `core.read` span is open nests under it and
// shares its request id. A span opened with an empty stack (the
// library's placement workers, the checkpoint drain lane) is a root:
// background work. Self time is the span's duration minus the time its
// children on the same thread covered; children nest strictly on one
// thread, so that is the sum of their durations, and the self times of
// one thread never overlap.
//
// Per-thread, per-layer totals are exact. Stored span records (for the
// percentiles and the Chrome trace) are capped; the overflow is counted.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace suite {

enum class Layer : std::uint8_t {
  kPfsRead,
  kPfsWrite,
  kPfsMeta,
  kLocalRead,
  kLocalWrite,
  kLocalMeta,
  kCoreRead,     ///< one Monarch::Read as the framework issues it
  kCoreDrain,    ///< Monarch::DrainPlacements
  kCkptSave,
  kCkptFlush,
  kCkptRestore,
  kCount
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/// Span name, `<module>.<...>`; the module prefix is the layer's module.
const char* LayerName(Layer layer);

struct SpanRecord {
  std::int64_t start_ns = 0;  ///< since the recorder was created
  std::int64_t dur_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root (no enclosing span)
  std::uint64_t request = 0;  ///< id of the root span of this span's tree
  std::uint32_t tid = 0;      ///< recorder-assigned thread number
  Layer layer = Layer::kCount;
};

struct LayerTotals {
  std::uint64_t count = 0;
  std::int64_t busy_ns = 0;
  std::int64_t self_ns = 0;
};

/// Exact sums of one thread's spans, split into root and nested spans.
struct ThreadTotals {
  std::uint32_t tid = 0;
  std::array<LayerTotals, kLayerCount> root{};
  std::array<LayerTotals, kLayerCount> nested{};
};

class SpanRecorder {
 public:
  static SpanRecorder& Instance();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_max_spans(std::size_t max_spans) { max_spans_ = max_spans; }

  [[nodiscard]] std::vector<SpanRecord> Spans() const;
  [[nodiscard]] std::vector<ThreadTotals> Totals() const;
  [[nodiscard]] std::uint64_t stored() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Forget every span and total. Only while no span is open.
  void Clear();

  /// Chrome trace_event JSON of the stored spans (complete events; args
  /// carry id, parent, request and self time) plus a dropped-span count.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  friend class ScopedSpan;
  struct ThreadState;

  SpanRecorder();
  ThreadState& Local();
  [[nodiscard]] std::int64_t NowNs() const;

  std::atomic<bool> enabled_{false};
  std::size_t max_spans_ = std::size_t{1} << 20;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> claimed_{0};  ///< stored-slot claims
  std::atomic<std::uint64_t> dropped_{0};
  const std::int64_t epoch_ns_;

  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;  ///< under threads_mu_
};

/// RAII span on the calling thread. Inert unless the recorder was
/// enabled when it was opened.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
};

}  // namespace suite
