#include "trace.h"

#include <algorithm>
#include <chrono>
#include <string_view>

#include "json.h"

namespace suite {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPfsRead: return "storage.pfs.read";
    case Layer::kPfsWrite: return "storage.pfs.write";
    case Layer::kPfsMeta: return "storage.pfs.meta";
    case Layer::kLocalRead: return "storage.local.read";
    case Layer::kLocalWrite: return "storage.local.write";
    case Layer::kLocalMeta: return "storage.local.meta";
    case Layer::kCoreRead: return "core.read";
    case Layer::kCoreDrain: return "core.drain";
    case Layer::kCkptSave: return "ckpt.save";
    case Layer::kCkptFlush: return "ckpt.flush";
    case Layer::kCkptRestore: return "ckpt.restore";
    case Layer::kCount: break;
  }
  return "unknown";
}

struct SpanRecorder::ThreadState {
  struct Frame {
    std::uint64_t id = 0;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    Layer layer = Layer::kCount;
  };

  std::uint32_t tid = 0;     ///< fixed at registration
  std::vector<Frame> stack;  ///< touched only by the owning thread
  mutable std::mutex mu;     ///< guards spans and totals
  std::vector<SpanRecord> spans;
  ThreadTotals totals;
};

namespace {

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_ns_(SteadyNs()) {}

SpanRecorder& SpanRecorder::Instance() {
  static SpanRecorder recorder;
  return recorder;
}

std::int64_t SpanRecorder::NowNs() const { return SteadyNs() - epoch_ns_; }

SpanRecorder::ThreadState& SpanRecorder::Local() {
  // The recorder owns every ThreadState, so records outlive the threads
  // (the library's placement workers exit at Monarch shutdown).
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    auto fresh = std::make_unique<ThreadState>();
    std::lock_guard<std::mutex> lock(threads_mu_);
    fresh->tid = static_cast<std::uint32_t>(threads_.size() + 1);
    fresh->totals.tid = fresh->tid;
    state = fresh.get();
    threads_.push_back(std::move(fresh));
  }
  return *state;
}

std::vector<SpanRecord> SpanRecorder::Spans() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (const auto& thread : threads_) {
    std::lock_guard<std::mutex> thread_lock(thread->mu);
    out.insert(out.end(), thread->spans.begin(), thread->spans.end());
  }
  return out;
}

std::vector<ThreadTotals> SpanRecorder::Totals() const {
  std::vector<ThreadTotals> out;
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (const auto& thread : threads_) {
    std::lock_guard<std::mutex> thread_lock(thread->mu);
    out.push_back(thread->totals);
  }
  return out;
}

std::uint64_t SpanRecorder::stored() const {
  return std::min<std::uint64_t>(claimed_.load(std::memory_order_relaxed),
                                 max_spans_);
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (const auto& thread : threads_) {
    std::lock_guard<std::mutex> thread_lock(thread->mu);
    thread->spans.clear();
    thread->totals = ThreadTotals{};
    thread->totals.tid = thread->tid;
  }
  claimed_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void SpanRecorder::WriteChromeTrace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  std::string line;
  for (const SpanRecord& span : Spans()) {
    const std::string_view name = LayerName(span.layer);
    line = "{\"name\":\"";
    line += name;
    line += "\",\"cat\":\"";
    line += name.substr(0, name.find('.'));
    line += "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(span.tid) +
            ",\"ts\":" + JsonNumber(static_cast<double>(span.start_ns) / 1e3) +
            ",\"dur\":" + JsonNumber(static_cast<double>(span.dur_ns) / 1e3) +
            ",\"args\":{\"id\":" + std::to_string(span.id) +
            ",\"parent\":" + std::to_string(span.parent) +
            ",\"request\":" + std::to_string(span.request) +
            ",\"self_us\":" +
            JsonNumber(static_cast<double>(span.self_ns) / 1e3) + "}},\n";
    out << line;
  }
  out << "{\"name\":\"suite.spans_dropped\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,"
         "\"tid\":0,\"ts\":0,\"args\":{\"dropped\":"
      << dropped() << "}}\n]}\n";
}

ScopedSpan::ScopedSpan(Layer layer) {
  SpanRecorder& recorder = SpanRecorder::Instance();
  if (!recorder.enabled()) return;
  SpanRecorder::ThreadState& thread = recorder.Local();
  const std::uint64_t id =
      recorder.next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t request =
      thread.stack.empty() ? id : thread.stack.back().request;
  thread.stack.push_back({id, request, recorder.NowNs(), 0, layer});
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  SpanRecorder& recorder = SpanRecorder::Instance();
  SpanRecorder::ThreadState& thread = recorder.Local();
  const std::int64_t end_ns = recorder.NowNs();
  const SpanRecorder::ThreadState::Frame frame = thread.stack.back();
  thread.stack.pop_back();

  SpanRecord record;
  record.start_ns = frame.start_ns;
  record.dur_ns = end_ns - frame.start_ns;
  record.self_ns = record.dur_ns - frame.child_ns;
  record.id = frame.id;
  record.parent = thread.stack.empty() ? 0 : thread.stack.back().id;
  record.request = frame.request;
  record.tid = thread.tid;
  record.layer = frame.layer;
  if (!thread.stack.empty()) thread.stack.back().child_ns += record.dur_ns;

  std::lock_guard<std::mutex> lock(thread.mu);
  LayerTotals& totals =
      (record.parent == 0 ? thread.totals.root
                          : thread.totals.nested)[static_cast<std::size_t>(
          frame.layer)];
  ++totals.count;
  totals.busy_ns += record.dur_ns;
  totals.self_ns += record.self_ns;
  if (recorder.claimed_.fetch_add(1, std::memory_order_relaxed) <
      recorder.max_spans_) {
    thread.spans.push_back(record);
  } else {
    recorder.dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace suite
