#include "workload/trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <thread>

namespace monarch::workload {

void TraceRecorder::Record(TraceOp op, const std::string& path,
                           std::uint64_t offset, std::uint64_t length) {
  TraceEvent ev;
  ev.timestamp = SteadyClock::now() - start_;
  ev.op = op;
  ev.path = path;
  ev.offset = offset;
  ev.length = length;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(ev));
}

std::vector<TraceEvent> TraceRecorder::Drain() {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(events_);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.timestamp < b.timestamp;
                   });
  return out;
}

std::size_t TraceRecorder::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

namespace {

char OpChar(TraceOp op) {
  switch (op) {
    case TraceOp::kRead: return 'R';
    case TraceOp::kWrite: return 'W';
    case TraceOp::kStat: return 'S';
  }
  return '?';
}

Result<TraceOp> ParseOp(char c) {
  switch (c) {
    case 'R': return TraceOp::kRead;
    case 'W': return TraceOp::kWrite;
    case 'S': return TraceOp::kStat;
    default:
      return InvalidArgumentError(std::string("bad trace op '") + c + "'");
  }
}

}  // namespace

std::string SerializeTrace(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 48);
  char buf[64];
  for (const TraceEvent& ev : events) {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(ev.timestamp)
            .count();
    std::snprintf(buf, sizeof buf, "%lld,%c,", static_cast<long long>(us),
                  OpChar(ev.op));
    out += buf;
    out += ev.path;
    std::snprintf(buf, sizeof buf, ",%llu,%llu\n",
                  static_cast<unsigned long long>(ev.offset),
                  static_cast<unsigned long long>(ev.length));
    out += buf;
  }
  return out;
}

Result<std::vector<TraceEvent>> ParseTrace(const std::string& text) {
  std::vector<TraceEvent> events;
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (line.empty()) continue;

    // ts_us,op,path,offset,length — path may not contain commas.
    std::array<std::string, 5> fields;
    std::size_t start = 0;
    for (int f = 0; f < 5; ++f) {
      const std::size_t comma = line.find(',', start);
      if (f < 4 && comma == std::string::npos) {
        return InvalidArgumentError("trace line " + std::to_string(line_no) +
                                    ": expected 5 fields");
      }
      fields[f] = line.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      start = comma + 1;
    }

    // A numeric field must parse whole: "12x" is as malformed as "x".
    const auto parse = [](const std::string& field, auto& value) {
      const char* end = field.data() + field.size();
      const auto [ptr, ec] = std::from_chars(field.data(), end, value);
      return ec == std::errc{} && ptr == end;
    };
    TraceEvent ev;
    long long us = 0;
    if (!parse(fields[0], us)) {
      return InvalidArgumentError("trace line " + std::to_string(line_no) +
                                  ": bad timestamp");
    }
    ev.timestamp = Micros(us);
    if (fields[1].size() != 1) {
      return InvalidArgumentError("trace line " + std::to_string(line_no) +
                                  ": bad op");
    }
    MONARCH_ASSIGN_OR_RETURN(ev.op, ParseOp(fields[1][0]));
    ev.path = fields[2];
    if (!parse(fields[3], ev.offset) || !parse(fields[4], ev.length)) {
      return InvalidArgumentError("trace line " + std::to_string(line_no) +
                                  ": bad offset or length");
    }
    events.push_back(std::move(ev));
  }
  return events;
}

Result<ReplayStats> ReplayTrace(const std::vector<TraceEvent>& events,
                                storage::StorageEngine& engine,
                                int parallelism) {
  const int workers = std::max(1, parallelism);
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<bool> failed{false};

  const Stopwatch timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<std::byte> buf;
      for (std::size_t i = static_cast<std::size_t>(w); i < events.size();
           i += static_cast<std::size_t>(workers)) {
        const TraceEvent& ev = events[i];
        if (ev.op != TraceOp::kRead) continue;
        buf.resize(ev.length);
        auto result = engine.Read(ev.path, ev.offset, buf);
        if (!result.ok()) {
          failed.store(true);
          return;
        }
        ops.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(result.value(), std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  if (failed.load()) {
    return InternalError("trace replay hit a read failure");
  }
  ReplayStats stats;
  stats.ops = ops.load();
  stats.bytes = bytes.load();
  stats.elapsed_seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace monarch::workload
