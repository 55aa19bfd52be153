#include "workload/trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "../test_support.h"
#include "storage/memory_engine.h"

namespace monarch::workload {
namespace {

using monarch::testing::Bytes;

TEST(TraceRecorderTest, RecordsEventsInTimestampOrder) {
  TraceRecorder recorder;
  recorder.Record(TraceOp::kRead, "a", 0, 100);
  recorder.Record(TraceOp::kStat, "b", 0, 0);
  recorder.Record(TraceOp::kWrite, "c", 0, 50);
  EXPECT_EQ(3u, recorder.Size());

  auto events = recorder.Drain();
  ASSERT_EQ(3u, events.size());
  EXPECT_EQ("a", events[0].path);
  EXPECT_EQ(TraceOp::kRead, events[0].op);
  EXPECT_LE(events[0].timestamp, events[1].timestamp);
  EXPECT_LE(events[1].timestamp, events[2].timestamp);
  EXPECT_EQ(0u, recorder.Size()) << "drain must reset";
}

TEST(TraceRecorderTest, ConcurrentRecordingLosesNothing) {
  TraceRecorder recorder;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < 1000; ++i) {
        recorder.Record(TraceOp::kRead, "p" + std::to_string(t),
                        static_cast<std::uint64_t>(i), 10);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(4000u, recorder.Drain().size());
}

TEST(TraceSerializationTest, RoundTrips) {
  TraceRecorder recorder;
  recorder.Record(TraceOp::kRead, "dataset/file-1.tfrecord", 4096, 65536);
  recorder.Record(TraceOp::kWrite, "cache/file-1.tfrecord", 0, 900000);
  recorder.Record(TraceOp::kStat, "dataset/file-2.tfrecord", 0, 0);
  const auto events = recorder.Drain();

  const std::string text = SerializeTrace(events);
  auto parsed = ParseTrace(text);
  ASSERT_OK(parsed);
  ASSERT_EQ(events.size(), parsed.value().size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].op, parsed.value()[i].op);
    EXPECT_EQ(events[i].path, parsed.value()[i].path);
    EXPECT_EQ(events[i].offset, parsed.value()[i].offset);
    EXPECT_EQ(events[i].length, parsed.value()[i].length);
  }
}

TEST(TraceSerializationTest, ParseRejectsMalformedLines) {
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, ParseTrace("not,enough"));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseTrace("abc,R,path,0,0"));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseTrace("1,Z,path,0,0"));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseTrace("1x,R,path,0,0"));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseTrace("1,R,path,abc,0"));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseTrace("1,R,path,0,12x"));
}

TEST(TraceSerializationTest, EmptyTraceIsEmpty) {
  auto parsed = ParseTrace("");
  ASSERT_OK(parsed);
  EXPECT_TRUE(parsed.value().empty());
  EXPECT_EQ("", SerializeTrace({}));
}

TEST(TracingEngineTest, CapturesReadsWritesStats) {
  auto inner = std::make_shared<storage::MemoryEngine>();
  TraceRecorder recorder;
  TracingEngine traced(inner, recorder);

  ASSERT_OK(traced.Write("f", Bytes("0123456789")));
  std::vector<std::byte> buf(4);
  ASSERT_OK(traced.Read("f", 2, buf));
  ASSERT_OK(traced.FileSize("f"));

  auto events = recorder.Drain();
  ASSERT_EQ(3u, events.size());
  EXPECT_EQ(TraceOp::kWrite, events[0].op);
  EXPECT_EQ(TraceOp::kRead, events[1].op);
  EXPECT_EQ(2u, events[1].offset);
  EXPECT_EQ(4u, events[1].length);
  EXPECT_EQ(TraceOp::kStat, events[2].op);
}

TEST(ReplayTraceTest, ReplaysReadsOnly) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  ASSERT_OK(engine->Write("a", Bytes("aaaaaaaaaa")));
  ASSERT_OK(engine->Write("b", Bytes("bbbbb")));

  std::vector<TraceEvent> events{
      {Micros(0), TraceOp::kRead, "a", 0, 10},
      {Micros(1), TraceOp::kWrite, "ignored", 0, 99},
      {Micros(2), TraceOp::kRead, "b", 0, 5},
      {Micros(3), TraceOp::kStat, "ignored", 0, 0},
      {Micros(4), TraceOp::kRead, "a", 5, 5},
  };
  auto stats = ReplayTrace(events, *engine, /*parallelism=*/2);
  ASSERT_OK(stats);
  EXPECT_EQ(3u, stats.value().ops);
  EXPECT_EQ(20u, stats.value().bytes);
  EXPECT_GE(stats.value().elapsed_seconds, 0.0);
}

TEST(ReplayTraceTest, FailsOnMissingFile) {
  auto engine = std::make_shared<storage::MemoryEngine>();
  std::vector<TraceEvent> events{
      {Micros(0), TraceOp::kRead, "nope", 0, 10},
  };
  EXPECT_STATUS_CODE(StatusCode::kInternal, ReplayTrace(events, *engine));
}

}  // namespace
}  // namespace monarch::workload
