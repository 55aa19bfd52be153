#include "storage/faulty_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../test_support.h"
#include "storage/memory_engine.h"

namespace monarch::storage {
namespace {

using monarch::testing::Bytes;

std::shared_ptr<FaultyEngine> MakeFaulty(FaultyEngine::FaultSpec spec = {}) {
  auto inner = std::make_shared<MemoryEngine>("m");
  return std::make_shared<FaultyEngine>(inner, spec);
}

TEST(FaultyEngineTest, NoFaultsByDefault) {
  auto engine = MakeFaulty();
  ASSERT_OK(engine->Write("f", Bytes("abc")));
  std::vector<std::byte> buf(3);
  ASSERT_OK(engine->Read("f", 0, buf));
  EXPECT_EQ(0u, engine->injected_failures());
}

TEST(FaultyEngineTest, ForcedReadFailuresFireExactlyN) {
  auto engine = MakeFaulty();
  ASSERT_OK(engine->Write("f", Bytes("abc")));
  engine->FailNextReads(2);
  std::vector<std::byte> buf(3);
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, engine->Read("f", 0, buf));
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, engine->Read("f", 0, buf));
  ASSERT_OK(engine->Read("f", 0, buf));
  EXPECT_EQ(2u, engine->injected_failures());
}

TEST(FaultyEngineTest, ForcedWriteFailures) {
  auto engine = MakeFaulty();
  engine->FailNextWrites(1);
  EXPECT_STATUS_CODE(StatusCode::kUnavailable,
                     engine->Write("f", Bytes("abc")));
  ASSERT_OK(engine->Write("f", Bytes("abc")));
}

TEST(FaultyEngineTest, ProbabilisticFailuresApproximateRate) {
  FaultyEngine::FaultSpec spec;
  spec.read_failure_rate = 0.3;
  spec.seed = 99;
  auto engine = MakeFaulty(spec);
  ASSERT_OK(engine->Write("f", Bytes("abc")));

  int failures = 0;
  std::vector<std::byte> buf(3);
  constexpr int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (!engine->Read("f", 0, buf).ok()) ++failures;
  }
  EXPECT_NEAR(0.3, static_cast<double>(failures) / kTrials, 0.05);
}

TEST(FaultyEngineTest, MetadataOpsUnaffectedByReadFaults) {
  auto engine = MakeFaulty();
  ASSERT_OK(engine->Write("f", Bytes("abc")));
  engine->FailNextReads(5);
  EXPECT_EQ(3u, engine->FileSize("f").value());
  EXPECT_TRUE(engine->Exists("f").value());
}

TEST(FaultyEngineTest, ForcedMetadataFailuresHitWholeStatSurface) {
  auto engine = MakeFaulty();
  ASSERT_OK(engine->Write("d/f", Bytes("abc")));
  engine->FailNextMetadataOps(3);
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, engine->FileSize("d/f"));
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, engine->Exists("d/f"));
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, engine->ListFiles("d"));
  EXPECT_EQ(3u, engine->injected_failures());
  // Data ops never shared the forced-metadata budget.
  std::vector<std::byte> buf(3);
  ASSERT_OK(engine->Read("d/f", 0, buf));
  EXPECT_EQ(1u, engine->ListFiles("d").value().size());
}

TEST(FaultyEngineTest, CorruptionFlipsExactlyOneByteAndCounts) {
  auto engine = MakeFaulty();
  ASSERT_OK(engine->Write("f", Bytes("hello world")));
  engine->CorruptNextReads(1);

  std::vector<std::byte> corrupt(11);
  ASSERT_OK(engine->Read("f", 0, corrupt));
  std::vector<std::byte> clean(11);
  ASSERT_OK(engine->Read("f", 0, clean));

  int diffs = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] != corrupt[i]) ++diffs;
  }
  EXPECT_EQ(1, diffs);
  EXPECT_EQ(1u, engine->injected_corruptions());
  // Corruption is silent: the op succeeded, so no failure was counted.
  EXPECT_EQ(0u, engine->injected_failures());
}

TEST(FaultyEngineTest, OutageWindowFailsEverythingUntilHealed) {
  auto engine = MakeFaulty();
  ASSERT_OK(engine->Write("f", Bytes("abc")));
  engine->FailUntilHealed();
  EXPECT_TRUE(engine->in_outage());

  std::vector<std::byte> buf(3);
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, engine->Read("f", 0, buf));
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, engine->Write("g", Bytes("x")));
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, engine->FileSize("f"));
  EXPECT_EQ(3u, engine->injected_failures());

  engine->Heal();
  EXPECT_FALSE(engine->in_outage());
  ASSERT_OK(engine->Read("f", 0, buf));
}

TEST(FaultyEngineTest, TimedOutageExpiresOnItsOwn) {
  auto engine = MakeFaulty();
  ASSERT_OK(engine->Write("f", Bytes("abc")));
  engine->FailFor(Millis(5));
  EXPECT_TRUE(engine->in_outage());
  std::vector<std::byte> buf(3);
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, engine->Read("f", 0, buf));

  PreciseSleep(Millis(8));
  EXPECT_FALSE(engine->in_outage());
  ASSERT_OK(engine->Read("f", 0, buf));
}

TEST(FaultyEngineTest, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    FaultyEngine::FaultSpec spec;
    spec.read_failure_rate = 0.5;
    spec.seed = seed;
    auto engine = MakeFaulty(spec);
    EXPECT_TRUE(engine->Write("f", Bytes("abc")).ok());
    std::vector<std::byte> buf(3);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += engine->Read("f", 0, buf).ok() ? 'O' : 'X';
    }
    return pattern;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace monarch::storage
