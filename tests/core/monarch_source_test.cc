// End-to-end: the TFRecord reader streaming through MonarchSource — the
// exact composition the paper's TensorFlow integration creates (record
// reader on top of Monarch.read instead of pread).
#include "core/monarch_source.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "../test_support.h"
#include "file_state.h"
#include "storage/memory_engine.h"
#include "tfrecord/reader.h"
#include "tfrecord/writer.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;
using monarch::testing::Text;

class MonarchSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    local_ = std::make_shared<storage::MemoryEngine>("local");

    // A real TFRecord file on the PFS.
    tfrecord::TFRecordWriter writer;
    for (int i = 0; i < 50; ++i) {
      writer.Append(Bytes("record-" + std::to_string(i)));
    }
    ASSERT_OK(writer.Flush(*pfs_, "data/train.tfrecord"));

    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", local_, 1ULL << 20});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    config.placement.num_threads = 2;
    auto monarch = Monarch::Create(std::move(config));
    ASSERT_OK(monarch);
    monarch_ = std::move(monarch).value();
  }

  void ReadAllRecords(std::size_t chunk_bytes) {
    MonarchSource source(*monarch_, "data/train.tfrecord");
    tfrecord::TFRecordReader reader(source, {.buffer_bytes = chunk_bytes});
    for (int i = 0; i < 50; ++i) {
      auto record = reader.ReadRecord();
      ASSERT_OK(record);
      EXPECT_EQ("record-" + std::to_string(i), Text(record.value()));
    }
    EXPECT_STATUS_CODE(StatusCode::kOutOfRange, reader.ReadRecord());
  }

  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::shared_ptr<storage::MemoryEngine> local_;
  std::unique_ptr<Monarch> monarch_;
};

TEST_F(MonarchSourceTest, StreamsRecordsAndTriggersStaging) {
  ReadAllRecords(/*chunk_bytes=*/256);  // many partial reads
  monarch_->DrainPlacements();
  // The partial reads staged the WHOLE record file.
  EXPECT_EQ(1u, monarch_->Stats().placement.completed);
  EXPECT_TRUE(local_->Exists("data/train.tfrecord#c0").value());
}

TEST_F(MonarchSourceTest, SecondEpochIdenticalFromLocalTier) {
  ReadAllRecords(256);
  monarch_->DrainPlacements();
  const auto pfs_reads_after_e1 = pfs_->Stats().Snapshot().read_ops;
  ReadAllRecords(256);  // must decode identically from the local copy
  EXPECT_EQ(pfs_reads_after_e1, pfs_->Stats().Snapshot().read_ops)
      << "epoch 2 must not touch the PFS";
}

TEST_F(MonarchSourceTest, SizeMatchesNamespace) {
  MonarchSource source(*monarch_, "data/train.tfrecord");
  EXPECT_EQ(pfs_->FileSize("data/train.tfrecord").value(),
            source.Size().value());
  EXPECT_EQ("data/train.tfrecord", source.Name());
}

TEST_F(MonarchSourceTest, CorrectWhileStagingRacesReads) {
  // Stream the file repeatedly from several threads while the background
  // placement flips its serving tier mid-stream; every record must still
  // decode exactly (the tier switch must never tear a read).
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &ok] {
      for (int pass = 0; pass < 5; ++pass) {
        MonarchSource source(*monarch_, "data/train.tfrecord");
        tfrecord::TFRecordReader reader(source, {.buffer_bytes = 128});
        for (int i = 0; i < 50; ++i) {
          auto record = reader.ReadRecord();
          if (!record.ok() ||
              Text(record.value()) != "record-" + std::to_string(i)) {
            ok.store(false);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  monarch_->DrainPlacements();
  EXPECT_EQ(1u, monarch_->Stats().placement.completed);
}

TEST_F(MonarchSourceTest, OpenSourcePinsItsStagedCopyAgainstEviction) {
  // Under lru with room for one file, reading a second file must evict
  // the first, unless a source still has the first one open: the visit
  // pin keeps a freshly staged copy through the eviction pass, and the
  // copy loses that protection once the source is destroyed.
  tfrecord::TFRecordWriter writer;
  for (int i = 0; i < 50; ++i) {
    writer.Append(Bytes("record-" + std::to_string(i)));
  }
  ASSERT_OK(writer.Flush(*pfs_, "data/other.tfrecord"));
  const std::uint64_t file_bytes =
      pfs_->FileSize("data/train.tfrecord").value();
  ASSERT_EQ(file_bytes, pfs_->FileSize("data/other.tfrecord").value());
  MonarchConfig config;
  config.cache_tiers.push_back(TierSpec{"local", local_, file_bytes});
  config.pfs = TierSpec{"pfs", pfs_, 0};
  config.dataset_dir = "data";
  config.placement.num_threads = 2;
  config.policy = MakeLruPolicy();
  auto monarch = Monarch::Create(std::move(config));
  ASSERT_OK(monarch);
  monarch_ = std::move(monarch).value();
  const FileInfoPtr train = monarch_->metadata().Lookup("data/train.tfrecord");
  const FileInfoPtr other = monarch_->metadata().Lookup("data/other.tfrecord");
  ASSERT_TRUE(train && other);

  std::vector<std::byte> whole(file_bytes);
  auto read_other = [&] {
    ASSERT_OK(monarch_->Read("data/other.tfrecord", 0, whole));
    monarch_->DrainPlacements();
  };
  {
    MonarchSource source(*monarch_, "data/train.tfrecord");
    std::vector<std::byte> head(64);
    ASSERT_OK(source.ReadAt(0, head));
    monarch_->DrainPlacements();
    ASSERT_TRUE(train->Placed());

    read_other();
    EXPECT_TRUE(train->Placed())
        << "the open visit must keep its staged copy";
    EXPECT_FALSE(other->Placed());
    EXPECT_GE(monarch_->Stats().placement.eviction_pinned_skips, 1u);
    ASSERT_OK(source.ReadAt(file_bytes - 64, head));
  }
  read_other();  // the next visit's offset-0 read re-arms the staging
  EXPECT_TRUE(other->Placed());
  EXPECT_TRUE(PfsOnly(*train))
      << "a closed visit no longer protects the copy";
  EXPECT_EQ(1u, monarch_->Stats().placement.evictions);
}

TEST_F(MonarchSourceTest, MissingFileSurfacesNotFound) {
  MonarchSource source(*monarch_, "data/ghost.tfrecord");
  std::vector<std::byte> buf(16);
  EXPECT_STATUS_CODE(StatusCode::kNotFound, source.ReadAt(0, buf));
  EXPECT_STATUS_CODE(StatusCode::kNotFound, source.Size());
}

}  // namespace
}  // namespace monarch::core
