#include "core/posix_shim.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "../test_support.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;
using monarch::testing::Text;

class PosixShimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pfs_ = std::make_shared<storage::MemoryEngine>("pfs");
    local_ = std::make_shared<storage::MemoryEngine>("local");
    ASSERT_OK(pfs_->Write("data/f1", Bytes("0123456789")));
    ASSERT_OK(pfs_->Write("data/f2", Bytes("abcdef")));

    MonarchConfig config;
    config.cache_tiers.push_back(TierSpec{"local", local_, 1000});
    config.pfs = TierSpec{"pfs", pfs_, 0};
    config.dataset_dir = "data";
    auto monarch = Monarch::Create(std::move(config));
    ASSERT_OK(monarch);
    monarch_ = std::move(monarch).value();
    shim_ = std::make_unique<PosixShim>(*monarch_);
  }

  std::shared_ptr<storage::MemoryEngine> pfs_;
  std::shared_ptr<storage::MemoryEngine> local_;
  std::unique_ptr<Monarch> monarch_;
  std::unique_ptr<PosixShim> shim_;
};

TEST_F(PosixShimTest, OpenPreadCloseLifecycle) {
  auto fd = shim_->Open("data/f1");
  ASSERT_OK(fd);
  EXPECT_GE(fd.value(), 3) << "descriptors start past stdio";
  EXPECT_EQ(1u, shim_->open_count());

  std::vector<std::byte> buf(4);
  auto read = shim_->Pread(fd.value(), 2, buf);
  ASSERT_OK(read);
  EXPECT_EQ("2345", Text(buf));

  EXPECT_EQ(10u, shim_->Fstat(fd.value()).value());
  ASSERT_OK(shim_->Close(fd.value()));
  EXPECT_EQ(0u, shim_->open_count());
}

TEST_F(PosixShimTest, OpenMissingFileIsNotFound) {
  EXPECT_STATUS_CODE(StatusCode::kNotFound, shim_->Open("data/ghost"));
  EXPECT_EQ(0u, shim_->open_count());
}

TEST_F(PosixShimTest, PreadOnBadFdFails) {
  std::vector<std::byte> buf(4);
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition,
                     shim_->Pread(99, 0, buf));
}

TEST_F(PosixShimTest, DoubleCloseFails) {
  auto fd = shim_->Open("data/f1");
  ASSERT_OK(fd);
  ASSERT_OK(shim_->Close(fd.value()));
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition,
                     shim_->Close(fd.value()));
}

TEST_F(PosixShimTest, UseAfterCloseFails) {
  auto fd = shim_->Open("data/f1");
  ASSERT_OK(fd);
  ASSERT_OK(shim_->Close(fd.value()));
  std::vector<std::byte> buf(4);
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition,
                     shim_->Pread(fd.value(), 0, buf));
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition,
                     shim_->Fstat(fd.value()));
}

TEST_F(PosixShimTest, IndependentFdsForSameFile) {
  auto fd1 = shim_->Open("data/f1");
  auto fd2 = shim_->Open("data/f1");
  ASSERT_OK(fd1);
  ASSERT_OK(fd2);
  EXPECT_NE(fd1.value(), fd2.value());
  ASSERT_OK(shim_->Close(fd1.value()));
  // fd2 keeps working after fd1 closes.
  std::vector<std::byte> buf(3);
  EXPECT_OK(shim_->Pread(fd2.value(), 0, buf));
}

TEST_F(PosixShimTest, ReadsGoThroughMonarchPlacement) {
  auto fd = shim_->Open("data/f2");
  ASSERT_OK(fd);
  std::vector<std::byte> buf(6);
  ASSERT_OK(shim_->Pread(fd.value(), 0, buf));
  monarch_->DrainPlacements();
  // The shim read triggered MONARCH's staging, same as a direct read.
  EXPECT_EQ(1u, monarch_->Stats().placement.completed);
  EXPECT_TRUE(local_->Exists("data/f2#c0").value());
}

/// Write-path stub (ISSUE 5): records what Close commits.
class StubSink final : public CheckpointSink {
 public:
  Status Save(const std::string& name,
              std::span<const std::byte> data) override {
    names.push_back(name);
    payloads.emplace_back(data.begin(), data.end());
    return next_save;
  }
  Result<std::vector<std::byte>> Restore(const std::string&) override {
    return NotFoundError("stub");
  }
  Status Flush() override { return Status::Ok(); }

  std::vector<std::string> names;
  std::vector<std::vector<std::byte>> payloads;
  Status next_save = Status::Ok();
};

TEST_F(PosixShimTest, WriteDescriptorCommitsThroughSinkOnClose) {
  StubSink sink;
  PosixShim shim(*monarch_, &sink);
  auto fd = shim.OpenForWrite("ckpt/model");
  ASSERT_OK(fd);
  EXPECT_EQ(1u, shim.open_count());

  // The framework saver streams out of order and leaves a sparse gap;
  // the shim must assemble pwrite(2) semantics: gap reads back as zeros.
  ASSERT_OK(shim.Pwrite(fd.value(), 6, Bytes("world")));
  ASSERT_OK(shim.Pwrite(fd.value(), 0, Bytes("hello")));
  EXPECT_EQ(11u, shim.Fstat(fd.value()).value());

  EXPECT_TRUE(sink.names.empty()) << "nothing commits before Close";
  ASSERT_OK(shim.Close(fd.value()));
  EXPECT_EQ(0u, shim.open_count());
  ASSERT_EQ(1u, sink.names.size());
  EXPECT_EQ("ckpt/model", sink.names[0]);
  EXPECT_EQ(std::string("hello\0world", 11), Text(sink.payloads[0]));
}

TEST_F(PosixShimTest, OpenForWriteWithoutSinkIsFailedPrecondition) {
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition,
                     shim_->OpenForWrite("ckpt/model"));
}

TEST_F(PosixShimTest, CloseSurfacesSinkErrorButReleasesDescriptor) {
  StubSink sink;
  sink.next_save = UnavailableError("pfs down");
  PosixShim shim(*monarch_, &sink);
  auto fd = shim.OpenForWrite("ckpt/model");
  ASSERT_OK(fd);
  ASSERT_OK(shim.Pwrite(fd.value(), 0, Bytes("x")));
  EXPECT_STATUS_CODE(StatusCode::kUnavailable, shim.Close(fd.value()));
  // The descriptor is gone either way — a retry needs a fresh open.
  EXPECT_EQ(0u, shim.open_count());
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition,
                     shim.Close(fd.value()));
}

TEST_F(PosixShimTest, PwriteOnReadDescriptorFails) {
  StubSink sink;
  PosixShim shim(*monarch_, &sink);
  auto fd = shim.Open("data/f1");
  ASSERT_OK(fd);
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition,
                     shim.Pwrite(fd.value(), 0, Bytes("x")));
  // And reads don't see write descriptors.
  auto wfd = shim.OpenForWrite("ckpt/model");
  ASSERT_OK(wfd);
  std::vector<std::byte> buf(4);
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition,
                     shim.Pread(wfd.value(), 0, buf));
}

TEST_F(PosixShimTest, ConcurrentOpensGetUniqueFds) {
  std::vector<std::thread> threads;
  std::mutex mu;
  std::set<int> fds;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto fd = shim_->Open("data/f1");
        ASSERT_TRUE(fd.ok());
        std::lock_guard<std::mutex> lock(mu);
        fds.insert(fd.value());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(400u, fds.size());
  EXPECT_EQ(400u, shim_->open_count());
}

}  // namespace
}  // namespace monarch::core
