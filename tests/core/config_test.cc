#include "core/config.h"

#include <gtest/gtest.h>

#include "../test_support.h"
#include "util/byte_units.h"
#include "workload/dataset_generator.h"
#include "storage/posix_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::TempDir;
using namespace monarch::literals;

constexpr const char* kValidIni = R"(
; MONARCH experiment configuration
[monarch]
dataset_dir = imagenet_100g
placement_threads = 6
fetch_full_file = true

[tier.0]
name = local-ssd
profile = ssd
root = /tmp/unused/ssd
quota = 115MiB

[pfs]
name = lustre
profile = lustre
root = /tmp/unused/pfs
seed = 42
)";

TEST(ParseConfigTest, ParsesValidIni) {
  auto parsed = ParseConfig(kValidIni);
  ASSERT_OK(parsed);
  EXPECT_EQ("imagenet_100g", parsed.value().dataset_dir);
  EXPECT_EQ(6, parsed.value().placement_threads);
  EXPECT_TRUE(parsed.value().fetch_full_file);
  ASSERT_EQ(1u, parsed.value().cache_tiers.size());
  EXPECT_EQ("local-ssd", parsed.value().cache_tiers[0].name);
  EXPECT_EQ("ssd", parsed.value().cache_tiers[0].profile);
  EXPECT_EQ(115_MiB, parsed.value().cache_tiers[0].quota_bytes);
  EXPECT_EQ("lustre", parsed.value().pfs.profile);
  EXPECT_EQ(42u, parsed.value().pfs.seed);
}

TEST(ParseConfigTest, CommentsAndWhitespaceIgnored) {
  auto parsed = ParseConfig(
      "[monarch]\n"
      "  dataset_dir = d   # trailing comment\n"
      "[tier.0]\n"
      "profile=ram\n"
      "quota = 1KiB\n"
      "[pfs]\n"
      "profile = raw\n"
      "root = /tmp/x\n");
  ASSERT_OK(parsed);
  EXPECT_EQ("d", parsed.value().dataset_dir);
  EXPECT_EQ(1024u, parsed.value().cache_tiers[0].quota_bytes);
}

TEST(ParseConfigTest, MultiTierOutOfOrderSectionsSort) {
  auto parsed = ParseConfig(
      "[tier.1]\nprofile=ssd\nroot=/b\nquota=2KiB\n"
      "[monarch]\ndataset_dir=d\n"
      "[tier.0]\nprofile=ram\nquota=1KiB\n"
      "[pfs]\nprofile=raw\nroot=/p\n");
  ASSERT_OK(parsed);
  ASSERT_EQ(2u, parsed.value().cache_tiers.size());
  EXPECT_EQ("ram", parsed.value().cache_tiers[0].profile);
  EXPECT_EQ("ssd", parsed.value().cache_tiers[1].profile);
}

TEST(ParseConfigTest, RejectsUnknownKeysAndSections) {
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\ntypo_key=1\n"
                  "[tier.0]\nprofile=ram\nquota=1KiB\n[pfs]\nprofile=raw\nroot=/p\n"));
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseConfig("[mystery]\nx=1\n"));
}

TEST(ParseConfigTest, RejectsRemovedClairvoyantPolicyAndWindow) {
  const std::string base = std::string(kValidIni) + "[placement]\n";
  const auto window = ParseConfig(base + "clairvoyant_protect_window = 64\n");
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, window);
  EXPECT_NE(window.status().message().find("unknown placement key"),
            std::string::npos)
      << window.status();
  const auto policy = ParseConfig(base + "policy = clairvoyant\n");
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, policy);
  EXPECT_NE(policy.status().message().find("'lru'"), std::string::npos)
      << policy.status();
  EXPECT_OK(ParseConfig(base + "policy = lru\n"));
}

TEST(ParseConfigTest, RejectsStructuralErrors) {
  // No PFS.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\n[tier.0]\nprofile=ram\nquota=1KiB\n"));
  // No tiers.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\n[pfs]\nprofile=raw\nroot=/p\n"));
  // Non-contiguous tier indices.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\n[tier.1]\nprofile=ram\nquota=1\n"
                  "[pfs]\nprofile=raw\nroot=/p\n"));
  // Missing dataset_dir.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[tier.0]\nprofile=ram\nquota=1\n[pfs]\nprofile=raw\nroot=/p\n"));
  // Key outside a section.
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseConfig("dataset_dir=d\n"));
  // Unterminated section.
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, ParseConfig("[monarch\n"));
  // Bad boolean / quota.
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig("[monarch]\ndataset_dir=d\nfetch_full_file=maybe\n"
                  "[tier.0]\nprofile=ram\nquota=1\n[pfs]\nprofile=raw\nroot=/p\n"));
}

TEST(ParseConfigTest, PeerSectionDisabledByDefault) {
  auto parsed = ParseConfig(kValidIni);
  ASSERT_OK(parsed);
  EXPECT_FALSE(parsed.value().peer.enabled);
  EXPECT_EQ(1'200'000'000u, parsed.value().peer.interconnect_bandwidth_bps);
  EXPECT_EQ(150u, parsed.value().peer.interconnect_latency_us);
  EXPECT_EQ(16u, parsed.value().peer.directory_shards);
  EXPECT_EQ(1, parsed.value().peer.replication);
}

TEST(ParseConfigTest, ParsesPeerSection) {
  auto parsed = ParseConfig(
      "[monarch]\ndataset_dir=d\n"
      "[tier.0]\nprofile=ram\nquota=1KiB\n"
      "[pfs]\nprofile=raw\nroot=/p\n"
      "[peer]\n"
      "enabled = true\n"
      "interconnect_bandwidth = 2GiB\n"
      "interconnect_latency_us = 80\n"
      "directory_shards = 32\n"
      "replication = 2\n");
  ASSERT_OK(parsed);
  EXPECT_TRUE(parsed.value().peer.enabled);
  EXPECT_EQ(2_GiB, parsed.value().peer.interconnect_bandwidth_bps);
  EXPECT_EQ(80u, parsed.value().peer.interconnect_latency_us);
  EXPECT_EQ(32u, parsed.value().peer.directory_shards);
  EXPECT_EQ(2, parsed.value().peer.replication);
}

TEST(ParseConfigTest, RejectsBadPeerKeys) {
  constexpr const char* kBase =
      "[monarch]\ndataset_dir=d\n[tier.0]\nprofile=ram\nquota=1KiB\n"
      "[pfs]\nprofile=raw\nroot=/p\n";
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     ParseConfig(std::string(kBase) + "[peer]\ntypo=1\n"));
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig(std::string(kBase) + "[peer]\nreplication=0\n"));
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig(std::string(kBase) + "[peer]\nenabled=maybe\n"));
}

TEST(ParseConfigTest, CheckpointSectionDisabledByDefault) {
  auto parsed = ParseConfig(
      "[monarch]\ndataset_dir=d\n[tier.0]\nprofile=ram\nquota=1KiB\n"
      "[pfs]\nprofile=raw\nroot=/p\n");
  ASSERT_OK(parsed);
  EXPECT_FALSE(parsed.value().checkpoint.enabled);
  EXPECT_EQ("ckpt", parsed.value().checkpoint.dir);
  EXPECT_EQ(0, parsed.value().checkpoint.keep_last);
  EXPECT_EQ(0u, parsed.value().checkpoint.drain_bandwidth_bytes_per_sec);
  EXPECT_EQ(1, parsed.value().checkpoint.drain_threads);
  EXPECT_TRUE(parsed.value().checkpoint.verify_on_restore);
}

TEST(ParseConfigTest, ParsesCheckpointSection) {
  auto parsed = ParseConfig(
      "[monarch]\ndataset_dir=d\n[tier.0]\nprofile=ram\nquota=1KiB\n"
      "[pfs]\nprofile=raw\nroot=/p\n"
      "[checkpoint]\n"
      "enabled = true\n"
      "dir = checkpoints\n"
      "keep_last = 3\n"
      "drain_bandwidth = 200MiB\n"
      "drain_threads = 2\n"
      "verify_on_restore = false\n");
  ASSERT_OK(parsed);
  EXPECT_TRUE(parsed.value().checkpoint.enabled);
  EXPECT_EQ("checkpoints", parsed.value().checkpoint.dir);
  EXPECT_EQ(3, parsed.value().checkpoint.keep_last);
  EXPECT_EQ(200ull << 20,
            parsed.value().checkpoint.drain_bandwidth_bytes_per_sec);
  EXPECT_EQ(2, parsed.value().checkpoint.drain_threads);
  EXPECT_FALSE(parsed.value().checkpoint.verify_on_restore);
}

TEST(ParseConfigTest, RejectsBadCheckpointKeys) {
  constexpr const char* kBase =
      "[monarch]\ndataset_dir=d\n[tier.0]\nprofile=ram\nquota=1KiB\n"
      "[pfs]\nprofile=raw\nroot=/p\n";
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig(std::string(kBase) + "[checkpoint]\ntypo=1\n"));
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig(std::string(kBase) + "[checkpoint]\ndrain_threads=0\n"));
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig(std::string(kBase) + "[checkpoint]\ndir=\n"));
  EXPECT_STATUS_CODE(
      StatusCode::kInvalidArgument,
      ParseConfig(std::string(kBase) + "[checkpoint]\nenabled=maybe\n"));
}

TEST(BuildMonarchConfigTest, UnknownProfileRejected) {
  ParsedConfig parsed;
  parsed.dataset_dir = "d";
  parsed.cache_tiers.push_back({"t", "floppy", "/tmp/x", 1024, 1});
  parsed.pfs = {"p", "raw", "/tmp/y", 0, 1};
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     BuildMonarchConfig(parsed));
}

TEST(BuildMonarchConfigTest, SsdWithoutRootRejected) {
  ParsedConfig parsed;
  parsed.dataset_dir = "d";
  parsed.cache_tiers.push_back({"t", "ssd", "", 1024, 1});
  parsed.pfs = {"p", "raw", "/tmp/y", 0, 1};
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                     BuildMonarchConfig(parsed));
}

TEST(BuildMonarchConfigTest, PackWithPeersRejected) {
  auto parsed = ParseConfig(
      "[monarch]\ndataset_dir=d\n[tier.0]\nprofile=ram\nquota=1KiB\n"
      "[pfs]\nprofile=ram\n[pack]\nenabled=true\n[peer]\nenabled=true\n");
  ASSERT_OK(parsed);
  const auto built = BuildMonarchConfig(parsed.value());
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, built);
  const std::string message = built.status().ToString();
  EXPECT_NE(std::string::npos, message.find("[pack]")) << message;
  EXPECT_NE(std::string::npos, message.find("[peer]")) << message;
}

TEST(MonarchFromIniTest, EndToEndOverRealDirectories) {
  TempDir dir("config_e2e");
  // Stage a tiny dataset on the "PFS" directory.
  storage::PosixEngine staging(dir.Sub("pfs"));
  auto spec = workload::DatasetSpec::Tiny();
  ASSERT_OK(workload::GenerateDataset(staging, spec));

  const std::string ini =
      "[monarch]\ndataset_dir = " + spec.directory + "\n"
      "placement_threads = 2\n"
      "[tier.0]\nname = ram-cache\nprofile = ram\nquota = 10MiB\n"
      "[pfs]\nname = quiet-pfs\nprofile = lustre-quiet\nroot = " +
      dir.Sub("pfs").string() + "\n";

  auto monarch = MonarchFromIni(ini);
  ASSERT_OK(monarch);
  EXPECT_EQ(spec.num_files, monarch.value()->Stats().files_indexed);

  // Read a file through the configured stack.
  const std::string path = workload::RecordFilePath(spec, 0);
  std::vector<std::byte> buf(64);
  ASSERT_OK(monarch.value()->Read(path, 0, buf));
  monarch.value()->DrainPlacements();
  EXPECT_EQ(1u, monarch.value()->Stats().placement.completed);
}

}  // namespace
}  // namespace monarch::core
