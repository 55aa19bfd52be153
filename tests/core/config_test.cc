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

// Every key ParseConfig accepts reaches a built Monarch. Cluster, churn
// and checkpoint harnesses are configured in code, so INI sections and
// keys for them must fail loudly instead of parsing into fields nothing
// reads.
TEST(ParseConfigTest, RejectsKnobsNoBuiltMonarchReads) {
  const auto expect_rejected = [](const std::string& ini,
                                  const std::string& needle) {
    SCOPED_TRACE(ini);
    const auto parsed = ParseConfig(std::string(kValidIni) + ini);
    EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, parsed);
    EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
        << parsed.status();
  };
  expect_rejected("[peer]\nenabled = true\n", "unknown section 'peer'");
  expect_rejected("[checkpoint]\nenabled = true\n",
                  "unknown section 'checkpoint'");
  for (const std::string key :
       {"tenant_share", "total_bandwidth", "admission_queue_threshold",
        "admission_reject_threshold", "work_conserving"}) {
    expect_rejected("[qos]\n" + key + " = 1\n",
                    "unknown qos key '" + key + "'");
  }
  expect_rejected("[pack]\npack_extent_bytes = 64MiB\n",
                  "unknown pack key 'pack_extent_bytes'");
  expect_rejected("[pfs]\nquota = 1GiB\n", "unknown pfs key 'quota'");
  // The keys that stay in those sections still parse.
  EXPECT_OK(ParseConfig(std::string(kValidIni) +
                        "[qos]\nenabled = true\nscan_stage_cap = 1MiB\n"
                        "[pack]\nenabled = true\n"));
}

// A value that does not fit an `int` must not wrap into a different,
// valid-looking one (a wrapped tier 2^32 would alias tier 0).
TEST(ParseConfigTest, RejectsIntegersThatDoNotFitInt) {
  constexpr const char* kBase =
      "[monarch]\ndataset_dir=d\n[tier.0]\nprofile=ram\nquota=1KiB\n"
      "[pfs]\nprofile=raw\nroot=/p\n";
  const auto rejected = [&](const std::string& extra) {
    SCOPED_TRACE(extra);
    EXPECT_STATUS_CODE(StatusCode::kInvalidArgument,
                       ParseConfig(kBase + extra));
  };
  rejected("[tier.4294967296]\nprofile=ram\nquota=7KiB\n");
  rejected("[tier.2147483648]\nprofile=ram\nquota=7KiB\n");
  rejected("[monarch]\nplacement_threads = 4294967297\n");
  rejected("[placement]\nprefetch_lookahead = 4294967295\n");
  rejected("[resilience]\nretry_max_attempts = 2147483648\n");

  const auto at_max =
      ParseConfig(std::string(kBase) +
                  "[monarch]\nplacement_threads = 2147483647\n");
  ASSERT_OK(at_max);
  EXPECT_EQ(2147483647, at_max->placement_threads);
  EXPECT_EQ(1024u, at_max->cache_tiers[0].quota_bytes);
}

// No read ring is left for a `[read]` section to size: an INI that
// still carries one fails instead of parsing into nothing.
TEST(ParseConfigTest, RejectsRemovedReadSection) {
  for (const std::string key : {"ring_depth", "worker_threads", "zero_copy"}) {
    SCOPED_TRACE(key);
    const auto parsed =
        ParseConfig(std::string(kValidIni) + "[read]\n" + key + " = 1\n");
    EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, parsed);
    EXPECT_NE(parsed.status().message().find("unknown section 'read'"),
              std::string::npos)
        << parsed.status();
  }
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
