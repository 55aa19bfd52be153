#include "pack/codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "../test_support.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace monarch::pack {
namespace {

std::vector<std::byte> RunHeavyPayload(std::size_t size) {
  std::vector<std::byte> out(size);
  Xoshiro256 rng(11);
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::uint64_t word = rng();
    const std::size_t seg =
        std::min<std::size_t>(out.size() - pos,
                              16 + static_cast<std::size_t>(word % 80));
    if ((word & 1) != 0) {
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(pos), seg,
                  static_cast<std::byte>(word & 0xFFU));
    } else {
      for (std::size_t j = 0; j < seg; ++j) {
        out[pos + j] = static_cast<std::byte>(rng() & 0xFFU);
      }
    }
    pos += seg;
  }
  return out;
}

std::vector<std::byte> NoisePayload(std::size_t size) {
  std::vector<std::byte> out(size);
  Xoshiro256 rng(13);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xFFU);
  return out;
}

/// Bytes cycling with `period`: the encoder's matches overlap their own
/// source whenever `period` is shorter than the match.
std::vector<std::byte> PeriodicPayload(std::size_t period, std::size_t size) {
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::byte>((i % period) * 29 + 7);
  }
  return out;
}

/// Runs, noise and 64-byte back-references in random segments.
std::vector<std::byte> MixedPayload(std::size_t size, std::uint64_t seed) {
  std::vector<std::byte> out(size);
  Xoshiro256 rng(seed);
  std::size_t pos = 0;
  while (pos < size) {
    const std::uint64_t word = rng();
    const std::size_t seg =
        std::min<std::size_t>(size - pos, 8 + static_cast<std::size_t>(
                                                  word % 300));
    for (std::size_t j = 0; j < seg; ++j) {
      switch (word % 3) {
        case 0:
          out[pos + j] = static_cast<std::byte>(word >> 8U);
          break;
        case 1:
          out[pos + j] = static_cast<std::byte>(rng());
          break;
        default:
          out[pos + j] = pos > 64 ? out[pos + j - 64] : std::byte{1};
          break;
      }
    }
    pos += seg;
  }
  return out;
}

void ExpectRoundTrip(const Codec& codec,
                     const std::vector<std::byte>& logical) {
  std::vector<std::byte> stored;
  ASSERT_OK(codec.Encode(logical, stored));
  EXPECT_LE(stored.size(), codec.MaxStoredSize(logical.size()));
  std::vector<std::byte> decoded(logical.size());
  ASSERT_OK(codec.Decode(stored, decoded));
  EXPECT_EQ(logical, decoded);
}

TEST(PackCodecTest, CodecByNameResolvesBothCodecs) {
  auto none = CodecByName("none");
  ASSERT_OK(none);
  EXPECT_EQ("none", none.value()->Name());
  auto lz = CodecByName("lz");
  ASSERT_OK(lz);
  EXPECT_EQ("lz", lz.value()->Name());
  // Singletons: the read path keeps raw pointers for the process life.
  EXPECT_EQ(none.value(), CodecByName("none").value());
}

TEST(PackCodecTest, CodecByNameRejectsUnknown) {
  EXPECT_STATUS_CODE(StatusCode::kInvalidArgument, CodecByName("zstd"));
}

TEST(PackCodecTest, NoneIsIdentity) {
  const Codec* codec = CodecByName("none").value();
  const auto logical = NoisePayload(4096);
  std::vector<std::byte> stored;
  ASSERT_OK(codec->Encode(logical, stored));
  EXPECT_EQ(logical, stored);
  ExpectRoundTrip(*codec, logical);
}

TEST(PackCodecTest, LzRoundTripsVariedPayloads) {
  const Codec* codec = CodecByName("lz").value();
  ExpectRoundTrip(*codec, {});
  ExpectRoundTrip(*codec, testing::Bytes("x"));
  ExpectRoundTrip(*codec, testing::Bytes("abcabcabcabcabcabcabcabc"));
  ExpectRoundTrip(*codec, RunHeavyPayload(64 * 1024));
  ExpectRoundTrip(*codec, NoisePayload(64 * 1024));
  std::vector<std::byte> all_same(32 * 1024, std::byte{0x5A});
  ExpectRoundTrip(*codec, all_same);
}

TEST(PackCodecTest, LzCompressesRunHeavyData) {
  const Codec* codec = CodecByName("lz").value();
  const auto logical = RunHeavyPayload(256 * 1024);
  std::vector<std::byte> stored;
  ASSERT_OK(codec->Encode(logical, stored));
  EXPECT_LT(stored.size(), logical.size() * 2 / 3)
      << "run-heavy data must compress well below the 1.5x capacity gate";
}

// Staged chunks outlive the encoder that wrote them, so the stored
// stream is pinned: these sizes and CRC32Cs are the encoder's output on
// fixed inputs, and any change to the matcher shows up here.
TEST(PackCodecTest, LzStoredStreamIsStable) {
  const Codec* codec = CodecByName("lz").value();
  std::vector<std::byte> stored;
  ASSERT_OK(codec->Encode(testing::Bytes("abcabcabcabcabcabcabcabc"), stored));
  const std::vector<std::byte> expected = {
      std::byte{0x3C}, std::byte{0x61}, std::byte{0x62}, std::byte{0x63},
      std::byte{0x03}, std::byte{0x00}, std::byte{0x50}, std::byte{0x62},
      std::byte{0x63}, std::byte{0x61}, std::byte{0x62}, std::byte{0x63}};
  EXPECT_EQ(expected, stored);

  struct Golden {
    const char* label;
    std::vector<std::byte> logical;
    std::size_t stored_bytes;
    std::uint32_t crc;
  };
  const std::vector<Golden> goldens = {
      {"period 1", PeriodicPayload(1, 1000), 14, 0x8288A4A1},
      {"period 2", PeriodicPayload(2, 1000), 15, 0x41FEFB89},
      {"period 3", PeriodicPayload(3, 1000), 16, 0x64E717E0},
      {"period 4", PeriodicPayload(4, 1000), 17, 0x966C0FEF},
      {"period 5", PeriodicPayload(5, 1000), 18, 0xFB33B127},
      {"period 6", PeriodicPayload(6, 1000), 19, 0x78AEB2BE},
      {"period 7", PeriodicPayload(7, 1000), 20, 0xBC8EE0B2},
      {"mixed 8 KiB", MixedPayload(8192, 5), 2260, 0xEAE26214},
      {"mixed 64 KiB", MixedPayload(65536, 6), 23749, 0xC2615BEE},
      {"mixed past the 64 KiB window", MixedPayload(300000, 7), 103799,
       0x2C4AC547},
      {"zeros", std::vector<std::byte>(32768), 139, 0x2A018DFE},
  };
  // Twice over: a second pass must not see state left by the first.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Golden& golden : goldens) {
      ASSERT_OK(codec->Encode(golden.logical, stored));
      EXPECT_EQ(golden.stored_bytes, stored.size()) << golden.label;
      EXPECT_EQ(golden.crc, Crc32c(stored)) << golden.label;
      ExpectRoundTrip(*codec, golden.logical);
    }
  }
}

// Matches whose offset is shorter than their length copy bytes they
// are still writing (offset 1 is run-length encoding).
TEST(PackCodecTest, LzDecodesOverlappingMatches) {
  const Codec* codec = CodecByName("lz").value();
  for (std::size_t offset = 1; offset <= 7; ++offset) {
    for (const std::size_t match_len : {offset, offset + 1, std::size_t{18},
                                        std::size_t{40}}) {
      if (match_len < 4) continue;
      SCOPED_TRACE(::testing::Message()
                   << "offset " << offset << " match " << match_len);
      // `offset` literals, one match, then a 5-literal final sequence.
      std::vector<std::byte> logical;
      for (std::size_t i = 0; i < offset; ++i) {
        logical.push_back(static_cast<std::byte>(0x41 + i));
      }
      for (std::size_t i = 0; i < match_len; ++i) {
        logical.push_back(logical[logical.size() - offset]);
      }
      const std::vector<std::byte> tail = testing::Bytes("VWXYZ");
      logical.insert(logical.end(), tail.begin(), tail.end());

      const std::size_t code = match_len - 4;
      std::vector<std::byte> stored;
      stored.push_back(static_cast<std::byte>(
          (offset << 4U) | std::min<std::size_t>(code, 15)));
      stored.insert(stored.end(), logical.begin(),
                    logical.begin() + static_cast<std::ptrdiff_t>(offset));
      stored.push_back(static_cast<std::byte>(offset));
      stored.push_back(std::byte{0});
      if (code >= 15) stored.push_back(static_cast<std::byte>(code - 15));
      stored.push_back(std::byte{0x50});
      stored.insert(stored.end(), tail.begin(), tail.end());

      std::vector<std::byte> decoded(logical.size());
      ASSERT_OK(codec->Decode(stored, decoded));
      EXPECT_EQ(logical, decoded);
      ExpectRoundTrip(*codec, logical);
    }
  }
}

TEST(PackCodecTest, LzDecodeRejectsTruncatedStream) {
  const Codec* codec = CodecByName("lz").value();
  const auto logical = RunHeavyPayload(8 * 1024);
  std::vector<std::byte> stored;
  ASSERT_OK(codec->Encode(logical, stored));
  std::vector<std::byte> decoded(logical.size());
  stored.resize(stored.size() / 2);
  EXPECT_STATUS_CODE(StatusCode::kDataLoss, codec->Decode(stored, decoded));
}

TEST(PackCodecTest, LzDecodeRejectsWrongLogicalSize) {
  const Codec* codec = CodecByName("lz").value();
  const auto logical = RunHeavyPayload(8 * 1024);
  std::vector<std::byte> stored;
  ASSERT_OK(codec->Encode(logical, stored));
  std::vector<std::byte> short_out(logical.size() - 1);
  EXPECT_STATUS_CODE(StatusCode::kDataLoss,
                     codec->Decode(stored, short_out));
}

TEST(PackCodecTest, LzDecodeSurvivesGarbageWithoutCrashing) {
  // Bounds safety: random bytes must never read or write out of range;
  // any status (ok by fluke or DATA_LOSS) is acceptable, crashing is not.
  const Codec* codec = CodecByName("lz").value();
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::byte> garbage(1 + (rng() % 512));
    for (auto& b : garbage) b = static_cast<std::byte>(rng() & 0xFFU);
    std::vector<std::byte> decoded(256);
    (void)codec->Decode(garbage, decoded);
  }
}

}  // namespace
}  // namespace monarch::pack
