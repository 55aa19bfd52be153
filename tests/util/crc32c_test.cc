#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace monarch {
namespace {

std::uint32_t CrcOfString(const std::string& text) {
  return Crc32c(text.data(), text.size());
}

// Every implementation this CPU can run: the software fallback always, the
// SSE4.2 path where the CPU has it.
std::vector<std::pair<const char*, detail::Crc32cFn>> Implementations() {
  std::vector<std::pair<const char*, detail::Crc32cFn>> impls = {
      {"software", &detail::Crc32cSoftware}};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    impls.emplace_back("hardware", &detail::Crc32cHardware);
  }
#endif
  return impls;
}

std::span<const std::byte> AsBytes(const std::string& text) {
  return std::as_bytes(std::span(text.data(), text.size()));
}

// Known-answer vectors from the CRC32C (Castagnoli) specification / RFC
// 3720 appendix.
TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(0u, Crc32c(nullptr, 0));
  EXPECT_EQ(0xE3069283u, CrcOfString("123456789"));

  // 32 bytes of zeros.
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(0x8A9136AAu, Crc32c(zeros));

  // 32 bytes of 0xFF.
  const std::vector<std::byte> ones(32, std::byte{0xFF});
  EXPECT_EQ(0x62A8AB43u, Crc32c(ones));

  // 0x00..0x1F ascending.
  std::vector<std::byte> ascending(32);
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<std::byte>(i);
  EXPECT_EQ(0x46DD794Eu, Crc32c(ascending));

  for (const auto& [name, crc32c] : Implementations()) {
    EXPECT_EQ(0u, crc32c({}, 0)) << name;
    EXPECT_EQ(0xE3069283u, crc32c(AsBytes("123456789"), 0)) << name;
    EXPECT_EQ(0x8A9136AAu, crc32c(zeros, 0)) << name;
    EXPECT_EQ(0x62A8AB43u, crc32c(ones, 0)) << name;
    EXPECT_EQ(0x46DD794Eu, crc32c(ascending, 0)) << name;
  }
}

// A CPU with SSE4.2 must get the hardware path: a broken dispatch would
// otherwise fall back to software without any value changing.
TEST(Crc32cTest, DispatchUsesHardwareWhereTheCpuHasIt) {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_EQ(&detail::Crc32cHardware, detail::SelectedCrc32c());
    return;
  }
#endif
  EXPECT_EQ(&detail::Crc32cSoftware, detail::SelectedCrc32c());
}

TEST(Crc32cTest, ImplementationsAgreeOnRandomInputs) {
  const auto impls = Implementations();
  Xoshiro256 rng(31);
  constexpr std::size_t kMaxLen = 1 << 20;
  constexpr std::size_t kMaxOffset = 63;
  std::vector<std::byte> buffer(kMaxLen + kMaxOffset);
  for (auto& b : buffer) b = static_cast<std::byte>(rng() & 0xFF);

  for (int trial = 0; trial < 300; ++trial) {
    // Half the lengths are short so the byte tails get covered densely.
    const std::size_t len =
        trial % 2 == 0 ? rng() % 64 : rng() % (kMaxLen + 1);
    const std::size_t offset = rng() % (kMaxOffset + 1);
    const auto seed = static_cast<std::uint32_t>(rng());
    const std::span<const std::byte> data(buffer.data() + offset, len);
    const std::uint32_t reference = detail::Crc32cSoftware(data, seed);
    EXPECT_EQ(reference, Crc32c(data, seed))
        << "len=" << len << " offset=" << offset;
    for (const auto& [name, crc32c] : impls) {
      EXPECT_EQ(reference, crc32c(data, seed))
          << name << " len=" << len << " offset=" << offset;
    }
  }
}

TEST(Crc32cTest, ChainingAcrossImplementationsMatchesOneShot) {
  const auto impls = Implementations();
  Xoshiro256 rng(17);
  std::vector<std::byte> data(4099);
  for (auto& b : data) b = static_cast<std::byte>(rng() & 0xFF);
  const std::uint32_t whole = detail::Crc32cSoftware(data, 0);

  for (const auto& [prefix_name, prefix_fn] : impls) {
    for (const auto& [suffix_name, suffix_fn] : impls) {
      for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 2048u, 4098u,
                                      4099u}) {
        const std::span<const std::byte> all(data);
        const std::uint32_t prefix = prefix_fn(all.first(split), 0);
        EXPECT_EQ(whole, suffix_fn(all.subspan(split), prefix))
            << prefix_name << " then " << suffix_name << " split=" << split;
      }
    }
  }
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  Xoshiro256 rng(11);
  std::vector<std::byte> data(1000);
  for (auto& b : data) b = static_cast<std::byte>(rng() & 0xFF);

  const std::uint32_t whole = Crc32c(data);
  for (const std::size_t split : {1u, 7u, 8u, 63u, 500u, 999u}) {
    // Extend a prefix CRC with the suffix: this is the documented chunked
    // mode (pass the previous return as `crc`).
    const std::uint32_t prefix = Crc32c(data.data(), split);
    const std::uint32_t chained =
        Crc32c(data.data() + split, data.size() - split, prefix);
    EXPECT_EQ(whole, chained) << "split=" << split;
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlips) {
  std::string text = "monarch hierarchical storage";
  const std::uint32_t original = CrcOfString(text);
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string corrupted = text;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x01);
    EXPECT_NE(original, CrcOfString(corrupted)) << "byte " << i;
  }
}

TEST(Crc32cTest, UnalignedOffsetsAgree) {
  // Neither the slice-by-8 loop nor the SSE4.2 loop's 8-byte loads may
  // depend on data alignment.
  std::vector<std::byte> padded(64 + 16);
  Xoshiro256 rng(5);
  for (auto& b : padded) b = static_cast<std::byte>(rng() & 0xFF);
  const std::uint32_t reference = Crc32c(padded.data() + 0, 64);
  for (int offset = 1; offset < 8; ++offset) {
    std::memmove(padded.data() + offset, padded.data(), 64);
    EXPECT_EQ(reference, Crc32c(padded.data() + offset, 64))
        << "offset " << offset;
    std::memmove(padded.data(), padded.data() + offset, 64);
  }
}

TEST(CrcMaskTest, MaskUnmaskRoundTrips) {
  for (const std::uint32_t crc :
       {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu, 0xE3069283u}) {
    EXPECT_EQ(crc, UnmaskCrc(MaskCrc(crc)));
  }
}

TEST(CrcMaskTest, MaskChangesValue) {
  // The mask exists so a CRC stored next to its data cannot be mistaken
  // for a CRC of that data.
  EXPECT_NE(0xE3069283u, MaskCrc(0xE3069283u));
}

}  // namespace
}  // namespace monarch
