#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace monarch {

namespace {

// 8 tables of 256 entries, generated at static-init time: table[0] is the
// plain bytewise table; table[k][b] = effect of byte b followed by k zero
// bytes, enabling 8-bytes-at-a-time processing.
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Crc32cTables() noexcept {
    constexpr std::uint32_t kPolyReflected = 0x82F63B78U;  // 0x1EDC6F41 reflected
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1U) != 0 ? (crc >> 1) ^ kPolyReflected : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFFU] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() noexcept {
  static const Crc32cTables tables;
  return tables;
}

inline std::uint32_t LoadLe32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[0])) |
         static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[1])) << 8 |
         static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[2])) << 16 |
         static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[3])) << 24;
}

}  // namespace

namespace detail {

std::uint32_t Crc32cSoftware(std::span<const std::byte> data,
                             std::uint32_t crc) noexcept {
  const auto& t = Tables().t;
  crc = ~crc;

  const std::byte* p = data.data();
  std::size_t n = data.size();

  // Align-free slice-by-8 main loop.
  while (n >= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFU] ^ t[2][(hi >> 8) & 0xFFU] ^
          t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ std::to_integer<std::uint8_t>(*p++)) & 0xFFU] ^
          (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t Crc32cHardware(
    std::span<const std::byte> data, std::uint32_t crc) noexcept {
  std::uint64_t crc64 = ~crc;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc64);
  while (n-- > 0) {
    crc32 = _mm_crc32_u8(crc32, std::to_integer<std::uint8_t>(*p++));
  }
  return ~crc32;
}
#endif

Crc32cFn SelectedCrc32c() noexcept {
  // A function-local static, and cpu_init before the query, keep the choice
  // safe for callers that run during static initialisation.
  static const Crc32cFn selected = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &Crc32cHardware;
#endif
    return &Crc32cSoftware;
  }();
  return selected;
}

}  // namespace detail

std::uint32_t Crc32c(std::span<const std::byte> data,
                     std::uint32_t crc) noexcept {
  return detail::SelectedCrc32c()(data, crc);
}

}  // namespace monarch
