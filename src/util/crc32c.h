// CRC-32C (Castagnoli, polynomial 0x1EDC6F41). On x86-64 CPUs with SSE4.2
// the checksum runs on the `crc32` instruction; elsewhere it falls back to
// software slice-by-8. The path is chosen once, at the first call.
//
// The TFRecord wire format frames every record with masked CRC32C
// checksums of both the length field and the payload; this module provides
// the checksum and the mask/unmask transform TensorFlow applies so our
// files are bit-compatible with real TFRecords.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace monarch {

/// CRC32C of `data`, optionally extending a previous crc (pass the prior
/// return value as `crc` to checksum data in chunks).
std::uint32_t Crc32c(std::span<const std::byte> data,
                     std::uint32_t crc = 0) noexcept;

inline std::uint32_t Crc32c(const void* data, std::size_t n,
                            std::uint32_t crc = 0) noexcept {
  return Crc32c(
      std::span<const std::byte>(static_cast<const std::byte*>(data), n), crc);
}

namespace detail {

// The two implementations behind Crc32c, exposed so tests can check them
// against each other. Both return exactly what Crc32c returns.
using Crc32cFn = std::uint32_t (*)(std::span<const std::byte>,
                                   std::uint32_t) noexcept;

std::uint32_t Crc32cSoftware(std::span<const std::byte> data,
                             std::uint32_t crc) noexcept;
#if defined(__x86_64__)
/// Requires SSE4.2 (`__builtin_cpu_supports("sse4.2")`).
std::uint32_t Crc32cHardware(std::span<const std::byte> data,
                             std::uint32_t crc) noexcept;
#endif

/// The implementation Crc32c dispatches to on this CPU.
Crc32cFn SelectedCrc32c() noexcept;

}  // namespace detail

/// TensorFlow's masked CRC: rotate and add a constant so that CRCs stored
/// alongside the data they cover don't collide with CRCs *of* that data.
constexpr std::uint32_t kCrcMaskDelta = 0xA282EAD8U;

constexpr std::uint32_t MaskCrc(std::uint32_t crc) noexcept {
  return ((crc >> 15) | (crc << 17)) + kCrcMaskDelta;
}

constexpr std::uint32_t UnmaskCrc(std::uint32_t masked) noexcept {
  const std::uint32_t rot = masked - kCrcMaskDelta;
  return (rot >> 17) | (rot << 15);
}

}  // namespace monarch
