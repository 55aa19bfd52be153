#include "pack/codec.h"

#include <array>
#include <cstring>
#include <string>

namespace monarch::pack {
namespace {

// ---------------------------------------------------------------- none

class NoneCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view Name() const override { return "none"; }

  [[nodiscard]] std::size_t MaxStoredSize(
      std::size_t logical_bytes) const override {
    return logical_bytes;
  }

  Status Encode(std::span<const std::byte> logical,
                std::vector<std::byte>& stored) const override {
    stored.assign(logical.begin(), logical.end());
    return Status::Ok();
  }

  Status Decode(std::span<const std::byte> stored,
                std::span<std::byte> logical) const override {
    if (stored.size() != logical.size()) {
      return DataLossError("none codec: stored size " +
                           std::to_string(stored.size()) +
                           " != logical size " +
                           std::to_string(logical.size()));
    }
    if (!stored.empty()) {
      std::memcpy(logical.data(), stored.data(), stored.size());
    }
    return Status::Ok();
  }
};

// ------------------------------------------------------------------ lz
//
// A self-contained LZ77 byte codec in the LZ4 token-stream dialect:
// each sequence is
//
//   token        high nibble = literal count, low nibble = match
//                length - 4; nibble value 15 means "more length bytes
//                follow" (a run of 255s plus one terminator < 255)
//   literals     copied verbatim
//   offset       2-byte little-endian back-reference distance (1..64Ki)
//   match        copied from already-decoded output (overlap legal —
//                offset 1 is run-length encoding)
//
// The final sequence is literal-only (match nibble 0, no offset
// bytes). Matching is greedy single-probe hash lookup over 4-byte
// windows — a fraction of real LZ4's ratio, but dependency-free and
// fast enough for a staging pipeline that is I/O-bound anyway.

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kTailLiterals = 5;   ///< never match into the tail
constexpr std::size_t kMaxOffset = 65535;
constexpr unsigned kHashBits = 13;

std::uint32_t Load32(const std::byte* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t HashWindow(std::uint32_t v) {
  return (v * 2654435761u) >> (32u - kHashBits);
}

void PutLength(std::vector<std::byte>& out, std::size_t rest) {
  while (rest >= 255) {
    out.push_back(std::byte{255});
    rest -= 255;
  }
  out.push_back(static_cast<std::byte>(rest));
}

class LzCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view Name() const override { return "lz"; }

  [[nodiscard]] std::size_t MaxStoredSize(
      std::size_t logical_bytes) const override {
    // One token + length bytes per 255-literal run, plus slack for the
    // final short sequence.
    return logical_bytes + logical_bytes / 255 + 16;
  }

  Status Encode(std::span<const std::byte> logical,
                std::vector<std::byte>& stored) const override {
    stored.clear();
    if (logical.empty()) return Status::Ok();
    stored.reserve(logical.size() / 2 + 16);

    const std::byte* src = logical.data();
    const std::size_t size = logical.size();
    const std::size_t match_end = size > kTailLiterals
                                      ? size - kTailLiterals
                                      : 0;
    // The window-hash table is per thread and reused, so a call neither
    // allocates nor clears it: a slot holds (generation << 32 | position)
    // and counts only when its generation is this call's. Every call thus
    // starts from an empty table and emits the same stream a fresh one
    // would.
    thread_local std::array<std::uint64_t, std::size_t{1} << kHashBits>
        table{};
    thread_local std::uint32_t generation = 0;
    if (++generation == 0) {
      table.fill(0);
      generation = 1;
    }
    const std::uint64_t tag = std::uint64_t{generation} << 32U;

    std::size_t anchor = 0;
    std::size_t pos = 0;
    while (pos + kMinMatch <= match_end) {
      std::uint64_t& slot = table[HashWindow(Load32(src + pos))];
      const std::uint64_t previous = slot;
      slot = tag | pos;
      const std::size_t candidate = static_cast<std::uint32_t>(previous);
      if ((previous >> 32U) != generation || pos - candidate > kMaxOffset ||
          Load32(src + candidate) != Load32(src + pos)) {
        ++pos;
        continue;
      }
      std::size_t match_len = kMinMatch;
      while (pos + match_len < match_end &&
             src[candidate + match_len] == src[pos + match_len]) {
        ++match_len;
      }
      EmitSequence(stored, src + anchor, pos - anchor,
                   pos - candidate, match_len);
      pos += match_len;
      anchor = pos;
    }
    EmitFinal(stored, src + anchor, size - anchor);
    return Status::Ok();
  }

  Status Decode(std::span<const std::byte> stored,
                std::span<std::byte> logical) const override {
    std::size_t in = 0;
    std::size_t out = 0;
    const std::size_t in_size = stored.size();
    const std::size_t out_size = logical.size();
    while (in < in_size) {
      const auto token = std::to_integer<unsigned>(stored[in++]);

      std::size_t literals = token >> 4u;
      if (literals == 15) {
        MONARCH_RETURN_IF_ERROR(ReadLength(stored, in, literals));
      }
      if (in + literals > in_size || out + literals > out_size) {
        return Malformed("literal run out of bounds");
      }
      if (literals > 0) {
        std::memcpy(logical.data() + out, stored.data() + in, literals);
        in += literals;
        out += literals;
      }
      if (in == in_size) {
        // Final, literal-only sequence.
        if ((token & 0xFu) != 0) return Malformed("dangling match token");
        break;
      }

      if (in + 2 > in_size) return Malformed("truncated match offset");
      const std::size_t offset =
          std::to_integer<std::size_t>(stored[in]) |
          (std::to_integer<std::size_t>(stored[in + 1]) << 8u);
      in += 2;
      if (offset == 0 || offset > out) {
        return Malformed("match offset outside decoded window");
      }
      std::size_t match_len = (token & 0xFu) + kMinMatch;
      if ((token & 0xFu) == 15) {
        std::size_t extra = 0;
        MONARCH_RETURN_IF_ERROR(ReadLength(stored, in, extra));
        match_len = 15 + kMinMatch + extra;
      }
      if (out + match_len > out_size) {
        return Malformed("match overruns logical size");
      }
      if (offset >= match_len) {
        std::memcpy(logical.data() + out, logical.data() + out - offset,
                    match_len);
        out += match_len;
      } else {
        // Overlapping back-reference (offset 1 is run-length encoding):
        // each byte may be one this copy just wrote.
        for (std::size_t i = 0; i < match_len; ++i, ++out) {
          logical[out] = logical[out - offset];
        }
      }
    }
    if (out != out_size) {
      return Malformed("decoded " + std::to_string(out) + " of " +
                       std::to_string(out_size) + " logical bytes");
    }
    return Status::Ok();
  }

 private:
  static Status Malformed(std::string what) {
    return DataLossError("lz codec: " + std::move(what));
  }

  static Status ReadLength(std::span<const std::byte> stored,
                           std::size_t& in, std::size_t& length) {
    unsigned byte = 255;
    while (byte == 255) {
      if (in >= stored.size()) return Malformed("truncated length run");
      byte = std::to_integer<unsigned>(stored[in++]);
      length += byte;
    }
    return Status::Ok();
  }

  static void EmitSequence(std::vector<std::byte>& out,
                           const std::byte* literals, std::size_t lit_len,
                           std::size_t offset, std::size_t match_len) {
    const std::size_t match_code = match_len - kMinMatch;
    const unsigned lit_nibble =
        static_cast<unsigned>(lit_len >= 15 ? 15 : lit_len);
    const unsigned match_nibble =
        static_cast<unsigned>(match_code >= 15 ? 15 : match_code);
    out.push_back(static_cast<std::byte>((lit_nibble << 4u) | match_nibble));
    if (lit_len >= 15) PutLength(out, lit_len - 15);
    out.insert(out.end(), literals, literals + lit_len);
    out.push_back(static_cast<std::byte>(offset & 0xFFu));
    out.push_back(static_cast<std::byte>((offset >> 8u) & 0xFFu));
    if (match_code >= 15) PutLength(out, match_code - 15);
  }

  static void EmitFinal(std::vector<std::byte>& out,
                        const std::byte* literals, std::size_t lit_len) {
    const unsigned lit_nibble =
        static_cast<unsigned>(lit_len >= 15 ? 15 : lit_len);
    out.push_back(static_cast<std::byte>(lit_nibble << 4u));
    if (lit_len >= 15) PutLength(out, lit_len - 15);
    out.insert(out.end(), literals, literals + lit_len);
  }
};

}  // namespace

Result<const Codec*> CodecByName(std::string_view name) {
  static const NoneCodec none;
  static const LzCodec lz;
  if (name == "none") return static_cast<const Codec*>(&none);
  if (name == "lz") return static_cast<const Codec*>(&lz);
  return InvalidArgumentError("unknown pack codec '" + std::string(name) +
                              "' (expected none|lz)");
}

}  // namespace monarch::pack
