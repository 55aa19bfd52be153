// Knobs of the small-file packing tier (`[pack]` INI section;
// docs/CONFIG.md). One struct travels from the config parser through
// MonarchConfig into the placement pipeline and the read path, so the
// chunk geometry every layer sees is identical by construction.
#pragma once

#include <cstdint>
#include <string>

namespace monarch::pack {

struct PackOptions {
  /// Master switch: stage, evict and serve dataset files in chunks of
  /// `chunk_bytes` through `codec` (and look for a pack index under the
  /// dataset dir at startup). Off, every file is still a chunk map, but
  /// its chunk is one staging buffer (`[placement] staging_chunk_bytes`)
  /// stored as is, so a file that fits one buffer is one tier object.
  bool enabled = false;

  /// Staging/serving granularity in pack mode. Every file is split into
  /// fixed-size chunks of this many logical bytes (the last chunk may be
  /// short). Clamped to the staging buffer pool's chunk buffers.
  std::uint64_t chunk_bytes = 256 * 1024;

  /// Per-chunk stage-in codec in pack mode: "none" | "lz". Staged chunks
  /// are stored post-codec, so tier quota is charged compressed bytes.
  std::string codec = "none";
};

}  // namespace monarch::pack
