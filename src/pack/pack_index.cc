#include "pack/pack_index.h"

#include <cstring>

#include "pack/pack_format.h"

namespace monarch::pack {
namespace {

struct Cursor {
  std::span<const std::byte> data;
  std::size_t pos = 0;

  [[nodiscard]] bool Have(std::size_t n) const {
    return pos + n <= data.size();
  }
  bool ReadU32(std::uint32_t& v) {
    if (!Have(sizeof(v))) return false;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    pos += sizeof(v);
    return true;
  }
  bool ReadU64(std::uint64_t& v) {
    if (!Have(sizeof(v))) return false;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    pos += sizeof(v);
    return true;
  }
  bool ReadString(std::size_t n, std::string& out) {
    if (!Have(n)) return false;
    out.assign(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return true;
  }
};

Status Torn(const std::string& path, const std::string& what) {
  return DataLossError("pack index " + path + ": " + what);
}

}  // namespace

Result<std::shared_ptr<const PackIndex>> PackIndex::Load(
    storage::StorageEngine& engine, const std::string& dataset_dir) {
  const std::string path = IndexPath(dataset_dir);
  auto exists = engine.Exists(path);
  if (!exists.ok()) return exists.status();
  if (!exists.value()) {
    return NotFoundError("no pack index at " + path);
  }
  auto size = engine.FileSize(path);
  if (!size.ok()) return size.status();
  std::vector<std::byte> raw(static_cast<std::size_t>(size.value()));
  auto read = engine.Read(path, 0, raw);
  if (!read.ok()) return read.status();
  if (read.value() != raw.size()) {
    return Torn(path, "short read");
  }

  Cursor cursor{raw};
  std::string magic;
  if (!cursor.ReadString(kIndexMagic.size(), magic) || magic != kIndexMagic) {
    return Torn(path, "bad magic");
  }
  std::uint32_t version = 0;
  std::uint32_t extent_count = 0;
  std::uint64_t entry_count = 0;
  if (!cursor.ReadU32(version) || !cursor.ReadU32(extent_count) ||
      !cursor.ReadU64(entry_count)) {
    return Torn(path, "truncated header");
  }
  if (version != kIndexVersion) {
    return Torn(path, "unsupported version " + std::to_string(version));
  }
  // Each entry needs at least its fixed fields, so a hostile count
  // cannot force a huge up-front reservation.
  if (entry_count > raw.size()) {
    return Torn(path, "implausible entry count");
  }

  auto index = std::shared_ptr<PackIndex>(new PackIndex());
  index->dataset_dir_ = dataset_dir;
  index->extent_paths_.reserve(extent_count);
  for (std::uint32_t e = 0; e < extent_count; ++e) {
    index->extent_paths_.push_back(ExtentPath(dataset_dir, e));
  }
  index->order_.reserve(static_cast<std::size_t>(entry_count));
  index->extent_members_.resize(extent_count);

  for (std::uint64_t i = 0; i < entry_count; ++i) {
    std::uint32_t name_len = 0;
    if (!cursor.ReadU32(name_len)) return Torn(path, "truncated entry");
    std::string name;
    PackEntry entry;
    if (!cursor.ReadString(name_len, name) || !cursor.ReadU32(entry.extent) ||
        !cursor.ReadU64(entry.offset) || !cursor.ReadU64(entry.length) ||
        !cursor.ReadU32(entry.crc32c)) {
      return Torn(path, "truncated entry");
    }
    if (entry.extent >= extent_count) {
      return Torn(path, "entry references extent " +
                            std::to_string(entry.extent) + " of " +
                            std::to_string(extent_count));
    }
    index->logical_bytes_ += entry.length;
    std::vector<ExtentMember>& members = index->extent_members_[entry.extent];
    entry.slot = static_cast<std::uint32_t>(members.size());
    const auto [it, inserted] = index->entries_.emplace(name, entry);
    if (!inserted) return Torn(path, "duplicate logical name " + name);
    // Map nodes are stable, so members can point into entries_.
    members.push_back({it->first, &it->second});
    index->order_.push_back(std::move(name));
  }
  if (cursor.pos != raw.size()) {
    return Torn(path, "trailing bytes");
  }
  return std::shared_ptr<const PackIndex>(std::move(index));
}

}  // namespace monarch::pack
