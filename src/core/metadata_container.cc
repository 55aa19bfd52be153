#include "core/metadata_container.h"

#include <algorithm>

#include "util/clock.h"

namespace monarch::core {

Result<std::uint64_t> MetadataContainer::Populate(
    storage::StorageEngine& pfs, const std::string& dataset_dir) {
  const Stopwatch timer;
  MONARCH_ASSIGN_OR_RETURN(auto listing, pfs.ListFiles(dataset_dir));

  std::uint64_t registered = 0;
  for (const storage::FileStat& st : listing) {
    if (Register(st.path, st.size)) ++registered;
  }
  init_seconds_ = timer.ElapsedSeconds();
  return registered;
}

bool MetadataContainer::Register(const std::string& name, std::uint64_t size) {
  auto info = std::make_shared<FileInfo>(name, size);
  if (!files_.Insert(name, std::move(info))) return false;
  total_bytes_.fetch_add(size, std::memory_order_relaxed);
  return true;
}

std::vector<MetadataContainer::Entry> MetadataContainer::Snapshot() const {
  std::vector<Entry> out;
  out.reserve(files_.Size());
  files_.ForEach([&](const std::string& name, const FileInfoPtr& info) {
    out.push_back(Entry{name, info->size,
                        info->state.load(std::memory_order_relaxed)});
  });
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

}  // namespace monarch::core
