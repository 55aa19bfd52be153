// Thread-safe sharded hash map — the lookup-table substitute for the
// Abseil containers the MONARCH prototype used for its metadata container
// (§III-C). Striped locking keeps concurrent lookups from the DL
// framework's reader threads and updates from the placement thread pool
// from serialising on one mutex: a lookup takes only its shard's shared
// lock.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace monarch {

/// Transparent string hash: lets unordered_map keyed by std::string be
/// probed with a string_view (or char*) without building a temporary
/// std::string — the per-read allocation the hot path must not pay.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class ShardedMap {
 public:
  /// `shard_count` is rounded up to a power of two (default 16).
  explicit ShardedMap(std::size_t shard_count = 16)
      : shards_(std::bit_ceil(std::max<std::size_t>(shard_count, 1))) {}

  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  /// Insert if absent. Returns true when the value was inserted.
  bool Insert(const K& key, V value) {
    Shard& shard = ShardFor(key);
    std::unique_lock lock(shard.mu);
    return shard.map.emplace(key, std::move(value)).second;
  }

  /// Insert or overwrite.
  void InsertOrAssign(const K& key, V value) {
    Shard& shard = ShardFor(key);
    std::unique_lock lock(shard.mu);
    shard.map.insert_or_assign(key, std::move(value));
  }

  /// Copy out the value for `key`, if present, under the shard's shared
  /// lock. `key` can be any type the map's (transparent) Hash/Eq accept —
  /// a string_view probes a string-keyed map with no temporary.
  template <typename Key>
  [[nodiscard]] std::optional<V> Find(const Key& key) const {
    const Shard& shard = ShardFor(key);
    std::shared_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] bool Contains(const K& key) const {
    const Shard& shard = ShardFor(key);
    std::shared_lock lock(shard.mu);
    return shard.map.contains(key);
  }

  /// Remove `key`. Returns true if it was present.
  bool Erase(const K& key) {
    Shard& shard = ShardFor(key);
    std::unique_lock lock(shard.mu);
    return shard.map.erase(key) > 0;
  }

  /// Apply `fn(V&)` to the mapped value under the shard's exclusive lock.
  /// Returns false when the key is absent (fn not called).
  template <typename Fn>
  bool Update(const K& key, Fn&& fn) {
    Shard& shard = ShardFor(key);
    std::unique_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return false;
    std::forward<Fn>(fn)(it->second);
    return true;
  }

  /// Apply `fn(const K&, const V&)` to every entry. Shards are visited in
  /// order, each under its shared lock; do not call map methods from fn.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::shared_lock lock(shard.mu);
      for (const auto& [k, v] : shard.map) fn(k, v);
    }
  }

  [[nodiscard]] std::size_t Size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::shared_lock lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

  [[nodiscard]] bool Empty() const { return Size() == 0; }

  void Clear() {
    for (Shard& shard : shards_) {
      std::unique_lock lock(shard.mu);
      shard.map.clear();
    }
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<K, V, Hash, Eq> map;
  };

  template <typename Key>
  Shard& ShardFor(const Key& key) {
    return shards_[Hash{}(key) & (shards_.size() - 1)];
  }
  template <typename Key>
  const Shard& ShardFor(const Key& key) const {
    return shards_[Hash{}(key) & (shards_.size() - 1)];
  }

  std::vector<Shard> shards_;
};

}  // namespace monarch
