// FairQueue: starvation-free weighted fair queuing over priority bands
// (ISSUE 10). Generalizes the staging pipeline's original two-lane
// demand/prefetch design into N weighted classes:
//
//   band 0 (demand):      interactive, training
//   band 1 (background):  scan, drain, prefetch
//
// Bands are strict priority — band 1 is served only while band 0 is
// empty, which preserves the original invariant that demand staging
// always runs before speculative work. WITHIN a band, classes share
// service by start-time fair queuing (SFQ): each pushed item gets a
// finish tag
//
//   finish = max(band_virtual_time, class_last_finish) + cost / weight
//
// and Pop() serves the item with the smallest finish tag in the lowest
// non-empty band. A class with weight w therefore gets a w-proportional
// share of the band's service, and — unlike strict priority — a
// low-weight class is never starved: its tags keep pace with virtual
// time, so a backlog of heavy-class work only delays it proportionally.
//
// NOT thread-safe: callers (PlacementHandler) serialize access under
// their own mutex, exactly as the previous two-deque design did.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

namespace monarch::qos {

template <typename T>
class FairQueue {
 public:
  /// Declare a class before pushing to it. `band` orders strict
  /// priority (lower served first); `weight` apportions service within
  /// the band. Re-registering a class updates band/weight and keeps its
  /// queued items.
  void RegisterClass(int cls, int band, double weight) {
    if (cls >= static_cast<int>(classes_.size())) {
      classes_.resize(static_cast<std::size_t>(cls) + 1);
    }
    if (band >= static_cast<int>(band_vtime_.size())) {
      band_vtime_.resize(static_cast<std::size_t>(band) + 1, 0.0);
    }
    ClassState& state = classes_[static_cast<std::size_t>(cls)];
    state.registered = true;
    state.band = band;
    state.weight = weight > 0.0 ? weight : 1.0;
  }

  /// Enqueue `item` on `cls` with service cost `cost` (bytes, for the
  /// staging pipeline). Unregistered classes are auto-registered on the
  /// highest band with weight 1 — nothing is ever dropped.
  void Push(int cls, double cost, T item) {
    if (cls >= static_cast<int>(classes_.size()) ||
        !classes_[static_cast<std::size_t>(cls)].registered) {
      RegisterClass(cls, LastBand(), 1.0);
    }
    ClassState& state = classes_[static_cast<std::size_t>(cls)];
    const double start =
        std::max(band_vtime_[static_cast<std::size_t>(state.band)],
                 state.last_finish);
    const double finish = start + std::max(cost, 1.0) / state.weight;
    state.last_finish = finish;
    state.items.push_back(Entry{finish, std::move(item)});
    ++size_;
  }

  /// Dequeue the next item by (band priority, smallest finish tag), or
  /// nullopt when empty. Advances the band's virtual time to the served
  /// item's tag.
  std::optional<T> TryPop() {
    if (size_ == 0) return std::nullopt;
    ClassState* best = nullptr;
    for (ClassState& state : classes_) {
      if (state.items.empty()) continue;
      if (best == nullptr || state.band < best->band ||
          (state.band == best->band &&
           state.items.front().finish < best->items.front().finish)) {
        best = &state;
      }
    }
    if (best == nullptr) return std::nullopt;
    Entry entry = std::move(best->items.front());
    best->items.pop_front();
    --size_;
    double& vtime = band_vtime_[static_cast<std::size_t>(best->band)];
    vtime = std::max(vtime, entry.finish);
    return std::optional<T>(std::move(entry.item));
  }

  /// Remove and return the first queued item (any class) matching
  /// `pred(item)`, or nullopt. Used by demand promotion — a read
  /// overtaking a queued prefetch pulls the task out to re-push it on
  /// the reader's own class.
  template <typename Pred>
  std::optional<T> Extract(Pred pred) {
    for (ClassState& state : classes_) {
      for (auto it = state.items.begin(); it != state.items.end(); ++it) {
        if (pred(it->item)) {
          T item = std::move(it->item);
          state.items.erase(it);
          --size_;
          return std::optional<T>(std::move(item));
        }
      }
    }
    return std::nullopt;
  }

  /// Remove and return EVERY queued item matching `pred(item)`
  /// (prefetch cancellation).
  template <typename Pred>
  std::vector<T> ExtractAll(Pred pred) {
    std::vector<T> out;
    for (ClassState& state : classes_) {
      for (auto it = state.items.begin(); it != state.items.end();) {
        if (pred(it->item)) {
          out.push_back(std::move(it->item));
          it = state.items.erase(it);
          --size_;
        } else {
          ++it;
        }
      }
    }
    return out;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] std::size_t class_depth(int cls) const noexcept {
    if (cls < 0 || cls >= static_cast<int>(classes_.size())) return 0;
    return classes_[static_cast<std::size_t>(cls)].items.size();
  }

 private:
  struct Entry {
    double finish = 0.0;
    T item;
  };
  struct ClassState {
    // Move-only, so the vector relocates (never copies) the queued items
    // and T may itself be move-only.
    ClassState() = default;
    ClassState(ClassState&&) = default;
    ClassState& operator=(ClassState&&) = default;

    bool registered = false;
    int band = 0;
    double weight = 1.0;
    double last_finish = 0.0;
    std::deque<Entry> items;
  };

  [[nodiscard]] int LastBand() const noexcept {
    return band_vtime_.empty() ? 0
                               : static_cast<int>(band_vtime_.size()) - 1;
  }

  std::vector<ClassState> classes_;   ///< indexed by class id
  std::vector<double> band_vtime_;    ///< per-band virtual time
  std::size_t size_ = 0;
};

}  // namespace monarch::qos
