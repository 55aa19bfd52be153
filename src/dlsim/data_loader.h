// DataLoader: the simulated tf.data input pipeline.
//
// Reproduces the optimisations the paper's TensorFlow setup enables
// (§II "I/O parallelism, prefetching and parallel preprocessing"):
//
//   file list --(per-epoch shuffle)--> parallel interleave readers
//     each reader: open record file -> stream framed records in buffered
//     chunks -> preprocess each sample (CPU cost) -> push into a bounded
//     prefetch queue
//   training loop: pop samples, assemble batches.
//
// The random *file* order plus sequential chunked reads *within* a file
// is exactly the access pattern MONARCH's placement logic is designed
// around (§III-A: every file equally likely per epoch; §III-B: partial
// reads of large record files).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dlsim/record_opener.h"
#include "dlsim/resource_monitor.h"
#include "tfrecord/reader.h"
#include "util/bounded_queue.h"
#include "util/clock.h"
#include "util/status.h"

namespace monarch::dlsim {

struct LoaderConfig {
  int reader_threads = 6;          ///< parallel interleave width
  std::size_t prefetch_samples = 512;  ///< bounded queue capacity
  std::size_t read_chunk_bytes = 64 * 1024;  ///< buffered-read granularity
  bool verify_checksums = true;
  std::uint64_t shuffle_seed = 1;  ///< per-run seed; epoch index is mixed in
  /// Simulated per-sample preprocess cost; taken from the model profile.
  Duration preprocess_per_sample = kZeroDuration;
  /// Pump whole-file lease reads through the opener's async ReadRing
  /// (no-op for openers without one): each reader keeps `ring_window`
  /// files in flight and parses records straight out of the lent pages.
  bool use_read_ring = false;
  int ring_window = 2;  ///< per-reader files in flight when ring-fed
};

struct Sample {
  std::vector<std::byte> payload;
};

/// The deterministic per-epoch file order: `files` shuffled with the
/// epoch index mixed into the seed (tf.data reshuffle_each_iteration).
/// EpochLoader uses this for its reading order, and the Trainer uses the
/// same function to precompute the WHOLE run's access sequence for
/// MONARCH's eviction ranking — one definition, so the
/// exported schedule can never drift from what the loader actually reads.
std::vector<std::string> ShuffledFileOrder(std::vector<std::string> files,
                                           std::uint64_t shuffle_seed,
                                           int epoch);

/// One epoch's worth of sample production. Construction starts the reader
/// threads; the consumer pops from queue() until nullopt.
class EpochLoader {
 public:
  EpochLoader(const std::vector<std::string>& files, int epoch,
              RecordFileOpener& opener, ResourceMonitor& monitor,
              LoaderConfig config);
  ~EpochLoader();

  EpochLoader(const EpochLoader&) = delete;
  EpochLoader& operator=(const EpochLoader&) = delete;

  [[nodiscard]] BoundedQueue<Sample>& queue() noexcept { return queue_; }

  /// Join the readers (queue closes when all files are consumed).
  void Finish();

  /// First error any reader hit (OK when the epoch was clean).
  [[nodiscard]] Status status() const;

  [[nodiscard]] std::uint64_t samples_produced() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t files_read() const noexcept {
    return files_read_.load(std::memory_order_relaxed);
  }

 private:
  void ReaderLoop();
  /// Ring-fed variant of ReaderLoop: pipelines lease-mode reads through
  /// `ring`, parsing each completed file from its leased span.
  void RingReaderLoop(core::ReadRing& ring);
  /// Stream one opened file's records into the sample queue. Returns
  /// false when the reader thread must exit (error or queue closed).
  bool PumpRecords(tfrecord::RandomAccessSource& source,
                   const tfrecord::ReaderOptions& reader_options);
  void RecordError(const Status& status);

  std::vector<std::string> shuffled_files_;
  RecordFileOpener& opener_;
  ResourceMonitor& monitor_;
  LoaderConfig config_;

  BoundedQueue<Sample> queue_;
  std::atomic<std::size_t> next_file_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> files_read_{0};
  std::atomic<int> active_readers_{0};

  mutable std::mutex error_mu_;
  Status first_error_;

  std::vector<std::thread> readers_;
};

}  // namespace monarch::dlsim
