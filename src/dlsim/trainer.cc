#include "dlsim/trainer.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/event_tracer.h"
#include "util/crc32c.h"

namespace monarch::dlsim {

namespace {

/// Deterministic model-state bytes for checkpoint (epoch, ordinal):
/// splitmix64 stream over a seed derived from both, so every sink —
/// direct-PFS or write-back — receives byte-identical checkpoints and
/// the benches can compare end-state CRCs across arms.
std::vector<std::byte> CheckpointPayload(std::uint64_t bytes, int epoch,
                                         std::uint64_t ordinal) {
  std::vector<std::byte> payload(bytes);
  std::uint64_t state =
      (static_cast<std::uint64_t>(epoch) << 32 | ordinal) + 0x9E3779B97F4A7C15ull;
  for (std::byte& b : payload) {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    b = static_cast<std::byte>((z ^ (z >> 31)) >> 56);
  }
  return payload;
}

}  // namespace

Trainer::Trainer(std::vector<std::string> files, RecordFileOpenerPtr opener,
                 TrainerConfig config)
    : files_(std::move(files)),
      opener_(std::move(opener)),
      config_(std::move(config)) {
  config_.loader.preprocess_per_sample = config_.model.preprocess_per_sample;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  epochs_completed_ = registry.GetCounter(
      "trainer.epochs_completed", "epochs", "training epochs finished");
  samples_ = registry.GetCounter(
      "trainer.samples", "samples", "samples consumed by the training loop");
  steps_ = registry.GetCounter(
      "trainer.steps", "steps", "GPU batch steps executed");
  checkpoints_ = registry.GetCounter(
      "trainer.checkpoints", "ckpts",
      "checkpoints the training loop saved through its sink");
}

Result<TrainingResult> Trainer::Train() {
  // Whole-run schedule export (ISSUE 6): every epoch's shuffle order is
  // deterministic given (seed, epoch), so the full access sequence is
  // knowable before the first read. Publish it through the opener — the
  // MONARCH integration prefetches ahead along it and ranks evictions by
  // it (Belady); every other opener ignores it.
  {
    std::vector<std::vector<std::string>> run_schedule;
    run_schedule.reserve(static_cast<std::size_t>(
        std::max(0, config_.epochs)));
    for (int epoch = 1; epoch <= config_.epochs; ++epoch) {
      run_schedule.push_back(
          ShuffledFileOrder(files_, config_.loader.shuffle_seed, epoch));
    }
    opener_->OnRunSchedule(run_schedule);
  }

  TrainingResult result;
  for (int epoch = 1; epoch <= config_.epochs; ++epoch) {
    opener_->OnEpochStart(epoch);
    MONARCH_ASSIGN_OR_RETURN(EpochResult epoch_result, RunEpoch(epoch));
    result.total_seconds += epoch_result.wall_seconds;
    result.epochs.push_back(epoch_result);
  }
  return result;
}

Result<EpochResult> Trainer::RunEpoch(int epoch) {
  obs::TraceSpan span("trainer.epoch", "dlsim");
  if (span.active()) {
    span.set_args_json("\"epoch\":" + std::to_string(epoch));
  }
  ResourceMonitor monitor(config_.loader.reader_threads, config_.num_gpus);
  ComputeEngine compute(config_.model, config_.num_gpus);

  const Stopwatch wall;
  EpochLoader loader(files_, epoch, *opener_, monitor, config_.loader);

  // The framework's training loop: pop samples, form global batches, run
  // one GPU step per batch. The bounded queue overlaps this with the
  // reader threads, so epoch time converges to max(I/O+preproc, compute).
  std::uint64_t samples = 0;
  std::uint64_t in_batch = 0;
  std::uint64_t digest = 0;
  double checkpoint_seconds = 0;
  std::uint64_t checkpoints_written = 0;
  const bool checkpointing =
      config_.checkpoint_sink != nullptr && config_.checkpoint_every_steps > 0;
  // Synchronous saver, like the framework hooks the paper targets: the
  // loop stalls until Save returns (write-back sinks return once the
  // bytes land locally; direct-PFS sinks block for the full PFS write).
  auto maybe_checkpoint = [&]() -> Status {
    if (!checkpointing ||
        compute.steps() % config_.checkpoint_every_steps != 0) {
      return Status::Ok();
    }
    const std::uint64_t ordinal = ++checkpoints_written;
    const std::string name = config_.checkpoint_prefix + "-e" +
                             std::to_string(epoch) + "-s" +
                             std::to_string(compute.steps());
    const std::vector<std::byte> payload =
        CheckpointPayload(config_.checkpoint_bytes, epoch, ordinal);
    const Stopwatch stall;
    MONARCH_RETURN_IF_ERROR(config_.checkpoint_sink->Save(name, payload));
    checkpoint_seconds += stall.ElapsedSeconds();
    if (checkpoints_ != nullptr) checkpoints_->Increment();
    return Status::Ok();
  };
  while (auto sample = loader.queue().Pop()) {
    monitor.AddMemory(-static_cast<std::int64_t>(sample->payload.size()));
    ++samples;
    digest += Crc32c(sample->payload);
    if (++in_batch == config_.batch_size) {
      compute.Step(in_batch);
      in_batch = 0;
      MONARCH_RETURN_IF_ERROR(maybe_checkpoint());
    }
  }
  if (in_batch > 0) {  // final partial batch
    compute.Step(in_batch);
    MONARCH_RETURN_IF_ERROR(maybe_checkpoint());
  }
  loader.Finish();
  MONARCH_RETURN_IF_ERROR(loader.status());

  monitor.AddBusy(Resource::kGpu,
                  compute.busy_time() * static_cast<std::int64_t>(
                                            config_.num_gpus));

  EpochResult result;
  result.epoch = epoch;
  result.wall_seconds = wall.ElapsedSeconds();
  result.samples = samples;
  result.steps = compute.steps();
  result.sample_digest = digest;
  result.compute_seconds =
      std::chrono::duration<double>(compute.busy_time()).count();
  result.checkpoint_seconds = checkpoint_seconds;
  result.read_stall_seconds =
      std::max(0.0, result.wall_seconds - result.compute_seconds -
                        result.checkpoint_seconds);
  result.checkpoints_written = checkpoints_written;
  if (epochs_completed_ != nullptr) epochs_completed_->Increment();
  if (samples_ != nullptr) samples_->Increment(samples);
  if (steps_ != nullptr) steps_->Increment(compute.steps());
  const auto usage = monitor.Report(wall.Elapsed());
  result.cpu_utilisation = usage.cpu;
  result.gpu_utilisation = usage.gpu;
  result.peak_memory_bytes = usage.peak_memory_bytes;
  return result;
}

}  // namespace monarch::dlsim
