#include "net/peer_engine.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>
#include <vector>

#include "obs/event_tracer.h"
#include "obs/json.h"

namespace monarch::net {

namespace {

/// The run this thread last fetched whole from a peer, less what it has
/// served: at most one per reading thread.
struct PeerRun {
  std::uint64_t engine = 0;  ///< PeerEngine instance id (0 = none)
  std::string path;
  int holder = -1;
  storage::ReadView bytes;

  void Release() {
    engine = 0;
    path.clear();
    holder = -1;
    bytes.Reset();
  }
};

PeerRun& ThreadRun() {
  thread_local PeerRun run;
  return run;
}

std::atomic<std::uint64_t> next_engine_id{1};

/// `peer.read` span args.
std::string ReadArgs(const std::string& path, std::size_t bytes, int node,
                     bool run_hit) {
  return "\"file\":" + obs::JsonQuote(path) +
         ",\"bytes\":" + std::to_string(bytes) +
         ",\"node\":" + std::to_string(node) +
         ",\"run_hit\":" + (run_hit ? "true" : "false");
}

}  // namespace

PeerEngine::PeerEngine(std::string name, ResolverPtr resolver,
                       NetworkModelPtr network)
    : PeerEngine(std::move(name), std::move(resolver), std::move(network),
                 Options{}) {}

PeerEngine::PeerEngine(std::string name, ResolverPtr resolver,
                       NetworkModelPtr network, Options options)
    : name_(std::move(name)),
      id_(next_engine_id.fetch_add(1, std::memory_order_relaxed)),
      resolver_(std::move(resolver)),
      network_(std::move(network)),
      options_(options),
      stats_reg_(storage::RegisterIoStats(obs::MetricsRegistry::Global(),
                                          Name(), &stats_)) {
  failovers_ = obs::MetricsRegistry::Global().GetCounter(
      "net.peer_failover", "ops",
      "peer reads rescued by another live holder after a replica failed");
}

Result<PeerEngine::Resolver::Holder> PeerEngine::ResolveReachable(
    const std::string& path, std::span<const int> exclude) {
  MONARCH_ASSIGN_OR_RETURN(Resolver::Holder holder,
                           resolver_->ResolveHolder(path, exclude));
  if (!network_->Reachable(options_.self_node, holder.node)) {
    // The directory said the holder is live but the fabric disagrees
    // (partition, or a kill racing the membership update): the RPC
    // blocks for the modelled detection timeout, then gives up.
    network_->ChargeRpcTimeout();
    return UnavailableError("peer node " + std::to_string(holder.node) +
                            " unreachable serving '" + path + "'");
  }
  return holder;
}

std::optional<std::size_t> PeerEngine::ServeBufferedRun(
    const std::string& path, std::uint64_t offset, std::span<std::byte> dst,
    obs::TraceSpan& span) {
  PeerRun& run = ThreadRun();
  if (run.engine != id_ || run.path != path) return std::nullopt;
  const std::span<const std::byte> bytes = run.bytes.data();
  if (offset >= bytes.size() ||
      !network_->Reachable(options_.self_node, run.holder) ||
      !resolver_->StillHolds(path, run.holder)) {
    // The holder died, was cut off or dropped its copy: this read and
    // the rest of the run go back over the fabric (re-resolved) or, once
    // the directory retracts the copy, down the ladder.
    run.Release();
    return std::nullopt;
  }
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(dst.size(), bytes.size() - offset));
  std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(offset), n,
              dst.begin());
  if (span.active()) span.set_args_json(ReadArgs(path, n, run.holder, true));
  if (offset + n == bytes.size()) run.Release();
  network_->CountRunHit();
  return n;
}

Result<std::size_t> PeerEngine::Transfer(const Resolver::Holder& holder,
                                         const std::string& path,
                                         std::uint64_t offset,
                                         std::span<std::byte> dst,
                                         std::size_t& moved) {
  if (offset != 0) {
    MONARCH_ASSIGN_OR_RETURN(moved, holder.engine->Read(path, offset, dst));
    return moved;
  }
  MONARCH_ASSIGN_OR_RETURN(
      storage::ReadView whole,
      holder.engine->ReadZeroCopy(path, 0,
                                  std::numeric_limits<std::uint64_t>::max()));
  const std::span<const std::byte> bytes = whole.data();
  const std::size_t n = std::min(dst.size(), bytes.size());
  std::copy_n(bytes.begin(), n, dst.begin());
  moved = bytes.size();
  PeerRun& run = ThreadRun();
  run.Release();
  if (n < bytes.size()) {
    run.engine = id_;
    run.path = path;
    run.holder = holder.node;
    run.bytes = std::move(whole);
  }
  return n;
}

Result<std::size_t> PeerEngine::Read(std::string_view path_view,
                                     std::uint64_t offset,
                                     std::span<std::byte> dst) {
  obs::TraceSpan span("peer.read", "net");
  const Stopwatch timer;
  // Resolver and failover bookkeeping key by owned string; one copy per
  // peer read is fine — the fabric transfer dwarfs it.
  const std::string path(path_view);
  if (const auto hit = ServeBufferedRun(path, offset, dst, span)) {
    stats_.RecordRead(*hit, timer.Elapsed());
    return *hit;
  }
  std::vector<int> tried;
  Status last_failure = Status::Ok();
  const int max_holders = std::max(1, options_.max_holders);
  for (int attempt = 0; attempt < max_holders; ++attempt) {
    auto holder_or = resolver_->ResolveHolder(path, tried);
    if (!holder_or.ok()) {
      // No (further) live holder: the very first miss is the ladder's
      // peer_miss; after a failed attempt, surface that failure so the
      // ladder counts peer_error and falls back to the PFS.
      return attempt == 0 ? holder_or.status() : last_failure;
    }
    const Resolver::Holder holder = std::move(holder_or).value();
    resolver_->OnTransferStart(holder.node);
    if (!network_->Reachable(options_.self_node, holder.node)) {
      // The directory said the holder is live but the fabric disagrees
      // (partition, or a kill racing the membership update): the RPC
      // blocks for the modelled detection timeout, then fails over.
      network_->ChargeRpcTimeout();
      resolver_->OnTransferDone(holder.node, false);
      last_failure =
          UnavailableError("peer node " + std::to_string(holder.node) +
                           " unreachable serving '" + path + "'");
      tried.push_back(holder.node);
      continue;
    }
    std::size_t moved = 0;
    auto read = Transfer(holder, path, offset, dst, moved);
    if (read.ok()) {
      resolver_->OnTransferDone(holder.node, true);
      // The serving node's device really does the read (its cost is
      // charged by that engine), then the bytes cross the fabric.
      const std::size_t n = read.value();
      network_->ChargeTransfer(moved);
      stats_.RecordRead(n, timer.Elapsed());
      if (attempt > 0) {
        failovers_->Increment();
        obs::EventTracer& tracer = obs::EventTracer::Global();
        if (tracer.enabled()) {
          tracer.RecordInstant("peer.failover", "net",
                               "\"file\":" + obs::JsonQuote(path) +
                                   ",\"node\":" +
                                   std::to_string(holder.node) +
                                   ",\"attempt\":" + std::to_string(attempt));
        }
      }
      if (span.active()) {
        span.set_args_json(ReadArgs(path, n, holder.node, false));
      }
      return n;
    }
    resolver_->OnTransferDone(holder.node, false);
    last_failure = read.status();
    tried.push_back(holder.node);
  }
  return last_failure;
}

Result<storage::ReadView> PeerEngine::ReadZeroCopy(std::string_view path_view,
                                                   std::uint64_t offset,
                                                   std::uint64_t max_bytes) {
  obs::TraceSpan span("peer.read", "net");
  const Stopwatch timer;
  const std::string path(path_view);
  std::vector<int> tried;
  Status last_failure = Status::Ok();
  const int max_holders = std::max(1, options_.max_holders);
  for (int attempt = 0; attempt < max_holders; ++attempt) {
    auto holder_or = resolver_->ResolveHolder(path, tried);
    if (!holder_or.ok()) {
      return attempt == 0 ? holder_or.status() : last_failure;
    }
    const Resolver::Holder holder = std::move(holder_or).value();
    resolver_->OnTransferStart(holder.node);
    if (!network_->Reachable(options_.self_node, holder.node)) {
      network_->ChargeRpcTimeout();
      resolver_->OnTransferDone(holder.node, false);
      last_failure =
          UnavailableError("peer node " + std::to_string(holder.node) +
                           " unreachable serving '" + path + "'");
      tried.push_back(holder.node);
      continue;
    }
    auto view = holder.engine->ReadZeroCopy(path, offset, max_bytes);
    if (view.ok()) {
      resolver_->OnTransferDone(holder.node, true);
      const std::size_t n = view.value().size();
      network_->ChargeTransfer(n);
      stats_.RecordRead(n, timer.Elapsed());
      if (attempt > 0) failovers_->Increment();
      if (span.active()) {
        span.set_args_json(ReadArgs(path, n, holder.node, false));
      }
      return view;
    }
    resolver_->OnTransferDone(holder.node, false);
    last_failure = view.status();
    tried.push_back(holder.node);
  }
  return last_failure;
}

Status PeerEngine::Write(const std::string& path,
                         std::span<const std::byte> data) {
  (void)path;
  (void)data;
  return FailedPreconditionError("peer tier '" + name_ + "' is read-only");
}

Status PeerEngine::WriteAt(const std::string& path, std::uint64_t offset,
                           std::span<const std::byte> data) {
  (void)path;
  (void)offset;
  (void)data;
  return FailedPreconditionError("peer tier '" + name_ + "' is read-only");
}

Status PeerEngine::Delete(const std::string& path) {
  (void)path;
  return FailedPreconditionError("peer tier '" + name_ + "' is read-only");
}

Result<std::uint64_t> PeerEngine::FileSize(const std::string& path) {
  network_->ChargeRpc();
  stats_.RecordMetadataOp();
  MONARCH_ASSIGN_OR_RETURN(const Resolver::Holder holder,
                           ResolveReachable(path, {}));
  return holder.engine->FileSize(path);
}

Result<bool> PeerEngine::Exists(const std::string& path) {
  network_->ChargeRpc();
  stats_.RecordMetadataOp();
  auto holder = ResolveReachable(path, {});
  if (!holder.ok()) {
    if (holder.status().code() == StatusCode::kNotFound) return false;
    return holder.status();
  }
  return holder.value().engine->Exists(path);
}

Result<std::vector<storage::FileStat>> PeerEngine::ListFiles(
    const std::string& dir) {
  (void)dir;
  // A peer tier has no namespace of its own — the FileDirectory is the
  // cluster-wide namespace, and the local metadata container already
  // indexed the dataset from the PFS.
  return FailedPreconditionError("peer tier '" + name_ +
                                 "' does not enumerate files");
}

}  // namespace monarch::net
