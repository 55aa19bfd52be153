#include "net/peer_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/event_tracer.h"
#include "obs/json.h"

namespace monarch::net {

PeerEngine::PeerEngine(std::string name, ResolverPtr resolver,
                       NetworkModelPtr network)
    : PeerEngine(std::move(name), std::move(resolver), std::move(network),
                 Options{}) {}

PeerEngine::PeerEngine(std::string name, ResolverPtr resolver,
                       NetworkModelPtr network, Options options)
    : name_(std::move(name)),
      resolver_(std::move(resolver)),
      network_(std::move(network)),
      options_(options),
      stats_reg_(storage::RegisterIoStats(obs::MetricsRegistry::Global(),
                                          Name(), &stats_)) {
  failovers_ = obs::MetricsRegistry::Global().GetCounter(
      "net.peer_failover", "ops",
      "peer reads rescued by another live holder after a replica failed");
}

Status PeerEngine::Reach(const std::string& path, int node) {
  if (network_->Reachable(options_.self_node, node)) return Status::Ok();
  // The directory said the holder is live but the fabric disagrees
  // (partition, or a kill racing the membership update): the RPC blocks
  // for the modelled detection timeout, then gives up.
  network_->ChargeRpcTimeout();
  return UnavailableError("peer node " + std::to_string(node) +
                          " unreachable serving '" + path + "'");
}

Result<PeerEngine::Resolver::Holder> PeerEngine::ResolveReachable(
    const std::string& path, std::span<const int> exclude) {
  MONARCH_ASSIGN_OR_RETURN(Resolver::Holder holder,
                           resolver_->ResolveHolder(path, exclude));
  MONARCH_RETURN_IF_ERROR(Reach(path, holder.node));
  return holder;
}

Result<std::size_t> PeerEngine::Read(std::string_view path,
                                     std::uint64_t offset,
                                     std::span<std::byte> dst) {
  MONARCH_ASSIGN_OR_RETURN(const storage::ReadView view,
                           ReadZeroCopy(path, offset, dst.size()));
  std::copy(view.data().begin(), view.data().end(), dst.begin());
  return view.size();
}

Result<storage::ReadView> PeerEngine::ReadZeroCopy(std::string_view path_view,
                                                   std::uint64_t offset,
                                                   std::uint64_t max_bytes) {
  obs::TraceSpan span("peer.read", "net");
  const Stopwatch timer;
  // Resolver and failover bookkeeping key by owned string; one copy per
  // peer read is fine — the fabric transfer dwarfs it.
  const std::string path(path_view);
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
    const Status reached = Reach(path, holder.node);
    // The serving node's device really does the read (its cost is
    // charged by that engine), then the bytes cross the fabric.
    auto view = reached.ok()
                    ? holder.engine->ReadZeroCopy(path, offset, max_bytes)
                    : Result<storage::ReadView>(reached);
    if (!view.ok()) {
      resolver_->OnTransferDone(holder.node, false);
      last_failure = view.status();
      tried.push_back(holder.node);
      continue;
    }
    resolver_->OnTransferDone(holder.node, true);
    const std::size_t n = view->size();
    network_->ChargeTransfer(n);
    stats_.RecordRead(n, timer.Elapsed());
    if (attempt > 0) {
      failovers_->Increment();
      obs::EventTracer& tracer = obs::EventTracer::Global();
      if (tracer.enabled()) {
        tracer.RecordInstant("peer.failover", "net",
                             "\"file\":" + obs::JsonQuote(path) +
                                 ",\"node\":" + std::to_string(holder.node) +
                                 ",\"attempt\":" + std::to_string(attempt));
      }
    }
    if (span.active()) {
      span.set_args_json("\"file\":" + obs::JsonQuote(path) +
                         ",\"bytes\":" + std::to_string(n) +
                         ",\"node\":" + std::to_string(holder.node));
    }
    return view;
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
