// MonarchOpener: the framework-side MONARCH integration.
//
// This file is the repo's analogue of the paper's 6-LoC TensorFlow patch
// (§III-C): the framework keeps its whole input pipeline, and only the
// byte source behind each record file changes — pread becomes
// Monarch.read(filename, ...). The optional epoch hook mirrors the
// framework signalling the end of the first epoch so MONARCH can stop
// scheduling placements once the dataset is staged (or the tiers filled).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/monarch.h"
#include "core/monarch_source.h"
#include "dlsim/record_opener.h"
#include "qos/tenant.h"

namespace monarch::dlsim {

/// RandomAccessSource decorator that installs a tenant around every read
/// (ISSUE 10): reader threads the framework owns never see qos::, yet the
/// bytes they pull still attribute to the job's bandwidth share.
class TenantSource final : public tfrecord::RandomAccessSource {
 public:
  TenantSource(tfrecord::RandomAccessSourcePtr inner,
               qos::TenantContext tenant)
      : inner_(std::move(inner)), tenant_(std::move(tenant)) {}

  Result<std::size_t> ReadAt(std::uint64_t offset,
                             std::span<std::byte> dst) override {
    qos::ScopedTenant scope(tenant_);
    return inner_->ReadAt(offset, dst);
  }

  Result<std::uint64_t> Size() override {
    qos::ScopedTenant scope(tenant_);
    return inner_->Size();
  }

  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

 private:
  tfrecord::RandomAccessSourcePtr inner_;
  qos::TenantContext tenant_;
};

class MonarchOpener final : public RecordFileOpener {
 public:
  explicit MonarchOpener(core::Monarch& monarch,
                         bool stop_placement_after_first_epoch = false)
      : monarch_(monarch),
        stop_after_first_epoch_(stop_placement_after_first_epoch) {}

  /// Attribute every source this opener hands out (and the look-ahead
  /// staging the run schedule triggers) to `tenant`.
  void SetTenant(qos::TenantContext tenant) { tenant_ = std::move(tenant); }

  Result<tfrecord::RandomAccessSourcePtr> Open(
      const std::string& path) override {
    tfrecord::RandomAccessSourcePtr source =
        std::make_unique<core::MonarchSource>(monarch_, path);
    if (tenant_.has_value()) {
      source = std::make_unique<TenantSource>(std::move(source), *tenant_);
    }
    return source;
  }

  void OnEpochStart(int epoch) override {
    if (stop_after_first_epoch_ && epoch > 1) monarch_.StopPlacement();
  }

  void OnRunSchedule(
      const std::vector<std::vector<std::string>>& epochs) override {
    // The whole run's access sequence: it drives look-ahead prefetch and
    // an evicting policy's Belady ranking. The tenant is installed so
    // the prefetch stagings it schedules carry the job's identity into
    // the fair queue.
    std::optional<qos::ScopedTenant> scope;
    if (tenant_.has_value()) scope.emplace(*tenant_);
    monarch_.InstallRunSchedule(epochs);
  }

  [[nodiscard]] std::string Name() const override { return "monarch"; }

 private:
  core::Monarch& monarch_;
  bool stop_after_first_epoch_;
  std::optional<qos::TenantContext> tenant_;
};

}  // namespace monarch::dlsim
