// Verifies the acceptance criterion of docs/OBSERVABILITY.md: the metric
// catalogue lists EVERY metric name the registry exposes at runtime, and
// lists nothing stale. The test instantiates one of each instrumented
// component against the global registry (engines, a Monarch hierarchy, a
// Trainer), then diffs MetricsRegistry::Names() against the names in the
// doc's catalogue table — a new metric without a catalogue entry, or a
// removed metric still documented, fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint_manager.h"
#include "cluster/peer_group.h"
#include "core/monarch.h"
#include "core/storage_hierarchy.h"
#include "dlsim/monarch_opener.h"
#include "dlsim/trainer.h"
#include "obs/metrics_registry.h"
#include "qos/bandwidth_broker.h"
#include "qos/tenant.h"
#include "storage/memory_engine.h"

#ifndef MONARCH_SOURCE_DIR
#error "tests/CMakeLists.txt must define MONARCH_SOURCE_DIR"
#endif

namespace monarch {
namespace {

/// Metric names from the catalogue: every `backticked.name` that starts a
/// table row (`| \`name\` | ...`) in the "## 1. Metric catalogue" section
/// of docs/OBSERVABILITY.md. Parsing stops at the next "## " heading so
/// the trace-event table in §2 (event names, not metrics) is excluded.
std::set<std::string> DocCatalogueNames() {
  const std::string path =
      std::string(MONARCH_SOURCE_DIR) + "/docs/OBSERVABILITY.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::set<std::string> names;
  std::string line;
  bool in_catalogue = false;
  while (std::getline(in, line)) {
    if (line.starts_with("## ")) {
      in_catalogue = line.find("Metric catalogue") != std::string::npos;
      continue;
    }
    if (!in_catalogue || !line.starts_with("| `")) continue;
    const std::size_t start = line.find('`') + 1;
    const std::size_t end = line.find('`', start);
    if (end == std::string::npos) continue;
    names.insert(line.substr(start, end - start));
  }
  return names;
}

/// Register every production metric by instantiating one of each
/// instrumented component, then return the registry's name set.
std::set<std::string> RuntimeNames() {
  auto pfs = std::make_shared<storage::MemoryEngine>("catalogue-pfs");
  const std::vector<std::byte> payload(512);
  EXPECT_TRUE(pfs->Write("data/f0.bin", payload).ok());

  core::MonarchConfig config;
  config.cache_tiers.push_back(core::TierSpec{
      "catalogue-ssd", std::make_shared<storage::MemoryEngine>("catalogue-ssd"),
      /*quota_bytes=*/1ull << 20});
  config.pfs = core::TierSpec{"catalogue-pfs", std::move(pfs), 0};
  config.dataset_dir = "data";
  auto monarch = core::Monarch::Create(std::move(config));
  EXPECT_TRUE(monarch.ok()) << monarch.status();

  // Read once so the serve/staging paths run (values don't matter for the
  // name diff, but a live system is the honest fixture).
  std::vector<std::byte> buffer(512);
  EXPECT_TRUE((*monarch)->Read("data/f0.bin", 0, buffer).ok());
  (*monarch)->DrainPlacements();

  // The cooperative peer cache (ISSUE 4): constructing the PeerGroup
  // registers the net.* and cluster.directory.* instruments; one resolved
  // peer read keeps the fixture live like the Monarch read above.
  cluster::PeerGroup group(2);
  auto holder = std::make_shared<storage::MemoryEngine>("catalogue-holder");
  EXPECT_TRUE(holder->Write("data/f0.bin", payload).ok());
  group.RegisterNode(0, std::make_shared<storage::MemoryEngine>("n0"));
  group.RegisterNode(1, holder);
  group.directory().MarkPlaced("data/f0.bin", 1, 0);
  auto peer_engine = group.MakePeerEngine(0);
  EXPECT_TRUE(peer_engine->Read("data/f0.bin", 0, buffer).ok());

  // Constructing a Trainer registers the trainer.* counters.
  dlsim::TrainerConfig tc;
  tc.epochs = 1;
  dlsim::Trainer trainer({},
                         std::make_unique<dlsim::MonarchOpener>(**monarch),
                         tc);

  // The write-back checkpoint tier (ISSUE 5): constructing the manager
  // registers the ckpt.* instruments; one save+flush drives the drain
  // lane so the fixture stays live.
  std::vector<core::StorageDriverPtr> ckpt_drivers;
  ckpt_drivers.push_back(std::make_unique<core::StorageDriver>(
      "ckpt-local", std::make_shared<storage::MemoryEngine>("ckpt-local"),
      /*quota_bytes=*/1ull << 20, /*read_only=*/false));
  ckpt_drivers.push_back(std::make_unique<core::StorageDriver>(
      "ckpt-pfs", std::make_shared<storage::MemoryEngine>("ckpt-pfs"), 0,
      /*read_only=*/true));
  auto ckpt_hierarchy =
      std::move(core::StorageHierarchy::Create(std::move(ckpt_drivers)))
          .value();
  ckpt::CheckpointManager ckpt_manager(*ckpt_hierarchy, {});
  EXPECT_TRUE(ckpt_manager.Save("catalogue", payload).ok());
  EXPECT_TRUE(ckpt_manager.Flush().ok());

  // Multi-tenant QoS: an enabled bandwidth broker with one registered,
  // charged tenant registers the qos.* counters and the per-tenant
  // labelled samples.
  qos::BandwidthBroker::Options broker_options;
  broker_options.total_rate_bps = 1e9;
  qos::BandwidthBroker broker(broker_options);
  qos::TenantContext tenant;
  tenant.tenant_id = 1;
  tenant.name = "catalogue-tenant";
  broker.RegisterTenant(tenant);
  broker.Acquire(1, 512);

  const auto names = obs::MetricsRegistry::Global().Names();
  return {names.begin(), names.end()};
}

TEST(DocCatalogueTest, ObservabilityDocCoversEveryRuntimeMetric) {
  const std::set<std::string> documented = DocCatalogueNames();
  const std::set<std::string> runtime = RuntimeNames();
  ASSERT_FALSE(documented.empty());
  ASSERT_FALSE(runtime.empty());

  std::vector<std::string> undocumented;
  std::set_difference(runtime.begin(), runtime.end(), documented.begin(),
                      documented.end(), std::back_inserter(undocumented));
  EXPECT_TRUE(undocumented.empty())
      << "metrics missing from docs/OBSERVABILITY.md: " << [&] {
           std::ostringstream os;
           for (const auto& name : undocumented) os << name << " ";
           return os.str();
         }();

  std::vector<std::string> stale;
  std::set_difference(documented.begin(), documented.end(), runtime.begin(),
                      runtime.end(), std::back_inserter(stale));
  EXPECT_TRUE(stale.empty())
      << "docs/OBSERVABILITY.md documents metrics the registry does not "
         "expose: " << [&] {
           std::ostringstream os;
           for (const auto& name : stale) os << name << " ";
           return os.str();
         }();
}

}  // namespace
}  // namespace monarch
