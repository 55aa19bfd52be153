// Verifies the acceptance criterion of docs/CONFIG.md: the INI reference
// documents EVERY (section, key) pair ParseConfig accepts, documents
// nothing the parser rejects, and every catalogued sample value actually
// parses. The doc's per-section tables are diffed against
// ConfigKeyCatalogue() in both directions (the doc-catalogue pattern of
// tests/obs/doc_catalogue_test.cc), then one INI composed from all the
// samples is fed through ParseConfig end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.h"

#ifndef MONARCH_SOURCE_DIR
#error "tests/CMakeLists.txt must define MONARCH_SOURCE_DIR"
#endif

namespace monarch::core {
namespace {

/// The catalogue lists tier keys under "tier.0"; the doc writes the
/// section once as "tier.N". Fold both onto the doc's spelling.
std::string NormalizeSection(const std::string& section) {
  return section.starts_with("tier.") ? "tier.N" : section;
}

/// (section, key) pairs from docs/CONFIG.md: section headings are
/// "## `[name]`" lines, keys are the first backticked token of each
/// table row ("| `key` | ..."). The prose table-header rows ("| key |")
/// have no backticks and are skipped naturally.
std::set<std::pair<std::string, std::string>> DocumentedKeys() {
  const std::string path = std::string(MONARCH_SOURCE_DIR) + "/docs/CONFIG.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::set<std::pair<std::string, std::string>> keys;
  std::string line;
  std::string section;
  while (std::getline(in, line)) {
    if (line.starts_with("## `[")) {
      const std::size_t end = line.find("]`");
      EXPECT_NE(end, std::string::npos) << "malformed heading: " << line;
      section = line.substr(5, end - 5);
      continue;
    }
    if (section.empty() || !line.starts_with("| `")) continue;
    const std::size_t start = line.find('`') + 1;
    const std::size_t end = line.find('`', start);
    if (end == std::string::npos) continue;
    keys.emplace(section, line.substr(start, end - start));
  }
  return keys;
}

std::set<std::pair<std::string, std::string>> CatalogueKeys() {
  std::set<std::pair<std::string, std::string>> keys;
  for (const ConfigKeyInfo& info : ConfigKeyCatalogue()) {
    keys.emplace(NormalizeSection(info.section), info.key);
  }
  return keys;
}

std::string Render(const std::set<std::pair<std::string, std::string>>& keys) {
  std::ostringstream os;
  for (const auto& [section, key] : keys) {
    os << "[" << section << "] " << key << "  ";
  }
  return os.str();
}

TEST(ConfigDocTest, ReferenceCoversEveryParserKey) {
  const auto documented = DocumentedKeys();
  const auto catalogued = CatalogueKeys();
  ASSERT_FALSE(documented.empty());
  ASSERT_FALSE(catalogued.empty());

  std::set<std::pair<std::string, std::string>> undocumented;
  std::set_difference(catalogued.begin(), catalogued.end(),
                      documented.begin(), documented.end(),
                      std::inserter(undocumented, undocumented.begin()));
  EXPECT_TRUE(undocumented.empty())
      << "parser keys missing from docs/CONFIG.md: " << Render(undocumented);

  std::set<std::pair<std::string, std::string>> stale;
  std::set_difference(documented.begin(), documented.end(),
                      catalogued.begin(), catalogued.end(),
                      std::inserter(stale, stale.begin()));
  EXPECT_TRUE(stale.empty())
      << "docs/CONFIG.md documents keys the parser does not accept: "
      << Render(stale);
}

/// Every catalogue sample must actually parse: compose one INI that uses
/// all of them and feed it through ParseConfig. A key listed in the
/// catalogue but rejected by the parser (or a bad sample value) fails
/// here with the parser's own line-numbered error.
TEST(ConfigDocTest, EveryCatalogueSampleParses) {
  const std::vector<ConfigKeyInfo> catalogue = ConfigKeyCatalogue();
  std::map<std::string, std::vector<const ConfigKeyInfo*>> by_section;
  for (const ConfigKeyInfo& info : catalogue) {
    by_section[info.section].push_back(&info);
  }
  std::ostringstream ini;
  for (const auto& [section, infos] : by_section) {
    ini << "[" << section << "]\n";
    for (const ConfigKeyInfo* info : infos) {
      ini << info->key << " = " << info->sample << "\n";
    }
  }
  const auto parsed = ParseConfig(ini.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\nfrom INI:\n" << ini.str();

  // Spot-check that the samples flowed through to the parsed view.
  EXPECT_EQ(parsed->placement_policy, "lru");
  EXPECT_EQ(parsed->policy_knobs.hotspot_decay_interval, 256u);
  EXPECT_EQ(catalogue.size(), 68u);
  ASSERT_EQ(parsed->cache_tiers.size(), 1u);
  EXPECT_TRUE(parsed->peer.enabled);
  EXPECT_TRUE(parsed->checkpoint.enabled);
}

/// Unknown keys stay hard errors in every section — the property the
/// "unknown keys are errors" promise in the doc rests on.
TEST(ConfigDocTest, UnknownKeysAreRejectedPerSection) {
  const std::string base =
      "[monarch]\n"
      "dataset_dir = data\n"
      "[tier.0]\n"
      "profile = ram\n"
      "quota = 1MiB\n"
      "[pfs]\n"
      "profile = ram\n";
  for (const std::string section :
       {"monarch", "tier.0", "pfs", "placement", "resilience", "peer",
        "checkpoint", "qos"}) {
    const std::string ini =
        base + "[" + section + "]\nno_such_key = 1\n";
    const auto parsed = ParseConfig(ini);
    EXPECT_FALSE(parsed.ok()) << "[" << section << "] accepted no_such_key";
  }
  // An unknown placement *policy* is also a parse-time error.
  const auto bad_policy =
      ParseConfig(base + "[placement]\npolicy = belady-typo\n");
  EXPECT_FALSE(bad_policy.ok());
}

}  // namespace
}  // namespace monarch::core
