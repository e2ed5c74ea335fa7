// tools/metrics_schema.json against the stat tables it restates: every
// "server.total.*" and "client.total.*" counter the schema requires must be
// a row of core::kServerStatFields / core::kClientStatFields, the one list
// each export walks. A stat renamed or dropped in the code then fails here,
// not first in a CI run of tools/check_metrics.py.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "core/client.h"
#include "core/server.h"

namespace hts {
namespace {

/// The names in the schema's "required_counters" array.
std::set<std::string> required_counters() {
  std::ifstream in(std::string(HTS_SOURCE_DIR) + "/tools/metrics_schema.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::size_t key = json.find("\"required_counters\"");
  const std::size_t open = json.find('[', key);
  const std::size_t close = json.find(']', open);
  if (key == std::string::npos || open == std::string::npos ||
      close == std::string::npos) {
    return {};
  }
  const std::string list = json.substr(open, close - open);
  const std::regex name("\"([^\"]+)\"");
  std::set<std::string> out;
  for (std::sregex_iterator it(list.begin(), list.end(), name), end;
       it != end; ++it) {
    out.insert((*it)[1].str());
  }
  return out;
}

/// The names the schema requires under `prefix`, with the prefix removed.
std::set<std::string> required_under(const std::string& prefix) {
  std::set<std::string> out;
  for (const std::string& n : required_counters()) {
    if (n.starts_with(prefix)) out.insert(n.substr(prefix.size()));
  }
  return out;
}

TEST(MetricsSchema, RequiredServerTotalsAreServerStatFields) {
  std::set<std::string> rows;
  for (const auto& [name, field] : core::kServerStatFields) rows.insert(name);
  const std::set<std::string> required = required_under("server.total.");
  ASSERT_FALSE(required.empty()) << "schema not found or has no server totals";
  for (const std::string& n : required) {
    EXPECT_TRUE(rows.contains(n))
        << "server.total." << n << " is required by the schema but is not "
        << "a row of core::kServerStatFields";
  }
}

TEST(MetricsSchema, RequiredClientTotalsAreClientStatFields) {
  std::set<std::string> rows;
  for (const auto& [name, get] : core::kClientStatFields) rows.insert(name);
  const std::set<std::string> required = required_under("client.total.");
  ASSERT_FALSE(required.empty()) << "schema not found or has no client totals";
  for (const std::string& n : required) {
    EXPECT_TRUE(rows.contains(n))
        << "client.total." << n << " is required by the schema but is not "
        << "a row of core::kClientStatFields";
  }
}

}  // namespace
}  // namespace hts
