// tools/metrics_schema.json against the stat tables it restates: every
// "server.total.*" and "client.total.*" counter the schema requires must be
// a row of core::kServerStatFields / core::kClientStatFields, the one list
// each export walks. A stat renamed or dropped in the code then fails here,
// not first in a CI run of tools/check_metrics.py. The schema's
// "socket_counters" must be exported by the socket fabric and by no other,
// its "inmem_counters" by the in-memory fabric and by no other.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "common/value.h"
#include "core/client.h"
#include "core/server.h"
#include "harness/threaded_cluster.h"
#include "obs/probe.h"

namespace hts {
namespace {

/// The names in the schema's `key` array.
std::set<std::string> schema_names(const std::string& key) {
  std::ifstream in(std::string(HTS_SOURCE_DIR) + "/tools/metrics_schema.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::size_t at = json.find("\"" + key + "\"");
  const std::size_t open = json.find('[', at);
  const std::size_t close = json.find(']', open);
  if (at == std::string::npos || open == std::string::npos ||
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
  for (const std::string& n : schema_names("required_counters")) {
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

/// The counters a started three-server ThreadedCluster on `fabric`
/// exports after one write.
std::set<std::string> exported_counters(
    harness::ThreadedClusterConfig::TransportKind fabric) {
  obs::Recorder rec;
  harness::ThreadedClusterConfig cfg;
  cfg.transport = fabric;
  cfg.recorder = &rec;
  harness::ThreadedCluster cluster(cfg);
  auto& client = cluster.add_client(0);
  cluster.start();
  client.write(kDefaultObject, Value::synthetic(1, 64));
  EXPECT_TRUE(cluster.wait_quiescent(5.0));
  cluster.export_metrics();
  std::set<std::string> out;
  for (const auto& [name, c] : rec.registry().counters()) out.insert(name);
  return out;
}

TEST(MetricsSchema, SocketCountersAreExportedBySocketsOnly) {
  const std::set<std::string> socket = schema_names("socket_counters");
  ASSERT_FALSE(socket.empty()) << "schema not found or has no socket counters";
  const std::set<std::string> tcp =
      exported_counters(harness::ThreadedClusterConfig::TransportKind::kTcp);
  for (const std::string& n : socket) {
    EXPECT_TRUE(tcp.contains(n)) << n << " is missing from a tcp export";
  }
  for (const char* n : {"net.host.s0.tx_flushes", "net.host.s0.ready_polls",
                        "net.host.s0.ready_poll_hits"}) {
    EXPECT_TRUE(tcp.contains(n)) << n << " is missing from a tcp export";
  }
  const std::set<std::string> inmem =
      exported_counters(harness::ThreadedClusterConfig::TransportKind::kInMem);
  for (const std::string& n : inmem) {
    EXPECT_FALSE(n.ends_with(".tx_flushes") || n.ends_with(".ready_polls") ||
                 n.ends_with(".ready_poll_hits"))
        << n << " is exported by the in-memory fabric";
  }
  // The in-memory fabric's futex-parked loops count their wakes and parks;
  // sockets have no such loops.
  const std::set<std::string> loop = schema_names("inmem_counters");
  ASSERT_FALSE(loop.empty()) << "schema has no in-memory loop counters";
  for (const std::string& n : loop) {
    EXPECT_TRUE(inmem.contains(n)) << n << " is missing from an inmem export";
  }
  for (const char* n : {"net.host.s0.loop_wakes", "net.host.s0.parks"}) {
    EXPECT_TRUE(inmem.contains(n)) << n << " is missing from an inmem export";
  }
  for (const std::string& n : tcp) {
    EXPECT_FALSE(n.ends_with(".loop_wakes") || n.ends_with(".parks"))
        << n << " is exported by the socket fabric";
  }
}

}  // namespace
}  // namespace hts
