// kv_store: a key-value store built from atomic registers — the composition
// the paper's introduction motivates: "distributed storage systems combine
// multiple of these read/write objects, each storing its share of data, as
// building blocks for a single large storage system."
//
// Every key is its own register in the cluster's object namespace, so a
// GET/PUT is a single register read/write and the store inherits per-key
// atomicity directly — no read-modify-write of a serialized map, no lost
// updates between concurrent PUTs of different keys. The store deploys a
// sharded Topology: R independent rings behind the deterministic ShardMap,
// so keys spread across rings (per-key atomicity composes across disjoint
// rings — DESIGN.md D7) and aggregate throughput scales with R. PUTs of
// distinct keys are pipelined through one client session, across shards,
// and each ring's commits share its own batch trains.
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "code/policy.h"
#include "core/topology.h"
#include "harness/proc_cluster.h"
#include "harness/threaded_cluster.h"

namespace {

using hts::ObjectId;
using hts::RingId;
using hts::Value;
using hts::core::ShardMap;
using hts::core::Topology;
using hts::harness::ThreadedCluster;
using hts::harness::ThreadedClusterConfig;

/// KV facade: one register per key, keys sharded over a multi-ring cluster.
class KvStore {
 public:
  KvStore(std::size_t rings, std::size_t servers_per_ring,
          hts::code::ValuePolicy policy = {})
      : shards_(rings), n_servers_(rings * servers_per_ring) {
    ThreadedClusterConfig cfg;
    cfg.topology = Topology{rings, servers_per_ring};
    cfg.record_history = false;
    cfg.client_max_inflight = 16;
    cfg.value_policy = policy;
    cluster_ = std::make_unique<ThreadedCluster>(cfg);
    client_ = &cluster_->add_client(0);
    cluster_->start();
  }

  void put(const std::string& key, const std::string& value) {
    client_->write(object_of(key), Value(value));
  }

  /// Pipelined bulk insert: distinct keys are distinct registers, so their
  /// writes overlap in one session — spread over every shard at once.
  void put_all(const std::vector<std::pair<std::string, std::string>>& kvs) {
    std::vector<std::future<hts::core::OpResult>> acks;
    acks.reserve(kvs.size());
    for (const auto& [k, v] : kvs) {
      acks.push_back(client_->async_write(object_of(k), Value(v)));
    }
    for (auto& a : acks) a.get();
  }

  std::string get(const std::string& key) {
    return std::string(client_->read(object_of(key)).bytes());
  }

  /// Which shard serves `key` — pure function of the key's register id, the
  /// same on every client with no coordination.
  RingId shard_of(const std::string& key) {
    return shards_.ring_of(object_of(key));
  }

  /// Per-server fragment-store footprint (coded mode): each server holds
  /// only its |v|/k share of a coded value, never the whole value.
  std::vector<std::size_t> storage_shares() const {
    std::vector<std::size_t> shares;
    shares.reserve(n_servers_);
    for (std::size_t s = 0; s < n_servers_; ++s) {
      shares.push_back(
          cluster_->server(static_cast<hts::ProcessId>(s)).fragment_bytes());
    }
    return shares;
  }

 private:
  /// Keys map to dense object ids on first use. (A production store would
  /// hash; dense ids keep the demo deterministic.)
  ObjectId object_of(const std::string& key) {
    auto [it, fresh] = objects_.emplace(key, next_object_);
    if (fresh) ++next_object_;
    return it->second;
  }

  ShardMap shards_;
  std::size_t n_servers_;
  std::unique_ptr<ThreadedCluster> cluster_;
  ThreadedCluster::BlockingClient* client_ = nullptr;
  std::unordered_map<std::string, ObjectId> objects_;
  ObjectId next_object_ = 1;  // 0 is the default register; keys start at 1
};

/// --tcp: the same store shape served over real sockets. Each ring server is
/// its own OS process on loopback (harness::ProcCluster), the parent hosts
/// the client, and every PUT/GET round-trips through net::TcpTransport — the
/// deployment the paper measures, collapsed onto one machine. Single ring,
/// replicated values (ProcCluster's scope); per-link byte counters at the
/// end come from the parent's socket accounting.
int run_tcp_store() {
  std::printf("deploying 3 server processes on loopback tcp...\n");
  hts::harness::ProcClusterConfig cfg;
  cfg.n_servers = 3;
  hts::harness::ProcCluster cluster(cfg);
  cluster.start();
  std::printf("  servers listening at ports %u, %u, %u, client connected\n",
              cluster.server_port(0), cluster.server_port(1),
              cluster.server_port(2));

  const std::vector<std::pair<std::string, std::string>> data = {
      {"alpha", "the first letter"},
      {"omega", "the last letter"},
      {"answer", "42"},
      {"ring", "high throughput atomic storage"},
  };
  // Keys map to dense register ids (0 is the default register; keys start
  // at 1) — same scheme as the threaded store, minus the shard map.
  bool ok = true;
  for (std::size_t i = 0; i < data.size(); ++i) {
    cluster.put(static_cast<ObjectId>(i + 1), Value(data[i].second));
    std::printf("  put %-8s -> \"%s\"  (over tcp)\n", data[i].first.c_str(),
                data[i].second.c_str());
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::string got(
        cluster.get(static_cast<ObjectId>(i + 1)).bytes());
    const bool match = got == data[i].second;
    ok = ok && match;
    std::printf("  get %-8s -> \"%s\"%s\n", data[i].first.c_str(), got.c_str(),
                match ? "" : "  (MISMATCH)");
  }
  cluster.put(1, Value(std::string("the FIRST letter")));
  ok = ok && std::string(cluster.get(1).bytes()) == "the FIRST letter";

  std::printf("  per-link socket traffic (parent process view):\n");
  for (const auto& lc : cluster.transport().link_counters()) {
    std::printf("    %-4s tx %4llu msgs %6llu B   rx %4llu msgs %6llu B\n",
                lc.label.c_str(),
                static_cast<unsigned long long>(lc.tx_messages),
                static_cast<unsigned long long>(lc.tx_bytes),
                static_cast<unsigned long long>(lc.rx_messages),
                static_cast<unsigned long long>(lc.rx_bytes));
  }
  cluster.stop();
  std::printf(ok ? "ok\n" : "FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A process re-exec'd as a --tcp ring server never reaches the demo.
  if (hts::harness::ProcCluster::serve_child(argc, argv)) return 0;

  // --coded: store values >= 256 B as (n, k=2) MDS fragments — each server
  // keeps only its |v|/k share (DESIGN.md §Coded values). Small values stay
  // on the replicated fast path; GETs reconstruct transparently.
  bool coded = false;
  bool tcp = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--coded") == 0) coded = true;
    if (std::strcmp(argv[i], "--tcp") == 0) tcp = true;
  }
  if (tcp) return run_tcp_store();
  hts::code::ValuePolicy policy;
  if (coded) {
    policy.k = 2;
    policy.min_value_size = 256;
    policy.gc_keep = 1;
  }
  std::printf("building a 2-ring x 3-server store, one register per key%s...\n",
              coded ? " [--coded: k=2 fragments for values >= 256 B]" : "");
  KvStore store(/*rings=*/2, /*servers_per_ring=*/3, policy);

  const std::vector<std::pair<std::string, std::string>> data = {
      {"alpha", "the first letter"},
      {"omega", "the last letter"},
      {"answer", "42"},
      {"ring", "high throughput atomic storage"},
      {"shard", "independent rings compose"},
      {"paper", "icdcs 2007"},
  };
  store.put_all(data);
  for (const auto& [k, v] : data) {
    std::printf("  put %-8s -> \"%s\"  (pipelined, shard %u)\n", k.c_str(),
                v.c_str(), store.shard_of(k));
  }
  bool ok = true;
  bool used[2] = {false, false};
  for (const auto& [k, expect] : data) {
    const std::string got = store.get(k);
    const bool match = got == expect;
    ok = ok && match;
    used[store.shard_of(k)] = true;
    std::printf("  get %-8s -> \"%s\"%s\n", k.c_str(), got.c_str(),
                match ? "" : "  (MISMATCH)");
  }
  if (!(used[0] && used[1])) {
    std::printf("  note: all keys landed on one shard (unlucky hash)\n");
  }
  // Overwrite one key and prove its neighbours are untouched registers —
  // including neighbours living on the other shard.
  store.put("answer", "43");
  ok = ok && store.get("answer") == "43" && store.get("alpha") == data[0].second;
  std::printf("  put answer   -> \"43\" (overwrite); alpha unchanged: %s\n",
              store.get("alpha").c_str());
  if (coded) {
    // Big values cross the policy threshold and land as fragments; each
    // server of the serving ring stores ~|v|/k, not |v|. The small values
    // above stayed replicated (their servers hold no fragments for them).
    const std::size_t big = 4096;
    store.put("blob-a", std::string(big, 'a'));
    store.put("blob-b", std::string(big, 'b'));
    const std::string got = store.get("blob-a");
    ok = ok && got == std::string(big, 'a') &&
         store.get("blob-b") == std::string(big, 'b');
    std::printf("  put/get blob-a, blob-b (%zu B each) -> %s, coded k=2\n",
                big, got == std::string(big, 'a') ? "roundtrip ok" : "MISMATCH");
    std::printf("  per-server fragment storage (each share ~= |v|/k = %zu B):\n",
                big / 2);
    const auto shares = store.storage_shares();
    for (std::size_t s = 0; s < shares.size(); ++s) {
      std::printf("    server %zu (shard %zu): %6zu B\n", s, s / 3, shares[s]);
    }
  }
  std::printf(ok ? "ok\n" : "FAILED\n");
  return ok ? 0 : 1;
}
