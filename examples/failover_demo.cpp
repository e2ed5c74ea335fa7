// Failover demo: the paper's resilience claim, live.
//
// A 4-server cluster loses servers one by one — down to a single survivor —
// while a client keeps writing and reading. Every operation completes
// (clients re-send timed-out requests to another server; the ring splices
// itself and adopts orphaned writes), and reads never go backwards.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "harness/threaded_cluster.h"
#include "lincheck/checker.h"

int main() {
  using hts::kDefaultObject;
  using hts::Value;
  using hts::harness::ThreadedCluster;
  using hts::harness::ThreadedClusterConfig;

  ThreadedClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.detection_delay_s = 0.002;
  cfg.client_retry_timeout_s = 0.05;

  ThreadedCluster cluster(cfg);
  auto& writer = cluster.add_client(0);
  auto& reader = cluster.add_client(1);
  cluster.start();

  std::uint64_t seq = 1;
  auto write_one = [&] {
    writer.write(kDefaultObject, Value::synthetic(seq, 64));
    std::printf("  write #%llu acknowledged\n",
                static_cast<unsigned long long>(seq));
    ++seq;
  };
  auto read_one = [&] {
    auto r = reader.read_result(kDefaultObject);
    std::printf("  read -> value #%llu (tag %s, %u attempt(s))\n",
                static_cast<unsigned long long>(r.value.synthetic_seed()),
                r.tag.to_string().c_str(), r.attempts);
  };

  std::printf("4 servers up:\n");
  write_one();
  read_one();

  for (hts::ProcessId victim : {3u, 0u, 2u}) {
    std::printf("crashing server %u ...\n", victim);
    cluster.crash_server(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    write_one();
    read_one();
  }
  std::printf("single survivor (server 1) still serving. verifying "
              "atomicity of the recorded history...\n");

  cluster.wait_quiescent(2.0);
  auto verdict = hts::lincheck::check_register(cluster.history());
  std::printf("history of %zu operations: %s\n", cluster.history().size(),
              verdict.linearizable ? "LINEARIZABLE"
                                   : verdict.explanation.c_str());
  return verdict.linearizable ? 0 : 1;
}
