// Quickstart: a 3-server atomic register, two clients, reads and writes.
//
// The ThreadedCluster runs every server and client on its own thread over
// reliable in-memory channels — the same state machines a TCP deployment
// would run. Build & run:
//
//   cmake -B build && cmake --build build
//   ./build/example_quickstart
//
// Exits non-zero if a read does not return the value just written.
#include <cstdio>
#include <string>

#include "harness/threaded_cluster.h"

int main() {
  using hts::kDefaultObject;
  using hts::Value;
  using hts::harness::ThreadedCluster;
  using hts::harness::ThreadedClusterConfig;

  ThreadedClusterConfig cfg;
  cfg.n_servers = 3;

  ThreadedCluster cluster(cfg);
  auto& alice = cluster.add_client(/*preferred_server=*/0);
  auto& bob = cluster.add_client(/*preferred_server=*/1);
  cluster.start();

  // Alice stores a value in the default register; the write is
  // acknowledged only after every server has it (write-all-available), so
  // any subsequent read sees it.
  const Value first(std::string("the first value"));
  alice.write(kDefaultObject, first);
  std::printf("alice wrote:  \"the first value\"\n");

  // Bob reads through a different server — locally, in one round trip.
  Value seen = bob.read(kDefaultObject);
  std::printf("bob read:     \"%.*s\"\n", static_cast<int>(seen.size()),
              seen.bytes().data());
  if (seen != first) {
    std::printf("FAIL: bob did not read the value alice just wrote\n");
    return 1;
  }

  // Overwrite and read again; the register is linearizable, so reads never
  // go back in time.
  const Value second(std::string("the second value"));
  alice.write(kDefaultObject, second);
  auto result = bob.read_result(kDefaultObject);
  std::printf("bob read:     \"%.*s\"  (tag %s, %u attempt(s))\n",
              static_cast<int>(result.value.size()),
              result.value.bytes().data(), result.tag.to_string().c_str(),
              result.attempts);
  if (result.value != second) {
    std::printf("FAIL: bob did not read the value alice just wrote\n");
    return 1;
  }

  std::printf("ok\n");
  return 0;
}
