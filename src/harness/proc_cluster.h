// ProcCluster — multi-process deployment over real loopback TCP.
//
// Each ring server runs in its own OS process (fork + exec of the hosting
// binary), speaking the wire protocol through net::TcpTransport; the parent
// process hosts one client session and offers blocking put/get. Both sides
// are the transport hosts ThreadedCluster runs (harness/transport_hosts.h),
// without the migration control plane or a history. This is the
// deployment shape the paper measures: separate machines joined by TCP,
// failure detection by connection break — here collapsed onto loopback so
// tests and benches can run it anywhere.
//
// Usage contract: the hosting binary's main() must call
// ProcCluster::serve_child(argc, argv) FIRST — when the process was spawned
// as a server, that call runs the server loop and never returns. fork() is
// immediately followed by exec of /proc/self/exe, so the child gets a fresh
// address space: safe under sanitizers and with the parent's threads.
//
// Scope: single ring, replicated values, no reconfiguration. Migration
// commands are plain values (core::MigrationCommand), but no wire encoding
// or control channel carries them to a server process yet, and there is
// only one ring to migrate between. Ring sizes and client counts stay
// small; ports are pid-derived so parallel ctest instances do not collide.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "common/value.h"
#include "harness/transport_hosts.h"
#include "net/transport.h"

namespace hts::harness {

struct ProcClusterConfig {
  std::size_t n_servers = 3;
  /// Seconds between a TCP break and the survivors' crash handlers.
  double detection_delay_s = 0.05;
  /// Listen-port base shared by every process of the deployment; 0 derives
  /// one from the parent pid (stable across the fork, unique per ctest
  /// instance).
  std::uint16_t base_port = 0;
  /// Ring batching knob, forwarded to every server process.
  std::size_t max_batch = 16;
  double client_retry_timeout_s = 0.2;
};

class ProcCluster {
 public:
  /// Child-process dispatch. Call at the very top of main(): if argv marks
  /// this process as a spawned server, runs the server until SIGTERM and
  /// exits (never returns); otherwise returns false and main() proceeds.
  static bool serve_child(int argc, char** argv);

  explicit ProcCluster(ProcClusterConfig cfg);
  ~ProcCluster();

  ProcCluster(const ProcCluster&) = delete;
  ProcCluster& operator=(const ProcCluster&) = delete;

  /// Forks + execs one server process per ring slot, then starts the
  /// parent-side client transport (its failure-detection mesh retries until
  /// every child is listening).
  void start();

  /// SIGTERMs the children (graceful: their transports send byes), reaps
  /// them, and stops the client transport. Idempotent; the destructor calls
  /// it.
  void stop();

  // ---- blocking single-client operations (issued on the parent) ----
  void put(ObjectId object, Value v);
  [[nodiscard]] Value get(ObjectId object);

  /// SIGKILLs a server process: the kernel closes its sockets, every peer
  /// sees a bye-less break, and crash handlers fire after detection_delay.
  void kill_server(ProcessId p);

  /// The parent's failure-detector view of a server.
  [[nodiscard]] bool server_up(ProcessId p) const;
  /// Polls until the parent has detected `p`'s crash (or timeout).
  bool wait_server_down(ProcessId p, double timeout_s) const;

  /// Parent-side transport (tx/rx link counters for the example/bench).
  [[nodiscard]] net::Transport& transport();
  [[nodiscard]] std::uint16_t base_port() const { return base_port_; }

 private:
  ProcClusterConfig cfg_;
  std::uint16_t base_port_ = 0;
  std::vector<pid_t> children_;  // pid per server slot; -1 once reaped
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<TransportClientHost> client_;
  bool started_ = false;
};

}  // namespace hts::harness
