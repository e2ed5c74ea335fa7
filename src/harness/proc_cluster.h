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
// Addressing: the parent binds every server's listener on an ephemeral
// port before forking; each server process inherits only its own listener,
// and gets every server's port in its argv. So a dial connects or meets a
// dead server, and parallel ctest instances never share a port.
//
// Scope: single ring, replicated values, no reconfiguration. Migration
// commands are plain values (core::MigrationCommand), but no wire encoding
// or control channel carries them to a server process yet, and there is
// only one ring to migrate between. Ring sizes and client counts stay
// small.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "common/value.h"
#include "harness/transport_hosts.h"
#include "net/tcp_transport.h"
#include "net/transport.h"

namespace hts::harness {

struct ProcClusterConfig {
  std::size_t n_servers = 3;
  /// Seconds between a TCP break and the survivors' crash handlers.
  double detection_delay_s = 0.05;
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

  /// Binds every server's listener, forks + execs one server process per
  /// ring slot with its listener, closes the parent's copies, then starts
  /// the parent-side client transport (its mesh dial to a server still
  /// booting waits in that server's accept queue).
  void start();

  /// SIGTERMs the children (graceful: their transports send byes), reaps
  /// them — SIGKILL after 5 s — and stops the client transport. Idempotent;
  /// the destructor calls it.
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
  /// The loopback port server `p` listens on (after start()).
  [[nodiscard]] std::uint16_t server_port(ProcessId p) const;

 private:
  ProcClusterConfig cfg_;
  std::vector<pid_t> children_;  // pid per server slot; -1 once reaped
  std::unique_ptr<net::TcpTransport> transport_;
  std::unique_ptr<TransportClientHost> client_;
  bool started_ = false;
};

}  // namespace hts::harness
