// Transport hosts — the one place the protocol's two state machines are
// hosted on a net::Transport. A TransportServerHost runs one RingServer on a
// server node, a TransportClientHost one ClientSession on a client node;
// ThreadedCluster (in-memory or tcp mode) and ProcCluster (its server
// processes and its parent client) all use these two, and wire the TCP
// codec through tcp_options(). The fabric-specific parts stay with the
// fabrics: ThreadedCluster's migration control plane, ProcCluster's
// process management.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "common/value.h"
#include "core/client.h"
#include "core/server.h"
#include "lincheck/history.h"
#include "net/tcp_transport.h"
#include "net/transport.h"

namespace hts::harness {

/// TcpTransport options with the core wire codec injected (hts_net cannot
/// depend on hts_core) and servers 0..n_servers-1 as the failure-detection
/// mesh.
[[nodiscard]] net::TcpTransport::Options tcp_options(
    double detection_delay_s, std::uint16_t base_port, std::size_t n_servers);

/// One ring server on a transport node. The protocol runs on local
/// (in-ring) ids; the host maps them into the ring's global-id block.
struct TransportServerHost final : core::ServerContext {
  TransportServerHost(net::Transport& transport, ProcessId local,
                      std::size_t ring_size, ProcessId global,
                      ProcessId ring_base, core::ServerOptions opts);
  // The transport's handlers hold the host's address.
  TransportServerHost(const TransportServerHost&) = delete;
  TransportServerHost& operator=(const TransportServerHost&) = delete;

  /// Registers the node's handlers; call once the server is prepared.
  void register_node();
  void on_message(net::PayloadPtr msg);
  /// The transport broadcasts crashes by global id; failure detection is
  /// ring-local, so other rings' notices are dropped and a ring peer is
  /// handed the local id its protocol instance knows.
  void on_crash(ProcessId p);
  /// Flushes the fairness scheduler's backlog after every event, one batch
  /// (up to max_batch messages) per transmission, counting ring egress.
  void drain();
  void send_client(ClientId client, net::PayloadPtr msg) override;

  net::Transport& transport;
  core::RingServer server;
  const ProcessId global;     // ring-major global id
  const ProcessId ring_base;  // global id of the ring's server 0
  const std::size_t ring_size;
  // Written on this host's loop thread, read by the harness after
  // quiescence — atomics keep the access well-defined.
  std::atomic<std::uint64_t> ring_transmissions{0};
  std::atomic<std::uint64_t> ring_bytes{0};
};

/// A lincheck history the client hosts of one deployment append to.
class HistorySink {
 public:
  void record(ClientId client, const core::OpResult& r,
              std::uint64_t write_seed) HTS_EXCLUDES(mu_);
  [[nodiscard]] lincheck::History snapshot() const HTS_EXCLUDES(mu_);

 private:
  mutable sync::Mutex mu_;
  lincheck::History history_ HTS_GUARDED_BY(mu_);
};

/// One client session on a transport node, with a blocking and a future
/// based way to run operations from any thread.
class TransportClientHost final : public core::ClientContext {
 public:
  /// `now()` counts seconds from `epoch`; completed ops go to `history`
  /// when it is non-null.
  TransportClientHost(net::Transport& transport, ClientId id,
                      core::ClientOptions opts, clk::SteadyTime epoch,
                      HistorySink* history);
  TransportClientHost(const TransportClientHost&) = delete;
  TransportClientHost& operator=(const TransportClientHost&) = delete;

  void register_node();
  [[nodiscard]] core::ClientSession& session() { return session_; }

  /// Starts an operation serialized with the session's handlers
  /// (Transport::execute: inline while the loop is parked, else on it).
  std::future<core::OpResult> launch(bool is_read, ObjectId object, Value v);
  /// launch() and wait; throws if the op does not complete within 30 s.
  core::OpResult run(bool is_read, ObjectId object, Value v);

  // core::ClientContext
  void send_server(ProcessId server, net::PayloadPtr msg) override;
  void arm_timer(double delay_seconds, std::uint64_t token) override;
  [[nodiscard]] double now() const override;

 private:
  net::Transport& transport_;
  core::ClientSession session_;
  clk::SteadyTime epoch_;
  HistorySink* history_;
  /// Caller-side state per in-flight request. Touched only serialized with
  /// the session's handlers (submit closures and completions).
  struct PendingOp {
    std::shared_ptr<std::promise<core::OpResult>> promise;
    std::uint64_t value_seed = 0;
  };
  std::map<RequestId, PendingOp> pending_;
};

}  // namespace hts::harness
