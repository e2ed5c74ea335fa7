// Transport hosts — the one place protocol state machines are hosted on a
// net::Transport. A TransportServerHost runs one RingServer on a server
// node, a ClientHost one client state machine (the core ClientSession, or a
// baseline's client) on a client node, and a PeerHost one baseline server
// (ABD, chain replication, TOB). Every deployment uses these: SimCluster
// and ThreadedCluster through their shared DeploymentCore, BaselineCluster
// on the simulator, ProcCluster's server processes and its parent client
// (which wire the TCP codec through tcp_options()). What stays with the
// deployments is their control plane: the migration driver, machines,
// processes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "baselines/context.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "common/value.h"
#include "core/client.h"
#include "core/server.h"
#include "harness/workload.h"
#include "lincheck/history.h"
#include "net/tcp_transport.h"
#include "net/transport.h"

namespace hts::harness {

/// TcpTransport options with the core wire codec injected (hts_net cannot
/// depend on hts_core) and servers 0..n_servers-1 as the failure-detection
/// mesh.
[[nodiscard]] net::TcpTransport::Options tcp_options(double detection_delay_s,
                                                     std::size_t n_servers);

/// One ring server on a transport node. The protocol runs on local
/// (in-ring) ids; the host maps them into the ring's global-id block.
struct TransportServerHost final : core::ServerContext {
  TransportServerHost(net::Transport& transport, ProcessId local,
                      std::size_t ring_size, ProcessId global,
                      ProcessId ring_base, core::ServerOptions opts);
  // The transport's handlers hold the host's address.
  TransportServerHost(const TransportServerHost&) = delete;
  TransportServerHost& operator=(const TransportServerHost&) = delete;

  /// Registers the node's handlers; call once the server is prepared. Each
  /// message and each ring peer's crash notice is handled, then the link
  /// is offered to the ring egress it left. Crash notices arrive by global
  /// id; failure detection is ring-local, so other rings' notices are
  /// dropped and a ring peer is handed the local id its protocol instance
  /// knows.
  void register_node();
  /// The link-ready upcall: sends the fairness scheduler's next batch (up
  /// to max_batch messages) as one transmission, counting ring egress.
  bool send_one_batch();
  void send_client(ClientId client, net::PayloadPtr msg) override;
  [[nodiscard]] net::NodeAddress addr() const {
    return net::NodeAddress::server(global);
  }

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

/// One baseline server (ABD, chain, TOB) on a transport node. `Protocol`
/// is a harness/baseline_cluster.h adapter: it builds the server and routes
/// peer and client messages and crash notices into it. Peer traffic goes
/// straight to the transport (no link-ready pacing: that mechanism is the
/// paper algorithm's own).
template <class Protocol>
struct PeerHost final : baselines::PeerContext {
  PeerHost(net::Transport& t, ProcessId id, std::size_t n)
      : transport(t), server(Protocol::make_server(id, n)), global(id) {}
  PeerHost(const PeerHost&) = delete;
  PeerHost& operator=(const PeerHost&) = delete;

  void register_node() {
    transport.register_node(
        net::NodeAddress::server(global),
        [this](net::NodeAddress, net::PayloadPtr m) {
          if (Protocol::is_peer_msg(m->kind())) {
            Protocol::deliver_peer(server, std::move(m), *this);
          } else {
            Protocol::deliver_client_msg(server, *m, *this);
          }
        },
        [this](ProcessId p) { Protocol::on_crash(server, p, *this); });
  }
  void send_peer(ProcessId to, net::PayloadPtr msg) override {
    transport.send(net::NodeAddress::server(global),
                   net::NodeAddress::server(to), std::move(msg));
  }
  void send_client(ClientId client, net::PayloadPtr msg) override {
    transport.send(net::NodeAddress::server(global),
                   net::NodeAddress::client(client), std::move(msg));
  }

  net::Transport& transport;
  typename Protocol::Server server;
  const ProcessId global;
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

/// One client state machine on a transport node — the core ClientSession
/// or a baseline client — with two ways to run operations: launch()/run()
/// from any thread, through Transport::execute, and the ClientPort surface
/// for the simulator's workload drivers, which issue on the thread that
/// runs the node's handlers.
template <class Session>
class ClientHost final : public core::ClientContext, public ClientPort {
 public:
  /// Completed ops go to `history` when it is non-null.
  ClientHost(net::Transport& transport, Session session, HistorySink* history)
      : transport_(transport), session_(std::move(session)),
        history_(history) {
    session_.on_complete = [this](const core::OpResult& r) { complete(r); };
  }
  ClientHost(const ClientHost&) = delete;
  ClientHost& operator=(const ClientHost&) = delete;

  void register_node() {
    transport_.register_node(
        addr(),
        [this](net::NodeAddress from, net::PayloadPtr msg) {
          // The core session is told which server replied; the baseline
          // clients take the reply alone.
          if constexpr (requires {
                          session_.on_reply(*msg, kNoProcess, *this);
                        }) {
            const ProcessId sender =
                from.kind == net::NodeAddress::Kind::kServer
                    ? static_cast<ProcessId>(from.id)
                    : kNoProcess;
            session_.on_reply(*msg, sender, *this);
          } else {
            session_.on_reply(*msg, *this);
          }
        },
        nullptr,
        [this](std::uint64_t token) { session_.on_timer(token, *this); });
  }
  [[nodiscard]] Session& session() { return session_; }
  [[nodiscard]] const Session& session() const { return session_; }

  /// Starts an operation serialized with the session's handlers
  /// (Transport::execute: inline while the loop is parked, else on it).
  std::future<core::OpResult> launch(bool is_read, ObjectId object, Value v) {
    auto promise = std::make_shared<std::promise<core::OpResult>>();
    std::future<core::OpResult> fut = promise->get_future();
    transport_.execute(addr(), [this, is_read, object, v = std::move(v),
                                promise = std::move(promise)]() mutable {
      const std::uint64_t seed = v.synthetic_seed();
      const RequestId req =
          is_read ? session_.begin_read(object, *this)
                  : session_.begin_write(object, std::move(v), *this);
      pending_.emplace(req, PendingOp{std::move(promise), seed});
    });
    return fut;
  }
  /// launch() and wait; throws if the op does not complete within 30 s.
  core::OpResult run(bool is_read, ObjectId object, Value v) {
    auto fut = launch(is_read, object, std::move(v));
    if (fut.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      throw std::runtime_error("client operation timed out (deadlock?)");
    }
    return fut.get();
  }

  // harness::ClientPort — completions then go to the driver's callback
  // instead of launch()'s futures and the history.
  RequestId begin_write(ObjectId object, Value v) override {
    return session_.begin_write(object, std::move(v), *this);
  }
  RequestId begin_read(ObjectId object) override {
    return session_.begin_read(object, *this);
  }
  void set_on_complete(
      std::function<void(const core::OpResult&)> cb) override {
    session_.on_complete = std::move(cb);
  }

  // core::ClientContext
  void send_server(ProcessId server, net::PayloadPtr msg) override {
    transport_.send(addr(), net::NodeAddress::server(server), std::move(msg));
  }
  void arm_timer(double delay_seconds, std::uint64_t token) override {
    transport_.arm_timer(addr(), delay_seconds, token);
  }
  [[nodiscard]] double now() const override { return transport_.now(); }

 private:
  [[nodiscard]] net::NodeAddress addr() const {
    return net::NodeAddress::client(session_.id());
  }
  void complete(const core::OpResult& r) {
    auto it = pending_.find(r.req);
    if (history_ != nullptr) {
      history_->record(session_.id(), r,
                       it != pending_.end() ? it->second.value_seed : 0);
    }
    if (it != pending_.end()) {
      it->second.promise->set_value(r);
      pending_.erase(it);
    }
  }

  net::Transport& transport_;
  Session session_;
  HistorySink* history_;
  /// Caller-side state per in-flight request. Touched only serialized with
  /// the session's handlers (submit closures and completions).
  struct PendingOp {
    std::shared_ptr<std::promise<core::OpResult>> promise;
    std::uint64_t value_seed = 0;
  };
  std::map<RequestId, PendingOp> pending_;
};

using TransportClientHost = ClientHost<core::ClientSession>;

}  // namespace hts::harness
