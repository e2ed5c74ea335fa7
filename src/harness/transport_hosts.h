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
#include <cassert>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "baselines/context.h"
#include "common/clock.h"
#include "common/futex.h"
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
/// from any thread, and the ClientPort surface
/// for the simulator's workload drivers, which issue on the thread that
/// runs the node's handlers.
/// launch() hands its op to the node through Transport::execute and returns
/// a future. run() blocks: on a node a loop runs it also goes through
/// execute, then sleeps on a completion slot on its own stack; on a driven
/// node (register_driven_node) it drives the node itself and sees the
/// completion with no wake at all.
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
    transport_.register_node(addr(), message_handler(), nullptr,
                             timer_handler());
  }
  /// Registers the node caller-driven on `tcp`, which must be this host's
  /// transport (net::TcpTransport::register_driven_client): each run() then
  /// runs on its caller's thread, one caller at a time. Not for launch().
  void register_driven_node(net::TcpTransport& tcp) {
    assert(&tcp == &transport_);
    tcp_ = &tcp;
    tcp.register_driven_client(session_.id(), message_handler(), nullptr,
                               timer_handler());
  }
  [[nodiscard]] Session& session() { return session_; }
  [[nodiscard]] const Session& session() const { return session_; }

  /// Starts an operation serialized with the session's handlers
  /// (Transport::execute: inline while the loop is parked, else on it).
  /// The op and its promise wait in the pending record, so the closure
  /// handed over is two words (no allocation of its own).
  std::future<core::OpResult> launch(bool is_read, ObjectId object, Value v) {
    PendingOp op = request(is_read, object, std::move(v));
    std::future<core::OpResult> fut = op.promise.emplace().get_future();
    // Once abandon_runs() ran the op is dropped: its future is broken.
    if (const auto ticket = enqueue(std::move(op))) {
      transport_.execute(addr(), [this, t = *ticket] { submit(t); });
    }
    return fut;
  }
  /// Runs one operation and waits for it; throws if it does not complete
  /// within 30 s, or if the transport stops first (a driven node's, or
  /// abandon_runs() for a node a loop runs).
  core::OpResult run(bool is_read, ObjectId object, Value v) {
    const clk::SteadyTime deadline =
        clk::steady_now() + std::chrono::seconds(30);
    Completion slot;
    PendingOp op = request(is_read, object, std::move(v));
    op.slot = &slot;
    const std::optional<std::uint64_t> ticket = enqueue(std::move(op));
    bool finished = false;
    if (ticket && tcp_ != nullptr) {
      finished = tcp_->drive(
          addr(), [this, t = *ticket] { submit(t); },
          [&slot] {
            return slot.state.load(std::memory_order_acquire) ==
                   Completion::kDone;
          },
          deadline);
    } else if (ticket) {
      transport_.execute(addr(), [this, t = *ticket] { submit(t); });
      finished = slot.wait(deadline);
    }
    // A drive ran its submit, or never will; a posted one may still run.
    const bool may_run_later = tcp_ == nullptr;
    if (!finished && !unhook(slot, may_run_later)) {
      throw std::runtime_error(clk::steady_now() < deadline
                                   ? "client operation abandoned: the "
                                     "transport stopped"
                                   : "client operation timed out (deadlock?)");
    }
    return std::move(slot.result);
  }
  /// Fails every run() waiting on this node — call it once the transport
  /// has stopped, so nothing will complete them — and every later one, with
  /// "the transport stopped". For nodes a loop runs; a driven node's run()
  /// sees the stop itself.
  void abandon_runs() HTS_EXCLUDES(pending_mu_) {
    const sync::MutexLock lock(pending_mu_);
    stopped_ = true;
    for (auto* ops : {&queued_, &pending_}) {
      for (auto& [key, op] : *ops) {
        if (op.slot != nullptr) op.slot->abandon();
        op.slot = nullptr;
      }
    }
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
  /// A run()'s result, on the caller's stack; the op's pending record
  /// points at it until the op completes or the caller gives up (unhook()).
  struct Completion {
    static constexpr std::uint32_t kPending = 0;
    static constexpr std::uint32_t kSleeping = 1;  // the caller is parked
    static constexpr std::uint32_t kDone = 2;
    static constexpr std::uint32_t kAbandoned = 3;  // abandon_runs()

    /// On the completing thread, under pending_mu_.
    void fill(const core::OpResult& r) {
      result = r;
      if (state.exchange(kDone, std::memory_order_acq_rel) == kSleeping) {
        futex::wake(state);
      }
    }
    /// Under pending_mu_: the op will never complete.
    void abandon() {
      if (state.exchange(kAbandoned, std::memory_order_acq_rel) ==
          kSleeping) {
        futex::wake(state);
      }
    }
    /// The caller: false if `deadline` passes first or the op is abandoned.
    bool wait(clk::SteadyTime deadline) {
      std::uint32_t s = state.load(std::memory_order_acquire);
      while (s != kDone) {
        if (s == kAbandoned || clk::steady_now() >= deadline) return false;
        if (s == kPending &&
            !state.compare_exchange_weak(s, kSleeping,
                                         std::memory_order_acq_rel)) {
          continue;
        }
        futex::wait(state, kSleeping, deadline);
        s = state.load(std::memory_order_acquire);
      }
      return true;
    }

    core::OpResult result;
    std::atomic<std::uint32_t> state{kPending};
  };
  /// Caller-side state of one op: what submit() starts, then launch()'s
  /// promise or run()'s slot until the op completes.
  struct PendingOp {
    bool is_read = false;
    ObjectId object = kDefaultObject;
    Value value;  // a write's, until submit() hands it to the session
    std::uint64_t value_seed = 0;
    std::optional<std::promise<core::OpResult>> promise;
    Completion* slot = nullptr;
  };
  /// Keyed by ticket until submit(), then by request id.
  using PendingOps = std::map<std::uint64_t, PendingOp>;

  [[nodiscard]] net::NodeAddress addr() const {
    return net::NodeAddress::client(session_.id());
  }
  net::Transport::MessageHandler message_handler() {
    return [this](net::NodeAddress from, net::PayloadPtr msg) {
      // The core session is told which server replied; the baseline
      // clients take the reply alone.
      if constexpr (requires { session_.on_reply(*msg, kNoProcess, *this); }) {
        const ProcessId sender = from.kind == net::NodeAddress::Kind::kServer
                                     ? static_cast<ProcessId>(from.id)
                                     : kNoProcess;
        session_.on_reply(*msg, sender, *this);
      } else {
        session_.on_reply(*msg, *this);
      }
    };
  }
  net::Transport::TimerHandler timer_handler() {
    return [this](std::uint64_t token) { session_.on_timer(token, *this); };
  }
  [[nodiscard]] static PendingOp request(bool is_read, ObjectId object,
                                         Value v) {
    PendingOp op;
    op.is_read = is_read;
    op.object = object;
    op.value_seed = v.synthetic_seed();
    op.value = std::move(v);
    return op;
  }
  /// Files an op for submit(ticket): its ticket, or none once
  /// abandon_runs() ran.
  std::optional<std::uint64_t> enqueue(PendingOp op)
      HTS_EXCLUDES(pending_mu_) {
    const sync::MutexLock lock(pending_mu_);
    if (stopped_) return std::nullopt;
    const std::uint64_t ticket = next_ticket_++;
    queued_.emplace(ticket, std::move(op));
    return ticket;
  }
  /// Serialized with the session's handlers: starts the op and re-keys its
  /// record (the same map node) by request id.
  void submit(std::uint64_t ticket) HTS_EXCLUDES(pending_mu_) {
    PendingOp* op = nullptr;
    {
      const sync::MutexLock lock(pending_mu_);
      op = &queued_.find(ticket)->second;  // map nodes stay put
    }
    // Only `slot` is shared with the caller (unhook()); the rest is ours.
    const RequestId req =
        op->is_read ? session_.begin_read(op->object, *this)
                    : session_.begin_write(op->object, std::move(op->value),
                                           *this);
    const sync::MutexLock lock(pending_mu_);
    typename PendingOps::node_type node = queued_.extract(ticket);
    node.key() = req;
    pending_.insert(std::move(node));
  }
  /// A run() whose wait failed: true when its op completed after all (the
  /// result is in the slot); else nothing touches the slot any more. An op
  /// whose submit `may_run_later` still runs, with no slot to fill.
  bool unhook(Completion& slot, bool may_run_later)
      HTS_EXCLUDES(pending_mu_) {
    const sync::MutexLock lock(pending_mu_);
    const std::uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == Completion::kDone) return true;
    if (state == Completion::kAbandoned) return false;  // already unhooked
    for (auto& [req, op] : pending_) {
      if (op.slot == &slot) {
        op.slot = nullptr;
        return false;
      }
    }
    for (auto it = queued_.begin(); it != queued_.end(); ++it) {
      if (it->second.slot != &slot) continue;
      if (may_run_later) {
        it->second.slot = nullptr;
      } else {
        queued_.erase(it);
      }
      break;
    }
    return false;
  }
  void complete(const core::OpResult& r) HTS_EXCLUDES(pending_mu_) {
    const sync::MutexLock lock(pending_mu_);
    auto it = pending_.find(r.req);
    if (history_ != nullptr) {
      history_->record(session_.id(), r,
                       it != pending_.end() ? it->second.value_seed : 0);
    }
    if (it == pending_.end()) return;
    if (it->second.slot != nullptr) {
      it->second.slot->fill(r);
    } else if (it->second.promise) {
      it->second.promise->set_value(r);
    }
    pending_.erase(it);
  }

  net::Transport& transport_;
  net::TcpTransport* tcp_ = nullptr;  // set when the node is driven
  Session session_;
  HistorySink* history_;
  /// Written by callers (enqueue, unhook, abandon_runs) and serialized with
  /// the session's handlers (submits and completions).
  sync::Mutex pending_mu_;
  PendingOps queued_ HTS_GUARDED_BY(pending_mu_);   // by ticket
  PendingOps pending_ HTS_GUARDED_BY(pending_mu_);  // by request id
  std::uint64_t next_ticket_ HTS_GUARDED_BY(pending_mu_) = 0;
  bool stopped_ HTS_GUARDED_BY(pending_mu_) = false;  // abandon_runs() ran
};

using TransportClientHost = ClientHost<core::ClientSession>;

}  // namespace hts::harness
