// Node-facing transport interface shared by every fabric.
//
// The protocol hosts (harness/transport_hosts.h) are written against this
// surface, so the same server and client hosts run over in-process
// mailboxes (InMemTransport), real loopback sockets (TcpTransport) or the
// discrete-event simulator's modelled NICs (sim::SimTransport) without
// changes. The contract is the paper's model: reliable FIFO bi-directional
// channels plus a perfect failure detector — crash(addr) (or a real TCP
// connection break, for the socket fabric) eventually fires every surviving
// node's crash handler, and no message from the crashed node is delivered
// afterwards. tests/transport_conformance_test.cpp checks it once for all
// three.
//
// Handler threading on the live fabrics: both run each node on one
// net::NodeLoop (net/node_loop.h), so all of a node's handlers, and the
// closures execute() hands it, run serialized with one another, and its
// timers and crash notices live on that loop's heap. The state machines stay
// single-threaded. Timer and crash handlers run on the node's own loop
// thread. A message or an execute() closure for an idle in-memory node may
// instead run inline on the thread that hands it over, holding the node's
// loop off until it returns; send() and execute() below state when.
//
// On the simulator every handler runs on the thread that drives the
// sim::Simulator, at virtual time: a delivery, a timer or a crash notice is
// a simulator event, execute() runs its closure inline at the current
// virtual time, and wait_quiescent() runs the simulator until no event is
// left. Its sends are charged to modelled NICs, framing included.
//
// Egress pacing: a node may register a link-ready upcall that hands the
// transport its next queued transmission. A host asks for its egress with
// pull_egress(); the live fabrics then call the upcall until it has nothing
// left, the simulator once per free transmit slot of the node's NIC.
#pragma once

#include <cstdint>
#include <functional>

#include "net/payload.h"
#include "obs/net_stats.h"

namespace hts::net {

class Transport : public obs::LinkStatsSource {
 public:
  /// Delivered message: payload plus sender address.
  using MessageHandler = std::function<void(NodeAddress from, PayloadPtr)>;
  /// Perfect-failure-detector notification (crashed server's id).
  using CrashHandler = std::function<void(ProcessId)>;
  /// One-shot timer callback (token disambiguates stale timers).
  using TimerHandler = std::function<void(std::uint64_t token)>;
  /// Egress-pacing upcall: sends the node's next queued transmission through
  /// send() and returns true, or returns false when nothing is queued.
  using LinkReadyHandler = std::function<bool()>;

  ~Transport() override = default;

  /// Registers a node. Its handlers run serialized, on its loop thread or
  /// inline as send() and execute() describe; crash/timer/link-ready
  /// handlers may be null. Registration while the transport is running is
  /// allowed (live reconfiguration spawns the servers of a new ring this
  /// way).
  virtual void register_node(NodeAddress addr, MessageHandler on_message,
                             CrashHandler on_crash = nullptr,
                             TimerHandler on_timer = nullptr,
                             LinkReadyHandler on_link_ready = nullptr) = 0;

  virtual void start() = 0;
  virtual void stop() = 0;

  /// Reliable FIFO send. Messages to crashed or unknown nodes are dropped.
  /// A self-send (from == to) is delivered through the node's mailbox,
  /// without serialization. Sent from a thread that is doing some node's
  /// work (a handler, or a run already inline on it), the destination's
  /// handler may run inline on that thread before send() returns: when the
  /// destination's loop watches no fd, is parked with an empty mailbox and
  /// is not held by this thread, up to a fixed nesting depth
  /// (net/node_loop.h has the rule). Otherwise — a foreign thread, a
  /// self-send, any TCP node — the message is posted to the loop. The
  /// sender must hold no lock that the destination's handler takes.
  virtual void send(NodeAddress from, NodeAddress to, PayloadPtr msg) = 0;

  /// Runs `fn` serialized with `node`'s handlers, as one more handler would
  /// run: on the node's loop thread, or inline on the calling thread when
  /// the caller is doing no node's work and the node qualifies as for
  /// send(). Sends `fn` makes then follow send()'s rule, and mail they bring
  /// back to the node is handled, for a bounded number of rounds, before
  /// execute() returns (net/node_loop.h). One thread's closures run in call
  /// order. Counted as work for wait_quiescent() until `fn` returns; dropped
  /// unrun if the node is crashed or unknown. The caller must hold no lock
  /// that `fn` takes.
  virtual void execute(NodeAddress node, std::function<void()> fn) = 0;

  /// Offers `node`'s link to its queued egress; call it serialized with the
  /// node's handlers. The live fabrics call the node's link-ready upcall
  /// until it returns false, before returning; the simulator calls it once
  /// per free transmit slot of the node's NIC, as the slots free up.
  virtual void pull_egress(NodeAddress node) = 0;

  /// Seconds on the transport's clock: virtual time on the simulator,
  /// wall-clock seconds since construction on the live fabrics.
  [[nodiscard]] virtual double now() const = 0;

  /// Arms a one-shot timer for `addr` (fired on its loop thread).
  virtual void arm_timer(NodeAddress addr, double delay_s,
                         std::uint64_t token) = 0;

  /// Crashes a server node: no further deliveries to or from it, and every
  /// surviving node's crash handler fires after the detection delay.
  virtual void crash(NodeAddress addr) = 0;

  [[nodiscard]] virtual bool is_up(NodeAddress addr) const = 0;

  /// Blocks until no accepted message is left to handle, no crash notice is
  /// pending and every node is idle, or until the timeout expires. Returns
  /// true on quiescence. (Timers still pending do not count as work, nor
  /// does anything owed to a crashed node: it is never done.)
  virtual bool wait_quiescent(double timeout_s) = 0;
};

}  // namespace hts::net
