// Node-facing transport interface shared by every live fabric.
//
// The protocol hosts (harness/threaded_cluster.*) are written against this
// surface, so the same ServerHost/ClientHost wiring runs over in-process
// mailboxes (InMemTransport) or real loopback sockets (TcpTransport) without
// changes. The contract is the paper's model: reliable FIFO bi-directional
// channels plus a perfect failure detector — crash(addr) (or a real TCP
// connection break, for the socket fabric) eventually fires every surviving
// node's crash handler, and no message from the crashed node is delivered
// afterwards. tests/transport_conformance_test.cpp checks it once for both.
//
// Handler threading: both transports run each node on one net::NodeLoop
// (net/node_loop.h), so all three handlers of a node, and the closures
// execute() hands it, run serialized with one another, and its timers and
// crash notices live on that loop's heap. The state machines stay
// single-threaded. Timer and crash handlers run on the node's own loop
// thread. A message or an execute() closure for an idle in-memory node may
// instead run inline on the thread that hands it over, holding the node's
// loop off until it returns; send() and execute() below state when.
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

  ~Transport() override = default;

  /// Registers a node. Its handlers run serialized, on its loop thread or
  /// inline as send() and execute() describe; crash/timer handlers may be
  /// null. Registration while the transport is running is allowed (live
  /// reconfiguration spawns the servers of a new ring this way).
  virtual void register_node(NodeAddress addr, MessageHandler on_message,
                             CrashHandler on_crash = nullptr,
                             TimerHandler on_timer = nullptr) = 0;

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

  /// Arms a one-shot timer for `addr` (fired on its loop thread).
  virtual void arm_timer(NodeAddress addr, double delay_s,
                         std::uint64_t token) = 0;

  /// Crashes a server node: no further deliveries to or from it, and every
  /// surviving node's crash handler fires after the detection delay.
  virtual void crash(NodeAddress addr) = 0;

  [[nodiscard]] virtual bool is_up(NodeAddress addr) const = 0;

  /// Blocks until no accepted message is left to handle, no crash notice is
  /// pending and every node is idle, or until the timeout expires. Returns
  /// true on quiescence. (Timers still pending do not count as work.)
  virtual bool wait_quiescent(double timeout_s) = 0;

  /// Accounting over everything accepted for delivery: one transmission per
  /// send() call (a RingBatch counts once) charged at its exact wire size.
  [[nodiscard]] virtual std::uint64_t total_transmissions() const = 0;
  [[nodiscard]] virtual std::uint64_t total_bytes_sent() const = 0;
};

}  // namespace hts::net
