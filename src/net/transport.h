// Node-facing transport interface shared by every live fabric.
//
// The protocol hosts (harness/threaded_cluster.*) are written against this
// surface, so the same ServerHost/ClientHost wiring runs over in-process
// queues (InMemTransport) or real loopback sockets (TcpTransport) without
// changes. The contract is the paper's model: reliable FIFO bi-directional
// channels plus a perfect failure detector — crash(addr) (or a real TCP
// connection break, for the socket fabric) eventually fires every surviving
// node's crash handler, and no message from the crashed node is delivered
// afterwards.
//
// Handler threading: all three handlers for a node run serialized on that
// node's own thread — InMemTransport's delivery thread, TcpTransport's
// event loop (which also reads, decodes and flushes the node's sockets) —
// so the state machines stay single-threaded.
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

  /// Registers a node. All three handlers run on the node's own thread;
  /// crash/timer handlers may be null. Registration while the
  /// transport is running is allowed (live reconfiguration spawns the
  /// servers of a new ring this way).
  virtual void register_node(NodeAddress addr, MessageHandler on_message,
                             CrashHandler on_crash = nullptr,
                             TimerHandler on_timer = nullptr) = 0;

  virtual void start() = 0;
  virtual void stop() = 0;

  /// Reliable FIFO send. Messages to crashed or unknown nodes are dropped.
  /// A self-send (from == to) must be delivered without serialization —
  /// harness control payloads (ControlOp/ViewControl) are not wire types.
  virtual void send(NodeAddress from, NodeAddress to, PayloadPtr msg) = 0;

  /// Arms a one-shot timer for `addr` (delivered on its thread).
  virtual void arm_timer(NodeAddress addr, double delay_s,
                         std::uint64_t token) = 0;

  /// Crashes a server node: no further deliveries to or from it, and every
  /// surviving node's crash handler fires after the detection delay.
  virtual void crash(NodeAddress addr) = 0;

  [[nodiscard]] virtual bool is_up(NodeAddress addr) const = 0;

  /// Blocks until every queue is empty and every node is idle, or until the
  /// timeout expires. Returns true on quiescence. (Timers still pending do
  /// not count as work.)
  virtual bool wait_quiescent(double timeout_s) = 0;

  /// Accounting over everything accepted for delivery: one transmission per
  /// send() call (a RingBatch counts once) charged at its exact wire size.
  [[nodiscard]] virtual std::uint64_t total_transmissions() const = 0;
  [[nodiscard]] virtual std::uint64_t total_bytes_sent() const = 0;
};

}  // namespace hts::net
