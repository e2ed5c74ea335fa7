// In-memory message transport: every node runs on a net::NodeLoop, and a
// send is a direct enqueue into the destination's mailbox.
//
// A node's handlers run serialized (the state machines are single-threaded
// by design), and its timers and crash notices live on its loop's heap. The
// loop watches no fd, so it parks on a futex until its earliest timer is
// due and a send wakes it with one futex wake. Two hand-overs skip that
// wake and run inline while the loop stays parked (net/node_loop.h): an
// execute() from a caller's thread, and a send from any thread doing some
// node's work — a loop thread or a run already inline, nested up to a fixed
// depth. Mail sent back into a node a thread runs inline is handled by that
// thread before it lets go. So on an idle ring a caller's execute() runs
// client → s0 → s1 → s2 and back on the caller's thread, with no thread
// switch, and the operation is complete when execute() returns.
// Links are reliable FIFO channels, exactly the paper's model of
// "bi-directional reliable communication channels" over TCP. Crashing a
// node stops its deliveries at once and, after a configurable detection
// delay, notifies every surviving node — the perfect failure detector the
// paper derives from TCP connection breaks on a LAN.
//
// This fabric exists for correctness: integration tests, failure injection
// and linearizability checking under real (non-deterministic) concurrency.
// Throughput experiments use the simulator, which models the cluster's
// bandwidth instead of the host machine's scheduler.
#pragma once

#include "net/node_loop.h"
#include "net/payload.h"

namespace hts::net {

class InMemTransport : public LoopTransport {
 public:
  explicit InMemTransport(double detection_delay_s = 0.01)
      : LoopTransport(detection_delay_s) {}
  ~InMemTransport() override { stop(); }

  /// Reliable FIFO send from any thread; from a thread doing a node's work
  /// into a parked node it may run the destination's handler before
  /// returning (Transport::send). Messages from crashed nodes, and to
  /// crashed or unknown nodes, are dropped uncharged. One transmission per
  /// call at the payload's exact wire size — the same per-batch cost model
  /// the simulator's network uses.
  void send(NodeAddress from, NodeAddress to, PayloadPtr msg) override {
    NodeLoop* src = find(from);
    NodeLoop* dst = to == from ? src : find(to);
    if (dst == nullptr || !dst->up()) return;
    if (src != nullptr && !src->up()) return;
    count_tx(src, *msg);
    dst->deliver(from, std::move(msg));
  }
};

}  // namespace hts::net
