// The net::Transport contract (src/net/transport.h), checked once for every
// transport: InMemTransport and TcpTransport over loopback sockets run the
// same typed suite. FIFO order, exact per-batch byte counts, crash notices,
// no sends from the crashed, drops to unknown nodes, timers in deadline
// order, one node's handlers and execute() closures never overlapping, one
// thread's closures in call order, timers armed by a closure, a crashed
// node's queued timer, closure and crash notice dropped unrun, and
// quiescence — with queued work, with handlers and closures running
// inline, and after a crash inside a handler.
//
// sim::SimTransport runs the cases that need no real threads, as the
// SimTransportConformance suite at the end of this file. Left out, and why:
//   - exact per-batch byte counts: the simulator charges modelled wire bytes
//     (TCP/IP framing per MTU frame), not the payload's wire size;
//   - handlers, closures and timers that never overlap, closures in one
//     thread's call order, quiescence while a handler or closure runs
//     inline, timers armed from a handler and a foreign thread: all need
//     concurrent threads or wall-clock deadlines, and on the simulator every
//     handler runs on the one thread driving it, at virtual time.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "core/messages.h"
#include "net/inmem_transport.h"
#include "net/tcp_transport.h"
#include "obs/net_stats.h"
#include "sim/sim_transport.h"
#include "sim/simulator.h"

namespace hts::net {
namespace {

PayloadPtr ping(RequestId r) {
  return make_payload<core::ClientWriteAck>(r, kDefaultObject);
}

RequestId req_of(const Payload& p) {
  return static_cast<const core::ClientWriteAck&>(p).req;
}

/// A fresh transport of type T; `servers` is the deployment's server set
/// (the TCP failure-detection mesh, with the real codec and ephemeral
/// loopback ports).
template <typename T>
std::unique_ptr<T> make_transport(double detection_delay_s,
                                  std::vector<ProcessId> servers) {
  if constexpr (std::is_same_v<T, InMemTransport>) {
    return std::make_unique<InMemTransport>(detection_delay_s);
  } else {
    TcpTransport::Options o;
    o.detection_delay_s = detection_delay_s;
    o.servers = std::move(servers);
    o.encode = [](const Payload& m, FrameWriter& w) {
      core::encode_message_into(m, w);
    };
    o.decode = [](std::string_view bytes) {
      return core::decode_message(bytes);
    };
    return std::make_unique<TcpTransport>(std::move(o));
  }
}

template <typename T>
class TransportConformance : public ::testing::Test {
 protected:
  T& make(double detection_delay_s, std::vector<ProcessId> servers) {
    transport_ = make_transport<T>(detection_delay_s, std::move(servers));
    return *transport_;
  }

 private:
  std::unique_ptr<T> transport_;
};

using Transports = ::testing::Types<InMemTransport, TcpTransport>;
TYPED_TEST_SUITE(TransportConformance, Transports);

/// What the transport's nodes have sent, summed over their link counters.
obs::LinkCounters sent_by_all(const Transport& t) {
  return obs::sum_links(t.link_counters());
}

/// Polls `done` until it holds or 10 s pass.
template <typename Pred>
bool eventually(Pred done) {
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(10.0);
  while (!done()) {
    if (clk::steady_now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TYPED_TEST(TransportConformance, DeliversInFifoOrder) {
  auto& t = this->make(0.02, {0, 1});
  std::mutex mu;
  std::vector<RequestId> got;
  t.register_node(NodeAddress::server(0), [&](NodeAddress, PayloadPtr m) {
    const std::scoped_lock lock(mu);
    got.push_back(req_of(*m));
  });
  t.register_node(NodeAddress::server(1), [](NodeAddress, PayloadPtr) {});
  t.start();
  for (RequestId r = 1; r <= 200; ++r) {
    t.send(NodeAddress::server(1), NodeAddress::server(0), ping(r));
  }
  ASSERT_TRUE(t.wait_quiescent(10.0));
  {
    const std::scoped_lock lock(mu);
    ASSERT_EQ(got.size(), 200u);
    for (RequestId r = 1; r <= 200; ++r) EXPECT_EQ(got[r - 1], r);
  }
  t.stop();
}

TYPED_TEST(TransportConformance, ChargesExactPerBatchByteCounts) {
  // One send() = one transmission at the payload's exact wire size: a
  // RingBatch frame is charged once (framing included), not per part —
  // the same per-batch cost model the simulator's network uses.
  auto& t = this->make(0.02, {0, 1});
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t.register_node(NodeAddress::server(1), [](NodeAddress, PayloadPtr) {});
  t.start();

  auto single = make_payload<core::WriteCommit>(Tag{1, 0}, 7, 1,
                                                kDefaultObject);
  std::vector<PayloadPtr> parts;
  parts.push_back(make_payload<core::PreWrite>(Tag{2, 0},
                                               Value::synthetic(1, 512), 7, 2,
                                               kDefaultObject));
  parts.push_back(make_payload<core::WriteCommit>(Tag{1, 0}, 7, 1,
                                                  kDefaultObject));
  auto batch = make_payload<core::RingBatch>(std::move(parts));
  const std::uint64_t expected_bytes = single->wire_size() + batch->wire_size();

  t.send(NodeAddress::server(0), NodeAddress::server(1), single);
  t.send(NodeAddress::server(0), NodeAddress::server(1), batch);
  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_EQ(sent_by_all(t).tx_messages, 2u);
  EXPECT_EQ(sent_by_all(t).tx_bytes, expected_bytes);

  // Dropped sends (dead destination) are not charged.
  t.crash(NodeAddress::server(1));
  ASSERT_TRUE(t.wait_quiescent(10.0));
  t.send(NodeAddress::server(0), NodeAddress::server(1), ping(9));
  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_EQ(sent_by_all(t).tx_messages, 2u);
  EXPECT_EQ(sent_by_all(t).tx_bytes, expected_bytes);
  t.stop();
}

TYPED_TEST(TransportConformance, CrashStopsDeliveryAndNotifiesSurvivors) {
  auto& t = this->make(0.02, {0, 1, 2});
  std::atomic<int> delivered_to_crashed{0};
  std::atomic<int> crash_notices{0};
  std::atomic<ProcessId> crashed_id{kNoProcess};
  t.register_node(NodeAddress::server(0),
                  [&](NodeAddress, PayloadPtr) { ++delivered_to_crashed; });
  t.register_node(
      NodeAddress::server(1), [](NodeAddress, PayloadPtr) {},
      [&](ProcessId p) {
        ++crash_notices;
        crashed_id = p;
      });
  t.register_node(
      NodeAddress::server(2), [](NodeAddress, PayloadPtr) {},
      [&](ProcessId) { ++crash_notices; });
  t.start();

  t.crash(NodeAddress::server(0));
  EXPECT_FALSE(t.is_up(NodeAddress::server(0)));
  t.send(NodeAddress::server(1), NodeAddress::server(0), ping(1));
  // Pending crash notices count as work: quiescence implies delivery.
  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_EQ(delivered_to_crashed.load(), 0);
  EXPECT_EQ(crash_notices.load(), 2) << "both survivors notified";
  EXPECT_EQ(crashed_id.load(), 0u);
  t.stop();
}

TYPED_TEST(TransportConformance, CrashedNodeCannotSend) {
  auto& t = this->make(0.02, {0, 1});
  std::atomic<int> got{0};
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t.register_node(NodeAddress::server(1),
                  [&](NodeAddress, PayloadPtr) { ++got; });
  t.start();
  t.crash(NodeAddress::server(0));
  t.send(NodeAddress::server(0), NodeAddress::server(1), ping(1));
  ASSERT_TRUE(t.wait_quiescent(10.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(got.load(), 0);
  EXPECT_EQ(sent_by_all(t).tx_messages, 0u);
  t.stop();
}

TYPED_TEST(TransportConformance, SendToUnknownNodeIsDropped) {
  auto& t = this->make(0.02, {0});
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t.start();
  t.send(NodeAddress::server(0), NodeAddress::server(99), ping(1));
  EXPECT_TRUE(t.wait_quiescent(5.0));
  EXPECT_EQ(sent_by_all(t).tx_messages, 0u);
  t.stop();
}

TYPED_TEST(TransportConformance, TimersFireWithTokenInDeadlineOrder) {
  auto& t = this->make(0.02, {0});
  std::mutex mu;
  std::vector<std::uint64_t> order;
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t.register_node(
      NodeAddress::client(1), [](NodeAddress, PayloadPtr) {}, nullptr,
      [&](std::uint64_t token) {
        const std::scoped_lock lock(mu);
        order.push_back(token);
      });
  t.start();
  t.arm_timer(NodeAddress::client(1), 0.05, 3);
  t.arm_timer(NodeAddress::client(1), 0.01, 1);
  t.arm_timer(NodeAddress::client(1), 0.03, 2);
  ASSERT_TRUE(eventually([&] {
    const std::scoped_lock lock(mu);
    return order.size() == 3;
  }));
  {
    const std::scoped_lock lock(mu);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
  }
  t.stop();
}

TYPED_TEST(TransportConformance, QuiescenceSeesQueuedWork) {
  auto& t = this->make(0.02, {0, 1});
  std::atomic<bool> release{false};
  std::atomic<int> handled{0};
  t.register_node(NodeAddress::server(0), [&](NodeAddress, PayloadPtr) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ++handled;
  });
  t.register_node(NodeAddress::server(1), [](NodeAddress, PayloadPtr) {});
  t.start();
  t.send(NodeAddress::server(1), NodeAddress::server(0), ping(1));
  EXPECT_FALSE(t.wait_quiescent(0.05)) << "busy node is not quiescent";
  release = true;
  EXPECT_TRUE(t.wait_quiescent(10.0));
  EXPECT_EQ(handled.load(), 1);
  t.stop();
}

TYPED_TEST(TransportConformance,
           QuiescenceSeesInlineHandlersFromPeersAndTimers) {
  // A message from a peer (sent from that peer's own handler) and a timer
  // are both handled on the receiving node's loop: while either handler
  // runs, the transport is not quiescent.
  auto& t = this->make(0.02, {0, 1});
  std::atomic<bool> release{false};
  std::atomic<int> handled{0};
  const auto hold = [&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ++handled;
  };
  const NodeAddress s0 = NodeAddress::server(0);
  const NodeAddress s1 = NodeAddress::server(1);
  t.register_node(
      s0, [&](NodeAddress, PayloadPtr) { hold(); }, nullptr,
      [&](std::uint64_t) { hold(); });
  t.register_node(s1, [&](NodeAddress from, PayloadPtr m) {
    if (from == s1) t.send(s1, s0, std::move(m));  // relay from the loop
  });
  t.start();

  t.send(s1, s1, ping(1));
  EXPECT_FALSE(t.wait_quiescent(0.05)) << "inline message handler is work";
  release = true;
  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_EQ(handled.load(), 1);

  release = false;
  t.arm_timer(s0, 0.0, 1);
  // Wait until the timer handler is running (not merely pending).
  ASSERT_TRUE(eventually([&] { return !t.wait_quiescent(0.0); }));
  EXPECT_FALSE(t.wait_quiescent(0.05)) << "inline timer handler is work";
  release = true;
  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_EQ(handled.load(), 2);

  // An execute() closure is work too, wherever it runs: on the loop, or on
  // the helper thread that called execute() while the loop was parked.
  release = false;
  std::thread helper([&] { t.execute(s0, hold); });
  const bool seen_busy = eventually([&] { return !t.wait_quiescent(0.0); });
  const bool quiet_while_held = t.wait_quiescent(0.05);
  release = true;
  helper.join();
  EXPECT_TRUE(seen_busy) << "closure never seen as work";
  EXPECT_FALSE(quiet_while_held) << "running closure is work";
  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_EQ(handled.load(), 3);
  t.stop();
}

TYPED_TEST(TransportConformance, QuiescentAfterCrashInsideAHandler) {
  // Node 0's handler sends to node 1 (hosted on the same transport), then
  // node 0 crashes before the handler returns. Whatever the crash drops —
  // on TCP, a frame staged but never written — must not count as work
  // forever.
  auto& t = this->make(0.02, {0, 1});
  const NodeAddress s0 = NodeAddress::server(0);
  const NodeAddress s1 = NodeAddress::server(1);
  std::atomic<bool> entered{false};
  std::atomic<bool> crashed{false};
  t.register_node(s0, [&](NodeAddress, PayloadPtr) {
    t.send(s0, s1, ping(2));
    entered = true;
    while (!crashed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  t.register_node(s1, [](NodeAddress, PayloadPtr) {});
  t.start();
  t.send(s1, s0, ping(1));
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  t.crash(s0);
  crashed = true;
  EXPECT_TRUE(t.wait_quiescent(2.0));
  t.stop();
}

TYPED_TEST(TransportConformance, CrashedNodeDropsTheWorkInItsMailbox) {
  // While node 0's message handler holds its loop, three items wait in its
  // mailbox: a timer armed from a foreign thread, an execute() closure and
  // the notice of node 3's crash. Node 0 crashes before the handler
  // returns. Work owed to a crashed node is never done: no timer handler,
  // closure or notice runs on node 0, each survivor gets one notice per
  // crash, and the transport goes quiescent although node 0's own notice
  // of node 3 never fires.
  auto& t = this->make(0.02, {0, 1, 2, 3});
  const NodeAddress s0 = NodeAddress::server(0);
  std::atomic<bool> entered{false}, release{false};
  std::atomic<int> timers{0}, closures{0}, own_notices{0};
  std::atomic<int> notices[3][4] = {};  // [survivor][crashed server]
  t.register_node(
      s0,
      [&](NodeAddress, PayloadPtr) {
        entered = true;
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      [&](ProcessId) { ++own_notices; }, [&](std::uint64_t) { ++timers; });
  for (const ProcessId s : {1, 2}) {
    t.register_node(
        NodeAddress::server(s), [](NodeAddress, PayloadPtr) {},
        [&notices, s](ProcessId p) { ++notices[s][p]; });
  }
  t.register_node(NodeAddress::server(3), [](NodeAddress, PayloadPtr) {});
  t.start();
  t.send(NodeAddress::server(1), s0, ping(1));
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  t.arm_timer(s0, 0.0, 7);
  t.execute(s0, [&] { ++closures; });
  t.crash(NodeAddress::server(3));
  t.crash(s0);
  release = true;
  // Pending crash notices count as work: quiescence implies delivery.
  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_EQ(timers.load(), 0);
  EXPECT_EQ(closures.load(), 0);
  EXPECT_EQ(own_notices.load(), 0);
  for (const ProcessId s : {1, 2}) {
    EXPECT_EQ(notices[s][0].load(), 1) << "survivor " << s;
    EXPECT_EQ(notices[s][3].load(), 1) << "survivor " << s;
  }
  t.stop();
}

/// Flags any two handlers of one node that overlap in time.
struct OverlapProbe {
  std::atomic<bool> inside{false};
  std::atomic<int> overlaps{0};
  void enter() {
    if (inside.exchange(true)) ++overlaps;
    std::this_thread::yield();  // widen the window a racing handler would hit
  }
  void leave() { inside = false; }
};

TYPED_TEST(TransportConformance, HandlersNeverOverlapUnderStormTimersAndCrash) {
  // One node's message, timer and crash handlers and its execute()
  // closures run serialized. Drive all four at once — self-sends from a
  // foreign thread, messages from two peers, 2,000 timers, a crash notice,
  // and closures from another foreign thread (inline whenever the loop is
  // parked) — and check that no two of them ever overlap.
  constexpr int kForeign = 500;
  constexpr int kPerPeer = 500;
  constexpr int kTimers = 2000;
  constexpr int kClosures = 500;
  auto& t = this->make(0.02, {0, 1, 2, 3});
  const NodeAddress hub = NodeAddress::server(0);
  OverlapProbe probe;
  std::atomic<int> messages{0}, timers{0}, notices{0}, closures{0};
  t.register_node(
      hub,
      [&](NodeAddress, PayloadPtr) {
        probe.enter();
        ++messages;
        probe.leave();
      },
      [&](ProcessId) {
        probe.enter();
        ++notices;
        probe.leave();
      },
      [&](std::uint64_t) {
        probe.enter();
        ++timers;
        probe.leave();
      });
  for (ProcessId p = 1; p <= 3; ++p) {
    t.register_node(NodeAddress::server(p), [](NodeAddress, PayloadPtr) {});
  }
  t.start();

  std::vector<std::thread> drivers;
  drivers.emplace_back([&] {
    for (int i = 0; i < kForeign; ++i) t.send(hub, hub, ping(i));
  });
  for (ProcessId p = 1; p <= 2; ++p) {
    drivers.emplace_back([&, p] {
      for (int i = 0; i < kPerPeer; ++i) {
        t.send(NodeAddress::server(p), hub, ping(i));
      }
    });
  }
  drivers.emplace_back([&] {
    for (int i = 0; i < kTimers; ++i) {
      t.arm_timer(hub, 0.001 * (i % 50), static_cast<std::uint64_t>(i));
    }
  });
  drivers.emplace_back([&] {
    for (int i = 0; i < kClosures; ++i) {
      t.execute(hub, [&] {
        probe.enter();
        ++closures;
        probe.leave();
      });
    }
  });
  t.crash(NodeAddress::server(3));
  for (auto& d : drivers) d.join();

  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_TRUE(eventually([&] { return timers.load() == kTimers; }));
  EXPECT_EQ(probe.overlaps.load(), 0);
  EXPECT_EQ(messages.load(), kForeign + 2 * kPerPeer);
  EXPECT_EQ(timers.load(), kTimers);
  EXPECT_EQ(notices.load(), 1);
  EXPECT_EQ(closures.load(), kClosures);
  t.stop();
}

TYPED_TEST(TransportConformance, RunningClosureHoldsOffTheNodesHandlers) {
  // While a closure runs — inline on its caller's thread or on the loop —
  // the node's handlers wait: a message and a due timer that arrive
  // meanwhile run only after it returns.
  auto& t = this->make(0.02, {0, 1});
  const NodeAddress node = NodeAddress::server(0);
  const NodeAddress peer = NodeAddress::server(1);
  OverlapProbe probe;
  std::atomic<int> messages{0}, timers{0};
  std::atomic<bool> entered{false}, release{false};
  t.register_node(
      node,
      [&](NodeAddress, PayloadPtr) {
        probe.enter();
        ++messages;
        probe.leave();
      },
      nullptr,
      [&](std::uint64_t) {
        probe.enter();
        ++timers;
        probe.leave();
      });
  t.register_node(peer, [](NodeAddress, PayloadPtr) {});
  t.start();
  ASSERT_TRUE(t.wait_quiescent(10.0));
  std::thread helper([&] {
    t.execute(node, [&] {
      probe.enter();
      entered = true;
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      probe.leave();
    });
  });
  const bool ran = eventually([&] { return entered.load(); });
  t.send(peer, node, ping(1));
  t.arm_timer(node, 0.0, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const int messages_while_held = messages.load();
  const int timers_while_held = timers.load();
  release = true;
  helper.join();
  ASSERT_TRUE(ran);
  EXPECT_EQ(messages_while_held, 0);
  EXPECT_EQ(timers_while_held, 0);
  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_TRUE(eventually([&] { return timers.load() == 1; }));
  EXPECT_EQ(messages.load(), 1);
  EXPECT_EQ(probe.overlaps.load(), 0);
  t.stop();
}

TYPED_TEST(TransportConformance, ExecuteClosuresFromOneThreadRunInCallOrder) {
  // One foreign thread's closures run in call order while the node's loop
  // alternates between busy (every 16th closure sleeps, so later calls
  // queue behind it) and parked (the caller pauses every 64 calls, so the
  // next call may run inline).
  constexpr int kClosures = 1000;
  auto& t = this->make(0.02, {0});
  const NodeAddress node = NodeAddress::server(0);
  std::vector<int> order;  // written only by closures, which never overlap
  t.register_node(node, [](NodeAddress, PayloadPtr) {});
  t.start();
  std::thread caller([&] {
    for (int i = 0; i < kClosures; ++i) {
      t.execute(node, [&order, i] {
        order.push_back(i);
        if (i % 16 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
      if (i % 64 == 63) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  });
  caller.join();
  ASSERT_TRUE(t.wait_quiescent(10.0));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kClosures));
  for (int i = 0; i < kClosures; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "closure " << i;
  }
  t.stop();
}

TYPED_TEST(TransportConformance, TimerArmedInsideAnExecuteClosureFires) {
  // No timer is pending, so the idle loop sleeps with no deadline. A
  // closure from a foreign thread arms one 20 ms ahead: run inline, it must
  // wake the loop to sleep until that deadline instead.
  auto& t = this->make(0.02, {0});
  const NodeAddress node = NodeAddress::client(1);
  std::atomic<bool> fired{false};
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t.register_node(
      node, [](NodeAddress, PayloadPtr) {}, nullptr,
      [&](std::uint64_t token) {
        if (token == 7) fired = true;
      });
  t.start();
  ASSERT_TRUE(t.wait_quiescent(10.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  const clk::SteadyTime armed = clk::steady_now();
  std::thread caller(
      [&] { t.execute(node, [&] { t.arm_timer(node, 0.02, 7); }); });
  caller.join();
  while (!fired.load() &&
         clk::steady_now() - armed < std::chrono::seconds(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fired.load()) << "the timer did not fire within 1 s";
  t.stop();
}

TYPED_TEST(TransportConformance,
           TimersFromHandlerAndForeignThreadFireInDeadlineOrder) {
  // 1,200 tokens with shuffled deadlines 0.5 ms apart, half armed by the
  // test thread (mailbox path) and half by a message handler on the node's
  // own loop (direct heap push). arm_timer reads the clock itself, so each
  // token's deadline is only known to lie in [lo, hi]: clock before the
  // call + delay, clock after it + delay. A token may fire after another
  // only if its deadline can be the later one.
  constexpr int kTokens = 1200;
  auto& t = this->make(0.02, {0});
  const NodeAddress node = NodeAddress::client(1);
  std::vector<int> ranks(kTokens);
  for (int r = 0; r < kTokens; ++r) ranks[r] = r;
  std::mt19937 rng(7);
  std::shuffle(ranks.begin(), ranks.end(), rng);
  const clk::SteadyTime base =
      clk::steady_now() + clk::seconds_to_duration(0.2);
  std::vector<clk::SteadyTime> lo(kTokens), hi(kTokens);
  const auto arm = [&](int r) {
    const clk::SteadyTime before = clk::steady_now();
    const clk::SteadyDuration delay =
        base - before + clk::seconds_to_duration(0.0005 * r);
    t.arm_timer(node, std::chrono::duration<double>(delay).count(),
                static_cast<std::uint64_t>(r));
    lo[r] = before + delay;
    hi[r] = clk::steady_now() + delay;
  };
  std::mutex mu;
  std::vector<std::uint64_t> fired;
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t.register_node(
      node,
      [&](NodeAddress, PayloadPtr) {
        for (int i = kTokens / 2; i < kTokens; ++i) arm(ranks[i]);
      },
      nullptr,
      [&](std::uint64_t token) {
        const std::scoped_lock lock(mu);
        fired.push_back(token);
      });
  t.start();
  t.send(node, node, ping(1));  // the handler arms its half on the loop
  for (int i = 0; i < kTokens / 2; ++i) arm(ranks[i]);

  ASSERT_TRUE(eventually([&] {
    const std::scoped_lock lock(mu);
    return fired.size() == kTokens;
  })) << "timers did not all fire";
  t.stop();
  const std::scoped_lock lock(mu);
  clk::SteadyTime latest_lo = lo[fired.front()];
  for (const std::uint64_t token : fired) {
    EXPECT_GE(hi[token], latest_lo) << "token " << token << " fired late";
    latest_lo = std::max(latest_lo, lo[token]);
  }
  std::vector<std::uint64_t> sorted = fired;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

// ------------------------------------------------------------ simulator

class SimTransportConformance : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  sim::SimTransport t_{sim_, sim::SimTransport::Options{}};
};

TEST_F(SimTransportConformance, DeliversInFifoOrder) {
  std::vector<RequestId> got;
  t_.register_node(NodeAddress::server(0), [&](NodeAddress from, PayloadPtr m) {
    EXPECT_EQ(from, NodeAddress::server(1));
    got.push_back(req_of(*m));
  });
  t_.register_node(NodeAddress::server(1), [](NodeAddress, PayloadPtr) {});
  t_.start();
  for (RequestId r = 1; r <= 200; ++r) {
    t_.send(NodeAddress::server(1), NodeAddress::server(0), ping(r));
  }
  ASSERT_TRUE(t_.wait_quiescent(10.0));
  ASSERT_EQ(got.size(), 200u);
  for (RequestId r = 1; r <= 200; ++r) EXPECT_EQ(got[r - 1], r);
  t_.stop();
}

TEST_F(SimTransportConformance, CrashStopsDeliveryAndNotifiesSurvivors) {
  int delivered_to_crashed = 0;
  int crash_notices = 0;
  ProcessId crashed_id = kNoProcess;
  t_.register_node(NodeAddress::server(0),
                   [&](NodeAddress, PayloadPtr) { ++delivered_to_crashed; });
  t_.register_node(
      NodeAddress::server(1), [](NodeAddress, PayloadPtr) {},
      [&](ProcessId p) {
        ++crash_notices;
        crashed_id = p;
      });
  t_.register_node(
      NodeAddress::server(2), [](NodeAddress, PayloadPtr) {},
      [&](ProcessId) { ++crash_notices; });
  t_.start();
  // A message already on the wire dies with its destination too.
  t_.send(NodeAddress::server(2), NodeAddress::server(0), ping(1));
  t_.crash(NodeAddress::server(0));
  EXPECT_FALSE(t_.is_up(NodeAddress::server(0)));
  t_.send(NodeAddress::server(1), NodeAddress::server(0), ping(2));
  EXPECT_EQ(crash_notices, 0) << "detection takes the detection delay";
  ASSERT_TRUE(t_.wait_quiescent(10.0));
  EXPECT_EQ(delivered_to_crashed, 0);
  EXPECT_EQ(crash_notices, 2) << "both survivors notified";
  EXPECT_EQ(crashed_id, 0u);
  EXPECT_DOUBLE_EQ(sim_.now(), sim::SimTransport::Options{}.detection_delay_s);
  t_.stop();
}

TEST_F(SimTransportConformance, CrashedNodeCannotSend) {
  int got = 0;
  t_.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t_.register_node(NodeAddress::server(1),
                   [&](NodeAddress, PayloadPtr) { ++got; });
  t_.start();
  t_.crash(NodeAddress::server(0));
  t_.send(NodeAddress::server(0), NodeAddress::server(1), ping(1));
  ASSERT_TRUE(t_.wait_quiescent(10.0));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(sent_by_all(t_).tx_messages, 0u);
  t_.stop();
}

TEST_F(SimTransportConformance, SendToUnknownNodeIsDropped) {
  t_.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t_.start();
  t_.send(NodeAddress::server(0), NodeAddress::server(99), ping(1));
  EXPECT_TRUE(t_.wait_quiescent(5.0));
  EXPECT_EQ(sent_by_all(t_).tx_messages, 0u);
  EXPECT_EQ(sim_.pending_events(), 0u);
  t_.stop();
}

TEST_F(SimTransportConformance, TimersFireWithTokenInDeadlineOrder) {
  std::vector<std::uint64_t> order;
  std::vector<double> fired_at;
  t_.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t_.register_node(
      NodeAddress::client(1), [](NodeAddress, PayloadPtr) {}, nullptr,
      [&](std::uint64_t token) {
        order.push_back(token);
        fired_at.push_back(sim_.now());
      });
  t_.start();
  t_.arm_timer(NodeAddress::client(1), 0.05, 3);
  t_.arm_timer(NodeAddress::client(1), 0.01, 1);
  t_.arm_timer(NodeAddress::client(1), 0.03, 2);
  ASSERT_TRUE(t_.wait_quiescent(10.0));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(fired_at, (std::vector<double>{0.01, 0.03, 0.05}));
  t_.stop();
}

TEST_F(SimTransportConformance, TimerArmedInsideAnExecuteClosureFires) {
  const NodeAddress node = NodeAddress::client(1);
  bool ran_inline = false;
  bool fired = false;
  t_.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t_.register_node(
      node, [](NodeAddress, PayloadPtr) {}, nullptr,
      [&](std::uint64_t token) { fired = token == 7; });
  t_.start();
  t_.execute(node, [&] {
    ran_inline = true;
    t_.arm_timer(node, 0.02, 7);
  });
  EXPECT_TRUE(ran_inline) << "execute() runs at the current virtual time";
  ASSERT_TRUE(t_.wait_quiescent(10.0));
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim_.now(), 0.02);
  t_.stop();
}

TEST_F(SimTransportConformance, QuiescenceSeesQueuedWork) {
  // Accepted mail is work: wait_quiescent() returns only once it has been
  // handled, however far in virtual time that lies.
  int handled = 0;
  t_.register_node(NodeAddress::server(0),
                   [&](NodeAddress, PayloadPtr) { ++handled; });
  t_.register_node(NodeAddress::server(1), [](NodeAddress, PayloadPtr) {});
  t_.start();
  t_.send(NodeAddress::server(1), NodeAddress::server(0), ping(1));
  EXPECT_EQ(handled, 0) << "a send is delivered after its transmission";
  EXPECT_GT(sim_.pending_events(), 0u);
  EXPECT_TRUE(t_.wait_quiescent(10.0));
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(sim_.pending_events(), 0u);
  t_.stop();
}

TEST_F(SimTransportConformance, QuiescentAfterCrashInsideAHandler) {
  // Node 0's handler sends to node 1, then node 0 crashes before the
  // handler returns. The frame it put on the wire still arrives (it left
  // before the crash), and nothing is left counting as work.
  const NodeAddress s0 = NodeAddress::server(0);
  const NodeAddress s1 = NodeAddress::server(1);
  std::vector<RequestId> at_s1;
  t_.register_node(s0, [&](NodeAddress, PayloadPtr) {
    t_.send(s0, s1, ping(2));
    t_.crash(s0);
  });
  t_.register_node(s1, [&](NodeAddress, PayloadPtr m) {
    at_s1.push_back(req_of(*m));
  });
  t_.start();
  t_.send(s1, s0, ping(1));
  EXPECT_TRUE(t_.wait_quiescent(2.0));
  EXPECT_EQ(at_s1, (std::vector<RequestId>{2}));
  EXPECT_EQ(sim_.pending_events(), 0u);
  t_.stop();
}

}  // namespace
}  // namespace hts::net
