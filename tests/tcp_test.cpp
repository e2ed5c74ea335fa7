// TcpTransport over real loopback sockets: golden frame pin against the
// wire codec, FIFO delivery, crash detection from TCP breaks, timers,
// quiescence — then the full protocol stack over sockets (ThreadedCluster
// tcp mode with crash + repair) and the multi-process deployment
// (ProcCluster: SIGKILL a server process, survivors detect and repair).
//
// This binary has a custom main: when re-exec'd as a ProcCluster server
// child it runs the server loop instead of the test suite, so it links
// GTest::gtest (not gtest_main).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/messages.h"
#include "core/topology.h"
#include "harness/proc_cluster.h"
#include "harness/threaded_cluster.h"
#include "lincheck/checker.h"
#include "net/tcp_transport.h"

namespace hts::net {
namespace {

PayloadPtr ping(RequestId r) { return make_payload<core::ClientWriteAck>(r); }

RequestId req_of(const Payload& p) {
  return static_cast<const core::ClientWriteAck&>(p).req;
}

/// Transport wired to the real message codec, ephemeral loopback ports.
TcpTransport::Options core_options(double detection_delay_s,
                                   std::vector<ProcessId> servers) {
  TcpTransport::Options o;
  o.detection_delay_s = detection_delay_s;
  o.base_port = 0;
  o.servers = std::move(servers);
  o.encode = [](const Payload& m, FrameWriter& w) {
    core::encode_message_into(m, w);
  };
  o.decode = [](std::string_view bytes) {
    return core::decode_message(bytes);
  };
  return o;
}

TEST(TcpTransport, DeliversInFifoOrderOverSockets) {
  TcpTransport t(core_options(0.05, {0, 1}));
  std::mutex mu;
  std::vector<RequestId> got;
  t.register_node(NodeAddress::server(0),
                  [&](NodeAddress, PayloadPtr m) {
                    const std::scoped_lock lock(mu);
                    got.push_back(req_of(*m));
                  });
  t.register_node(NodeAddress::server(1), [](NodeAddress, PayloadPtr) {});
  t.start();
  for (RequestId r = 1; r <= 200; ++r) {
    t.send(NodeAddress::server(1), NodeAddress::server(0), ping(r));
  }
  ASSERT_TRUE(t.wait_quiescent(10.0));
  const std::scoped_lock lock(mu);
  ASSERT_EQ(got.size(), 200u);
  for (RequestId r = 1; r <= 200; ++r) EXPECT_EQ(got[r - 1], r);
  t.stop();
}

TEST(TcpTransport, FramesAreByteIdenticalToLegacyEncoder) {
  // The golden pin: every frame body that arrives off the socket must be
  // exactly core::encode_message of the payload that was sent — the same
  // bytes InMemTransport charges for (wire_size) and the messages tests
  // round-trip. A recording decode hook captures the raw bodies.
  std::mutex mu;
  std::vector<std::string> bodies;
  auto opts = core_options(0.05, {0, 1});
  opts.decode = [&](std::string_view bytes) {
    {
      const std::scoped_lock lock(mu);
      bodies.emplace_back(bytes);
    }
    return core::decode_message(bytes);
  };
  TcpTransport t(std::move(opts));
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t.register_node(NodeAddress::server(1), [](NodeAddress, PayloadPtr) {});
  t.start();

  std::vector<PayloadPtr> sent;
  sent.push_back(make_payload<core::ClientWrite>(1, 2,
                                                 Value::synthetic(9, 1448)));
  sent.push_back(make_payload<core::WriteCommit>(Tag{3, 1}, 7, 9, /*obj=*/5));
  sent.push_back(make_payload<core::RingBatch>(std::vector<PayloadPtr>{
      make_payload<core::PreWrite>(Tag{8, 2}, Value::synthetic(11, 512), 12,
                                   13),
      make_payload<core::WriteCommit>(Tag{9, 0}, 14, 15)}));
  std::uint64_t expected_bytes = 0;
  for (const auto& m : sent) {
    expected_bytes += m->wire_size();
    t.send(NodeAddress::server(0), NodeAddress::server(1), m);
  }
  ASSERT_TRUE(t.wait_quiescent(10.0));

  const std::scoped_lock lock(mu);
  ASSERT_EQ(bodies.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(bodies[i], core::encode_message(*sent[i]))
        << sent[i]->describe();
    EXPECT_EQ(bodies[i].size(), sent[i]->wire_size());
  }
  // Same per-batch accounting as InMemTransport: one transmission per
  // send() at exactly wire_size — a batch is charged once, not per part.
  EXPECT_EQ(t.total_transmissions(), sent.size());
  EXPECT_EQ(t.total_bytes_sent(), expected_bytes);
  t.stop();
}

TEST(TcpTransport, CrashSeversConnectionsAndNotifiesSurvivors) {
  TcpTransport t(core_options(0.02, {0, 1, 2}));
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
  // Detection delay (0.02 s) plus socket-teardown slack.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(delivered_to_crashed.load(), 0);
  EXPECT_EQ(crash_notices.load(), 2) << "both survivors notified";
  EXPECT_EQ(crashed_id.load(), 0u);
  t.stop();
}

TEST(TcpTransport, CrashedNodeCannotSend) {
  TcpTransport t(core_options(0.02, {0, 1}));
  std::atomic<int> got{0};
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  t.register_node(NodeAddress::server(1),
                  [&](NodeAddress, PayloadPtr) { ++got; });
  t.start();
  t.crash(NodeAddress::server(0));
  t.send(NodeAddress::server(0), NodeAddress::server(1), ping(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(got.load(), 0);
  t.stop();
}

TEST(TcpTransport, TimersFireWithTokenInDeadlineOrder) {
  TcpTransport t(core_options(0.05, {0}));
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
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::scoped_lock lock(mu);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
  t.stop();
}

TEST(TcpTransport, QuiescenceSeesQueuedWork) {
  TcpTransport t(core_options(0.05, {0, 1}));
  std::atomic<bool> release{false};
  std::atomic<int> handled{0};
  t.register_node(NodeAddress::server(0),
                  [&](NodeAddress, PayloadPtr) {
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

TEST(TcpTransport, HandlersNeverOverlapUnderStormTimersAndCrash) {
  // One node's message, timer and crash handlers run inline on its loop
  // thread. Drive all three at once — self-sends posted from a foreign
  // thread, frames from two peers over sockets, 2,000 timers, and a crash
  // notice — and check that no two handlers of the node ever overlap.
  constexpr int kForeign = 500;
  constexpr int kPerPeer = 500;
  constexpr int kTimers = 2000;
  TcpTransport t(core_options(0.02, {0, 1, 2, 3}));
  const NodeAddress hub = NodeAddress::server(0);
  OverlapProbe probe;
  std::atomic<int> messages{0}, timers{0}, notices{0};
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
  t.crash(NodeAddress::server(3));
  for (auto& d : drivers) d.join();

  ASSERT_TRUE(t.wait_quiescent(10.0));
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(10.0);
  while (timers.load() < kTimers && clk::steady_now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(probe.overlaps.load(), 0);
  EXPECT_EQ(messages.load(), kForeign + 2 * kPerPeer);
  EXPECT_EQ(timers.load(), kTimers);
  EXPECT_EQ(notices.load(), 1);
  t.stop();
}

TEST(TcpTransport, TimersFromHandlerAndForeignThreadFireInDeadlineOrder) {
  // 1,200 tokens with shuffled deadlines 0.5 ms apart, half armed by the
  // test thread (mailbox path) and half by a message handler on the node's
  // own loop (direct heap push). arm_timer reads the clock itself, so each
  // token's deadline is only known to lie in [lo, hi]: clock before the
  // call + delay, clock after it + delay. A token may fire after another
  // only if its deadline can be the later one.
  constexpr int kTokens = 1200;
  TcpTransport t(core_options(0.05, {0}));
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

  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(10.0);
  for (;;) {
    {
      const std::scoped_lock lock(mu);
      if (fired.size() == kTokens) break;
    }
    ASSERT_LT(clk::steady_now(), deadline) << "timers did not all fire";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
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

TEST(TcpTransport, QuiescenceSeesInlineHandlersFromPeersAndTimers) {
  // A frame from a peer (sent from that peer's own handler) and a timer are
  // both handled inline on the receiving loop: while either handler runs,
  // the transport is not quiescent.
  TcpTransport t(core_options(0.05, {0, 1}));
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
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(10.0);
  // Wait until the timer handler is running (not merely pending).
  while (t.wait_quiescent(0.0) && clk::steady_now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(t.wait_quiescent(0.05)) << "inline timer handler is work";
  release = true;
  ASSERT_TRUE(t.wait_quiescent(10.0));
  EXPECT_EQ(handled.load(), 2);
  t.stop();
}

}  // namespace
}  // namespace hts::net

// --------------------------- full protocol stack over loopback sockets

namespace hts::harness {
namespace {

ThreadedClusterConfig tcp_cluster_config(std::size_t n_servers) {
  ThreadedClusterConfig cfg;
  cfg.n_servers = n_servers;
  cfg.transport = ThreadedClusterConfig::TransportKind::kTcp;
  return cfg;
}

TEST(TcpCluster, SequentialReadWriteOverSockets) {
  ThreadedCluster cluster(tcp_cluster_config(3));
  auto& client = cluster.add_client(0);
  cluster.start();

  EXPECT_TRUE(client.read().empty());
  client.write(Value::synthetic(1, 128));
  EXPECT_EQ(client.read(), Value::synthetic(1, 128));
  client.write(Value::synthetic(2, 2048));
  auto r = client.read_result();
  EXPECT_EQ(r.value, Value::synthetic(2, 2048));
  EXPECT_EQ(r.tag, (Tag{2, 0}));

  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

TEST(TcpCluster, CrashRepairCompletesOverSockets) {
  // Kill a server mid-stream: the TCP-backed detection delay fires the
  // survivors' crash handlers, the ring heals, and every subsequent op
  // completes. The recorded history must stay linearizable throughout.
  auto cfg = tcp_cluster_config(4);
  cfg.detection_delay_s = 0.02;
  ThreadedCluster cluster(cfg);
  auto& client = cluster.add_client(0);
  auto& other = cluster.add_client(2);
  cluster.start();

  for (std::uint64_t v = 1; v <= 5; ++v) {
    client.write(Value::synthetic(v, 256));
  }
  cluster.crash_server(1);
  for (std::uint64_t v = 6; v <= 12; ++v) {
    client.write(Value::synthetic(v, 256));
    EXPECT_EQ(other.read().synthetic_seed(), v);
  }
  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

TEST(TcpCluster, ConcurrentClientsLinearizableOverSockets) {
  auto cfg = tcp_cluster_config(3);
  ThreadedCluster cluster(cfg);
  std::vector<ThreadedCluster::BlockingClient*> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(&cluster.add_client(static_cast<ProcessId>(i % 3)));
  }
  cluster.start();

  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::uint64_t v = 1; v <= 15; ++v) {
        if ((c + v) % 3 == 0) {
          (void)clients[c]->read();
        } else {
          clients[c]->write(Value::synthetic(c * 100 + v, 64));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto verdict = lincheck::check_register(cluster.history());
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

TEST(TcpCluster, LiveRingAddAndCrashOverSockets) {
  // add_ring registers the new ring's servers on the running transport:
  // their loops start at once and peers reach them by lazy dials. A ring-0
  // server crashes while the grow runs; every op still completes.
  auto cfg = tcp_cluster_config(6);
  cfg.topology = core::Topology{2, 3};
  cfg.detection_delay_s = 0.02;
  cfg.client_retry_timeout_s = 0.05;
  ThreadedCluster cluster(cfg);
  auto& alice = cluster.add_client(0);
  auto& bob = cluster.add_client(3);
  cluster.start();

  constexpr ObjectId kObjects = 16;
  std::vector<std::future<core::OpResult>> acks;
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    acks.push_back(alice.async_write(obj, Value::synthetic(obj, 128)));
  }
  for (auto& a : acks) (void)a.get();
  acks.clear();
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    acks.push_back(bob.async_write(obj, Value::synthetic(100 + obj, 128)));
  }
  cluster.crash_server(1);
  EXPECT_EQ(cluster.add_ring(3), 1u);
  for (auto& a : acks) (void)a.get();

  const core::ShardMap map3(3);
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    auto r = alice.read_result(obj);
    EXPECT_EQ(r.value, Value::synthetic(100 + obj, 128)) << "object " << obj;
    EXPECT_EQ(r.ring, map3.ring_of(obj)) << "object " << obj;
  }
  auto h = cluster.history();
  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
}

// ----------------------------------------- multi-process deployment

TEST(ProcCluster, PutGetRoundTripAcrossProcesses) {
  ProcClusterConfig cfg;
  cfg.n_servers = 3;
  ProcCluster cluster(cfg);
  cluster.start();

  EXPECT_TRUE(cluster.get(1).empty());
  cluster.put(1, Value::synthetic(7, 512));
  EXPECT_EQ(cluster.get(1), Value::synthetic(7, 512));
  cluster.put(2, Value::synthetic(8, 4096));
  EXPECT_EQ(cluster.get(2), Value::synthetic(8, 4096));
  cluster.put(1, Value::synthetic(9, 64));  // overwrite
  EXPECT_EQ(cluster.get(1), Value::synthetic(9, 64));
  cluster.stop();
}

TEST(ProcCluster, SigkilledServerIsDetectedAndRepaired) {
  // The paper's failure model for real: SIGKILL a server process — the
  // kernel closes its sockets, every peer sees a bye-less TCP break, crash
  // handlers fire after the detection delay, and the surviving majority
  // keeps serving (repair over sockets).
  ProcClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.detection_delay_s = 0.02;
  ProcCluster cluster(cfg);
  cluster.start();

  cluster.put(1, Value::synthetic(1, 256));
  EXPECT_EQ(cluster.get(1), Value::synthetic(1, 256));
  EXPECT_TRUE(cluster.server_up(1));

  cluster.kill_server(1);
  ASSERT_TRUE(cluster.wait_server_down(1, 5.0))
      << "parent must detect the killed server via its broken connections";

  // Ops keep completing on the surviving majority — including ops that
  // need the ring to route around the dead slot.
  for (std::uint64_t v = 2; v <= 6; ++v) {
    cluster.put(1, Value::synthetic(v, 256));
    EXPECT_EQ(cluster.get(1), Value::synthetic(v, 256));
  }
  cluster.stop();
}

}  // namespace
}  // namespace hts::harness

int main(int argc, char** argv) {
  // A process re-exec'd as a ProcCluster server never runs the tests.
  if (hts::harness::ProcCluster::serve_child(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
