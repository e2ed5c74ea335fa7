// TcpTransport over real loopback sockets: golden frame pin against the
// wire codec, crash detection from TCP breaks, and replies on the
// connection the client dialed (in order; a stop on it told apart from a
// crash) — then the full protocol
// stack over sockets (ThreadedCluster tcp mode with crash + repair) and the
// multi-process deployment (ProcCluster: SIGKILL a server process,
// survivors detect and repair). The net::Transport contract both
// transports share is checked in tests/transport_conformance_test.cpp.
//
// This binary has a custom main: when re-exec'd as a ProcCluster server
// child it runs the server loop instead of the test suite, so it links
// GTest::gtest (not gtest_main).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/serialize.h"
#include "core/messages.h"
#include "core/topology.h"
#include "harness/proc_cluster.h"
#include "harness/threaded_cluster.h"
#include "lincheck/checker.h"
#include "net/tcp_transport.h"

namespace hts::net {
namespace {

PayloadPtr ping(RequestId r) {
  return make_payload<core::ClientWriteAck>(r, kDefaultObject);
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
                                                 Value::synthetic(9, 1448),
                                                 kDefaultObject));
  sent.push_back(make_payload<core::WriteCommit>(Tag{3, 1}, 7, 9, /*obj=*/5));
  sent.push_back(make_payload<core::RingBatch>(std::vector<PayloadPtr>{
      make_payload<core::PreWrite>(Tag{8, 2}, Value::synthetic(11, 512), 12,
                                   13, kDefaultObject),
      make_payload<core::WriteCommit>(Tag{9, 0}, 14, 15, kDefaultObject)}));
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
  // Socket-break detection: two transports in one process, as two server
  // processes would be. Crashing server 0 on its transport severs its
  // connections without a bye; the other transport learns of the crash only
  // from the broken sockets, and notifies server 1 after the detection
  // delay.
  std::atomic<int> delivered_to_crashed{0};
  std::atomic<int> crash_notices{0};
  std::atomic<ProcessId> crashed_id{kNoProcess};
  TcpTransport a(core_options(0.02, {0, 1}));
  TcpTransport b(core_options(0.02, {0, 1}));
  a.register_node(NodeAddress::server(0),
                  [&](NodeAddress, PayloadPtr) { ++delivered_to_crashed; });
  b.register_node(
      NodeAddress::server(1), [](NodeAddress, PayloadPtr) {},
      [&](ProcessId p) {
        ++crash_notices;
        crashed_id = p;
      });
  a.start();
  b.start();
  EXPECT_TRUE(b.is_up(NodeAddress::server(0)));

  a.crash(NodeAddress::server(0));
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(10.0);
  while (crash_notices.load() == 0 && clk::steady_now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  b.send(NodeAddress::server(1), NodeAddress::server(0), ping(1));
  ASSERT_TRUE(b.wait_quiescent(10.0));
  EXPECT_EQ(crash_notices.load(), 1) << "the break is noticed once";
  EXPECT_EQ(crashed_id.load(), 0u);
  EXPECT_FALSE(b.is_up(NodeAddress::server(0)));
  EXPECT_EQ(delivered_to_crashed.load(), 0);
  b.stop();
  a.stop();
}

/// Polls until `done` holds or 10 s pass.
template <typename Pred>
bool eventually(Pred done) {
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(10.0);
  while (!done()) {
    if (clk::steady_now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// A server node that answers every message with the same payload.
void register_echo_server(TcpTransport& t, ProcessId id) {
  const NodeAddress self = NodeAddress::server(id);
  t.register_node(self, [&t, self](NodeAddress from, PayloadPtr m) {
    t.send(self, from, std::move(m));
  });
}

TEST(TcpTransport, ServerAnswersOnTheConnectionTheClientDialed) {
  // The client is a bare socket with no listener, so no port exists for
  // the server to dial back to: the reply can only come back on the
  // connection the client opened.
  TcpTransport t(core_options(0.05, {0}));
  register_echo_server(t, 0);
  t.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(t.port_of(NodeAddress::server(0)));
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  Encoder out;
  out.u32(TcpTransport::kMagic);
  out.u8(static_cast<std::uint8_t>(NodeAddress::Kind::kClient));
  out.u64(7);
  out.u8(static_cast<std::uint8_t>(NodeAddress::Kind::kServer));
  out.u64(0);
  out.bytes(core::encode_message(*ping(41)));  // one u32-prefixed frame
  ASSERT_EQ(::send(fd, out.result().data(), out.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(out.size()));

  std::string in;
  const clk::SteadyTime deadline =
      clk::steady_now() + clk::seconds_to_duration(5.0);
  const auto frame_len = [&in] {
    return in.size() < 4 ? ~std::size_t{0} : Decoder(in).u32() + 4;
  };
  while (in.size() < frame_len() && clk::steady_now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 50) != 1) continue;
    char buf[4096];
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got <= 0) break;
    in.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  ASSERT_GE(in.size(), 4u) << "no reply on the dialed connection";
  ASSERT_EQ(in.size(), frame_len());
  const PayloadPtr reply = core::decode_message(std::string_view(in).substr(4));
  ASSERT_EQ(reply->kind(), core::kClientWriteAck);
  EXPECT_EQ(static_cast<const core::ClientWriteAck&>(*reply).req, 41u);
  t.stop();
}

TEST(TcpTransport, RepliesToInterleavedRequestsArriveInOrder) {
  // Two clients on one transport and the server on another, as separate
  // processes would be, interleave their requests; every tenth one carries 256 KiB so both directions of each
  // shared connection fill their socket buffers at once. Each client must
  // see its replies in the order it sent the requests.
  constexpr RequestId kRequests = 200;
  TcpTransport srv(core_options(0.05, {0}));
  TcpTransport cli(core_options(0.05, {0}));
  register_echo_server(srv, 0);
  std::mutex mu;
  std::vector<RequestId> seen[2];
  for (ClientId c = 0; c < 2; ++c) {
    cli.register_node(NodeAddress::client(c),
                      [&, c](NodeAddress, PayloadPtr m) {
                        const std::scoped_lock lock(mu);
                        seen[c].push_back(
                            static_cast<const core::ClientWrite&>(*m).req);
                      });
  }
  srv.start();
  cli.start();
  for (RequestId r = 1; r <= kRequests; ++r) {
    for (ClientId c = 0; c < 2; ++c) {
      const std::size_t size = r % 10 == 0 ? 256 * 1024 : 64;
      cli.send(NodeAddress::client(c), NodeAddress::server(0),
               make_payload<core::ClientWrite>(c, r, Value::synthetic(r, size),
                                               kDefaultObject));
    }
  }
  ASSERT_TRUE(eventually([&] {
    const std::scoped_lock lock(mu);
    return seen[0].size() == kRequests && seen[1].size() == kRequests;
  }));
  for (ClientId c = 0; c < 2; ++c) {
    for (RequestId r = 1; r <= kRequests; ++r) {
      EXPECT_EQ(seen[c][r - 1], r) << "client " << c;
    }
  }
  cli.stop();
  srv.stop();
}

TEST(TcpTransport, SharedConnectionTellsAStopFromACrash) {
  // Request and reply share the client's connection, so the server's end
  // of it is both the server's egress and its only link to the client. A
  // graceful stop says bye on it — no crash notice at the client — while a
  // crash breaks it without one, and the client learns of the crash.
  for (const bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "crash" : "graceful stop");
    std::atomic<int> replies{0};
    std::atomic<int> notices{0};
    TcpTransport srv(core_options(0.02, {0}));
    TcpTransport cli(core_options(0.02, {0}));
    register_echo_server(srv, 0);
    cli.register_node(
        NodeAddress::client(3), [&](NodeAddress, PayloadPtr) { ++replies; },
        [&](ProcessId) { ++notices; });
    srv.start();
    cli.start();
    cli.send(NodeAddress::client(3), NodeAddress::server(0), ping(1));
    ASSERT_TRUE(eventually([&] { return replies.load() == 1; }));

    if (crash) {
      srv.crash(NodeAddress::server(0));
      ASSERT_TRUE(eventually([&] { return notices.load() == 1; }));
      EXPECT_FALSE(cli.is_up(NodeAddress::server(0)));
    } else {
      srv.stop();
      // Ten detection delays: a notice the close raised would have fired.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      EXPECT_EQ(notices.load(), 0);
      EXPECT_TRUE(cli.is_up(NodeAddress::server(0)));
    }
    cli.stop();
    srv.stop();
  }
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

  EXPECT_TRUE(client.read(kDefaultObject).empty());
  client.write(kDefaultObject, Value::synthetic(1, 128));
  EXPECT_EQ(client.read(kDefaultObject), Value::synthetic(1, 128));
  client.write(kDefaultObject, Value::synthetic(2, 2048));
  auto r = client.read_result(kDefaultObject);
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
    client.write(kDefaultObject, Value::synthetic(v, 256));
  }
  cluster.crash_server(1);
  for (std::uint64_t v = 6; v <= 12; ++v) {
    client.write(kDefaultObject, Value::synthetic(v, 256));
    EXPECT_EQ(other.read(kDefaultObject).synthetic_seed(), v);
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
          (void)clients[c]->read(kDefaultObject);
        } else {
          clients[c]->write(kDefaultObject, Value::synthetic(c * 100 + v, 64));
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
