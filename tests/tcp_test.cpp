// TcpTransport over real loopback sockets: golden frame pin against the
// wire codec, crash detection from TCP breaks, and replies on the
// connection the client dialed (in order; a stop on it told apart from a
// crash), foreign-thread sends and closures in call order, a dead mesh
// server met at start(), ports known only for hosted
// nodes and handed-in listeners — then the full protocol stack over
// sockets (ThreadedCluster tcp mode with crash + repair; two deployments
// built before either starts) and the multi-process deployment
// (ProcCluster: SIGKILL a server process, survivors detect and repair, its
// port then refuses dials; two deployments side by side). The
// net::Transport contract both transports share is checked in
// tests/transport_conformance_test.cpp.
//
// This binary has a custom main: when re-exec'd as a ProcCluster server
// child it runs the server loop instead of the test suite, so it links
// GTest::gtest (not gtest_main).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <future>
#include <mutex>
#include <stdexcept>
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
#include "obs/net_stats.h"

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
  o.servers = std::move(servers);
  o.encode = [](const Payload& m, FrameWriter& w) {
    core::encode_message_into(m, w);
  };
  o.decode = [](std::string_view bytes) {
    return core::decode_message(bytes);
  };
  return o;
}

/// Server `id`'s listener for a deployment split over two transports in
/// this process, bound here as ProcCluster binds one in the parent: `host`
/// adopts the fd, `other` learns only the port.
void split_listener(ProcessId id, TcpTransport::Options& host,
                    TcpTransport::Options& other) {
  const TcpTransport::Listener l = TcpTransport::listen_ephemeral();
  host.listeners[NodeAddress::server(id)] = l;
  other.listeners[NodeAddress::server(id)].port = l.port;
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
  const obs::LinkCounters total = obs::sum_links(t.link_counters());
  EXPECT_EQ(total.tx_messages, sent.size());
  EXPECT_EQ(total.tx_bytes, expected_bytes);
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
  auto oa = core_options(0.02, {0, 1});
  auto ob = core_options(0.02, {0, 1});
  split_listener(0, oa, ob);
  split_listener(1, ob, oa);
  TcpTransport a(std::move(oa));
  TcpTransport b(std::move(ob));
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
  auto so = core_options(0.05, {0});
  auto co = core_options(0.05, {0});
  split_listener(0, so, co);
  TcpTransport srv(std::move(so));
  TcpTransport cli(std::move(co));
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

TEST(TcpTransport, ForeignSendsAndClosuresRunInCallOrder) {
  // A send from a thread other than the sending node's loop reaches the
  // loop as a closure in the node's mailbox, behind the execute() closures
  // called before it. Alternate the two, each closure sending as well: the
  // peer must receive every request in call order, and wait_quiescent
  // counts each until the peer has handled it.
  constexpr RequestId kRequests = 2000;
  TcpTransport t(core_options(0.05, {0, 1}));
  const NodeAddress s0 = NodeAddress::server(0);
  const NodeAddress s1 = NodeAddress::server(1);
  std::mutex mu;
  std::vector<RequestId> seen;
  t.register_node(s0, [](NodeAddress, PayloadPtr) {});
  t.register_node(s1, [&](NodeAddress, PayloadPtr m) {
    const std::scoped_lock lock(mu);
    seen.push_back(static_cast<const core::ClientWriteAck&>(*m).req);
  });
  t.start();
  for (RequestId r = 1; r <= kRequests; ++r) {
    if (r % 2 == 0) {
      t.send(s0, s1, ping(r));
    } else {
      t.execute(s0, [&t, s0, s1, r] { t.send(s0, s1, ping(r)); });
    }
  }
  ASSERT_TRUE(t.wait_quiescent(10.0));
  {
    const std::scoped_lock lock(mu);
    ASSERT_EQ(seen.size(), kRequests);
    for (RequestId r = 1; r <= kRequests; ++r) {
      ASSERT_EQ(seen[r - 1], r) << "request " << r;
    }
  }
  t.stop();
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
    auto so = core_options(0.02, {0});
    auto co = core_options(0.02, {0});
    split_listener(0, so, co);
    TcpTransport srv(std::move(so));
    TcpTransport cli(std::move(co));
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

TEST(TcpTransport, DeadMeshServerIsOneCrashNoticeWithoutRetrying) {
  // Server 1's listener is gone before the mesh forms: its transport
  // registered it and stopped, so its port is known and refuses dials.
  // start() dials it once, and each surviving node hears of the crash
  // exactly once — no retry loop waits for the dead server to appear.
  auto dead_opts = core_options(0.02, {1});
  auto opts = core_options(0.02, {0, 1});
  split_listener(1, dead_opts, opts);
  TcpTransport dead(std::move(dead_opts));
  dead.register_node(NodeAddress::server(1), [](NodeAddress, PayloadPtr) {});
  dead.start();
  dead.stop();

  TcpTransport t(std::move(opts));
  std::atomic<int> notices[2] = {0, 0};
  std::atomic<ProcessId> crashed[2] = {kNoProcess, kNoProcess};
  const NodeAddress survivors[2] = {NodeAddress::server(0),
                                    NodeAddress::client(4)};
  for (int i = 0; i < 2; ++i) {
    t.register_node(
        survivors[i], [](NodeAddress, PayloadPtr) {},
        [&, i](ProcessId p) {
          ++notices[i];
          crashed[i] = p;
        });
  }
  const clk::SteadyTime t0 = clk::steady_now();
  t.start();
  EXPECT_LT(clk::seconds_since(t0), 0.5);
  ASSERT_TRUE(eventually([&] {
    return notices[0].load() >= 1 && notices[1].load() >= 1;
  }));
  ASSERT_TRUE(t.wait_quiescent(10.0));
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(notices[i].load(), 1) << "node " << i;
    EXPECT_EQ(crashed[i].load(), 1u) << "node " << i;
  }
  EXPECT_FALSE(t.is_up(NodeAddress::server(1)));
  t.stop();
}

TEST(TcpTransport, PortOfKnowsOnlyItsOwnNodesAndListeners) {
  // A transport finds the servers it hosts and the listeners it was
  // handed, nothing else: no other transport of this process, even one
  // hosting the same addresses, can redirect its dials.
  TcpTransport a(core_options(0.02, {0}));
  a.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  a.register_node(NodeAddress::client(1), [](NodeAddress, PayloadPtr) {});
  EXPECT_NE(a.port_of(NodeAddress::server(0)), 0);
  EXPECT_EQ(a.port_of(NodeAddress::client(1)), 0)
      << "a client binds no listener";
  auto ob = core_options(0.02, {});
  ob.listeners[NodeAddress::server(5)].port = 4242;
  TcpTransport b(std::move(ob));
  EXPECT_EQ(b.port_of(NodeAddress::server(0)), 0)
      << "server 0 is hosted by another transport and was never handed in";
  EXPECT_EQ(b.port_of(NodeAddress::server(5)), 4242);
  EXPECT_EQ(b.port_of(NodeAddress::server(6)), 0);
}

TEST(TcpTransport, StartThrowsForAMeshServerWithNoKnownPort) {
  // Server 7 has no listener in this process and none named in
  // Options::listeners: a configuration error, reported at once.
  TcpTransport t(core_options(0.02, {0, 7}));
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  const clk::SteadyTime t0 = clk::steady_now();
  EXPECT_THROW(t.start(), std::invalid_argument);
  EXPECT_LT(clk::seconds_since(t0), 0.5);
}

/// sendmsg calls node `label` ("s<id>"/"c<id>") made that wrote bytes.
std::uint64_t flushes(const TcpTransport& t, const std::string& label) {
  for (const obs::LinkCounters& c : t.link_counters()) {
    if (c.label == label) return c.tx_flushes.value_or(0);
  }
  return 0;
}

RequestId req_of(const Payload& p) {
  return static_cast<const core::ClientWriteAck&>(p).req;
}

TEST(TcpTransport, FrameReadyDuringAHandlerLeavesInTheSameFlush) {
  // R's handler for frame A stages a reply to D, then has S send frame B
  // to R and waits until S has written it. B is ready before R's turn
  // ends, so the turn handles it too, and both replies leave R in one
  // flush, in order.
  const NodeAddress r = NodeAddress::server(0);
  const NodeAddress s = NodeAddress::server(1);
  const NodeAddress d = NodeAddress::server(2);
  TcpTransport t(core_options(0.05, {0, 1, 2}));
  std::atomic<std::uint64_t> s_before{0};
  std::mutex mu;
  std::vector<RequestId> at_d;
  t.register_node(r, [&](NodeAddress, PayloadPtr m) {
    const RequestId req = req_of(*m);
    t.send(r, d, ping(100 + req));
    if (req != 1) return;
    t.execute(s, [&] { t.send(s, r, ping(2)); });
    // S writes nothing but A and B.
    EXPECT_TRUE(eventually([&] { return flushes(t, "s1") >= s_before + 2; }))
        << "S never wrote B";
    // Loopback queues B on R's socket inside S's sendmsg, unless the
    // kernel defers that work; the pause covers the deferred case.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  t.register_node(s, [](NodeAddress, PayloadPtr) {});
  t.register_node(d, [&](NodeAddress, PayloadPtr m) {
    const std::scoped_lock lock(mu);
    at_d.push_back(req_of(*m));
  });
  t.start();
  ASSERT_TRUE(t.wait_quiescent(10.0));
  s_before = flushes(t, "s1");
  const std::uint64_t r_before = flushes(t, "s0");

  t.send(s, r, ping(1));
  ASSERT_TRUE(eventually([&] {
    const std::scoped_lock lock(mu);
    return at_d.size() == 2;
  }));
  ASSERT_TRUE(t.wait_quiescent(10.0));
  {
    const std::scoped_lock lock(mu);
    EXPECT_EQ(at_d, (std::vector<RequestId>{101, 102}));
  }
  EXPECT_EQ(flushes(t, "s0") - r_before, 1u)
      << "R's replies to A and B left in separate flushes";
  t.stop();
}

/// Server 0 (R) under a flood: a foreign thread writes 1 KiB client writes
/// into it on a raw connection as fast as the socket takes them, and R
/// spends 20 µs on each, so its socket never runs dry. R's handler answers
/// the first one with a reply to server 1 (D) and arms a timer 20 ms ahead.
/// Returns how long the reply took to reach D and how late the timer fired,
/// both measured while the flood still ran.
struct FloodDelays {
  double reply_s = -1;
  double timer_late_s = -1;
};

FloodDelays flood_delays() {
  const NodeAddress r = NodeAddress::server(0);
  const NodeAddress d = NodeAddress::server(1);
  constexpr double kTimerDelayS = 0.02;
  TcpTransport t(core_options(0.05, {0, 1}));
  std::atomic<bool> first{true};
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> staged_ns{0};
  std::atomic<std::int64_t> reply_ns{0};
  std::atomic<std::int64_t> fired_ns{0};
  const auto now_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clk::steady_now().time_since_epoch())
        .count();
  };
  t.register_node(
      r,
      [&](NodeAddress, PayloadPtr) {
        if (!first.exchange(false)) {
          const std::int64_t until = now_ns() + 20'000;
          while (now_ns() < until) {
          }
          return;
        }
        staged_ns = now_ns();
        t.send(r, d, ping(1));
        t.arm_timer(r, kTimerDelayS, 7);
      },
      nullptr,
      [&](std::uint64_t token) {
        if (token == 7 && !stop.load()) fired_ns = now_ns();
      });
  t.register_node(d, [&](NodeAddress, PayloadPtr) {
    if (!stop.load()) reply_ns = now_ns();
  });
  t.start();
  EXPECT_TRUE(t.wait_quiescent(10.0));

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(t.port_of(r));
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  Encoder preamble;
  preamble.u32(TcpTransport::kMagic);
  preamble.u8(static_cast<std::uint8_t>(NodeAddress::Kind::kClient));
  preamble.u64(9);
  preamble.u8(static_cast<std::uint8_t>(NodeAddress::Kind::kServer));
  preamble.u64(0);
  Encoder frames;
  for (RequestId q = 1; q <= 64; ++q) {
    frames.bytes(core::encode_message(core::ClientWrite(
        9, q, Value::synthetic(q, 1024), kDefaultObject)));
  }
  const std::string& flood = frames.result();
  std::thread writer([&] {
    (void)::send(fd, preamble.result().data(), preamble.size(), MSG_NOSIGNAL);
    std::size_t off = 0;
    while (!stop.load()) {
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, 10) != 1) continue;
      const ssize_t w = ::send(fd, flood.data() + off, flood.size() - off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w < 0 && errno != EAGAIN && errno != EINTR) break;
      if (w > 0) off = (off + static_cast<std::size_t>(w)) % flood.size();
    }
  });
  EXPECT_TRUE(eventually([&] { return reply_ns != 0 && fired_ns != 0; }))
      << "no reply or no timer within 10 s of the flood";
  stop = true;
  writer.join();
  ::close(fd);
  t.stop();

  FloodDelays out;
  if (reply_ns != 0) out.reply_s = (reply_ns - staged_ns) * 1e-9;
  if (fired_ns != 0) {
    out.timer_late_s = (fired_ns - staged_ns) * 1e-9 - kTimerDelayS;
  }
  return out;
}

TEST(TcpTransport, FloodIntoANodeDoesNotStarveItsFlush) {
  // However many frames stay ready, a turn polls for them a bounded number
  // of rounds, then flushes.
  const FloodDelays f = flood_delays();
  ASSERT_GE(f.reply_s, 0.0) << "the reply never reached D";
  EXPECT_LT(f.reply_s, 0.1);
}

TEST(TcpTransport, TimerFiresOnTimeDuringAFlood) {
  // Due timers fire between the rounds of a turn, flood or not.
  const FloodDelays f = flood_delays();
  ASSERT_GE(f.timer_late_s, -0.001) << "the timer never fired";
  EXPECT_LT(f.timer_late_s, 0.1);
}

/// Threads of this process (its /proc/self/task entries).
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

clk::SteadyTime in_seconds(double s) {
  return clk::steady_now() + clk::seconds_to_duration(s);
}

TEST(TcpTransport, DrivenClientRunsOnTheCallersThread) {
  // A driven client has no loop thread, even registered after start():
  // its submit, its flush and the reply's handler all run on the thread
  // that drives it.
  auto so = core_options(0.05, {0});
  auto co = core_options(0.05, {0});
  split_listener(0, so, co);
  TcpTransport srv(std::move(so));
  TcpTransport cli(std::move(co));
  register_echo_server(srv, 0);
  srv.start();
  cli.start();
  const std::size_t threads = thread_count();
  const NodeAddress me = NodeAddress::client(1);
  std::thread::id handled_on;
  std::vector<RequestId> replies;
  cli.register_driven_client(1, [&](NodeAddress from, PayloadPtr m) {
    EXPECT_EQ(from, NodeAddress::server(0));
    handled_on = std::this_thread::get_id();
    replies.push_back(static_cast<const core::ClientWriteAck&>(*m).req);
  });
  EXPECT_EQ(thread_count(), threads) << "a driven node starts no thread";
  for (RequestId r = 1; r <= 3; ++r) {
    ASSERT_TRUE(cli.drive(
        me, [&] { cli.send(me, NodeAddress::server(0), ping(r)); },
        [&] { return replies.size() == r; }, in_seconds(10.0)));
    EXPECT_EQ(handled_on, std::this_thread::get_id());
  }
  EXPECT_EQ(replies, (std::vector<RequestId>{1, 2, 3}));
  cli.stop();
  srv.stop();
}

TEST(TcpTransport, DrivenClientTimerFiresWhileDriving) {
  // The server drops the first request. The driven client's retry timer,
  // armed from its submit, fires inside the same drive — on the driving
  // thread — and its re-send is answered.
  auto so = core_options(0.05, {0});
  auto co = core_options(0.05, {0});
  split_listener(0, so, co);
  TcpTransport srv(std::move(so));
  TcpTransport cli(std::move(co));
  std::atomic<int> requests{0};
  const NodeAddress s0 = NodeAddress::server(0);
  srv.register_node(s0, [&](NodeAddress from, PayloadPtr m) {
    if (++requests > 1) srv.send(s0, from, std::move(m));
  });
  const NodeAddress me = NodeAddress::client(1);
  std::vector<std::thread::id> fired_on;
  std::vector<RequestId> replies;
  cli.register_driven_client(
      1,
      [&](NodeAddress, PayloadPtr m) {
        replies.push_back(static_cast<const core::ClientWriteAck&>(*m).req);
      },
      nullptr,
      [&](std::uint64_t token) {
        EXPECT_EQ(token, 7u);
        fired_on.push_back(std::this_thread::get_id());
        cli.send(me, s0, ping(2));
      });
  srv.start();
  cli.start();
  ASSERT_TRUE(cli.drive(
      me,
      [&] {
        cli.send(me, s0, ping(1));
        cli.arm_timer(me, 0.05, 7);
      },
      [&] { return !replies.empty(); }, in_seconds(10.0)));
  EXPECT_EQ(replies, (std::vector<RequestId>{2}));
  EXPECT_EQ(fired_on,
            (std::vector<std::thread::id>{std::this_thread::get_id()}));
  EXPECT_EQ(requests.load(), 2);
  cli.stop();
  srv.stop();
}

TEST(TcpTransport, MailForAnUndrivenClientWaitsForItsNextDrive) {
  // Nothing runs on a driven node between drives: a closure posted to it
  // waits in its mailbox, and wait_quiescent does not wait for it — the
  // node counts as quiet until a drive comes. The next drive runs it.
  TcpTransport cli(core_options(0.05, {}));
  const NodeAddress me = NodeAddress::client(1);
  cli.register_driven_client(1, [](NodeAddress, PayloadPtr) {});
  cli.start();
  std::atomic<bool> ran{false};
  std::thread::id ran_on;
  cli.execute(me, [&] {
    ran_on = std::this_thread::get_id();
    ran = true;
  });
  EXPECT_TRUE(cli.wait_quiescent(1.0));
  EXPECT_FALSE(ran.load());
  ASSERT_TRUE(cli.drive(
      me, [] {}, [&] { return ran.load(); }, in_seconds(10.0)));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_TRUE(cli.wait_quiescent(1.0));
  cli.stop();
}

TEST(TcpTransport, StopReleasesADriveBlockedInEpollWait) {
  // A server that never answers: the drive blocks in epoll_wait until
  // stop(), from another thread, wakes it; drive() then returns false
  // long before its deadline.
  auto so = core_options(0.05, {0});
  auto co = core_options(0.05, {0});
  split_listener(0, so, co);
  TcpTransport srv(std::move(so));
  TcpTransport cli(std::move(co));
  srv.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  const NodeAddress me = NodeAddress::client(1);
  cli.register_driven_client(1, [](NodeAddress, PayloadPtr) {});
  srv.start();
  cli.start();
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cli.stop();
  });
  const clk::SteadyTime t0 = clk::steady_now();
  EXPECT_FALSE(cli.drive(
      me, [&] { cli.send(me, NodeAddress::server(0), ping(1)); },
      [] { return false; }, in_seconds(30.0)));
  EXPECT_LT(clk::seconds_since(t0), 5.0);
  stopper.join();
  EXPECT_FALSE(cli.drive(
      me, [] {}, [] { return true; }, in_seconds(30.0)))
      << "a stopped transport drives nothing";
  srv.stop();
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

TEST(TcpCluster, ClientNodeBindsNoListener) {
  // Servers answer a client on the connections it dialed, so a client
  // binds no listener: its own transport knows no port for it.
  ThreadedCluster cluster(tcp_cluster_config(3));
  auto& client = cluster.add_client(0);
  cluster.start();
  client.write(kDefaultObject, Value::synthetic(5, 256));
  EXPECT_EQ(client.read(kDefaultObject), Value::synthetic(5, 256));
  const auto& t = dynamic_cast<net::TcpTransport&>(cluster.transport());
  EXPECT_EQ(t.port_of(net::NodeAddress::client(client.id())), 0);
  for (ProcessId s = 0; s < 3; ++s) {
    EXPECT_NE(t.port_of(net::NodeAddress::server(s)), 0) << "server " << s;
  }
}

TEST(TcpCluster, TwoDeploymentsBuiltBeforeEitherStartsStayApart) {
  // Both deployments bind their servers' listeners when built. Each
  // transport dials only the servers it hosts, so B's servers never stand
  // in for A's: a write through A is invisible to B.
  ThreadedCluster a(tcp_cluster_config(3));
  ThreadedCluster b(tcp_cluster_config(3));
  auto& alice = a.add_client(0);
  auto& bob = b.add_client(0);
  a.start();
  b.start();
  alice.write(kDefaultObject, Value::synthetic(7, 256));
  EXPECT_TRUE(bob.read(kDefaultObject).empty());
  EXPECT_EQ(alice.read(kDefaultObject), Value::synthetic(7, 256));
  for (ThreadedCluster* c : {&a, &b}) {
    auto verdict = lincheck::check_register(c->history());
    EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  }
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

TEST(ProcCluster, ParentClientBindsNoListener) {
  // The parent's client is answered on its mesh connections: it binds no
  // listener, and its transport knows a port for every server but none
  // for it.
  ProcClusterConfig cfg;
  cfg.n_servers = 3;
  ProcCluster cluster(cfg);
  cluster.start();
  cluster.put(1, Value::synthetic(4, 256));
  EXPECT_EQ(cluster.get(1), Value::synthetic(4, 256));
  const auto& parent = dynamic_cast<net::TcpTransport&>(cluster.transport());
  EXPECT_EQ(parent.port_of(net::NodeAddress::client(0)), 0);
  for (ProcessId s = 0; s < 3; ++s) {
    EXPECT_NE(parent.port_of(net::NodeAddress::server(s)), 0)
        << "server " << s;
  }
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

/// True when a fresh loopback dial to `port` is refused.
bool dial_refused(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool refused =
      ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 &&
      errno == ECONNREFUSED;
  ::close(fd);
  return refused;
}

TEST(ProcCluster, KilledServersListenerIsGone) {
  // The parent binds every server's listener and hands each server process
  // its own. Once server 1 is killed, no copy of its listener may survive
  // in the parent or in a sibling: a dial to its port must be refused, as
  // the failure detector's refused-dial rule assumes.
  ProcClusterConfig cfg;
  cfg.n_servers = 3;
  ProcCluster cluster(cfg);
  cluster.start();
  cluster.put(1, Value::synthetic(3, 128));
  EXPECT_EQ(cluster.get(1), Value::synthetic(3, 128));
  const std::uint16_t port = cluster.server_port(1);
  ASSERT_NE(port, 0);
  EXPECT_FALSE(dial_refused(port));

  cluster.kill_server(1);
  EXPECT_TRUE(dial_refused(port));
  EXPECT_FALSE(dial_refused(cluster.server_port(0)));
  cluster.stop();
}

TEST(ProcCluster, TwoDeploymentsServeSideBySide) {
  // Two deployments alive at once in one process never reach each other's
  // servers: each get returns its own deployment's value.
  ProcClusterConfig cfg;
  cfg.n_servers = 3;
  ProcCluster a(cfg);
  ProcCluster b(cfg);
  a.start();
  b.start();
  for (std::uint64_t v = 1; v <= 4; ++v) {
    a.put(v, Value::synthetic(100 + v, 256));
    b.put(v, Value::synthetic(200 + v, 512));
  }
  for (std::uint64_t v = 1; v <= 4; ++v) {
    EXPECT_EQ(a.get(v), Value::synthetic(100 + v, 256)) << "object " << v;
    EXPECT_EQ(b.get(v), Value::synthetic(200 + v, 512)) << "object " << v;
  }
  b.stop();
  a.stop();
}

TEST(ProcCluster, ConcurrentReadersAndWritersAreLinearizable) {
  // Two writer threads share the put session; three reader threads each
  // get through a driven reader of their own. Server 2 (not the readers'
  // preferred server) is SIGKILLed mid-run. Every written value carries a
  // unique seed, so each read maps back to the write it saw, and the
  // history the test records must be linearizable.
  ProcClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.detection_delay_s = 0.02;
  ProcCluster cluster(cfg);
  cluster.start();
  constexpr ObjectId kRegisters = 8;
  constexpr int kWrites = 100;
  constexpr int kReads = 150;
  constexpr std::size_t kValueSize = 64;
  const clk::SteadyTime t0 = clk::steady_now();
  const auto now = [t0] { return clk::seconds_since(t0); };
  std::mutex mu;
  lincheck::History history;
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (ClientId w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 1; i <= kWrites; ++i) {
        const ObjectId object = 1 + static_cast<ObjectId>(i + w) % kRegisters;
        const std::uint64_t seed = (w + 1) * 1'000'000 + i;
        const double inv = now();
        cluster.put(object, Value::synthetic(seed, kValueSize));
        const double resp = now();
        const std::scoped_lock lock(mu);
        history.record_write(w, seed, inv, resp, object);
        ++finished;
      }
    });
  }
  for (ClientId r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kReads; ++i) {
        const ObjectId object =
            1 + static_cast<ObjectId>(i * 3 + r) % kRegisters;
        const double inv = now();
        const Value v = cluster.get(object);
        const double resp = now();
        const std::uint64_t seen =
            v.empty() ? lincheck::kInitialValueId : v.synthetic_seed();
        if (!v.empty()) {
          EXPECT_EQ(v, Value::synthetic(seen, kValueSize));
        }
        const std::scoped_lock lock(mu);
        history.record_read(10 + r, seen, inv, resp, kInitialTag, object);
        ++finished;
      }
    });
  }
  constexpr int kOps = 2 * kWrites + 3 * kReads;
  while (finished.load() < kOps / 3) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  cluster.kill_server(2);
  for (auto& t : threads) t.join();
  ASSERT_EQ(history.size(), static_cast<std::size_t>(kOps));
  const auto verdict = lincheck::check_register(history);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  cluster.stop();
}

/// SIGSTOPs server `p` and waits until it has stopped: kill() returns
/// before the signal takes effect.
void stop_server(const ProcCluster& cluster, ProcessId p) {
  const pid_t pid = cluster.server_pid(p);
  ASSERT_EQ(::kill(pid, SIGSTOP), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, WUNTRACED), pid);
  ASSERT_TRUE(WIFSTOPPED(status));
}

TEST(ProcCluster, BlockedGetsSurviveTheirServersSigkill) {
  // Two gets wait on a stopped server 0. Once it is SIGKILLed, both must
  // complete from server 1 or 2 within 2 s: their readers see the break,
  // and the retry timer sends each get on.
  ProcClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.detection_delay_s = 0.02;
  cfg.client_retry_timeout_s = 0.5;
  ProcCluster cluster(cfg);
  cluster.start();
  cluster.put(1, Value::synthetic(11, 256));
  cluster.put(2, Value::synthetic(12, 256));
  stop_server(cluster, 0);
  auto a = std::async(std::launch::async, [&] { return cluster.get(1); });
  auto b = std::async(std::launch::async, [&] { return cluster.get(2); });
  EXPECT_EQ(a.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  EXPECT_EQ(b.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  const auto killed = std::chrono::steady_clock::now();
  cluster.kill_server(0);
  ASSERT_EQ(a.wait_until(killed + std::chrono::seconds(2)),
            std::future_status::ready);
  ASSERT_EQ(b.wait_until(killed + std::chrono::seconds(2)),
            std::future_status::ready);
  EXPECT_EQ(a.get(), Value::synthetic(11, 256));
  EXPECT_EQ(b.get(), Value::synthetic(12, 256));
  cluster.stop();
}

TEST(ProcCluster, StopReleasesABlockedGet) {
  // A get waits on a stopped server 0, with a retry timeout far beyond the
  // test. stop() from another thread must make it throw within 1 s, and
  // must still reap the stopped child.
  ProcClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.client_retry_timeout_s = 60.0;
  ProcCluster cluster(cfg);
  cluster.start();
  cluster.put(1, Value::synthetic(21, 128));
  const pid_t s0 = cluster.server_pid(0);
  stop_server(cluster, 0);
  auto get = std::async(std::launch::async, [&] { return cluster.get(1); });
  EXPECT_EQ(get.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  const auto stopping = std::chrono::steady_clock::now();
  std::thread stopper([&] { cluster.stop(); });
  ASSERT_EQ(get.wait_until(stopping + std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_THROW((void)get.get(), std::runtime_error);
  stopper.join();
  EXPECT_EQ(cluster.server_pid(0), -1);
  int status = 0;
  EXPECT_EQ(::waitpid(s0, &status, WNOHANG), -1) << "s0 was reaped";
  EXPECT_EQ(errno, ECHILD);
}

TEST(ProcCluster, StopReleasesABlockedPut) {
  // A put waits on a stopped server 0, with a retry timeout far beyond the
  // test. Its loop-driven client never completes it once the transport
  // stops: stop() from another thread must make it throw within 1 s.
  ProcClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.client_retry_timeout_s = 60.0;
  ProcCluster cluster(cfg);
  cluster.start();
  cluster.put(1, Value::synthetic(31, 128));
  stop_server(cluster, 0);
  auto put = std::async(std::launch::async,
                        [&] { cluster.put(1, Value::synthetic(32, 128)); });
  EXPECT_EQ(put.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  const auto stopping = std::chrono::steady_clock::now();
  std::thread stopper([&] { cluster.stop(); });
  ASSERT_EQ(put.wait_until(stopping + std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_THROW(put.get(), std::runtime_error);
  stopper.join();
  // Later puts throw at once.
  EXPECT_THROW(cluster.put(1, Value::synthetic(33, 128)), std::runtime_error);
}

}  // namespace
}  // namespace hts::harness

int main(int argc, char** argv) {
  // A process re-exec'd as a ProcCluster server never runs the tests.
  if (hts::harness::ProcCluster::serve_child(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
