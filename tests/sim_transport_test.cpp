// sim::SimTransport beyond the shared net::Transport contract (that part is
// in tests/transport_conformance_test.cpp): node incarnations when a crashed
// address is registered again, link-ready pacing of one transmission per
// free transmit slot, the shared network's alternation of client replies
// with ring batches, and the client-machine envelope.
#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/messages.h"
#include "net/payload.h"
#include "sim/sim_transport.h"
#include "sim/simulator.h"

namespace hts::sim {
namespace {

using net::NodeAddress;
using net::PayloadPtr;

PayloadPtr ping(RequestId r) {
  return net::make_payload<core::ClientWriteAck>(r, kDefaultObject);
}

RequestId req_of(const net::Payload& p) {
  return static_cast<const core::ClientWriteAck&>(p).req;
}

/// A link-ready upcall over a queue of pings for one destination; records
/// what it sent.
struct Egress {
  SimTransport& t;
  NodeAddress self;
  NodeAddress to;
  std::deque<RequestId> queued;
  std::vector<RequestId> sent;
  bool pull() {
    if (queued.empty()) return false;
    sent.push_back(queued.front());
    t.send(self, to, ping(queued.front()));
    queued.pop_front();
    return true;
  }
};

TEST(SimTransport, ReRegisteredAddressGetsNothingOfTheOldIncarnation) {
  // A grow after a shrink reuses a retired server's global id. What was
  // scheduled for the old node — a message on the wire, a timer, a pump of
  // its egress — must die with it, not reach the node registered after it.
  Simulator sim;
  SimTransport t(sim, SimTransport::Options{});
  const NodeAddress s0 = NodeAddress::server(0);
  const NodeAddress s1 = NodeAddress::server(1);
  int old_messages = 0, old_timers = 0;
  Egress old_egress{t, s0, s1, {1, 2, 3}, {}};
  t.register_node(
      s0, [&](NodeAddress, PayloadPtr) { ++old_messages; }, nullptr,
      [&](std::uint64_t) { ++old_timers; },
      [&] { return old_egress.pull(); });
  std::vector<RequestId> at_s1;
  t.register_node(s1, [&](NodeAddress, PayloadPtr m) {
    at_s1.push_back(req_of(*m));
  });

  t.pull_egress(s0);  // sends 1 now, pumps again when the NIC frees
  t.send(s1, s0, ping(7));
  t.arm_timer(s0, 0.01, 42);
  ASSERT_EQ(old_egress.sent, (std::vector<RequestId>{1}));
  t.crash(s0);

  std::vector<RequestId> new_messages;
  std::vector<std::uint64_t> new_timers;
  int new_pulls = 0;
  t.register_node(
      s0,
      [&](NodeAddress, PayloadPtr m) { new_messages.push_back(req_of(*m)); },
      nullptr, [&](std::uint64_t token) { new_timers.push_back(token); },
      [&] {
        ++new_pulls;
        return false;
      });
  EXPECT_TRUE(t.is_up(s0));
  t.send(s1, s0, ping(8));  // addressed to the new incarnation
  EXPECT_TRUE(t.wait_quiescent(1.0));

  EXPECT_EQ(old_messages, 0);
  EXPECT_EQ(old_timers, 0);
  EXPECT_EQ(old_egress.sent, (std::vector<RequestId>{1}))
      << "the old node's scheduled pump must not pull again";
  EXPECT_EQ(new_messages, (std::vector<RequestId>{8}));
  EXPECT_TRUE(new_timers.empty());
  EXPECT_EQ(new_pulls, 0) << "nothing pulled the new node's egress";
  EXPECT_EQ(at_s1, (std::vector<RequestId>{1}));
}

TEST(SimTransport, RegisteringAnAddressThatIsUpThrows) {
  Simulator sim;
  SimTransport t(sim, SimTransport::Options{});
  t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {});
  EXPECT_THROW(
      t.register_node(NodeAddress::server(0), [](NodeAddress, PayloadPtr) {}),
      std::logic_error);
}

TEST(SimTransport, PullsOneTransmissionPerFreeTransmitSlot) {
  Simulator sim;
  SimTransport t(sim, SimTransport::Options{});
  const NodeAddress s0 = NodeAddress::server(0);
  const NodeAddress s1 = NodeAddress::server(1);
  Egress egress{t, s0, s1, {1, 2, 3}, {}};
  t.register_node(s0, [](NodeAddress, PayloadPtr) {}, nullptr, nullptr,
                  [&] { return egress.pull(); });
  std::vector<double> arrivals;
  t.register_node(s1, [&](NodeAddress, PayloadPtr) {
    arrivals.push_back(sim.now());
  });

  t.pull_egress(s0);
  t.pull_egress(s0);  // the link is busy: no second pull before it frees
  EXPECT_EQ(egress.sent.size(), 1u);
  EXPECT_EQ(t.total_transmissions(), 1u);
  t.wait_quiescent(1.0);
  EXPECT_EQ(egress.sent, (std::vector<RequestId>{1, 2, 3}));
  // Back to back on the link: each arrival one serialization after the last.
  const double slot = NetConfig{}.ser_time(ping(1)->wire_size());
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[1] - arrivals[0], slot, 1e-12);
  EXPECT_NEAR(arrivals[2] - arrivals[1], slot, 1e-12);
}

TEST(SimTransport, SharedNetworkAlternatesRepliesWithRingBatches) {
  // One NIC for everything: the paced slots alternate between the ring
  // egress and client replies, and each reply reaches its client through
  // the machine's envelope with the server as the sender.
  Simulator sim;
  SimTransport::Options opts;
  opts.shared_network = true;
  SimTransport t(sim, opts);
  const NodeAddress s0 = NodeAddress::server(0);
  const NodeAddress s1 = NodeAddress::server(1);
  const NodeAddress c0 = NodeAddress::client(0);
  Egress ring{t, s0, s1, {1, 2}, {}};
  std::vector<std::string> order;
  t.register_node(s0, [](NodeAddress, PayloadPtr) {}, nullptr, nullptr,
                  [&] { return ring.pull(); });
  t.register_node(s1, [&](NodeAddress, PayloadPtr m) {
    order.push_back("ring" + std::to_string(req_of(*m)));
  });
  t.place(0, t.add_machine());
  t.register_node(c0, [&](NodeAddress from, PayloadPtr m) {
    EXPECT_EQ(from, s0);
    order.push_back("reply" + std::to_string(req_of(*m)));
  });

  t.send(s0, c0, ping(10));  // the first free slot goes to the ring
  t.send(s0, c0, ping(11));
  t.wait_quiescent(1.0);
  EXPECT_EQ(order, (std::vector<std::string>{"ring1", "reply10", "ring2",
                                             "reply11"}));
  // Two ring batches and two enveloped replies, all on the one network.
  EXPECT_EQ(t.server_network().total_messages_sent(), 4u);
  EXPECT_EQ(&t.client_network(), &t.server_network());
}

}  // namespace
}  // namespace hts::sim
