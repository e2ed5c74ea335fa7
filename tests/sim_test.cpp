// Discrete-event simulator and network-model unit tests: deterministic event
// ordering, serialization math, full-duplex behaviour, fan-in queuing.
#include <gtest/gtest.h>

#include <vector>

#include "core/messages.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace hts::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.run_to_quiescence();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&, i] { order.push_back(i); });
  }
  sim.run_to_quiescence();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule(0.5, [&] { times.push_back(sim.now()); });
  });
  sim.run_to_quiescence();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run_to_quiescence();
  double fired_at = -1;
  sim.schedule_at(0.5, [&] { fired_at = sim.now(); });  // in the "past"
  sim.run_to_quiescence();
  EXPECT_DOUBLE_EQ(fired_at, 1.0);
}

// ------------------------------------------------------------------ network

net::PayloadPtr payload_of(std::size_t bytes) {
  // SyncState's wire size = 2 + 12 + 4 + len; choose len for exact control.
  return net::make_payload<core::SyncState>(
      Tag{1, 0}, Value::synthetic(1, bytes - 18), kDefaultObject);
}

TEST(NetConfig, WireBytesAddFrameOverhead) {
  NetConfig cfg;
  cfg.frame_payload = 1000;
  cfg.frame_overhead = 50;
  EXPECT_EQ(cfg.wire_bytes(1), 1u + 50u);
  EXPECT_EQ(cfg.wire_bytes(1000), 1050u);
  EXPECT_EQ(cfg.wire_bytes(1001), 1001u + 100u);  // two frames
  EXPECT_EQ(cfg.wire_bytes(0), 50u);              // control frame
}

TEST(Network, SingleMessageLatency) {
  Simulator sim;
  NetConfig cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.latency_s = 50e-6;
  cfg.per_message_cpu_s = 0;
  Network net(sim, cfg);

  double delivered_at = -1;
  NicId a = net.add_nic("a", [](net::PayloadPtr) {});
  NicId b = net.add_nic("b", [&](net::PayloadPtr) { delivered_at = sim.now(); });

  auto msg = payload_of(10'000);
  const double ser = cfg.wire_time(msg->wire_size());
  net.send(a, b, msg);
  sim.run_to_quiescence();
  EXPECT_NEAR(delivered_at, ser + cfg.latency_s, 1e-12);
}

TEST(Network, SenderSerializesBackToBack) {
  Simulator sim;
  NetConfig cfg;
  cfg.per_message_cpu_s = 0;
  Network net(sim, cfg);
  std::vector<double> deliveries;
  NicId a = net.add_nic("a", [](net::PayloadPtr) {});
  NicId b = net.add_nic("b", [&](net::PayloadPtr) { deliveries.push_back(sim.now()); });

  auto msg = payload_of(10'000);
  const double ser = cfg.wire_time(msg->wire_size());
  net.send(a, b, msg);
  net.send(a, b, msg);
  net.send(a, b, msg);
  sim.run_to_quiescence();
  ASSERT_EQ(deliveries.size(), 3u);
  // Pipeline: one serialization apart.
  EXPECT_NEAR(deliveries[1] - deliveries[0], ser, 1e-12);
  EXPECT_NEAR(deliveries[2] - deliveries[1], ser, 1e-12);
}

TEST(Network, FanInQueuesAtReceiver) {
  Simulator sim;
  NetConfig cfg;
  cfg.per_message_cpu_s = 0;
  Network net(sim, cfg);
  std::vector<double> deliveries;
  NicId a = net.add_nic("a", [](net::PayloadPtr) {});
  NicId b = net.add_nic("b", [](net::PayloadPtr) {});
  NicId c = net.add_nic("c", [&](net::PayloadPtr) { deliveries.push_back(sim.now()); });

  auto msg = payload_of(10'000);
  const double ser = cfg.wire_time(msg->wire_size());
  // Two senders transmit simultaneously to one receiver: the receiver's
  // link serializes them (switch egress queue).
  net.send(a, c, msg);
  net.send(b, c, msg);
  sim.run_to_quiescence();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_NEAR(deliveries[1] - deliveries[0], ser, 1e-12);
}

TEST(Network, FullDuplexTxRxIndependent) {
  Simulator sim;
  NetConfig cfg;
  cfg.per_message_cpu_s = 0;
  Network net(sim, cfg);
  std::vector<double> at_a, at_b;
  NicId a = net.add_nic("a", [&](net::PayloadPtr) { at_a.push_back(sim.now()); });
  NicId b = net.add_nic("b", [&](net::PayloadPtr) { at_b.push_back(sim.now()); });

  auto msg = payload_of(10'000);
  const double one_way = cfg.wire_time(msg->wire_size()) + cfg.latency_s;
  net.send(a, b, msg);
  net.send(b, a, msg);  // opposite direction at the same instant
  sim.run_to_quiescence();
  ASSERT_EQ(at_a.size(), 1u);
  ASSERT_EQ(at_b.size(), 1u);
  // Full duplex: both directions complete in one one-way time.
  EXPECT_NEAR(at_a[0], one_way, 1e-12);
  EXPECT_NEAR(at_b[0], one_way, 1e-12);
}

TEST(Network, DisabledNicDropsTraffic) {
  Simulator sim;
  Network net(sim, NetConfig{});
  int got = 0;
  NicId a = net.add_nic("a", [](net::PayloadPtr) {});
  NicId b = net.add_nic("b", [&](net::PayloadPtr) { ++got; });
  net.send(a, b, payload_of(100));
  net.disable(b);
  net.send(a, b, payload_of(100));
  sim.run_to_quiescence();
  EXPECT_EQ(got, 0);  // first message was in flight when b died → dropped too
  EXPECT_FALSE(net.is_up(b));

  net.disable(a);
  net.send(a, b, payload_of(100));
  EXPECT_EQ(net.total_messages_sent(), 2u);  // the third send was ignored
}

TEST(Network, PerMessageCpuDelaysDelivery) {
  Simulator sim;
  NetConfig cfg;
  cfg.per_message_cpu_s = 100e-6;
  Network net(sim, cfg);
  double delivered = -1;
  NicId a = net.add_nic("a", [](net::PayloadPtr) {});
  NicId b = net.add_nic("b", [&](net::PayloadPtr) { delivered = sim.now(); });
  auto msg = payload_of(1000);
  net.send(a, b, msg);
  sim.run_to_quiescence();
  EXPECT_NEAR(delivered,
              100e-6 + cfg.wire_time(msg->wire_size()) + cfg.latency_s, 1e-12);
}

}  // namespace
}  // namespace hts::sim
