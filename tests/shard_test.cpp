// Sharded multi-ring topology, end to end: ShardMap determinism and balance,
// ShardRouter single-ring pinning (bit-for-bit the pre-sharding client),
// per-ring traffic metrics, multi-ring linearizability with the serving-ring
// tags, independent per-shard crash recovery, and the cross-ring checker.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/messages.h"
#include "core/topology.h"
#include "harness/sim_cluster.h"
#include "harness/threaded_cluster.h"
#include "harness/workload.h"
#include "lincheck/checker.h"
#include "sim/simulator.h"

namespace hts::core {
namespace {

// ------------------------------------------------------------- shard map

TEST(ShardMap, DeterministicAcrossInstances) {
  // Routing is a pure function of (n_rings, object): two independently
  // constructed maps — "two client restarts" — agree on every object.
  const ShardMap a(4), b(4);
  for (ObjectId obj = 0; obj < 10'000; ++obj) {
    ASSERT_EQ(a.ring_of(obj), b.ring_of(obj)) << "object " << obj;
  }
}

TEST(ShardMap, SingleRingPinsEverythingToRingZero) {
  const ShardMap m(1);
  for (ObjectId obj = 0; obj < 1'000; ++obj) {
    ASSERT_EQ(m.ring_of(obj), kDefaultRing);
  }
  ASSERT_EQ(m.ring_of(~0ull), kDefaultRing);
}

TEST(ShardMap, SpreadsObjectsAcrossAllRings) {
  const std::size_t n_rings = 4;
  const ShardMap m(n_rings);
  std::vector<std::size_t> count(n_rings, 0);
  const std::size_t n = 20'000;
  for (ObjectId obj = 0; obj < n; ++obj) ++count[m.ring_of(obj)];
  for (std::size_t r = 0; r < n_rings; ++r) {
    // Consistent hashing with 64 points per ring: expect every ring within
    // a loose band around the fair share (1/4 ± a lot).
    EXPECT_GT(count[r], n / 10) << "ring " << r << " starved";
    EXPECT_LT(count[r], n / 2) << "ring " << r << " overloaded";
  }
}

TEST(ShardMap, GrowingTheRingCountOnlyMovesObjectsToTheNewRing) {
  // Consistent-hash property: rings 0..R-1 keep their points when ring R is
  // added, so an object either stays put or moves to the new ring — never
  // between old rings. Bounded churn: roughly 1/(R+1) of the namespace.
  const ShardMap before(3), after(4);
  const std::size_t n = 20'000;
  std::size_t moved = 0;
  for (ObjectId obj = 0; obj < n; ++obj) {
    const RingId old_ring = before.ring_of(obj);
    const RingId new_ring = after.ring_of(obj);
    if (old_ring != new_ring) {
      ++moved;
      ASSERT_EQ(new_ring, 3u) << "object " << obj
                              << " moved between pre-existing rings";
    }
  }
  EXPECT_GT(moved, 0u);           // the new ring takes a share...
  EXPECT_LT(moved, n / 2);        // ...but most of the namespace stays put
}

// ------------------------------------------------------------- topology

TEST(Topology, GlobalLocalAddressingRoundTrips) {
  const Topology t{3, 5};
  EXPECT_EQ(t.total_servers(), 15u);
  for (ProcessId g = 0; g < t.total_servers(); ++g) {
    const RingId r = t.ring_of_server(g);
    const ProcessId local = t.local_id(g);
    EXPECT_LT(r, 3u);
    EXPECT_LT(local, 5u);
    EXPECT_EQ(t.global_id(r, local), g);
    EXPECT_EQ(t.ring_base(r) + local, g);
  }
}

TEST(ShardRouter, SingleRingRotationMatchesTheLegacyClient) {
  // The pre-sharding client rotated (target + 1) % n_servers with one sticky
  // target; the router on Topology::single must be indistinguishable.
  ShardRouter router(Topology::single(3), /*preferred=*/1);
  EXPECT_EQ(router.ring_of(kDefaultObject), kDefaultRing);
  EXPECT_EQ(router.ring_of(42), kDefaultRing);
  EXPECT_EQ(router.target_of(kDefaultRing), 1u);
  EXPECT_EQ(router.rotate(kDefaultRing, 1), 2u);
  EXPECT_EQ(router.rotate(kDefaultRing, 2), 0u);
  EXPECT_EQ(router.target_of(kDefaultRing), 0u);
}

TEST(ShardRouter, StickyTargetsAreIndependentPerRing) {
  const Topology topo{2, 3};
  ShardRouter router(topo, /*preferred=*/1);
  // Both rings start at local index 1 (the preferred server's local id).
  EXPECT_EQ(router.target_of(0), topo.global_id(0, 1));
  EXPECT_EQ(router.target_of(1), topo.global_id(1, 1));
  // Rotating ring 1 must not disturb ring 0's sticky target.
  const ProcessId rotated = router.rotate(1, router.target_of(1));
  EXPECT_EQ(rotated, topo.global_id(1, 2));
  EXPECT_EQ(router.target_of(1), topo.global_id(1, 2));
  EXPECT_EQ(router.target_of(0), topo.global_id(0, 1));
  // Rotation wraps within the ring's block, never into another ring.
  EXPECT_EQ(router.rotate(1, router.target_of(1)), topo.global_id(1, 0));
}

// ------------------------------------------- R = 1 golden wire-frame pin

namespace {

/// Captures everything a session hands its fabric, as wire bytes.
struct RecordingCtx final : ClientContext {
  struct Sent {
    ProcessId to;
    std::string bytes;
  };
  std::vector<Sent> sent;
  std::vector<std::pair<double, std::uint64_t>> timers;
  double clock = 0;

  void send_server(ProcessId server, net::PayloadPtr msg) override {
    sent.push_back({server, encode_message(*msg)});
  }
  void arm_timer(double delay, std::uint64_t token) override {
    timers.emplace_back(delay, token);
  }
  [[nodiscard]] double now() const override { return clock; }
};

/// Issues the same op/timeout sequence through `session`.
void drive(ClientSession& session, RecordingCtx& ctx) {
  session.begin_write(kDefaultObject, Value::synthetic(1, 64), ctx);
  session.begin_read(kDefaultObject, ctx);  // queued behind the write
  session.begin_write(7, Value::synthetic(2, 64), ctx);
  // Time out the first write twice: rotation + re-send, the sticky target.
  const auto timer0 = ctx.timers.at(0).second;
  ctx.clock = 0.25;
  session.on_timer(timer0, ctx);
  session.on_timer(ctx.timers.back().second, ctx);
}

}  // namespace

TEST(ShardGolden, SingleRingTopologySessionIsBitForBitTheLegacySession) {
  // One session built the pre-sharding way (n_servers only), one through an
  // explicit Topology::single — every emitted frame, target and timer must
  // be identical. This is the "pinned single-ring mode" guarantee.
  ClientOptions legacy;
  legacy.n_servers = 3;
  legacy.preferred_server = 1;
  legacy.max_inflight = 2;
  ClientOptions topo = legacy;
  topo.topology = Topology::single(3);

  ClientSession a(/*id=*/9, legacy), b(/*id=*/9, topo);
  RecordingCtx ca, cb;
  drive(a, ca);
  drive(b, cb);

  ASSERT_EQ(ca.sent.size(), cb.sent.size());
  for (std::size_t i = 0; i < ca.sent.size(); ++i) {
    EXPECT_EQ(ca.sent[i].to, cb.sent[i].to) << "send " << i;
    EXPECT_EQ(ca.sent[i].bytes, cb.sent[i].bytes) << "send " << i;
  }
  EXPECT_EQ(ca.timers, cb.timers);
}

TEST(ShardGolden, SingleRingSessionEmitsTheSeedFrameLayout) {
  // Golden pin against the hand-built seed layout (kind u8, reserved 0 u8,
  // client u64, req u64, payload): a topology-constructed session must put
  // exactly these bytes on the wire for default-object traffic.
  ClientOptions opts;
  opts.n_servers = 3;
  opts.preferred_server = 0;
  opts.topology = Topology::single(3);
  opts.max_inflight = 2;
  ClientSession session(/*id=*/1234, opts);
  RecordingCtx ctx;
  const Value v = Value::synthetic(9, 100);
  session.begin_write(kDefaultObject, Value(v), ctx);
  // Complete the write (one op per object) so the read goes out too.
  session.on_reply(ClientWriteAck(1, kDefaultObject), /*from=*/0, ctx);
  session.begin_read(kDefaultObject, ctx);

  ASSERT_EQ(ctx.sent.size(), 2u);
  {
    Encoder e;
    e.u8(kClientWrite);
    e.u8(0);  // version 0: no object field — the seed protocol
    e.u64(1234);
    e.u64(1);  // first write request id
    e.value(v);
    EXPECT_EQ(ctx.sent[0].bytes, std::move(e).result());
  }
  {
    Encoder e;
    e.u8(kClientRead);
    e.u8(0);
    e.u64(1234);
    e.u64(kReadRequestBit | 1);  // first read id, flagged space
    EXPECT_EQ(ctx.sent[1].bytes, std::move(e).result());
  }
}

}  // namespace
}  // namespace hts::core

namespace hts::harness {
namespace {

// --------------------------------------------- single-ring cluster parity

TEST(ShardSim, SingleRingTopologyClusterReproducesTheLegacyRunExactly) {
  // The simulator is deterministic: the same workload on (a) the legacy
  // n_servers config and (b) an explicit Topology::single must produce the
  // same wire history — message and byte totals on both networks — and the
  // same final register states. Any divergence means the sharding layer
  // leaked into single-ring behaviour.
  auto run = [](bool explicit_topology) {
    sim::Simulator sim;
    SimClusterConfig cfg;
    cfg.n_servers = 3;
    if (explicit_topology) cfg.topology = core::Topology::single(3);
    SimCluster cluster(sim, cfg);
    UniqueValueSource values;
    std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
    for (ProcessId s = 0; s < 3; ++s) {
      const auto m = cluster.add_client_machine();
      cluster.add_client(m, s);
      const ClientId id = static_cast<ClientId>(cluster.client_count() - 1);
      WorkloadConfig wl;
      wl.write_fraction = 0.5;
      wl.value_size = 512;
      wl.stop_at = 0.1;
      wl.measure_from = 0;
      wl.measure_until = 0.1;
      wl.seed = 7 + s;
      wl.n_objects = 4;
      drivers.push_back(std::make_unique<ClosedLoopDriver>(
          sim, cluster.port(id), id, wl, values, nullptr));
    }
    for (auto& d : drivers) d->start();
    sim.run_to_quiescence();
    struct Snapshot {
      std::uint64_t server_msgs, server_bytes, client_msgs, client_bytes;
      std::vector<std::string> tags;
    } s;
    s.server_msgs = cluster.server_network().total_messages_sent();
    s.server_bytes = cluster.server_network().total_bytes_sent();
    s.client_msgs = cluster.client_network().total_messages_sent();
    s.client_bytes = cluster.client_network().total_bytes_sent();
    for (ProcessId p = 0; p < 3; ++p) {
      for (ObjectId obj = 0; obj < 4; ++obj) {
        s.tags.push_back(cluster.server(p).current_tag(obj).to_string());
      }
    }
    return std::make_tuple(s.server_msgs, s.server_bytes, s.client_msgs,
                           s.client_bytes, s.tags);
  };
  EXPECT_EQ(run(false), run(true));
}

// ------------------------------------------------------- multi-ring runs

lincheck::History run_sharded_sim(sim::Simulator& sim, SimCluster& cluster,
                                  std::uint64_t seed, std::size_t n_objects,
                                  std::size_t pipeline) {
  const core::Topology& topo = cluster.topology();
  lincheck::History history;
  UniqueValueSource values;
  std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
  for (std::size_t c = 0; c < topo.total_servers(); ++c) {
    const auto m = cluster.add_client_machine();
    cluster.add_client(m, static_cast<ProcessId>(c));
    const ClientId id = static_cast<ClientId>(cluster.client_count() - 1);
    WorkloadConfig wl;
    wl.write_fraction = 0.6;
    wl.value_size = 512;
    wl.stop_at = 0.15;
    wl.measure_from = 0;
    wl.measure_until = 0.15;
    wl.seed = seed + c;
    wl.n_objects = n_objects;
    wl.pipeline = pipeline;
    drivers.push_back(std::make_unique<ClosedLoopDriver>(
        sim, cluster.port(id), id, wl, values, &history));
  }
  for (auto& d : drivers) d->start();
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();
  return history;
}

TEST(ShardSim, MultiRingHistoriesAreLinearizableAndRingConsistent) {
  const core::Topology topo{2, 3};
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = topo;
  cfg.client_max_inflight = 4;
  cfg.client_retry_timeout_s = 0.05;
  SimCluster cluster(sim, cfg);
  auto h = run_sharded_sim(sim, cluster, 11, /*n_objects=*/8,
                           /*pipeline=*/4);
  ASSERT_GT(h.size(), 100u);

  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  EXPECT_TRUE(lincheck::check_tag_order(h).linearizable);
  EXPECT_TRUE(lincheck::check_ring_assignment(h).linearizable);

  // Every op was served by the ring the shard map assigns its object — and
  // the workload genuinely exercised both rings.
  const core::ShardMap map(topo.n_rings());
  std::set<RingId> rings_used;
  for (const auto& op : h.ops()) {
    ASSERT_NE(op.ring, kNoRing) << op.describe();
    EXPECT_EQ(op.ring, map.ring_of(op.object)) << op.describe();
    rings_used.insert(op.ring);
  }
  EXPECT_EQ(rings_used.size(), 2u) << "objects must span both rings";

  // Per-ring traffic: both shards moved wire bytes, and the per-ring
  // counters decompose the network totals exactly (the server network
  // carries only ring traffic when networks are separate).
  const auto per_ring = cluster.traffic_per_ring();
  ASSERT_EQ(per_ring.size(), 2u);
  RingTraffic total = total_traffic(per_ring);
  EXPECT_GT(per_ring[0].transmissions, 0u);
  EXPECT_GT(per_ring[1].transmissions, 0u);
  EXPECT_EQ(total.transmissions,
            cluster.server_network().total_messages_sent());
  EXPECT_EQ(total.bytes, cluster.server_network().total_bytes_sent());
}

TEST(ShardSim, CrashInOneRingLeavesOtherShardsUndisturbed) {
  const core::Topology topo{2, 3};
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = topo;
  cfg.client_max_inflight = 4;
  cfg.client_retry_timeout_s = 0.05;
  SimCluster cluster(sim, cfg);
  lincheck::History history;
  UniqueValueSource values;
  std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
  for (std::size_t c = 0; c < topo.total_servers(); ++c) {
    const auto m = cluster.add_client_machine();
    cluster.add_client(m, static_cast<ProcessId>(c));
    const ClientId id = static_cast<ClientId>(cluster.client_count() - 1);
    WorkloadConfig wl;
    wl.write_fraction = 0.6;
    wl.value_size = 512;
    wl.stop_at = 0.2;
    wl.measure_from = 0;
    wl.measure_until = 0.2;
    wl.seed = 31 + c;
    wl.n_objects = 8;
    wl.pipeline = 4;
    drivers.push_back(std::make_unique<ClosedLoopDriver>(
        sim, cluster.port(id), id, wl, values, &history));
  }
  // Crash server 1 of ring 0 (global id 1) mid-run.
  cluster.schedule_crash(0.05, 1);
  for (auto& d : drivers) d->start();
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();

  ASSERT_GT(history.size(), 50u);
  auto verdict = lincheck::check_register(history);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  // Ring 0 lost a server and repaired; ring 1 must never have noticed: its
  // servers saw three peers throughout.
  EXPECT_FALSE(cluster.server_up(1));
  for (ProcessId local = 0; local < 3; ++local) {
    const ProcessId g = topo.global_id(1, local);
    EXPECT_TRUE(cluster.server_up(g));
    EXPECT_EQ(cluster.server(g).ring().alive_count(), 3u);
    EXPECT_EQ(cluster.server(g).stats().syncs_sent, 0u)
        << "ring 1 server " << local << " ran crash repair";
  }
  // Every op completed despite the crash.
  for (const auto& op : history.ops()) {
    EXPECT_FALSE(op.pending()) << op.describe();
  }
}

TEST(ShardChecker, CrossRingHistoryIsRejected) {
  // One object, two serving rings: per-ring views are each perfectly
  // linearizable (each ring saw a private copy), which is exactly why the
  // checker must reject on the ring tags alone.
  lincheck::History h;
  h.record_write(/*c=*/1, /*value=*/10, 0.0, 1.0, /*object=*/5, /*ring=*/0);
  h.record_read(/*c=*/2, /*value=*/lincheck::kInitialValueId, 2.0, 3.0,
                kInitialTag, /*object=*/5, /*ring=*/1);
  auto verdict = lincheck::check_register(h);
  ASSERT_FALSE(verdict.linearizable);
  EXPECT_NE(verdict.explanation.find("two rings"), std::string::npos)
      << verdict.explanation;
  EXPECT_FALSE(lincheck::check_register_brute(h).linearizable);
  EXPECT_FALSE(lincheck::check_ring_assignment(h).linearizable);

  // The same reads/writes on one ring pass (the merged history is fine:
  // the read saw the initial value before... no — read follows the write,
  // so the single-ring version must FAIL linearizability instead, proving
  // the cross-ring rejection fired for the right reason).
  lincheck::History same_ring;
  same_ring.record_write(1, 10, 0.0, 1.0, 5, 0);
  same_ring.record_read(2, lincheck::kInitialValueId, 2.0, 3.0, kInitialTag,
                        5, 0);
  auto v2 = lincheck::check_register(same_ring);
  ASSERT_FALSE(v2.linearizable);
  EXPECT_EQ(v2.explanation.find("two rings"), std::string::npos)
      << "single-ring failure must be a linearizability witness, not a "
         "ring-assignment one: "
      << v2.explanation;
}

TEST(ShardThreaded, MultiRingClusterServesAndSurvivesAShardCrash) {
  const core::Topology topo{2, 3};
  ThreadedClusterConfig cfg;
  cfg.topology = topo;
  cfg.client_retry_timeout_s = 0.05;
  cfg.client_max_inflight = 8;
  ThreadedCluster cluster(cfg);
  auto& alice = cluster.add_client(0);                      // ring 0 preferred
  auto& bob = cluster.add_client(topo.global_id(1, 0));     // ring 1 preferred
  cluster.start();

  // Writes across enough objects to hit both rings.
  const core::ShardMap map(topo.n_rings());
  std::set<RingId> rings_hit;
  std::vector<std::future<core::OpResult>> acks;
  for (ObjectId obj = 1; obj <= 12; ++obj) {
    rings_hit.insert(map.ring_of(obj));
    acks.push_back(alice.async_write(obj, Value::synthetic(obj, 128)));
  }
  ASSERT_EQ(rings_hit.size(), 2u) << "objects 1..12 must span both rings";
  for (auto& a : acks) (void)a.get();

  // Crash one server of ring 1, then keep writing everywhere: ring 0 is
  // untouched, ring 1 repairs and keeps serving.
  cluster.crash_server(topo.global_id(1, 1));
  acks.clear();
  for (ObjectId obj = 1; obj <= 12; ++obj) {
    acks.push_back(alice.async_write(obj, Value::synthetic(100 + obj, 128)));
  }
  for (auto& a : acks) (void)a.get();

  for (ObjectId obj = 1; obj <= 12; ++obj) {
    auto r = bob.read_result(obj);
    EXPECT_EQ(r.value, Value::synthetic(100 + obj, 128)) << "object " << obj;
    EXPECT_EQ(r.ring, map.ring_of(obj)) << "object " << obj;
    EXPECT_EQ(cluster.topology().ring_of_server(r.served_by), r.ring)
        << "reply must come from the object's ring";
  }

  ASSERT_TRUE(cluster.wait_quiescent(5.0));
  auto h = cluster.history();
  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  EXPECT_TRUE(lincheck::check_ring_assignment(h).linearizable);

  // Per-ring traffic is tracked on the threaded fabric too.
  const auto per_ring = cluster.traffic_per_ring();
  ASSERT_EQ(per_ring.size(), 2u);
  EXPECT_GT(per_ring[0].transmissions, 0u);
  EXPECT_GT(per_ring[1].transmissions, 0u);
  EXPECT_GT(per_ring[0].ring_messages, 0u);
  EXPECT_GT(per_ring[1].ring_messages, 0u);
}

}  // namespace
}  // namespace hts::harness
