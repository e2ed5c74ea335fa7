// Epoch-versioned cluster views and live reconfiguration, end to end
// (DESIGN.md §Reconfiguration, D8): heterogeneous topologies, the
// migration-bound property of the consistent-hash shard map, epoch framing
// golden pins (epoch 0 = PR 4 bit-for-bit), server-side freeze/park/replay
// gating, live ring add/remove with concurrent crashes on both fabrics, the
// epoch-aware lincheck pass, and per-ring crash/repair drills at scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "code/crc32.h"
#include "code/policy.h"
#include "core/client.h"
#include "core/messages.h"
#include "core/reconfig.h"
#include "core/server.h"
#include "core/topology.h"
#include "harness/experiment.h"
#include "harness/sim_cluster.h"
#include "harness/threaded_cluster.h"
#include "harness/workload.h"
#include "lincheck/checker.h"
#include "sim/simulator.h"

namespace hts::core {
namespace {

// ------------------------------------------------- heterogeneous topology

TEST(TopologyHeterogeneous, AddressingRoundTripsAcrossUnevenRings) {
  const Topology t{std::vector<std::size_t>{3, 2, 4}};
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.n_rings(), 3u);
  EXPECT_EQ(t.total_servers(), 9u);
  EXPECT_EQ(t.ring_size(0), 3u);
  EXPECT_EQ(t.ring_size(1), 2u);
  EXPECT_EQ(t.ring_size(2), 4u);
  EXPECT_EQ(t.ring_base(0), 0u);
  EXPECT_EQ(t.ring_base(1), 3u);
  EXPECT_EQ(t.ring_base(2), 5u);
  for (ProcessId g = 0; g < t.total_servers(); ++g) {
    const RingId r = t.ring_of_server(g);
    const ProcessId local = t.local_id(g);
    EXPECT_LT(local, t.ring_size(r));
    EXPECT_EQ(t.global_id(r, local), g);
    EXPECT_EQ(t.ring_base(r) + local, g);
  }
}

TEST(TopologyHeterogeneous, UniformConstructorMatchesTheOldShape) {
  const Topology uniform{3, 5};
  EXPECT_EQ(uniform, Topology(std::vector<std::size_t>{5, 5, 5}));
  EXPECT_EQ(uniform.total_servers(), 15u);
  // The closed-form ring-major arithmetic of the equal-size topology.
  for (ProcessId g = 0; g < 15; ++g) {
    EXPECT_EQ(uniform.ring_of_server(g), g / 5);
    EXPECT_EQ(uniform.local_id(g), g % 5);
  }
}

TEST(TopologyHeterogeneous, GrowAndShrinkPreserveExistingGlobalIds) {
  const Topology t{std::vector<std::size_t>{3, 2}};
  const Topology grown = t.with_ring(4);
  EXPECT_EQ(grown.n_rings(), 3u);
  EXPECT_EQ(grown.ring_size(2), 4u);
  for (ProcessId g = 0; g < t.total_servers(); ++g) {
    EXPECT_EQ(grown.ring_of_server(g), t.ring_of_server(g));
    EXPECT_EQ(grown.local_id(g), t.local_id(g));
  }
  EXPECT_EQ(grown.without_last_ring(), t);
}

TEST(ShardRouter, RotationStaysInsideHeterogeneousRings) {
  const Topology topo{std::vector<std::size_t>{3, 2}};
  ShardRouter router(topo, /*preferred=*/1);
  // Ring 1 has two servers: rotation cycles within {3, 4}.
  EXPECT_EQ(router.target_of(1), topo.global_id(1, 1));
  EXPECT_EQ(router.rotate(1, topo.global_id(1, 1)), topo.global_id(1, 0));
  EXPECT_EQ(router.rotate(1, topo.global_id(1, 0)), topo.global_id(1, 1));
  // Ring 0 is untouched by ring 1's rotation.
  EXPECT_EQ(router.target_of(0), 1u);
}

TEST(ShardRouter, SetTopologyKeepsSurvivingStickyTargets) {
  ShardRouter router(Topology{2, 3}, /*preferred=*/0);
  router.rotate(0, router.target_of(0));  // ring 0 sticky → local 1
  const ProcessId sticky0 = router.target_of(0);
  router.set_topology(Topology{2, 3}.with_ring(3));
  EXPECT_EQ(router.target_of(0), sticky0) << "surviving sticky lost";
  EXPECT_EQ(router.topology().n_rings(), 3u);
  // The new ring starts at the preferred local index.
  EXPECT_EQ(router.target_of(2), router.topology().global_id(2, 0));
}

// ------------------------------------------------- migration bound (D8)

TEST(MigrationBound, GrowChurnIsExactlyShardMapChurnAndBounded) {
  // For R → R+1 over R = 1..8 and a 10k-object namespace: the planner's
  // moved set is exactly the set of objects whose map assignment changed,
  // every moved object lands on the new ring, and the fraction stays in a
  // band around the consistent-hash expectation 1/(R+1).
  const std::size_t kObjects = 10'000;
  std::vector<ObjectId> all(kObjects);
  for (ObjectId o = 0; o < kObjects; ++o) all[o] = o;
  for (std::size_t r = 1; r <= 8; ++r) {
    const ShardMap before(r), after(r + 1);
    const std::vector<ObjectId> moved = moved_objects(all, before, after);
    std::size_t direct = 0;
    for (ObjectId o = 0; o < kObjects; ++o) {
      const bool moves = before.ring_of(o) != after.ring_of(o);
      if (moves) {
        ++direct;
        EXPECT_EQ(after.ring_of(o), static_cast<RingId>(r))
            << "R=" << r << " object " << o
            << " moved between pre-existing rings";
      }
      EXPECT_EQ(moves, object_moves(o, before, after));
    }
    ASSERT_EQ(moved.size(), direct) << "planner disagrees with the map, R="
                                    << r;
    const double frac =
        static_cast<double>(moved.size()) / static_cast<double>(kObjects);
    const double expected = expected_move_fraction(r, r + 1);
    EXPECT_NEAR(expected, 1.0 / static_cast<double>(r + 1), 1e-12);
    EXPECT_GT(frac, 0.25 * expected) << "R=" << r;
    EXPECT_LT(frac, 2.5 * expected) << "R=" << r;
  }
}

// ---------------------------------------------------- epoch wire framing

TEST(EpochWire, EpochZeroFramesAreByteIdenticalToPR4) {
  // Golden pin of the flags-byte layout: epoch-0 frames must serialize to
  // exactly the pre-epoch format — flags 0 for the default object (the seed
  // protocol), flags 0x1 + u64 for any other object. No epoch bytes.
  const Value v = Value::synthetic(5, 32);
  {
    Encoder e;
    e.u8(kClientWrite);
    e.u8(0);  // flags 0: seed frame
    e.u64(9);
    e.u64(4);
    e.value(v);
    EXPECT_EQ(encode_message(ClientWrite(9, 4, v, kDefaultObject)),
              std::move(e).result());
  }
  {
    Encoder e;
    e.u8(kClientWrite);
    e.u8(1);  // flags 0x1: PR 4 object frame
    e.u64(77);
    e.u64(9);
    e.u64(4);
    e.value(v);
    EXPECT_EQ(encode_message(ClientWrite(9, 4, v, 77)),
              std::move(e).result());
  }
  // And the epoch costs exactly 4 bytes, after the object field.
  {
    Encoder e;
    e.u8(kClientWrite);
    e.u8(3);  // flags 0x3: object + epoch
    e.u64(77);
    e.u32(2);
    e.u64(9);
    e.u64(4);
    e.value(v);
    const ClientWrite m(9, 4, v, 77, 2);
    const std::string bytes = encode_message(m);
    EXPECT_EQ(bytes, std::move(e).result());
    EXPECT_EQ(bytes.size(), m.wire_size());
    EXPECT_EQ(m.wire_size(), ClientWrite(9, 4, v, 77).wire_size() + 4);
  }
}

TEST(EpochWire, AllMessagesRoundTripWithEpochs) {
  const Value v = Value::synthetic(3, 48);
  const Tag t{7, 2};
  std::vector<net::PayloadPtr> msgs;
  msgs.push_back(net::make_payload<ClientWrite>(1, 2, v, 5, 3));
  msgs.push_back(net::make_payload<ClientWriteAck>(2, 5, 3));
  msgs.push_back(net::make_payload<ClientRead>(1, 2, 0, 3));
  msgs.push_back(net::make_payload<ClientReadAck>(2, v, t, 5, 0));
  msgs.push_back(net::make_payload<EpochNack>(2, 5, 4));
  msgs.push_back(net::make_payload<PreWrite>(t, v, 1, 2, 5, 3));
  msgs.push_back(net::make_payload<WriteCommit>(t, 1, 2, 5, 3));
  msgs.push_back(net::make_payload<SyncState>(t, v, 5, 3));
  msgs.push_back(net::make_payload<MigrateState>(t, v, 5, 3));
  msgs.push_back(net::make_payload<MigrateDedup>(
      std::vector<MigrateDedup::Window>{{4, 9, {11, 13}}, {6, 2, {}}}, 3));
  for (const auto& m : msgs) {
    const std::string bytes = encode_message(*m);
    EXPECT_EQ(bytes.size(), m->wire_size()) << m->describe();
    const auto back = decode_message(bytes);
    EXPECT_EQ(encode_message(*back), bytes) << m->describe();
    EXPECT_EQ(back->describe(), m->describe());
  }
  // Unknown flag bits are wire garbage, not silently ignored.
  std::string bad = encode_message(ClientWrite(1, 2, v, kDefaultObject));
  bad[1] = 0x4;
  EXPECT_THROW((void)decode_message(bad), DecodeError);
}

// ------------------------------------------------ server-side gating (D8)

namespace {

struct CollectCtx final : ServerContext {
  std::vector<std::pair<ClientId, net::PayloadPtr>> sent;
  void send_client(ClientId client, net::PayloadPtr msg) override {
    sent.emplace_back(client, std::move(msg));
  }
  [[nodiscard]] const net::Payload* last() const {
    return sent.empty() ? nullptr : sent.back().second.get();
  }
};

}  // namespace

TEST(ServerGating, FreezeNacksMovingObjectsAndParksIncomingOnes) {
  // Two rings; this server is ring 0, server 0 of 1 (solo for simplicity).
  auto old_map = std::make_shared<const ShardMap>(2);
  auto new_map = std::make_shared<const ShardMap>(3);
  // Find an object that moves from ring 0 to the new ring 2, one that stays
  // on ring 0, and one that moves from ring 1 to ring 2.
  ObjectId moving_away = 0, staying = 0, moving_elsewhere = 0;
  bool f1 = false, f2 = false, f3 = false;
  for (ObjectId o = 1; o < 5'000 && !(f1 && f2 && f3); ++o) {
    if (!f1 && old_map->ring_of(o) == 0 && new_map->ring_of(o) == 2) {
      moving_away = o;
      f1 = true;
    } else if (!f2 && old_map->ring_of(o) == 0 && new_map->ring_of(o) == 0) {
      staying = o;
      f2 = true;
    } else if (!f3 && old_map->ring_of(o) == 1 && new_map->ring_of(o) == 2) {
      moving_elsewhere = o;
      f3 = true;
    }
  }
  ASSERT_TRUE(f1 && f2 && f3);

  RingServer ring0(0, 1);
  ring0.install_view(ServerView{0, 0, old_map});
  CollectCtx ctx;

  // Before the change: owned objects serve; others NACK with epoch 0.
  ring0.on_client_write(7, 1, Value::synthetic(1, 8), ctx, staying);
  ASSERT_EQ(ctx.last()->kind(), kClientWriteAck);  // solo ring: instant
  ring0.on_client_read(7, kReadRequestBit | 1, ctx, moving_elsewhere);
  ASSERT_EQ(ctx.last()->kind(), kEpochNack);
  EXPECT_EQ(static_cast<const EpochNack&>(*ctx.last()).epoch, 0u);

  // Freeze: moving-away objects NACK with the next epoch, staying objects
  // still serve, and a write completed before the freeze dedup-acks even
  // though its register is frozen.
  ring0.on_client_write(7, 2, Value::synthetic(2, 8), ctx, moving_away);
  ASSERT_EQ(ctx.last()->kind(), kClientWriteAck);
  ring0.begin_view_change(ServerView{1, 0, new_map});
  ring0.on_client_write(7, 3, Value::synthetic(3, 8), ctx, moving_away);
  ASSERT_EQ(ctx.last()->kind(), kEpochNack);
  EXPECT_EQ(static_cast<const EpochNack&>(*ctx.last()).epoch, 1u);
  ring0.on_client_write(7, 2, Value::synthetic(2, 8), ctx, moving_away);
  ASSERT_EQ(ctx.last()->kind(), kClientWriteAck) << "dedup-ack while frozen";

  ring0.on_client_write(7, 4, Value::synthetic(4, 8), ctx, staying);
  ASSERT_EQ(ctx.last()->kind(), kClientWriteAck);
  EXPECT_TRUE(ring0.object_quiescent(moving_away));

  // Destination side: a new ring-2 server parks ops on objects it gains,
  // collapses duplicate retries of one write, installs the migrated state,
  // and serves the parked ops at the flip from that state.
  RingServer ring2(0, 1);
  ring2.install_view(ServerView{0, 2, old_map});  // owns nothing under e0
  ring2.begin_view_change(ServerView{1, 2, new_map});
  CollectCtx ctx2;
  ring2.on_client_write(8, 1, Value::synthetic(9, 8), ctx2, moving_away);
  ring2.on_client_write(8, 1, Value::synthetic(9, 8), ctx2, moving_away);
  ring2.on_client_read(9, kReadRequestBit | 1, ctx2, moving_away);
  EXPECT_TRUE(ctx2.sent.empty()) << "transition ops must park";
  EXPECT_EQ(ring2.transition_backlog(), 2u) << "duplicate write not merged";

  const MigrateState copy(ring0.current_tag(moving_away),
                          ring0.current_value(moving_away), moving_away, 1);
  ring2.on_migrate_state(copy);
  EXPECT_TRUE(ring2.has_migrated(moving_away));
  ring2.commit_view_change(ctx2);
  ASSERT_EQ(ctx2.sent.size(), 2u);  // write ack + read ack
  EXPECT_EQ(ctx2.sent[0].second->kind(), kClientWriteAck);
  const auto& rd = static_cast<const ClientReadAck&>(*ctx2.sent[1].second);
  EXPECT_EQ(rd.epoch, 1u);
  EXPECT_EQ(rd.value, Value::synthetic(9, 8)) << "parked write then read";
  EXPECT_GT(rd.tag, copy.tag) << "new write must tag past the migrated tag";
  EXPECT_EQ(ring2.epoch(), 1u);
}

TEST(ServerGating, MigratedDedupWindowsAckRetriesInsteadOfReapplying) {
  RingServer dst(0, 1);
  auto map1 = std::make_shared<const ShardMap>(1);
  dst.install_view(ServerView{1, 0, map1});
  MigrateDedup dedup({{/*client=*/5, /*watermark=*/3, {5}}}, 1);
  dst.on_migrate_dedup(dedup);
  CollectCtx ctx;
  // Requests 1..3 and 5 completed on the source ring: retries ack without
  // touching the register. Request 4 is new work.
  dst.on_client_write(5, 2, Value::synthetic(1, 8), ctx, kDefaultObject);
  ASSERT_EQ(ctx.last()->kind(), kClientWriteAck);
  EXPECT_TRUE(dst.current_tag(kDefaultObject).is_initial())
      << "retry must not re-apply";
  dst.on_client_write(5, 5, Value::synthetic(2, 8), ctx, kDefaultObject);
  EXPECT_TRUE(dst.current_tag(kDefaultObject).is_initial());
  dst.on_client_write(5, 4, Value::synthetic(3, 8), ctx, kDefaultObject);
  EXPECT_FALSE(dst.current_tag(kDefaultObject).is_initial())
      << "fresh write must apply";
}

TEST(ServerGating, ParkedCodedWriteReplaysAsTheSameCodedWrite) {
  // A coded write parked because its register is moving onto this server
  // must replay at the flip as the same coded write — its fragment staged,
  // the register's committed state coded — exactly as it is served outside
  // a transition, not as a replicated write of the empty value.
  auto old_map = std::make_shared<const ShardMap>(1);
  auto new_map = std::make_shared<const ShardMap>(2);
  ObjectId moving = 1;
  while (new_map->ring_of(moving) != 1) ++moving;
  const std::string frag(64, 'f');
  for (const bool parked : {false, true}) {
    SCOPED_TRACE(parked ? "parked and replayed" : "served directly");
    ServerOptions opts;
    opts.value_policy.k = 2;
    RingServer dst(0, 1, opts);  // the only server of ring 1
    dst.install_view(ServerView{0, 1, parked ? old_map : new_map});
    if (parked) dst.begin_view_change(ServerView{1, 1, new_map});
    CollectCtx ctx;
    dst.on_frag_write(FragWrite(5, 1, /*n=*/2, /*k=*/2, /*idx=*/0,
                                /*init=*/true, /*vsize=*/128, code::crc32(frag),
                                frag, moving),
                      ctx);
    if (parked) {
      EXPECT_TRUE(ctx.sent.empty()) << "transition ops must park";
      dst.commit_view_change(ctx);
    }
    ASSERT_NE(ctx.last(), nullptr);
    ASSERT_EQ(ctx.last()->kind(), kClientWriteAck);
    dst.on_client_read(6, kReadRequestBit | 1, ctx, moving);
    EXPECT_EQ(ctx.last()->kind(), kCodedReadAck);
    EXPECT_EQ(dst.fragment_bytes(), frag.size());
  }
}

TEST(ServerGating, MisroutedCodedFanOutStagesNothing) {
  // A coded write for a ring-1 register fans out to a two-server ring 0:
  // the initiate copy is NACKed and the client retries on ring 1, so the
  // other copy must not stay staged on ring 0 — only a commit frees it.
  auto map = std::make_shared<const ShardMap>(2);
  ObjectId elsewhere = 1;
  while (map->ring_of(elsewhere) != 1) ++elsewhere;
  ServerOptions opts;
  opts.value_policy.k = 2;
  RingServer s0(0, 2, opts);
  RingServer s1(1, 2, opts);
  s0.install_view(ServerView{0, 0, map});
  s1.install_view(ServerView{0, 0, map});
  const std::string frag(64, 'f');
  CollectCtx ctx;
  for (RequestId req = 1; req <= 100; ++req) {
    s0.on_frag_write(FragWrite(5, req, /*n=*/2, /*k=*/2, /*idx=*/0,
                               /*init=*/true, /*vsize=*/128,
                               code::crc32(frag), frag, elsewhere),
                     ctx);
    s1.on_frag_write(FragWrite(5, req, /*n=*/2, /*k=*/2, /*idx=*/1,
                               /*init=*/false, /*vsize=*/128,
                               code::crc32(frag), frag, elsewhere),
                     ctx);
  }
  EXPECT_EQ(s0.stats().epoch_nacks, 100u);
  EXPECT_EQ(s0.fragment_bytes(), 0u);
  EXPECT_EQ(s1.fragment_bytes(), 0u);
}

TEST(ServerGating, FlipDropsFragmentsStagedForARegisterThatMovedAway) {
  // A non-initiate copy lands while its register still belongs to this
  // ring; its initiate copy is NACKed because the register is moving away.
  // Once the flip drains the register, nothing can commit it here.
  auto old_map = std::make_shared<const ShardMap>(1);
  auto new_map = std::make_shared<const ShardMap>(2);
  ObjectId moving = 1;
  while (new_map->ring_of(moving) != 1) ++moving;
  ServerOptions opts;
  opts.value_policy.k = 2;
  RingServer src(1, 2, opts);
  src.install_view(ServerView{0, 0, old_map});
  const std::string frag(64, 'f');
  CollectCtx ctx;
  src.on_frag_write(FragWrite(5, 1, /*n=*/2, /*k=*/2, /*idx=*/1,
                              /*init=*/false, /*vsize=*/128,
                              code::crc32(frag), frag, moving),
                    ctx);
  EXPECT_EQ(src.fragment_bytes(), frag.size()) << "may still commit here";
  src.begin_view_change(ServerView{1, 0, new_map});
  src.commit_view_change(ctx);
  EXPECT_EQ(src.fragment_bytes(), 0u);
}

// ------------------------------------- migration coordinator, no fabric

using Kind = MigrationCommand::Kind;

/// Runs a MigrationCoordinator against scripted servers: each server
/// answers probes with a fixed reply, and a hook may change the script
/// (kill servers, land installs) as commands go by.
struct ScriptedFabric {
  explicit ScriptedFabric(MigrationPlan plan) : coord(std::move(plan)) {}

  MigrationCoordinator coord;
  std::set<ProcessId> down;
  std::map<ProcessId, MigrationProbe> replies;
  std::function<void(const MigrationCommand&)> before;
  std::vector<MigrationCommand> log;

  /// Executes commands until kDone; false if it never gets there.
  bool run() {
    for (int step = 0; step < 10000; ++step) {
      const MigrationCommand cmd = coord.next();
      if (before) before(cmd);
      log.push_back(cmd);
      switch (cmd.kind) {
        case Kind::kDone:
          return true;
        case Kind::kPublish:
        case Kind::kWait:
        case Kind::kRetire:
          break;
        default:
          if (down.contains(cmd.server)) {
            coord.on_down();
          } else if (cmd.kind == Kind::kProbe) {
            coord.on_probe(replies[cmd.server]);
          }
      }
    }
    return false;
  }

  [[nodiscard]] std::vector<MigrationCommand> commands(Kind kind) const {
    std::vector<MigrationCommand> out;
    for (const auto& c : log) {
      if (c.kind == kind) out.push_back(c);
    }
    return out;
  }
  [[nodiscard]] std::vector<ProcessId> servers(Kind kind) const {
    std::vector<ProcessId> out;
    for (const auto& c : commands(kind)) out.push_back(c.server);
    return out;
  }
};

/// First object (from 1) that `to` assigns to `ring` and `from` elsewhere.
ObjectId object_moving_to(RingId ring, RingId from_ring, std::size_t from,
                          std::size_t to) {
  const ShardMap a(from), b(to);
  for (ObjectId obj = 1;; ++obj) {
    if (b.ring_of(obj) == ring && a.ring_of(obj) == from_ring) return obj;
  }
}

MigrationPlan grow_plan(const Topology& from, std::size_t ring_size) {
  return MigrationPlan::grow(ClusterView{0, from},
                             std::make_shared<const ShardMap>(from.n_rings()),
                             ring_size, /*coded=*/false);
}

MigrationProbe holds(std::vector<std::pair<ObjectId, Tag>> moving) {
  MigrationProbe p;
  p.moving = std::move(moving);
  return p;
}

MigrationProbe installed(std::vector<ObjectId> migrated,
                         std::uint64_t merges) {
  MigrationProbe p;
  p.migrated = std::move(migrated);
  p.dedup_merges = merges;
  return p;
}

TEST(MigrationCoordinator, FreezesPublishesThenPollsInOrder) {
  ScriptedFabric f(grow_plan(Topology{1, 2}, 1));
  f.replies[2] = installed({}, 1);
  ASSERT_TRUE(f.run());
  // Freeze every member in global order, publish, yield once, then poll.
  ASSERT_GE(f.log.size(), 5u);
  EXPECT_EQ(f.log[0].kind, Kind::kBeginViewChange);
  EXPECT_EQ(f.log[0].view.epoch, 1u);
  EXPECT_EQ(f.log[2].server, 2u);
  EXPECT_EQ(f.log[2].view.ring, 1u);
  EXPECT_EQ(f.log[3].kind, Kind::kPublish);
  EXPECT_EQ(f.log[4].kind, Kind::kWait);
  EXPECT_EQ(f.log[4].delay_s, 0.0);
  // Nothing moves: one dedup shipment, then the flip on every member.
  EXPECT_EQ(f.servers(Kind::kEmitDedup), (std::vector<ProcessId>{0}));
  EXPECT_TRUE(f.commands(Kind::kEmitState).empty());
  EXPECT_EQ(f.servers(Kind::kCommit), (std::vector<ProcessId>{0, 1, 2}));
}

TEST(MigrationCoordinator, RejectsACodedPlan) {
  MigrationPlan plan = grow_plan(Topology{2, 3}, 3);
  plan.coded = true;
  EXPECT_THROW(MigrationCoordinator{plan}, std::logic_error);
}

TEST(MigrationCoordinator, SourceDyingMidEmitIsReplacedByTheNextMaxTagHolder) {
  // One old ring {0,1,2} grows a ring {3,4}; s1 and s2 hold the max tag.
  const ObjectId obj = object_moving_to(1, 0, 1, 2);
  ScriptedFabric f(grow_plan(Topology{1, 3}, 2));
  f.replies[0] = holds({{obj, Tag{4, 1}}});
  f.replies[1] = holds({{obj, Tag{5, 2}}});
  f.replies[2] = holds({{obj, Tag{5, 2}}});
  f.replies[3] = f.replies[4] = installed({obj}, 1);
  f.before = [&](const MigrationCommand& c) {
    if (c.kind == Kind::kEmitState && c.server == 1) f.down.insert(1);
  };
  ASSERT_TRUE(f.run());
  const auto emits = f.commands(Kind::kEmitState);
  ASSERT_EQ(emits.size(), 2u);
  EXPECT_EQ(emits[0].server, 1u) << "first max-tag holder wins";
  EXPECT_EQ(emits[1].server, 2u) << "re-emitted from the next holder";
  for (const auto& e : emits) {
    EXPECT_EQ(e.object, obj);
    EXPECT_EQ(e.dests, (std::vector<ProcessId>{3, 4}));
  }
  EXPECT_EQ(f.servers(Kind::kCommit), (std::vector<ProcessId>{0, 2, 3, 4}));
}

TEST(MigrationCoordinator, DeadDedupShipperIsReplacedByARingPeer) {
  // Rings {0,1} and {2,3} grow a ring {4}: one shipment per source ring.
  ScriptedFabric f(grow_plan(Topology{2, 2}, 1));
  f.replies[4] = installed({}, 2);
  f.before = [&](const MigrationCommand& c) {
    if (c.kind == Kind::kEmitDedup && c.server == 0) f.down.insert(0);
  };
  ASSERT_TRUE(f.run());
  EXPECT_EQ(f.servers(Kind::kEmitDedup), (std::vector<ProcessId>{0, 1, 2}));
  EXPECT_EQ(f.commands(Kind::kEmitDedup).back().dests,
            (std::vector<ProcessId>{4}));
}

TEST(MigrationCoordinator, RegisterOfAWhollyDeadSourceRingIsSkipped) {
  // Ring 1 {2,3} dies while its register is being emitted; ring 0's
  // register still lands and the flip happens without the lost one.
  const ObjectId a = object_moving_to(2, 0, 2, 3);
  const ObjectId b = object_moving_to(2, 1, 2, 3);
  ScriptedFabric f(grow_plan(Topology{2, 2}, 1));
  f.replies[0] = f.replies[1] = holds({{a, Tag{3, 0}}});
  f.replies[2] = f.replies[3] = holds({{b, Tag{7, 1}}});
  f.replies[4] = installed({a}, 2);
  f.before = [&](const MigrationCommand& c) {
    if (c.kind == Kind::kEmitState && c.object == b) f.down = {2, 3};
  };
  ASSERT_TRUE(f.run());
  std::vector<ProcessId> b_sources;
  for (const auto& e : f.commands(Kind::kEmitState)) {
    if (e.object == b) b_sources.push_back(e.server);
  }
  EXPECT_EQ(b_sources, (std::vector<ProcessId>{2, 3}))
      << "tried every holder, never a non-holder";
  EXPECT_EQ(f.servers(Kind::kCommit), (std::vector<ProcessId>{0, 1, 4}));
}

TEST(MigrationCoordinator, FlipWaitsForEveryDestsInstallsAndDedupMerges) {
  const ObjectId obj = object_moving_to(1, 0, 1, 2);
  ScriptedFabric f(grow_plan(Topology{1, 2}, 2));
  f.replies[0] = f.replies[1] = holds({{obj, Tag{2, 0}}});
  f.replies[2] = installed({obj}, 1);
  f.replies[3] = installed({}, 0);
  int polls = 0;
  f.before = [&](const MigrationCommand& c) {
    if (c.kind != Kind::kWait) return;
    ++polls;
    if (polls == 3) f.replies[3] = installed({obj}, 0);  // state, no windows
    if (polls == 6) f.replies[3] = installed({obj}, 1);  // now complete
    if (polls <= 6) {
      EXPECT_TRUE(f.commands(Kind::kCommit).empty());
    }
  };
  ASSERT_TRUE(f.run());
  EXPECT_EQ(polls, 6) << "flip on the first poll after s3 completed";
  EXPECT_EQ(f.commands(Kind::kEmitState).size(), 1u) << "copied once";
  EXPECT_EQ(f.commands(Kind::kEmitDedup).size(), 1u) << "shipped once";
  EXPECT_EQ(f.servers(Kind::kCommit), (std::vector<ProcessId>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace hts::core

namespace hts::harness {
namespace {

// --------------------------------------------------- epoch-0 golden pin

TEST(ReconfigGolden, NeverReconfiguredClusterMatchesPR4WiringExactly) {
  // The epoch machinery must be byte-invisible until used. The constants
  // below were captured from the pre-reconfiguration wiring (no server
  // views, no client view providers) running this exact workload: message
  // and byte totals on both networks, every server's final tag per
  // register, and zero NACKs or parked ops. The cluster now always runs
  // with views and providers; the simulator is deterministic, so any
  // divergence is machinery leaking into the epoch-0 fast path.
  constexpr std::uint64_t kServerMessages = 5521;
  constexpr std::uint64_t kServerBytes = 2809216;
  constexpr std::uint64_t kClientMessages = 5182;
  constexpr std::uint64_t kClientBytes = 1879308;
  // Final tag of objects 0..15 on each ring (all three servers agree).
  const std::vector<std::vector<std::string>> kRingTags = {
      {"[0,-]", "[67,0]", "[86,2]", "[0,-]", "[0,-]", "[0,-]", "[71,0]",
       "[0,-]", "[68,2]", "[72,1]", "[62,0]", "[0,-]", "[68,1]", "[0,-]",
       "[76,1]", "[73,0]"},
      {"[73,0]", "[0,-]", "[0,-]", "[66,1]", "[86,0]", "[70,1]", "[0,-]",
       "[83,2]", "[0,-]", "[0,-]", "[0,-]", "[68,0]", "[0,-]", "[72,1]",
       "[0,-]", "[0,-]"}};

  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = core::Topology{2, 3};
  cfg.client_max_inflight = 4;
  SimCluster cluster(sim, cfg);
  UniqueValueSource values;
  std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
  for (ProcessId s = 0; s < 6; ++s) {
    const auto m = cluster.add_client_machine();
    cluster.add_client(m, s);
    const ClientId id = static_cast<ClientId>(cluster.client_count() - 1);
    WorkloadConfig wl;
    wl.write_fraction = 0.5;
    wl.value_size = 512;
    wl.stop_at = 0.1;
    wl.measure_from = 0;
    wl.measure_until = 0.1;
    wl.seed = 17 + s;
    wl.n_objects = 16;
    wl.pipeline = 4;
    drivers.push_back(std::make_unique<ClosedLoopDriver>(
        sim, cluster.port(id), id, wl, values, nullptr));
  }
  for (auto& d : drivers) d->start();
  sim.run_to_quiescence();

  EXPECT_EQ(cluster.server_network().total_messages_sent(), kServerMessages);
  EXPECT_EQ(cluster.server_network().total_bytes_sent(), kServerBytes);
  EXPECT_EQ(cluster.client_network().total_messages_sent(), kClientMessages);
  EXPECT_EQ(cluster.client_network().total_bytes_sent(), kClientBytes);
  std::uint64_t nacks = 0, parked = 0;
  for (ProcessId p = 0; p < 6; ++p) {
    const auto& tags = kRingTags[p / 3];
    for (ObjectId obj = 0; obj < 16; ++obj) {
      EXPECT_EQ(cluster.server(p).current_tag(obj).to_string(), tags[obj])
          << "server " << p << " object " << obj;
    }
    nacks += cluster.server(p).stats().epoch_nacks;
    parked += cluster.server(p).stats().transition_parked;
  }
  EXPECT_EQ(nacks, 0u) << "no op may be NACKed at epoch 0";
  EXPECT_EQ(parked, 0u) << "no op may park at epoch 0";
}

// ----------------------------------------------------- live grow on sim

/// Write+read fleet over `n_objects` registers; returns the recorded
/// history. Drivers keep issuing across the reconfiguration.
std::vector<std::unique_ptr<ClosedLoopDriver>> attach_fleet(
    sim::Simulator& sim, SimCluster& cluster, lincheck::History& history,
    UniqueValueSource& values, std::size_t n_objects, double stop_at,
    std::uint64_t seed) {
  std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
  for (std::size_t c = 0; c < cluster.topology().total_servers(); ++c) {
    const auto m = cluster.add_client_machine();
    cluster.add_client(m, static_cast<ProcessId>(c));
    const ClientId id = static_cast<ClientId>(cluster.client_count() - 1);
    WorkloadConfig wl;
    wl.write_fraction = 0.6;
    wl.value_size = 256;
    wl.stop_at = stop_at;
    wl.measure_from = 0;
    wl.measure_until = stop_at;
    wl.seed = seed + c;
    wl.n_objects = n_objects;
    wl.pipeline = 4;
    drivers.push_back(std::make_unique<ClosedLoopDriver>(
        sim, cluster.port(id), id, wl, values, &history));
  }
  return drivers;
}

/// Epoch the history reaches and the set of (object, epoch → ring) splits.
void check_epoch_history(const lincheck::History& h,
                         const std::vector<std::size_t>& rings_by_epoch,
                         bool expect_epoch1_ops) {
  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  EXPECT_TRUE(lincheck::check_tag_order(h).linearizable);
  auto strict = lincheck::check_ring_assignment(h, rings_by_epoch);
  EXPECT_TRUE(strict.linearizable) << strict.explanation;
  if (expect_epoch1_ops) {
    bool any = false;
    for (const auto& op : h.ops()) any |= op.epoch >= 1;
    EXPECT_TRUE(any) << "history never crossed the reconfiguration";
  }
}

TEST(ReconfigSim, LiveRingAddMigratesUnderTrafficWithAConcurrentCrash) {
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = core::Topology{2, 3};
  cfg.client_max_inflight = 4;
  cfg.client_retry_timeout_s = 0.05;
  SimCluster cluster(sim, cfg);
  lincheck::History history;
  UniqueValueSource values;
  const std::size_t kObjects = 32;
  auto drivers = attach_fleet(sim, cluster, history, values, kObjects,
                              /*stop_at=*/0.3, /*seed=*/101);
  for (auto& d : drivers) d->start();

  // Grow R=2 → 3 mid-run; crash a ring-0 server while the migration is in
  // flight (ring-local repair must coexist with the freeze/copy).
  cluster.schedule_add_ring(0.1, 3);
  cluster.schedule_crash(0.105, 1);
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();

  EXPECT_FALSE(cluster.reconfig_in_progress());
  EXPECT_EQ(cluster.view().epoch, 1u);
  EXPECT_EQ(cluster.topology().n_rings(), 3u);
  ASSERT_EQ(cluster.rings_by_epoch(), (std::vector<std::size_t>{2, 3}));

  // Every op completed (crash + migration both retried through), and the
  // history is per-object linearizable across the boundary with every op
  // served by its epoch's owning ring.
  ASSERT_GT(history.size(), 200u);
  for (const auto& op : history.ops()) {
    EXPECT_FALSE(op.pending()) << op.describe();
  }
  check_epoch_history(history, cluster.rings_by_epoch(),
                      /*expect_epoch1_ops=*/true);

  // Migration accounting: some registers moved, each exactly the ShardMap
  // churn of the materialised namespace, and bytes were charged for them.
  const core::MigrationStats& ms = cluster.reconfig_stats();
  EXPECT_EQ(ms.reconfigs, 1u);
  EXPECT_GT(ms.objects_moved, 0u);
  EXPECT_LT(ms.objects_moved, kObjects) << "grow must not move everything";
  EXPECT_GT(ms.bytes_moved, 0u);

  // The new ring actually serves its share after the flip.
  const core::ShardMap map3(3);
  bool new_ring_served = false;
  for (const auto& op : history.ops()) {
    if (op.epoch >= 1 && op.ring == 2) {
      new_ring_served = true;
      EXPECT_EQ(map3.ring_of(op.object), 2u) << op.describe();
    }
  }
  EXPECT_TRUE(new_ring_served);
  EXPECT_FALSE(cluster.server_up(1)) << "crashed server stays down";
}

TEST(ReconfigSim, LiveRingRemoveDrainsTheLastRingBackToSurvivors) {
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = core::Topology{3, 3};
  cfg.client_max_inflight = 4;
  cfg.client_retry_timeout_s = 0.05;
  SimCluster cluster(sim, cfg);
  lincheck::History history;
  UniqueValueSource values;
  auto drivers = attach_fleet(sim, cluster, history, values, /*objects=*/24,
                              /*stop_at=*/0.3, /*seed=*/202);
  for (auto& d : drivers) d->start();
  cluster.schedule_remove_last_ring(0.1);
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();

  EXPECT_EQ(cluster.view().epoch, 1u);
  EXPECT_EQ(cluster.topology().n_rings(), 2u);
  for (const auto& op : history.ops()) {
    EXPECT_FALSE(op.pending()) << op.describe();
  }
  check_epoch_history(history, cluster.rings_by_epoch(),
                      /*expect_epoch1_ops=*/true);
  // The retired ring's servers are down; survivors serve everything.
  for (ProcessId local = 0; local < 3; ++local) {
    EXPECT_FALSE(cluster.server_up(6 + local));
  }
  const core::ShardMap map2(2);
  for (const auto& op : history.ops()) {
    if (op.epoch >= 1) {
      EXPECT_EQ(op.ring, map2.ring_of(op.object)) << op.describe();
    }
  }
}

TEST(ReconfigSim, GrowAfterShrinkReusesTheRetiredSlots) {
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = core::Topology{2, 2};
  cfg.client_retry_timeout_s = 0.05;
  cfg.client_max_inflight = 2;
  SimCluster cluster(sim, cfg);
  lincheck::History history;
  UniqueValueSource values;
  auto drivers = attach_fleet(sim, cluster, history, values, /*objects=*/12,
                              /*stop_at=*/0.4, /*seed=*/303);
  for (auto& d : drivers) d->start();
  cluster.schedule_add_ring(0.1, 2);          // epoch 1: R=2 → 3
  cluster.schedule_remove_last_ring(0.2);     // epoch 2: R=3 → 2
  cluster.schedule_add_ring(0.3, 3);          // epoch 3: R=2 → 3 (reuse)
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();

  EXPECT_EQ(cluster.view().epoch, 3u);
  ASSERT_EQ(cluster.rings_by_epoch(), (std::vector<std::size_t>{2, 3, 2, 3}));
  for (const auto& op : history.ops()) {
    EXPECT_FALSE(op.pending()) << op.describe();
  }
  check_epoch_history(history, cluster.rings_by_epoch(),
                      /*expect_epoch1_ops=*/true);
  EXPECT_EQ(cluster.reconfig_stats().reconfigs, 3u);
}

// ------------------------------------- coded deployments cannot migrate

// MigrateState carries a replicated (tag, value), and a coded register's
// value is empty at every server: a grow would install empty registers at
// the destinations. Both fabrics must refuse before spawning anything.
code::ValuePolicy coded_k2() {
  code::ValuePolicy p;
  p.k = 2;
  p.min_value_size = 0;
  return p;
}

TEST(ReconfigSim, ReconfigurationUnderAnActiveValuePolicyIsRejected) {
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = core::Topology{2, 3};
  cfg.value_policy = coded_k2();
  SimCluster cluster(sim, cfg);
  EXPECT_THROW(cluster.add_ring(3), std::logic_error);
  EXPECT_THROW(cluster.remove_last_ring(), std::logic_error);
  EXPECT_FALSE(cluster.reconfig_in_progress());
  EXPECT_EQ(cluster.n_servers(), 6u) << "nothing spawned";
  EXPECT_EQ(cluster.view().epoch, 0u);
}

TEST(ReconfigThreaded, ReconfigurationUnderAnActiveValuePolicyIsRejected) {
  ThreadedClusterConfig cfg;
  cfg.topology = core::Topology{2, 3};
  cfg.value_policy = coded_k2();
  ThreadedCluster cluster(cfg);
  cluster.start();
  EXPECT_THROW(cluster.add_ring(3), std::logic_error);
  EXPECT_THROW(cluster.remove_last_ring(), std::logic_error);
  EXPECT_EQ(cluster.n_servers(), 6u) << "nothing spawned";
  EXPECT_EQ(cluster.view().epoch, 0u);
}

TEST(ReconfigThreaded, GrowAfterShrinkIsRejectedBeforeSpawning) {
  ThreadedClusterConfig cfg;
  cfg.topology = core::Topology{2, 3};
  ThreadedCluster cluster(cfg);
  cluster.start();
  EXPECT_EQ(cluster.add_ring(3), 1u);
  EXPECT_EQ(cluster.remove_last_ring(), 2u);
  // The retired ring's hosts keep global ids 6..8; a new ring would reuse
  // them, so the grow is refused before anything is spawned.
  EXPECT_THROW(cluster.add_ring(3), std::logic_error);
  EXPECT_EQ(cluster.n_servers(), 9u) << "nothing spawned";
  EXPECT_EQ(cluster.view().epoch, 2u);
}

// ------------------------------------------- heterogeneous cluster e2e

TEST(ReconfigSim, HeterogeneousRingSizesServeAndCheckClean) {
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = core::Topology{std::vector<std::size_t>{3, 2}};
  cfg.client_max_inflight = 4;
  cfg.client_retry_timeout_s = 0.05;
  SimCluster cluster(sim, cfg);
  lincheck::History history;
  UniqueValueSource values;
  auto drivers = attach_fleet(sim, cluster, history, values, /*objects=*/16,
                              /*stop_at=*/0.15, /*seed=*/404);
  for (auto& d : drivers) d->start();
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();

  ASSERT_GT(history.size(), 100u);
  auto verdict = lincheck::check_register(history);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  // Both rings served despite the size mismatch, and the 2-server ring's
  // traffic stayed within its own block.
  std::set<RingId> rings;
  for (const auto& op : history.ops()) rings.insert(op.ring);
  EXPECT_EQ(rings.size(), 2u);
}

// -------------------------------------------- experiment-harness schedule

TEST(ReconfigHarness, ExperimentScheduleGrowsTheClusterMidRun) {
  ExperimentParams p;
  p.n_servers = 3;
  p.n_rings = 2;
  p.reader_machines_per_server = 0;
  p.writer_machines_per_server = 1;
  p.writers_per_machine = 2;
  p.value_size = 1024;
  p.warmup_s = 0.05;
  p.measure_s = 0.2;
  p.n_objects = 16;
  p.pipeline = 4;
  p.reconfig.push_back(ReconfigStep{/*at=*/0.1, /*add_ring_servers=*/3});
  const auto r = run_core_experiment(p);
  EXPECT_GT(r.write_mbps, 0.0);
  EXPECT_GT(r.writes_per_s, 0.0);

  // The static-membership baselines reject a reconfig schedule loudly,
  // even in an otherwise-supported shape (single ring, no pipelining).
  ExperimentParams baseline = p;
  baseline.n_rings = 1;
  baseline.pipeline = 1;
  EXPECT_THROW((void)run_abd_experiment(baseline), std::logic_error);
  EXPECT_THROW((void)run_chain_experiment(baseline), std::logic_error);
}

// -------------------------------------- per-ring crash drills at scale

TEST(CrashDrill, SimConcurrentCrashInEveryRingStaysRingLocal) {
  sim::Simulator sim;
  SimClusterConfig cfg;
  cfg.topology = core::Topology{3, 3};
  cfg.client_max_inflight = 4;
  cfg.client_retry_timeout_s = 0.05;
  SimCluster cluster(sim, cfg);
  lincheck::History history;
  UniqueValueSource values;
  auto drivers = attach_fleet(sim, cluster, history, values, /*objects=*/18,
                              /*stop_at=*/0.25, /*seed=*/505);
  for (auto& d : drivers) d->start();
  // One server of every ring crashes at (nearly) the same moment: server 1
  // of ring 0, server 0 of ring 1, server 2 of ring 2.
  const core::Topology topo = cluster.topology();
  cluster.schedule_crash(0.08, topo.global_id(0, 1));
  cluster.schedule_crash(0.08, topo.global_id(1, 0));
  cluster.schedule_crash(0.08, topo.global_id(2, 2));
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();

  ASSERT_GT(history.size(), 100u);
  for (const auto& op : history.ops()) {
    EXPECT_FALSE(op.pending()) << op.describe();
  }
  auto verdict = lincheck::check_register(history);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  // Ring-local isolation: every ring lost exactly one server and repaired
  // within itself — each survivor saw exactly one peer die, and repair
  // syncs were emitted by the crashed servers' predecessors only.
  for (RingId r = 0; r < 3; ++r) {
    for (ProcessId local = 0; local < 3; ++local) {
      const ProcessId g = topo.global_id(r, local);
      if (!cluster.server_up(g)) continue;
      EXPECT_EQ(cluster.server(g).ring().alive_count(), 2u)
          << "ring " << r << " server " << local;
    }
  }
}

TEST(CrashDrill, ThreadedConcurrentCrashInEveryRingStaysRingLocal) {
  const core::Topology topo{3, 3};
  ThreadedClusterConfig cfg;
  cfg.topology = topo;
  cfg.client_retry_timeout_s = 0.05;
  cfg.client_max_inflight = 8;
  ThreadedCluster cluster(cfg);
  std::vector<ThreadedCluster::BlockingClient*> clients;
  for (RingId r = 0; r < 3; ++r) {
    clients.push_back(&cluster.add_client(topo.global_id(r, 0)));
  }
  cluster.start();

  // Load every ring, then crash one server per ring concurrently while
  // writes continue.
  std::vector<std::future<core::OpResult>> acks;
  for (ObjectId obj = 1; obj <= 18; ++obj) {
    acks.push_back(clients[obj % 3]->async_write(obj,
                                                 Value::synthetic(obj, 64)));
  }
  for (auto& a : acks) (void)a.get();
  acks.clear();
  cluster.crash_server(topo.global_id(0, 1));
  cluster.crash_server(topo.global_id(1, 2));
  cluster.crash_server(topo.global_id(2, 0));
  // Second wave, one writer per object, racing the crash detections; these
  // acks establish the final values the reads below must observe.
  for (ObjectId obj = 1; obj <= 18; ++obj) {
    acks.push_back(clients[(obj + 1) % 3]->async_write(
        obj, Value::synthetic(100 + obj, 64)));
  }
  for (auto& a : acks) (void)a.get();
  ASSERT_TRUE(cluster.wait_quiescent(5.0));

  // Ring-local isolation under real concurrency.
  for (RingId r = 0; r < 3; ++r) {
    std::size_t alive = 0;
    for (ProcessId local = 0; local < 3; ++local) {
      const ProcessId g = topo.global_id(r, local);
      if (cluster.server_up(g)) {
        ++alive;
        EXPECT_EQ(cluster.server(g).ring().alive_count(), 2u)
            << "ring " << r << " server " << local;
      }
    }
    EXPECT_EQ(alive, 2u) << "ring " << r;
  }
  auto h = cluster.history();
  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  // All values readable after the drills.
  for (ObjectId obj = 1; obj <= 18; ++obj) {
    EXPECT_EQ(clients[0]->read(obj), Value::synthetic(100 + obj, 64));
  }
}

// ------------------------------------------------ live grow on threads

TEST(ReconfigThreaded, LiveRingAddUnderConcurrentWritesAndACrash) {
  const core::Topology topo{2, 3};
  ThreadedClusterConfig cfg;
  cfg.topology = topo;
  cfg.client_retry_timeout_s = 0.05;
  cfg.client_max_inflight = 8;
  ThreadedCluster cluster(cfg);
  auto& alice = cluster.add_client(0);
  auto& bob = cluster.add_client(topo.global_id(1, 0));
  cluster.start();

  // Saturate before and across the grow.
  const std::size_t kObjects = 24;
  std::vector<std::future<core::OpResult>> acks;
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    acks.push_back(alice.async_write(obj, Value::synthetic(obj, 128)));
  }
  for (auto& a : acks) (void)a.get();
  acks.clear();

  // Writes keep flowing while the ring is added and a ring-0 server dies:
  // bob's wave stays in flight across the whole freeze → copy → flip.
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    acks.push_back(bob.async_write(obj, Value::synthetic(100 + obj, 128)));
  }
  cluster.crash_server(1);
  const Epoch e = cluster.add_ring(3);
  EXPECT_EQ(e, 1u);
  for (auto& a : acks) (void)a.get();
  acks.clear();
  // Post-grow wave, one writer per object: establishes the final values the
  // reads below must observe from the epoch-1 owners.
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    acks.push_back(alice.async_write(obj, Value::synthetic(200 + obj, 128)));
  }
  for (auto& a : acks) (void)a.get();
  ASSERT_TRUE(cluster.wait_quiescent(5.0));

  EXPECT_EQ(cluster.view().epoch, 1u);
  EXPECT_EQ(cluster.topology().n_rings(), 3u);
  const core::MigrationStats& ms = cluster.reconfig_stats();
  EXPECT_EQ(ms.reconfigs, 1u);
  EXPECT_GT(ms.objects_moved, 0u);
  EXPECT_GT(ms.bytes_moved, 0u);

  // Post-grow: reads come from the epoch-1 owners with the latest values.
  const core::ShardMap map3(3);
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    auto r = bob.read_result(obj);
    EXPECT_EQ(r.value, Value::synthetic(200 + obj, 128)) << "object " << obj;
    EXPECT_EQ(r.ring, map3.ring_of(obj)) << "object " << obj;
    EXPECT_EQ(r.epoch, 1u) << "object " << obj;
  }
  ASSERT_TRUE(cluster.wait_quiescent(5.0));
  auto h = cluster.history();
  auto verdict = lincheck::check_register(h);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  auto strict = lincheck::check_ring_assignment(h, cluster.rings_by_epoch());
  EXPECT_TRUE(strict.linearizable) << strict.explanation;
  bool epoch1_seen = false, new_ring_served = false;
  for (const auto& op : h.ops()) {
    epoch1_seen |= op.epoch == 1;
    new_ring_served |= op.ring == 2;
  }
  EXPECT_TRUE(epoch1_seen);
  EXPECT_TRUE(new_ring_served);
}

}  // namespace
}  // namespace hts::harness
