// RingServer driven directly (no fabric): exact message flows of the paper's
// pseudo-code, plus the recovery behaviours (crash re-send, orphan adoption,
// retry dedup) that make the resilience claim hold. The crash scenarios run
// on both value planes, replicated and coded. The register footprint tests
// meter the heap (heap_meter.h) to pin what an idle register costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "core/register_index.h"
#include "core/server.h"
#include "harness/sim_cluster.h"
#include "harness/threaded_cluster.h"
#include "harness/workload.h"
#include "heap_meter.h"
#include "lincheck/checker.h"
#include "ring_test_util.h"
#include "sim/simulator.h"

namespace hts::core {
namespace {

using test::MiniRing;
using test::MockCtx;
using test::reply_carries;

/// The value planes the crash scenarios run on: replicated values, and
/// (3, 2)-coded values fanned out as FragWrites (D11). Coding changes which
/// bytes a server stores, never which tag a read sees, so every scenario
/// expects the same of both.
enum class Plane { kReplicated, kCoded };

constexpr std::uint8_t kCodedK = 2;

/// A client write of `v` submitted at server `at` on `plane`.
void submit(Plane plane, MiniRing& ring, ProcessId at, ClientId client,
            RequestId req, const Value& v) {
  if (plane == Plane::kCoded) {
    ring.frag_write(at, client, req, v, kCodedK);
  } else {
    ring.at(at).on_client_write(client, req, v, ring.ctx(), kDefaultObject);
  }
}

/// True when a fresh read at server p is answered at once with `v` at `tag`.
bool reads_back(MiniRing& ring, ProcessId p, const Value& v, const Tag& tag) {
  static ClientId next_reader = 1000;
  const ClientId reader = next_reader++;
  ring.at(p).on_client_read(reader, 1, ring.ctx(), kDefaultObject);
  const net::Payload* reply = ring.ctx().last_read_reply(reader);
  return reply != nullptr && reply_carries(*reply, v, tag);
}

void crash_of_successor_resends_pending(Plane plane) {
  MiniRing ring(3);
  const Value v = Value::synthetic(1, 64);
  submit(plane, ring, 0, 7, 1, v);
  ASSERT_TRUE(ring.step(0));  // pre-write at s1
  ASSERT_TRUE(ring.step(1));  // s1 forwarded to s2; s1 has it pending
  // s2 crashes holding the pre-write.
  ring.crash(2);
  ring.settle();
  // s1 re-sent its pending pre-write to its new successor s0; the write
  // completed on the 2-ring.
  EXPECT_EQ(ring.ctx().acks_for(7, 1), 1);
  for (const ProcessId p : {0u, 1u}) {
    EXPECT_TRUE(ring.at(p).pending(kDefaultObject).empty()) << "server " << p;
    EXPECT_TRUE(reads_back(ring, p, v, Tag{1, 0})) << "server " << p;
  }
}

void orphaned_pre_write_adoption(Plane plane) {
  MiniRing ring(3);
  const Value v = Value::synthetic(1, 64);
  submit(plane, ring, 0, 7, 1, v);
  ASSERT_TRUE(ring.step(0));  // pre-write delivered to s1
  ASSERT_TRUE(ring.step(1));  // s1 forwards to s2; pending at s1
  // s2 received the pre-write but has not forwarded; origin s0 crashes. The
  // in-flight pre-write must still commit, else parked reads hang forever.
  ring.crash(0);
  // Park a read at s1 on the orphaned tag.
  // (pending at s1 contains {1,0} — the read must wait, then complete.)
  ring.at(1).on_client_read(9, 1, ring.ctx(), kDefaultObject);
  EXPECT_EQ(ring.at(1).parked_read_count(kDefaultObject), 1u);
  ring.settle();
  EXPECT_EQ(ring.at(1).parked_read_count(kDefaultObject), 0u);
  const net::Payload* reply = ring.ctx().last_read_reply(9);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply_carries(*reply, v, Tag{1, 0}));
  for (const ProcessId p : {1u, 2u}) {
    EXPECT_TRUE(ring.at(p).pending(kDefaultObject).empty()) << "server " << p;
    EXPECT_TRUE(reads_back(ring, p, v, Tag{1, 0})) << "server " << p;
  }
  // The surrogate (s2, predecessor of dead s0) did the adoption.
  EXPECT_GE(ring.at(2).stats().adoptions, 1u);
}

void collapse_to_solo_resolves_everything(Plane plane) {
  MiniRing ring(3);
  const Value v = Value::synthetic(1, 64);
  submit(plane, ring, 0, 7, 1, v);
  ASSERT_TRUE(ring.step(0));  // s1 received pre-write
  ASSERT_TRUE(ring.step(1));  // s1 forwarded → pending at s1
  ring.at(1).on_client_read(9, 1, ring.ctx(), kDefaultObject);  // parks at s1
  EXPECT_EQ(ring.at(1).parked_read_count(kDefaultObject), 1u);
  // Everyone else dies; s1 is alone and must resolve locally.
  ring.crash(2);
  ring.crash(0);
  EXPECT_EQ(ring.at(1).parked_read_count(kDefaultObject), 0u);
  const net::Payload* reply = ring.ctx().last_read_reply(9);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply_carries(*reply, v, Tag{1, 0}));
  // Solo writes now complete immediately.
  const Value v2 = Value::synthetic(2, 64);
  submit(plane, ring, 1, 8, 1, v2);
  EXPECT_EQ(ring.ctx().acks_for(8, 1), 1);
  EXPECT_TRUE(reads_back(ring, 1, v2, Tag{2, 1}));
}

void commit_overtaking_pre_write(Plane plane) {
  // Non-FIFO defensive path: a commit arrives before its pre-write.
  MiniRing ring(3);
  const Tag t{5, 0};
  const Value v = Value::synthetic(1, 64);
  net::PayloadPtr pre_write =
      net::make_payload<PreWrite>(t, v, 7, 1, kDefaultObject);
  if (plane == Plane::kCoded) {
    // Every server stages its fragment; no copy initiates (the pre-write
    // below stands for the origin's).
    ring.frag_write(kNoProcess, 7, 1, v, kCodedK);
    pre_write = net::make_payload<PreWriteFrag>(t, 7, 1, 3, kCodedK, v.size(),
                                                kDefaultObject);
  }
  ring.at(1).on_ring_message(net::make_payload<WriteCommit>(t, 7, 1,
                                                            kDefaultObject),
                             ring.ctx());
  // No pending entry: the commit is remembered, not applied.
  EXPECT_EQ(ring.at(1).current_tag(kDefaultObject), kInitialTag);
  ring.at(1).on_ring_message(pre_write, ring.ctx());
  EXPECT_EQ(ring.at(1).current_tag(kDefaultObject), t);
  // Must not re-park readers.
  EXPECT_FALSE(ring.at(1).pending(kDefaultObject).contains(t));
  EXPECT_TRUE(reads_back(ring, 1, v, t));
}

TEST(RingServerUnit, WriteCompletesAroundTheRing) {
  MiniRing ring(3);
  ring.at(0).on_client_write(/*client=*/7, /*req=*/1, Value::synthetic(1, 64),
                             ring.ctx(), kDefaultObject);
  ring.settle();
  EXPECT_EQ(ring.ctx().acks_for(7, 1), 1);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(ring.at(p).current_tag(kDefaultObject),
              (Tag{1, 0})) << "server " << p;
    EXPECT_EQ(ring.at(p).current_value(kDefaultObject),
              Value::synthetic(1, 64));
    EXPECT_TRUE(ring.at(p).pending(kDefaultObject).empty());
  }
  // Exactly one pre-write was initiated; no server still queues traffic.
  EXPECT_EQ(ring.at(0).stats().pre_writes_initiated, 1u);
  EXPECT_FALSE(ring.at(0).has_ring_traffic());
}

TEST(RingServerUnit, ReadImmediateWithoutPending) {
  MiniRing ring(3);
  ring.at(1).on_client_read(9, 1, ring.ctx(), kDefaultObject);
  const auto* ack = ring.ctx().last_read_ack(9);
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->value.empty());  // initial value
  EXPECT_EQ(ack->tag, kInitialTag);
  EXPECT_EQ(ring.at(1).stats().reads_immediate, 1u);
}

TEST(RingServerUnit, ReadParksDuringPreWriteAndUnparksOnCommit) {
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             kDefaultObject);
  // Step the pre-write to s1, and s1's forward to s2 (s1 now has it pending).
  ASSERT_TRUE(ring.step(0));
  ASSERT_TRUE(ring.step(1));
  EXPECT_TRUE(ring.at(1).pending(kDefaultObject).contains(Tag{1, 0}));

  ring.at(1).on_client_read(9, 1, ring.ctx(), kDefaultObject);
  EXPECT_EQ(ring.ctx().last_read_ack(9), nullptr);  // parked
  EXPECT_EQ(ring.at(1).parked_read_count(kDefaultObject), 1u);
  EXPECT_EQ(ring.at(1).stats().reads_parked, 1u);

  ring.settle();  // commit circulates
  const auto* ack = ring.ctx().last_read_ack(9);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->value, Value::synthetic(1, 64));
  EXPECT_EQ(ack->tag, (Tag{1, 0}));
  EXPECT_EQ(ring.at(1).parked_read_count(kDefaultObject), 0u);
}

TEST(RingServerUnit, ReadBeforeForwardingSeesOldValueImmediately) {
  // A pre-write sitting in the forward queue is not yet pending (line 71
  // semantics): the value cannot have been committed anywhere, so a local
  // read may return the old value immediately.
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             kDefaultObject);
  ASSERT_TRUE(ring.step(0));  // pre-write delivered to s1, not yet forwarded
  EXPECT_FALSE(ring.at(1).pending(kDefaultObject).contains(Tag{1, 0}));
  ring.at(1).on_client_read(9, 1, ring.ctx(), kDefaultObject);
  const auto* ack = ring.ctx().last_read_ack(9);
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->value.empty());
  ring.settle();
}

TEST(RingServerUnit, TagsSkipPastPendingTimestamps) {
  MiniRing ring(2, ServerOptions{});
  // Feed s1 a pre-write with a high timestamp from s0, then let s1 initiate:
  // its tag must exceed the pending one (line 22–23).
  ring.at(1).on_ring_message(
      net::make_payload<PreWrite>(Tag{41, 0}, Value::synthetic(5, 16), 1, 1,
                                  kDefaultObject),
      ring.ctx());
  ASSERT_TRUE(ring.step(1));  // forward → now pending at s1
  ring.at(1).on_client_write(8, 1, Value::synthetic(6, 16), ring.ctx(),
                             kDefaultObject);
  auto send = ring.at(1).next_ring_send();
  ASSERT_TRUE(send.has_value());
  ASSERT_EQ(send->msg->kind(), kPreWrite);
  const auto& pw = static_cast<const PreWrite&>(*send->msg);
  EXPECT_EQ(pw.tag, (Tag{42, 1}));
}

TEST(RingServerUnit, SoloServerServesDirectly) {
  MiniRing ring(1);
  ring.at(0).on_client_write(3, 1, Value::synthetic(2, 32), ring.ctx(),
                             kDefaultObject);
  EXPECT_EQ(ring.ctx().acks_for(3, 1), 1);
  EXPECT_EQ(ring.at(0).current_tag(kDefaultObject), (Tag{1, 0}));
  ring.at(0).on_client_read(4, 1, ring.ctx(), kDefaultObject);
  const auto* ack = ring.ctx().last_read_ack(4);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->value, Value::synthetic(2, 32));
  EXPECT_FALSE(ring.at(0).has_ring_traffic());

  // No view was installed: the server boots with {epoch 0, ring 0, one-ring
  // map}, so it owns every register, far object ids included, and NACKs
  // nothing.
  RequestId req = 2;
  for (const ObjectId obj : {ObjectId{7}, ObjectId{1} << 40}) {
    ring.at(0).on_client_write(3, req, Value::synthetic(req, 32), ring.ctx(),
                               obj);
    EXPECT_EQ(ring.ctx().acks_for(3, req), 1) << "object " << obj;
    EXPECT_EQ(ring.at(0).current_tag(obj), (Tag{1, 0})) << "object " << obj;
    ring.at(0).on_client_read(4, req, ring.ctx(), obj);
    const auto* obj_ack = ring.ctx().last_read_ack(4);
    ASSERT_NE(obj_ack, nullptr);
    EXPECT_EQ(obj_ack->object, obj);
    EXPECT_EQ(obj_ack->value, Value::synthetic(req, 32));
    ++req;
  }
  EXPECT_EQ(ring.at(0).stats().epoch_nacks, 0u);
  EXPECT_EQ(ring.at(0).epoch(), 0u);

  // The boot view is a real epoch 0: the change to epoch 1 is accepted.
  ring.at(0).begin_view_change(
      ServerView{1, kDefaultRing, std::make_shared<const ShardMap>(1)});
  EXPECT_TRUE(ring.at(0).view_changing());
  ring.at(0).commit_view_change(ring.ctx());
  EXPECT_EQ(ring.at(0).epoch(), 1u);
  EXPECT_EQ(ring.at(0).stats().epoch_nacks, 0u);
}

TEST(RegisterIndex, FindsEveryIdAcrossGrowth) {
  // Dense ids, ids strided by a power of two (which share their low bits),
  // and far ids, inserted through several doublings of the table.
  std::vector<ObjectId> ids;
  for (ObjectId i = 1; i <= 1000; ++i) ids.push_back(i);
  for (ObjectId i = 1; i <= 1000; ++i) ids.push_back(i << 20);
  for (ObjectId i = 1; i <= 100; ++i) ids.push_back(~ObjectId{0} - i);
  ids.push_back(0);
  std::vector<int> values(ids.size());
  RegisterIndex<int> index;
  EXPECT_EQ(index.find(1), nullptr);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    index.insert(ids[i], &values[i]);
    ASSERT_EQ(index.find(ids[i]), &values[i]) << "id " << ids[i];
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(index.find(ids[i]), &values[i]) << "id " << ids[i];
  }
  for (const ObjectId absent : {ObjectId{1001}, ObjectId{3} << 40}) {
    EXPECT_EQ(index.find(absent), nullptr) << "id " << absent;
  }
}

static_assert(!std::is_copy_constructible_v<RingServer> &&
                  !std::is_copy_assignable_v<RingServer>,
              "a copied register index would point into the source");

TEST(RingServerUnit, MovedServerFindsEveryRegister) {
  // Registers are looked up through a hash index into the ordered register
  // table; a move must carry both, so every register stays reachable and a
  // write after the move lands in the register a read sees.
  constexpr ObjectId kObjects = 300;
  MockCtx ctx;
  RingServer src(0, 1);
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    src.on_client_write(3, obj, Value::synthetic(obj, 16), ctx, obj);
  }
  RingServer moved(std::move(src));
  RingServer assigned(0, 1);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.object_count(), kObjects + 1);  // plus the default
  for (ObjectId obj = 1; obj <= kObjects; ++obj) {
    EXPECT_EQ(assigned.current_value(obj), Value::synthetic(obj, 16));
    const Value next = Value::synthetic(kObjects + obj, 16);
    assigned.on_client_write(3, kObjects + obj, next, ctx, obj);
    assigned.on_client_read(4, obj, ctx, obj);
    const auto* ack = ctx.last_read_ack(4);
    ASSERT_NE(ack, nullptr);
    EXPECT_EQ(ack->value, next) << "object " << obj;
    EXPECT_EQ(ack->tag, (Tag{2, 0})) << "object " << obj;
  }
  EXPECT_EQ(assigned.object_count(), kObjects + 1);
}

TEST(RingServerUnit, RetriedWriteIsDeduplicated) {
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             kDefaultObject);
  ring.settle();
  ASSERT_EQ(ring.ctx().acks_for(7, 1), 1);

  // The client times out (say the first ack was slow) and retries the same
  // request at another server: it must be acked WITHOUT a new ring write.
  const auto initiated_before = ring.at(2).stats().pre_writes_initiated;
  ring.at(2).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             kDefaultObject);
  ring.settle();
  EXPECT_EQ(ring.ctx().acks_for(7, 1), 2);  // acked again, harmless
  EXPECT_EQ(ring.at(2).stats().pre_writes_initiated, initiated_before);
  EXPECT_EQ(ring.at(2).stats().dedup_acks, 1u);
}

TEST(RingServerUnit, CrashOfSuccessorResendsPending) {
  crash_of_successor_resends_pending(Plane::kReplicated);
}

TEST(RingServerUnit, CrashOfSuccessorResendsPendingCoded) {
  crash_of_successor_resends_pending(Plane::kCoded);
}

TEST(RingServerUnit, CommitsLostUnderStaggeredCrashNoticesAreResent) {
  // The failure detector notifies peers one at a time. The origin hears of
  // the crash first and re-issues its commits, but its successor has not
  // heard yet and forwards originals and re-issues alike into the dead
  // server. Two registers, so more than one commit is lost this way.
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(), 0);
  ring.at(0).on_client_write(8, 1, Value::synthetic(2, 64), ring.ctx(), 1);
  while (ring.step(0)) {}  // both pre-writes s0 -> s1
  while (ring.step(1)) {}  // s1 -> s2
  while (ring.step(2)) {}  // s2 -> s0: s0 enters both write phases
  ring.kill(2);
  ring.notify(0, 2);       // only s0 hears: it re-issues both commits
  while (ring.step(0)) {}  // originals + re-issues reach s1
  while (ring.step(1)) {}  // s1 forwards all four into dead s2
  ring.notify(1, 2);
  ring.settle();
  EXPECT_EQ(ring.ctx().acks_for(7, 1), 1);
  EXPECT_EQ(ring.ctx().acks_for(8, 1), 1);
  for (const ObjectId obj : {ObjectId{0}, ObjectId{1}}) {
    EXPECT_TRUE(ring.at(0).object_quiescent(obj)) << "object " << obj;
    EXPECT_TRUE(ring.at(1).object_quiescent(obj)) << "object " << obj;
    EXPECT_EQ(ring.at(1).current_tag(obj), (Tag{1, 0})) << "object " << obj;
  }
}

TEST(RingServerUnit, OrphanedPreWriteAdoptionFullScenario) {
  orphaned_pre_write_adoption(Plane::kReplicated);
}

TEST(RingServerUnit, OrphanedPreWriteAdoptionFullScenarioCoded) {
  orphaned_pre_write_adoption(Plane::kCoded);
}

TEST(RingServerUnit, CollapseToSoloResolvesEverything) {
  collapse_to_solo_resolves_everything(Plane::kReplicated);
}

TEST(RingServerUnit, CollapseToSoloResolvesEverythingCoded) {
  collapse_to_solo_resolves_everything(Plane::kCoded);
}

TEST(RingServerUnit, ReadFastpathOptionServesDominatedPending) {
  ServerOptions opts;
  opts.read_fastpath = true;
  MiniRing ring(3, opts);
  // Complete writes {1,0} and {2,0}, then inject a slow pre-write from s2
  // that still carries timestamp 1 (s2 assigned it before learning of s0's
  // writes): pending = {1,2} < applied {2,0}.
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             kDefaultObject);
  ring.settle();
  ring.at(0).on_client_write(7, 2, Value::synthetic(2, 64), ring.ctx(),
                             kDefaultObject);
  ring.settle();
  ASSERT_EQ(ring.at(1).current_tag(kDefaultObject), (Tag{2, 0}));
  ring.at(1).on_ring_message(
      net::make_payload<PreWrite>(Tag{1, 2}, Value::synthetic(9, 16), 2, 1,
                                  kDefaultObject),
      ring.ctx());
  ASSERT_TRUE(ring.step(1));  // forwarded → pending at s1, tag {1,2} < {2,0}
  ASSERT_TRUE(ring.at(1).pending(kDefaultObject).contains(Tag{1, 2}));
  ring.at(1).on_client_read(9, 1, ring.ctx(), kDefaultObject);
  // Fast path: applied tag {2,0} >= max pending {1,2} → immediate answer.
  const auto* ack = ring.ctx().last_read_ack(9);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->tag, (Tag{2, 0}));
  ring.settle();
}

TEST(RingServerUnit, ConcurrentWritesOrderedByTag) {
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             kDefaultObject);
  ring.at(1).on_client_write(8, 1, Value::synthetic(2, 64), ring.ctx(),
                             kDefaultObject);
  ring.at(2).on_client_write(9, 1, Value::synthetic(3, 64), ring.ctx(),
                             kDefaultObject);
  ring.settle();
  EXPECT_EQ(ring.ctx().acks_for(7, 1), 1);
  EXPECT_EQ(ring.ctx().acks_for(8, 1), 1);
  EXPECT_EQ(ring.ctx().acks_for(9, 1), 1);
  // All servers converge on the same (maximal) tag and value.
  const Tag t = ring.at(0).current_tag(kDefaultObject);
  const Value v = ring.at(0).current_value(kDefaultObject);
  for (ProcessId p = 1; p < 3; ++p) {
    EXPECT_EQ(ring.at(p).current_tag(kDefaultObject), t);
    EXPECT_EQ(ring.at(p).current_value(kDefaultObject), v);
    EXPECT_TRUE(ring.at(p).pending(kDefaultObject).empty());
  }
}

TEST(RingServerUnit, CommitOvertakingPreWriteIsHandled) {
  commit_overtaking_pre_write(Plane::kReplicated);
}

TEST(RingServerUnit, CommitOvertakingPreWriteIsHandledCoded) {
  commit_overtaking_pre_write(Plane::kCoded);
}

// ------------------------------------------------------ register footprint

/// Keeps only the last reply: records nothing that allocates.
struct LastReplyCtx final : ServerContext {
  net::PayloadPtr last;
  void send_client(ClientId, net::PayloadPtr msg) override {
    last = std::move(msg);
  }
};

/// Server `s` (not the origin) sees a write of `v` by server 0 pass through:
/// the pre-write arrives and is forwarded, then the commit arrives and is
/// forwarded. The register ends committed and idle.
void pass_write_through(RingServer& s, ServerContext& ctx, ObjectId obj,
                        RequestId req, const Value& v) {
  const Tag tag{1, 0};
  s.on_ring_message(
      net::make_payload<PreWrite>(tag, v, /*client=*/7, req, obj), ctx);
  ASSERT_TRUE(s.next_ring_send().has_value());  // forward: now pending
  s.on_ring_message(net::make_payload<WriteCommit>(tag, 7, req, obj), ctx);
  ASSERT_TRUE(s.next_ring_send().has_value());  // forward the commit
  ASSERT_FALSE(s.has_ring_traffic());
}

TEST(RingServerUnit, OutOfOrderCompletionsWaitAboveAGap) {
  // D6 over one client's writes 1, 3, 2 (each on its own register): write 3
  // completes past the gap of write 2 and waits in `above`, which stays
  // non-empty until write 2 completes and the watermark covers all three.
  LastReplyCtx ctx;
  RingServer s(1, 3);
  const auto window = [&s] {
    const std::vector<MigrateDedup::Window> w = s.completed_windows();
    EXPECT_EQ(w.size(), 1u);
    return w.empty() ? MigrateDedup::Window{} : w.front();
  };
  pass_write_through(s, ctx, /*obj=*/1, /*req=*/1, Value::synthetic(1, 64));
  EXPECT_EQ(window().watermark, 1u);
  EXPECT_TRUE(window().above.empty());

  pass_write_through(s, ctx, /*obj=*/2, /*req=*/3, Value::synthetic(3, 64));
  EXPECT_EQ(window().watermark, 1u);
  EXPECT_EQ(window().above, std::vector<RequestId>{3});

  pass_write_through(s, ctx, /*obj=*/3, /*req=*/2, Value::synthetic(2, 64));
  EXPECT_EQ(window().watermark, 3u);
  EXPECT_TRUE(window().above.empty());
}

TEST(RegisterFootprint, IdleRegisterCostsItsValuePlusAtMost200Bytes) {
  if (!hts::test::kHeapMetered) GTEST_SKIP() << hts::test::kHeapMeterOffReason;
  // The read_proc deployment's shape: thousands of 1 KiB registers, each
  // written once and then idle. What the server holds per register beyond
  // the value's bytes is its hot record, the value's header and its index
  // slot — no in-flight bookkeeping once the commit has passed.
  constexpr ObjectId kRegisters = 4096;
  constexpr std::size_t kValueBytes = 1024;
  constexpr double kBudget = 200.0;
  LastReplyCtx ctx;
  RingServer s(/*self=*/1, /*n_servers=*/3);
  const hts::test::HeapReading before = hts::test::heap_now();
  for (ObjectId obj = 1; obj <= kRegisters; ++obj) {
    pass_write_through(s, ctx, obj, obj, Value::synthetic(obj, kValueBytes));
  }
  const hts::test::HeapReading after = hts::test::heap_now();
  ASSERT_EQ(s.object_count(), kRegisters + 1);  // plus the default register
  EXPECT_EQ(s.active_registers(), 0u);
  const double per_register =
      static_cast<double>(after.live_bytes - before.live_bytes -
                          static_cast<std::int64_t>(kRegisters * kValueBytes)) /
      static_cast<double>(kRegisters);
  std::printf("heap bytes per idle register beyond its value: %.1f\n",
              per_register);
  EXPECT_LE(per_register, kBudget);
}

TEST(RegisterFootprint, ReadOfAnIdleRegisterAllocatesOnlyItsReply) {
  if (!hts::test::kHeapMetered) GTEST_SKIP() << hts::test::kHeapMeterOffReason;
  LastReplyCtx ctx;
  RingServer s(1, 3);
  const Value v = Value::synthetic(5, 256);
  pass_write_through(s, ctx, /*obj=*/5, /*req=*/1, v);
  ctx.last.reset();

  const hts::test::HeapReading before = hts::test::heap_now();
  EXPECT_TRUE(s.pending(5).empty());
  EXPECT_EQ(s.parked_read_count(5), 0u);
  EXPECT_TRUE(s.object_quiescent(5));
  EXPECT_EQ(hts::test::heap_now().calls, before.calls)
      << "read-only accessors allocated";
  s.on_client_read(/*client=*/9, /*req=*/1, ctx, 5);
  EXPECT_EQ(hts::test::heap_now().calls, before.calls + 1)
      << "a read of an idle register allocates its reply and nothing else";

  ASSERT_NE(ctx.last, nullptr);
  ASSERT_EQ(ctx.last->kind(), kClientReadAck);
  const auto& ack = static_cast<const ClientReadAck&>(*ctx.last);
  EXPECT_EQ(ack.value, v);
  EXPECT_EQ(ack.tag, (Tag{1, 0}));
  ctx.last.reset();
  EXPECT_EQ(hts::test::heap_now().live_bytes, before.live_bytes);
  EXPECT_EQ(s.active_registers(), 0u);
}

/// Heap allocations of one blocking in-memory op on a settled 3-server
/// ThreadedCluster: the fewest over several tries, so a loop woken by a
/// stale retry timer in the middle of one try does not count.
/// Pinned by the test below: an allocation added to (or cut from) the
/// in-memory op path shows up here.
constexpr std::uint64_t kWriteAllocations = 7;
constexpr std::uint64_t kReadAllocations = 5;

template <typename Op>
std::uint64_t fewest_allocations(harness::ThreadedCluster& cluster, Op op) {
  std::uint64_t fewest = UINT64_MAX;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(cluster.wait_quiescent(5.0));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // loops park
    const std::uint64_t before = hts::test::heap_now().calls;
    op();
    fewest = std::min(fewest, hts::test::heap_now().calls - before);
  }
  return fewest;
}

TEST(OpAllocations, SequentialInMemWriteAndReadOnAThreeServerRing) {
  if (!hts::test::kHeapMetered) GTEST_SKIP() << hts::test::kHeapMeterOffReason;
  // With every loop parked, one caller's op runs the whole ring on its own
  // thread. What it allocates is its messages (one per hop), the write's
  // value copy and the client's pending record.
  harness::ThreadedClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.record_history = false;
  harness::ThreadedCluster cluster(cfg);
  auto& client = cluster.add_client(0);
  cluster.start();
  const Value v = Value::synthetic(1, 256);
  for (int i = 0; i < 4; ++i) {  // warm: registers, windows, capacities
    client.write(5, v);
    (void)client.read(5);
  }
  const std::uint64_t write = fewest_allocations(cluster, [&] {
    client.write(5, v);
  });
  const std::uint64_t read = fewest_allocations(cluster, [&] {
    (void)client.read(5);
  });
  std::printf("allocations per in-memory write: %llu, per read: %llu\n",
              static_cast<unsigned long long>(write),
              static_cast<unsigned long long>(read));
  EXPECT_EQ(write, kWriteAllocations);
  EXPECT_EQ(read, kReadAllocations);
}

TEST(RingServerUnit, CommittedPreWriteStaysSuppressedOnAnIdleRegister) {
  // The commit watermark (D5) lives in the hot record: once the register's
  // activity block is gone, a crash re-send of the committed pre-write must
  // still be absorbed — entering the pending set again would park every
  // later read of the register forever.
  LastReplyCtx ctx;
  RingServer s(1, 3);
  const Value v = Value::synthetic(1, 64);
  pass_write_through(s, ctx, kDefaultObject, 1, v);
  ASSERT_EQ(s.active_registers(), 0u);

  const std::uint64_t dropped = s.stats().duplicates_dropped;
  s.on_ring_message(
      net::make_payload<PreWrite>(Tag{1, 0}, v, 7, 1, kDefaultObject), ctx);
  EXPECT_EQ(s.stats().duplicates_dropped, dropped + 1);
  EXPECT_FALSE(s.has_ring_traffic());
  EXPECT_TRUE(s.pending(kDefaultObject).empty());
  EXPECT_EQ(s.active_registers(), 0u);
  s.on_client_read(9, 1, ctx, kDefaultObject);
  ASSERT_NE(ctx.last, nullptr);
  EXPECT_EQ(ctx.last->kind(), kClientReadAck);  // immediate, not parked
}

TEST(RegisterFootprint, CrashBetweenPreWriteAndCommitOver256Registers) {
  // Writes and reads spread over 256 registers, and server 1 crashes with
  // writes between their pre-write and their commit. Every surviving server
  // re-sends or absorbs them from registers whose activity blocks come and
  // go; the history stays linearizable, every op completes, and the
  // drained survivors hold no activity block.
  sim::Simulator sim;
  harness::SimClusterConfig cfg;
  cfg.n_servers = 3;
  cfg.client_retry_timeout_s = 0.02;
  cfg.client_max_inflight = 4;
  harness::SimCluster cluster(sim, cfg);
  lincheck::History history;
  harness::UniqueValueSource values;
  std::vector<std::unique_ptr<harness::ClosedLoopDriver>> drivers;
  for (ProcessId at = 0; at < 3; ++at) {
    const auto m = cluster.add_client_machine();
    cluster.add_client(m, at);
    const ClientId id = static_cast<ClientId>(cluster.client_count() - 1);
    harness::WorkloadConfig wl;
    wl.write_fraction = 0.6;
    wl.value_size = 256;
    wl.stop_at = 0.2;
    wl.measure_from = 0;
    wl.measure_until = 0.2;
    wl.seed = 4100 + at;
    wl.n_objects = 256;
    wl.pipeline = 4;
    drivers.push_back(std::make_unique<harness::ClosedLoopDriver>(
        sim, cluster.port(id), id, wl, values, &history));
  }
  cluster.schedule_crash(0.05, 1);
  for (auto& d : drivers) d->start();
  sim.run_to_quiescence();
  for (auto& d : drivers) d->finalize();

  EXPECT_GT(history.size(), 100u);
  const auto verdict = lincheck::check_register(history);
  EXPECT_TRUE(verdict.linearizable) << verdict.explanation;
  for (const auto& op : history.ops()) {
    EXPECT_FALSE(op.pending()) << op.describe();
  }
  std::uint64_t crash_work = 0;
  for (const ProcessId p : {0u, 2u}) {
    const RingServer& s = cluster.server(p);
    crash_work += s.stats().duplicates_dropped + s.stats().adoptions;
    EXPECT_GT(s.object_count(), 200u) << "server " << p;
    EXPECT_EQ(s.active_registers(), 0u) << "server " << p;
  }
  EXPECT_GT(crash_work, 0u) << "the crash caught no write in flight";
}

}  // namespace
}  // namespace hts::core
