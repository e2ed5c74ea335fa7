// RingServer driven directly (no fabric): exact message flows of the paper's
// pseudo-code, plus the recovery behaviours (crash re-send, orphan adoption,
// retry dedup) that make the resilience claim hold.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/messages.h"
#include "core/server.h"
#include "ring_test_util.h"

namespace hts::core {
namespace {

using test::MiniRing;
using test::MockCtx;

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
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             kDefaultObject);
  ASSERT_TRUE(ring.step(0));  // pre-write at s1
  ASSERT_TRUE(ring.step(1));  // s1 forwarded to s2; s1 has it pending
  // s2 crashes holding the pre-write.
  ring.crash(2);
  ring.settle();
  // s1 re-sent its pending pre-write to its new successor s0; the write
  // completed on the 2-ring.
  EXPECT_EQ(ring.ctx().acks_for(7, 1), 1);
  EXPECT_EQ(ring.at(0).current_value(kDefaultObject), Value::synthetic(1, 64));
  EXPECT_EQ(ring.at(1).current_value(kDefaultObject), Value::synthetic(1, 64));
  EXPECT_TRUE(ring.at(0).pending(kDefaultObject).empty());
  EXPECT_TRUE(ring.at(1).pending(kDefaultObject).empty());
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
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             kDefaultObject);
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
  const auto* ack = ring.ctx().last_read_ack(9);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->value, Value::synthetic(1, 64));
  EXPECT_TRUE(ring.at(1).pending(kDefaultObject).empty());
  EXPECT_TRUE(ring.at(2).pending(kDefaultObject).empty());
  EXPECT_EQ(ring.at(1).current_value(kDefaultObject), Value::synthetic(1, 64));
  EXPECT_EQ(ring.at(2).current_value(kDefaultObject), Value::synthetic(1, 64));
  // The surrogate (s2, predecessor of dead s0) did the adoption.
  EXPECT_GE(ring.at(2).stats().adoptions, 1u);
}

TEST(RingServerUnit, CollapseToSoloResolvesEverything) {
  MiniRing ring(3);
  ring.at(0).on_client_write(7, 1, Value::synthetic(1, 64), ring.ctx(),
                             kDefaultObject);
  ASSERT_TRUE(ring.step(0));  // s1 received pre-write
  ASSERT_TRUE(ring.step(1));  // s1 forwarded → pending at s1
  ring.at(1).on_client_read(9, 1, ring.ctx(), kDefaultObject);  // parks at s1
  EXPECT_EQ(ring.at(1).parked_read_count(kDefaultObject), 1u);
  // Everyone else dies; s1 is alone and must resolve locally.
  ring.crash(2);
  ring.crash(0);
  EXPECT_EQ(ring.at(1).parked_read_count(kDefaultObject), 0u);
  const auto* ack = ring.ctx().last_read_ack(9);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->value, Value::synthetic(1, 64));
  // Solo writes now complete immediately.
  ring.at(1).on_client_write(8, 1, Value::synthetic(2, 64), ring.ctx(),
                             kDefaultObject);
  EXPECT_EQ(ring.ctx().acks_for(8, 1), 1);
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
  // Non-FIFO defensive path: a commit arrives before its pre-write.
  MiniRing ring(3);
  const Tag t{5, 0};
  ring.at(1).on_ring_message(net::make_payload<WriteCommit>(t, 7, 1,
                                                            kDefaultObject),
                             ring.ctx());
  // No pending entry: the commit is remembered, not applied.
  EXPECT_EQ(ring.at(1).current_tag(kDefaultObject), kInitialTag);
  ring.at(1).on_ring_message(
      net::make_payload<PreWrite>(t, Value::synthetic(1, 64), 7, 1,
                                  kDefaultObject),
      ring.ctx());
  EXPECT_EQ(ring.at(1).current_tag(kDefaultObject), t);
  EXPECT_EQ(ring.at(1).current_value(kDefaultObject), Value::synthetic(1, 64));
  // Must not re-park readers.
  EXPECT_FALSE(ring.at(1).pending(kDefaultObject).contains(t));
  ring.at(1).on_client_read(9, 1, ring.ctx(), kDefaultObject);
  ASSERT_NE(ring.ctx().last_read_ack(9), nullptr);
}

}  // namespace
}  // namespace hts::core
