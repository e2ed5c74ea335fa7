// Direct unit tests of the baseline protocol state machines (the
// baselines_test.cpp integration suite covers them end-to-end; these pin the
// message-level behaviours).
#include <gtest/gtest.h>

#include <vector>

#include "baselines/abd.h"
#include "baselines/chain.h"
#include "baselines/tob.h"

namespace hts::baselines {
namespace {

struct MockPeerCtx final : PeerContext {
  struct PeerMsg {
    ProcessId to;
    net::PayloadPtr msg;
  };
  struct ClientMsg {
    ClientId to;
    net::PayloadPtr msg;
  };
  std::vector<PeerMsg> peer;
  std::vector<ClientMsg> client;

  void send_peer(ProcessId to, net::PayloadPtr msg) override {
    peer.push_back({to, std::move(msg)});
  }
  void send_client(ClientId to, net::PayloadPtr msg) override {
    client.push_back({to, std::move(msg)});
  }
};

// ------------------------------------------------------------------- ABD

TEST(AbdServerUnit, AnswersReadTsWithCurrentTag) {
  AbdServer s(0, 3);
  MockPeerCtx ctx;
  s.on_client_message(AbdReadTs(7, 1, 9, kDefaultObject), ctx);
  ASSERT_EQ(ctx.client.size(), 1u);
  const auto& ack = static_cast<const AbdReadTsAck&>(*ctx.client[0].msg);
  EXPECT_EQ(ack.tag, kInitialTag);
  EXPECT_EQ(ack.phase, 9u);
}

TEST(AbdServerUnit, StoreAppliesOnlyNewerTags) {
  AbdServer s(0, 3);
  MockPeerCtx ctx;
  s.on_client_message(AbdStore(7, 1, 1, Tag{5, 1}, Value::synthetic(1, 16),
                               kDefaultObject),
                      ctx);
  EXPECT_EQ(s.current_tag(kDefaultObject), (Tag{5, 1}));
  // An older store must not regress the replica.
  s.on_client_message(AbdStore(7, 2, 2, Tag{3, 9}, Value::synthetic(2, 16),
                               kDefaultObject),
                      ctx);
  EXPECT_EQ(s.current_tag(kDefaultObject), (Tag{5, 1}));
  EXPECT_EQ(s.current_value(kDefaultObject), Value::synthetic(1, 16));
  EXPECT_EQ(ctx.client.size(), 2u);  // but it is still acknowledged
}

TEST(AbdServerUnit, KeepsIndependentStatePerObject) {
  AbdServer s(0, 3);
  MockPeerCtx ctx;
  // Store under object 4; object 0 and any untouched object stay initial.
  s.on_client_message(AbdStore(/*c=*/1, /*r=*/1, /*ph=*/1, Tag{3, 2},
                               Value::synthetic(9, 16), /*obj=*/4),
                      ctx);
  EXPECT_EQ(s.current_tag(4), (Tag{3, 2}));
  EXPECT_EQ(s.current_value(4), Value::synthetic(9, 16));
  EXPECT_EQ(s.current_tag(kDefaultObject), kInitialTag);
  EXPECT_EQ(s.current_tag(7), kInitialTag);
  EXPECT_EQ(s.object_count(), 1u) << "reads must not materialise registers";

  // Tag spaces are per object: a lower tag on another object still applies.
  s.on_client_message(AbdStore(1, 2, 2, Tag{1, 0},
                               Value::synthetic(5, 16), /*obj=*/0),
                      ctx);
  EXPECT_EQ(s.current_tag(0), (Tag{1, 0}));
  EXPECT_EQ(s.current_tag(4), (Tag{3, 2}));

  // Queries answer per object.
  ctx.client.clear();
  s.on_client_message(AbdGet(1, 3, 3, /*obj=*/4), ctx);
  ASSERT_EQ(ctx.client.size(), 1u);
  const auto& ack = static_cast<const AbdGetAck&>(*ctx.client[0].msg);
  EXPECT_EQ(ack.tag, (Tag{3, 2}));
  EXPECT_EQ(ack.value, Value::synthetic(9, 16));
}

TEST(AbdServerUnit, GetReturnsTagAndValue) {
  AbdServer s(0, 3);
  MockPeerCtx ctx;
  s.on_client_message(AbdStore(7, 1, 1, Tag{2, 0}, Value::synthetic(3, 16),
                               kDefaultObject),
                      ctx);
  s.on_client_message(AbdGet(8, 4, 11, kDefaultObject), ctx);
  const auto& ack = static_cast<const AbdGetAck&>(*ctx.client.back().msg);
  EXPECT_EQ(ack.tag, (Tag{2, 0}));
  EXPECT_EQ(ack.value, Value::synthetic(3, 16));
  EXPECT_EQ(ack.req, 4u);
}

// ----------------------------------------------------------------- chain

TEST(ChainServerUnit, RolesFollowAliveSet) {
  ChainServer head(0, 3), mid(1, 3), tail(2, 3);
  EXPECT_TRUE(head.is_head());
  EXPECT_FALSE(head.is_tail());
  EXPECT_TRUE(tail.is_tail());
  MockPeerCtx ctx;
  mid.on_peer_crash(2, ctx);
  EXPECT_TRUE(mid.is_tail());  // 1 is the new tail of {0,1}
}

TEST(ChainServerUnit, HeadSequencesAndForwards) {
  ChainServer head(0, 3);
  MockPeerCtx ctx;
  head.on_client_message(ChainWrite(7, 1, Value::synthetic(1, 16),
                                    kDefaultObject), ctx);
  ASSERT_EQ(ctx.peer.size(), 1u);
  EXPECT_EQ(ctx.peer[0].to, 1u);
  const auto& u = static_cast<const ChainUpdate&>(*ctx.peer[0].msg);
  EXPECT_EQ(u.seq, 1u);
  EXPECT_EQ(head.applied_seq(), 1u);
  EXPECT_EQ(head.unacked(), 1u);
}

TEST(ChainServerUnit, NonHeadIgnoresClientWrites) {
  ChainServer mid(1, 3);
  MockPeerCtx ctx;
  mid.on_client_message(ChainWrite(7, 1, Value::synthetic(1, 16),
                                   kDefaultObject), ctx);
  EXPECT_TRUE(ctx.peer.empty());
  EXPECT_TRUE(ctx.client.empty());
}

TEST(ChainServerUnit, TailRepliesAndAcksBack) {
  ChainServer tail(2, 3);
  MockPeerCtx ctx;
  tail.on_peer_message(ChainUpdate(1, 7, 1, Value::synthetic(1, 16),
                                   kDefaultObject), ctx);
  ASSERT_EQ(ctx.client.size(), 1u);
  EXPECT_EQ(ctx.client[0].to, 7u);
  ASSERT_EQ(ctx.peer.size(), 1u);
  EXPECT_EQ(ctx.peer[0].to, 1u);  // ack wave upstream
  EXPECT_EQ(ctx.peer[0].msg->kind(), kChainAckBack);
}

TEST(ChainServerUnit, AckBackClearsResendBuffer) {
  ChainServer head(0, 3);
  MockPeerCtx ctx;
  head.on_client_message(ChainWrite(7, 1, Value::synthetic(1, 16),
                                    kDefaultObject), ctx);
  EXPECT_EQ(head.unacked(), 1u);
  head.on_peer_message(ChainAckBack(1), ctx);
  EXPECT_EQ(head.unacked(), 0u);
}

TEST(ChainServerUnit, SuccessorCrashTriggersResend) {
  ChainServer head(0, 3);
  MockPeerCtx ctx;
  head.on_client_message(ChainWrite(7, 1, Value::synthetic(1, 16),
                                    kDefaultObject), ctx);
  ctx.peer.clear();
  head.on_peer_crash(1, ctx);  // middle dies holding the update
  ASSERT_EQ(ctx.peer.size(), 1u);
  EXPECT_EQ(ctx.peer[0].to, 2u);  // re-sent to the new successor
  EXPECT_EQ(ctx.peer[0].msg->kind(), kChainUpdate);
}

TEST(ChainServerUnit, HeadDedupsRetriedWrites) {
  ChainServer head(0, 3);
  MockPeerCtx ctx;
  head.on_client_message(ChainWrite(7, 1, Value::synthetic(1, 16),
                                    kDefaultObject), ctx);
  head.on_client_message(ChainWrite(7, 1, Value::synthetic(1, 16),
                                    kDefaultObject), ctx);
  EXPECT_EQ(head.applied_seq(), 1u) << "retried write must not re-sequence";
}

TEST(ChainServerUnit, BecomingTailFlushesPendingAcks) {
  ChainServer mid(1, 3);
  MockPeerCtx ctx;
  mid.on_peer_message(ChainUpdate(1, 7, 1, Value::synthetic(1, 16),
                                  kDefaultObject), ctx);
  EXPECT_TRUE(ctx.client.empty());  // not tail yet
  mid.on_peer_crash(2, ctx);        // old tail dies → we are tail
  ASSERT_EQ(ctx.client.size(), 1u);
  EXPECT_EQ(ctx.client[0].msg->kind(), kChainWriteAck);
}

// ------------------------------------------------------------------- TOB

TEST(TobServerUnit, Server0StartsWithParkedToken) {
  TobServer s0(0, 3), s1(1, 3);
  EXPECT_TRUE(s0.holds_token());
  EXPECT_FALSE(s1.holds_token());
}

TEST(TobServerUnit, HolderStampsImmediately) {
  TobServer s(0, 3);
  MockPeerCtx ctx;
  s.on_client_message(TobWrite(7, 1, Value::synthetic(1, 16), kDefaultObject),
                      ctx);
  EXPECT_FALSE(s.holds_token());  // token released with the op
  EXPECT_EQ(s.applied_seq(), 1u);
  // Egress: the op followed by the token.
  ASSERT_EQ(ctx.peer.size(), 2u);
  EXPECT_EQ(ctx.peer[0].msg->kind(), kTobOp);
  EXPECT_EQ(ctx.peer[1].msg->kind(), kTobToken);
}

TEST(TobServerUnit, NonHolderNudges) {
  TobServer s(1, 3);
  MockPeerCtx ctx;
  s.on_client_message(TobWrite(7, 1, Value::synthetic(1, 16), kDefaultObject),
                      ctx);
  ASSERT_EQ(ctx.peer.size(), 1u);
  EXPECT_EQ(ctx.peer[0].msg->kind(), kTobNudge);
  EXPECT_EQ(s.applied_seq(), 0u);  // waits for the token
}

TEST(TobServerUnit, OpsDeliverInSeqOrderAndForward) {
  TobServer s(1, 3);
  MockPeerCtx ctx;
  s.on_peer_message(net::make_payload<TobOp>(1, 0, 7, 1, false,
                                             Value::synthetic(1, 16),
                                             kDefaultObject),
                    ctx);
  EXPECT_EQ(s.applied_seq(), 1u);
  EXPECT_EQ(s.current_value(kDefaultObject), Value::synthetic(1, 16));
  ASSERT_EQ(ctx.peer.size(), 1u);
  EXPECT_EQ(ctx.peer[0].to, 2u);  // forwarded around the ring
}

TEST(TobServerUnit, OwnOpAbsorbedAndRepliedOnReturn) {
  TobServer s(0, 3);
  MockPeerCtx ctx;
  s.on_client_message(TobWrite(7, 1, Value::synthetic(1, 16), kDefaultObject),
                      ctx);
  EXPECT_TRUE(ctx.client.empty()) << "reply must wait for stability";
  ctx.peer.clear();
  // The op completes its loop and returns.
  s.on_peer_message(net::make_payload<TobOp>(1, 0, 7, 1, false,
                                             Value::synthetic(1, 16),
                                             kDefaultObject),
                    ctx);
  ASSERT_EQ(ctx.client.size(), 1u);
  EXPECT_EQ(ctx.client[0].msg->kind(), kTobWriteAck);
  EXPECT_TRUE(ctx.peer.empty()) << "own op must be absorbed, not forwarded";
}

TEST(TobServerUnit, TokenParksAfterIdleRotation) {
  TobServer s(1, 3);
  MockPeerCtx ctx;
  // Token arrives having already made a full idle loop: it parks.
  s.on_peer_message(net::make_payload<TobToken>(5, 2), ctx);
  EXPECT_TRUE(s.holds_token());
  EXPECT_TRUE(ctx.peer.empty());
  // A nudge releases it.
  s.on_peer_message(net::make_payload<TobNudge>(0), ctx);
  EXPECT_FALSE(s.holds_token());
  ASSERT_EQ(ctx.peer.size(), 1u);
  EXPECT_EQ(ctx.peer[0].msg->kind(), kTobToken);
}

TEST(TobServerUnit, NudgeLoopDiesAtOrigin) {
  TobServer s(1, 3);
  MockPeerCtx ctx;
  s.on_peer_message(net::make_payload<TobNudge>(1), ctx);  // own nudge back
  EXPECT_TRUE(ctx.peer.empty());
}

TEST(TobServerUnit, FlowControlBoundsStampsPerVisit) {
  TobServer s(0, 3);
  MockPeerCtx ctx;
  // Queue 20 ops while NOT holding the token... server 0 holds it initially,
  // so first op stamps and releases; park it again via a full-idle token,
  // then queue the rest and count stamps on the next visit.
  s.on_client_message(TobWrite(7, 1, Value::synthetic(1, 16), kDefaultObject),
                      ctx);
  ctx.peer.clear();
  for (RequestId r = 2; r <= 21; ++r) {
    s.on_client_message(TobWrite(7, r, Value::synthetic(r, 16),
                                 kDefaultObject), ctx);
  }
  ctx.peer.clear();
  s.on_peer_message(net::make_payload<TobToken>(2, 0), ctx);
  // 8 ops stamped (kMaxStampsPerToken) + the released token.
  std::size_t ops = 0;
  for (const auto& p : ctx.peer) {
    if (p.msg->kind() == kTobOp) ++ops;
  }
  EXPECT_EQ(ops, 8u);
  EXPECT_EQ(ctx.peer.back().msg->kind(), kTobToken);
}

}  // namespace
}  // namespace hts::baselines
