// ClientSession unit tests: request/reply matching, timeout-driven retry
// rotation with exponential backoff, stale-reply and stale-timer handling,
// the one session retry timer, pipelining across objects with per-object
// ordering, and served_by attribution. The single-register tests address
// kDefaultObject.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/client.h"
#include "core/messages.h"

namespace hts::core {
namespace {

struct MockClientCtx final : ClientContext {
  struct Sent {
    ProcessId server;
    net::PayloadPtr msg;
  };
  std::vector<Sent> sent;
  std::vector<std::pair<double, std::uint64_t>> timers;  // (delay, token)
  std::vector<double> deadlines;                         // one per timer
  double time = 0;

  void send_server(ProcessId server, net::PayloadPtr msg) override {
    sent.push_back({server, std::move(msg)});
  }
  void arm_timer(double delay, std::uint64_t token) override {
    timers.emplace_back(delay, token);
    deadlines.push_back(time + delay);
  }
  [[nodiscard]] double now() const override { return time; }

  /// Moves `time` to the deadline of the timer armed last — the session's
  /// live one — and fires it.
  void fire_next(ClientSession& c) {
    ASSERT_FALSE(timers.empty());
    time = std::max(time, deadlines.back());
    c.on_timer(timers.back().second, *this);
  }
};

ClientOptions opts(std::size_t n = 3, ProcessId preferred = 0) {
  ClientOptions o;
  o.n_servers = n;
  o.preferred_server = preferred;
  o.retry_timeout = 0.1;
  return o;
}

TEST(ClientSession, WriteSendsToPreferredServer) {
  MockClientCtx ctx;
  ClientSession c(7, opts(3, 1));
  const RequestId req = c.begin_write(kDefaultObject, Value::synthetic(1, 16),
                                      ctx);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].server, 1u);
  ASSERT_EQ(ctx.sent[0].msg->kind(), kClientWrite);
  const auto& m = static_cast<const ClientWrite&>(*ctx.sent[0].msg);
  EXPECT_EQ(m.client, 7u);
  EXPECT_EQ(m.req, req);
  EXPECT_FALSE(c.idle());
}

TEST(ClientSession, CompletionDeliversResultOnce) {
  MockClientCtx ctx;
  ClientSession c(7, opts());
  int completions = 0;
  c.on_complete = [&](const OpResult& r) {
    ++completions;
    EXPECT_FALSE(r.is_read);
  };
  const RequestId req = c.begin_write(kDefaultObject, Value::synthetic(1, 16),
                                      ctx);
  ctx.time = 0.02;
  ClientWriteAck ack(req, kDefaultObject);
  c.on_reply(ack, kNoProcess, ctx);
  c.on_reply(ack, kNoProcess, ctx);  // duplicate ack ignored
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(c.idle());
}

TEST(ClientSession, ReadResultCarriesValueAndTag) {
  MockClientCtx ctx;
  ClientSession c(7, opts());
  OpResult seen;
  c.on_complete = [&](const OpResult& r) { seen = r; };
  const RequestId req = c.begin_read(kDefaultObject, ctx);
  ctx.time = 0.01;
  ClientReadAck ack(req, Value::synthetic(9, 32), Tag{4, 2}, kDefaultObject);
  c.on_reply(ack, kNoProcess, ctx);
  EXPECT_TRUE(seen.is_read);
  EXPECT_EQ(seen.value, Value::synthetic(9, 32));
  EXPECT_EQ(seen.tag, (Tag{4, 2}));
  EXPECT_EQ(seen.invoked_at, 0.0);
  EXPECT_EQ(seen.completed_at, 0.01);
}

TEST(ClientSession, TimeoutRotatesServerWithSameRequestId) {
  MockClientCtx ctx;
  ClientSession c(7, opts(3, 2));
  const RequestId req = c.begin_write(kDefaultObject, Value::synthetic(1, 16),
                                      ctx);
  ASSERT_EQ(ctx.timers.size(), 1u);
  ctx.fire_next(c);  // fires: retry
  ASSERT_EQ(ctx.sent.size(), 2u);
  EXPECT_EQ(ctx.sent[1].server, 0u);  // (2+1) % 3
  const auto& retry = static_cast<const ClientWrite&>(*ctx.sent[1].msg);
  EXPECT_EQ(retry.req, req) << "retries must reuse the request id (dedup)";
  EXPECT_EQ(c.retries(), 1u);
}

TEST(ClientSession, StaleTimerIgnoredAfterCompletion) {
  MockClientCtx ctx;
  ClientSession c(7, opts());
  const RequestId req = c.begin_write(kDefaultObject, Value::synthetic(1, 16),
                                      ctx);
  const auto token = ctx.timers[0].second;
  ClientWriteAck ack(req, kDefaultObject);
  c.on_reply(ack, kNoProcess, ctx);
  c.on_timer(token, ctx);  // stale: op already completed
  EXPECT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(c.retries(), 0u);
}

TEST(ClientSession, MismatchedReplyIgnored) {
  MockClientCtx ctx;
  ClientSession c(7, opts());
  int completions = 0;
  c.on_complete = [&](const OpResult&) { ++completions; };
  const RequestId req = c.begin_read(kDefaultObject, ctx);
  ClientReadAck wrong_req(req + 100, Value{}, kInitialTag, kDefaultObject);
  c.on_reply(wrong_req, kNoProcess, ctx);
  ClientWriteAck wrong_kind(req, kDefaultObject);
  c.on_reply(wrong_kind, kNoProcess, ctx);
  EXPECT_EQ(completions, 0);
  EXPECT_FALSE(c.idle());
}

TEST(ClientSession, AttemptsCounted) {
  MockClientCtx ctx;
  ClientSession c(7, opts());
  OpResult seen;
  c.on_complete = [&](const OpResult& r) { seen = r; };
  const RequestId req = c.begin_write(kDefaultObject, Value::synthetic(1, 16),
                                      ctx);
  ctx.fire_next(c);
  ctx.fire_next(c);
  ClientWriteAck ack(req, kDefaultObject);
  c.on_reply(ack, kNoProcess, ctx);
  EXPECT_EQ(seen.attempts, 3u);
}

TEST(ClientSession, RequestIdsIncrease) {
  MockClientCtx ctx;
  ClientSession c(7, opts());
  const RequestId r1 = c.begin_write(kDefaultObject, Value::synthetic(1, 16),
                                     ctx);
  ClientWriteAck ack1(r1, kDefaultObject);
  c.on_reply(ack1, kNoProcess, ctx);
  const RequestId r2 = c.begin_read(kDefaultObject, ctx);
  EXPECT_GT(r2, r1);
}

// ----------------------------------------------------- pipelined sessions

TEST(ClientSession, PipelinesAcrossDistinctObjects) {
  MockClientCtx ctx;
  ClientOptions o = opts();
  o.max_inflight = 3;
  ClientSession c(7, o);
  c.begin_write(/*object=*/1, Value::synthetic(1, 16), ctx);
  c.begin_write(/*object=*/2, Value::synthetic(2, 16), ctx);
  c.begin_read(/*object=*/3, ctx);
  ASSERT_EQ(ctx.sent.size(), 3u);  // all three on the wire at once
  EXPECT_EQ(c.inflight_count(), 3u);
  EXPECT_EQ(c.backlog_count(), 0u);
  EXPECT_EQ(static_cast<const ClientWrite&>(*ctx.sent[0].msg).object, 1u);
  EXPECT_EQ(static_cast<const ClientWrite&>(*ctx.sent[1].msg).object, 2u);
  EXPECT_EQ(static_cast<const ClientRead&>(*ctx.sent[2].msg).object, 3u);
}

TEST(ClientSession, PipelineCapQueuesExcessOps) {
  MockClientCtx ctx;
  ClientOptions o = opts();
  o.max_inflight = 2;
  ClientSession c(7, o);
  const RequestId r1 = c.begin_write(1, Value::synthetic(1, 16), ctx);
  c.begin_write(2, Value::synthetic(2, 16), ctx);
  c.begin_write(3, Value::synthetic(3, 16), ctx);  // over the cap: queued
  EXPECT_EQ(ctx.sent.size(), 2u);
  EXPECT_EQ(c.backlog_count(), 1u);
  ClientWriteAck ack(r1, kDefaultObject);
  c.on_reply(ack, 0, ctx);  // frees a slot → queued op goes out
  EXPECT_EQ(ctx.sent.size(), 3u);
  EXPECT_EQ(static_cast<const ClientWrite&>(*ctx.sent[2].msg).object, 3u);
}

TEST(ClientSession, SameObjectOpsStayOrdered) {
  // Two writes to one object: the second must wait for the first even with
  // pipeline capacity to spare — per-object ordering is the API contract.
  MockClientCtx ctx;
  ClientOptions o = opts();
  o.max_inflight = 4;
  ClientSession c(7, o);
  const RequestId r1 = c.begin_write(5, Value::synthetic(1, 16), ctx);
  const RequestId r2 = c.begin_write(5, Value::synthetic(2, 16), ctx);
  EXPECT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(c.backlog_count(), 1u);

  std::vector<RequestId> completed;
  c.on_complete = [&](const OpResult& r) { completed.push_back(r.req); };
  ClientWriteAck ack1(r1, kDefaultObject);
  c.on_reply(ack1, 0, ctx);
  ASSERT_EQ(ctx.sent.size(), 2u);  // second write released in order
  EXPECT_EQ(static_cast<const ClientWrite&>(*ctx.sent[1].msg).req, r2);
  ClientWriteAck ack2(r2, kDefaultObject);
  c.on_reply(ack2, 0, ctx);
  EXPECT_EQ(completed, (std::vector<RequestId>{r1, r2}));
  EXPECT_TRUE(c.idle());
}

TEST(ClientSession, PerOpTimersRetryOnlyTheTimedOutOp) {
  // Two ops started 50 ms apart: the fire at op 1's deadline retries op 1
  // alone, and the next fire, at op 2's deadline, retries op 2.
  MockClientCtx ctx;
  ClientOptions o = opts(3, 0);
  o.max_inflight = 2;
  ClientSession c(7, o);
  const RequestId r1 = c.begin_write(1, Value::synthetic(1, 16), ctx);
  ctx.time = 0.05;
  const RequestId r2 = c.begin_write(2, Value::synthetic(2, 16), ctx);
  ASSERT_EQ(ctx.timers.size(), 1u) << "op 2's deadline waits for op 1's";
  ctx.fire_next(c);  // t = 0.1: only op 1 is due
  ASSERT_EQ(ctx.sent.size(), 3u);
  const auto& retry = static_cast<const ClientWrite&>(*ctx.sent[2].msg);
  EXPECT_EQ(retry.req, r1);
  EXPECT_EQ(ctx.sent[2].server, 1u);  // rotated off server 0
  EXPECT_EQ(ctx.sent[1].server, 0u);  // op 2 untouched
  EXPECT_EQ(c.retries(), 1u);
  EXPECT_DOUBLE_EQ(ctx.deadlines.back(), 0.15) << "re-armed for op 2";
  ctx.fire_next(c);  // t = 0.15: only op 2 is due
  ASSERT_EQ(ctx.sent.size(), 4u);
  EXPECT_EQ(static_cast<const ClientWrite&>(*ctx.sent[3].msg).req, r2);
  EXPECT_EQ(c.retries(), 2u);
}

TEST(ClientSession, WriteIdsAreGaplessAndReadIdsDisjoint) {
  // Server-side retry dedup (D6) needs write ids 1, 2, 3, … with no holes;
  // reads draw from a separate flagged sequence.
  MockClientCtx ctx;
  ClientSession c(7, opts());
  const RequestId w1 = c.begin_write(kDefaultObject, Value::synthetic(1, 16),
                                     ctx);
  ClientWriteAck ack1(w1, kDefaultObject);
  c.on_reply(ack1, kNoProcess, ctx);
  const RequestId r1 = c.begin_read(kDefaultObject, ctx);
  EXPECT_NE(r1 & kReadRequestBit, 0u);
  ClientReadAck rack(r1, Value{}, kInitialTag, kDefaultObject);
  c.on_reply(rack, kNoProcess, ctx);
  const RequestId w2 = c.begin_write(kDefaultObject, Value::synthetic(2, 16),
                                     ctx);
  EXPECT_EQ(w1, 1u);
  EXPECT_EQ(w2, 2u) << "the interleaved read must not burn a write id";
  EXPECT_EQ(w2 & kReadRequestBit, 0u);
}

TEST(ClientSession, NewOpsStickToTheRotatedTarget) {
  // After a retry rotates off a (dead) preferred server, subsequent ops
  // must start at the rotated-to server instead of paying a timeout each.
  MockClientCtx ctx;
  ClientSession c(7, opts(3, 0));
  const RequestId req = c.begin_write(kDefaultObject, Value::synthetic(1, 16),
                                      ctx);
  EXPECT_EQ(ctx.sent[0].server, 0u);
  ctx.fire_next(c);  // retry → server 1
  EXPECT_EQ(ctx.sent[1].server, 1u);
  ClientWriteAck ack(req, kDefaultObject);
  c.on_reply(ack, 1, ctx);
  c.begin_read(kDefaultObject, ctx);
  ASSERT_EQ(ctx.sent.size(), 3u);
  EXPECT_EQ(ctx.sent[2].server, 1u) << "session target must be sticky";
}

TEST(ClientSession, CompletionReportsServedBy) {
  MockClientCtx ctx;
  ClientSession c(7, opts(3, 0));
  OpResult seen;
  c.on_complete = [&](const OpResult& r) { seen = r; };
  const RequestId req = c.begin_read(kDefaultObject, ctx);
  ctx.fire_next(c);  // retry lands on server 1
  ClientReadAck ack(req, Value::synthetic(9, 32), Tag{4, 2}, kDefaultObject);
  c.on_reply(ack, /*from=*/1, ctx);
  EXPECT_EQ(seen.served_by, 1u);
  EXPECT_EQ(seen.attempts, 2u);
  // A host that does not track the sender passes kNoProcess; it is
  // reported as is.
  OpResult senderless_seen;
  c.on_complete = [&](const OpResult& r) { senderless_seen = r; };
  const RequestId req2 = c.begin_read(kDefaultObject, ctx);
  ClientReadAck ack2(req2, Value::synthetic(9, 32), Tag{4, 2}, kDefaultObject);
  c.on_reply(ack2, kNoProcess, ctx);
  EXPECT_EQ(senderless_seen.served_by, kNoProcess);
}

// ------------------------------------------------- the session timer

TEST(ClientSession, SequentialCompletedOpsArmOneTimer) {
  // A completed op cancels nothing, and a later op's deadline waits for
  // the timer already armed: 100 ops, one timer.
  MockClientCtx ctx;
  ClientSession c(7, opts());
  for (int i = 0; i < 100; ++i) {
    const RequestId req = c.begin_write(
        kDefaultObject, Value::synthetic(static_cast<std::uint64_t>(i), 16),
        ctx);
    ctx.time += 1e-4;
    ClientWriteAck ack(req, kDefaultObject);
    c.on_reply(ack, 0, ctx);
  }
  EXPECT_EQ(ctx.timers.size(), 1u);
  ctx.fire_next(c);  // nothing in flight: no retry, no re-arm
  EXPECT_EQ(ctx.timers.size(), 1u);
  EXPECT_EQ(c.retries(), 0u);
  EXPECT_EQ(ctx.sent.size(), 100u);
}

TEST(ClientSession, AFireRetriesOnlyTheDueOpsInDeadlineOrder) {
  // A's retry pushes its deadline behind B's, so deadline order (B, A)
  // differs from start order (A, B). A fire at t = 0.21 finds both due and
  // C (deadline 0.22) not: it retries B, then A, and re-arms for C.
  MockClientCtx ctx;
  ClientOptions o = opts(3, 0);
  o.max_inflight = 3;
  ClientSession c(7, o);
  const RequestId a = c.begin_write(1, Value::synthetic(1, 16), ctx);
  ctx.time = 0.05;
  const RequestId b = c.begin_write(2, Value::synthetic(2, 16), ctx);
  ctx.fire_next(c);  // t = 0.1: A retries, deadline 0.2
  ASSERT_EQ(c.retries(), 1u);
  ctx.time = 0.12;
  const RequestId cc = c.begin_write(3, Value::synthetic(3, 16), ctx);
  ASSERT_EQ(ctx.sent.size(), 4u);
  ctx.time = 0.21;
  c.on_timer(ctx.timers.back().second, ctx);  // armed for B's 0.15
  ASSERT_EQ(ctx.sent.size(), 6u);
  EXPECT_EQ(static_cast<const ClientWrite&>(*ctx.sent[4].msg).req, b);
  EXPECT_EQ(static_cast<const ClientWrite&>(*ctx.sent[5].msg).req, a);
  EXPECT_EQ(c.retries(), 3u);
  EXPECT_DOUBLE_EQ(ctx.deadlines.back(), 0.22) << "re-armed for C";
  ctx.fire_next(c);
  ASSERT_EQ(ctx.sent.size(), 7u);
  EXPECT_EQ(static_cast<const ClientWrite&>(*ctx.sent[6].msg).req, cc);
}

TEST(ClientSession, AnEarlyFireOnlyReArms) {
  // A fire before any deadline (clock rounding) retries nothing and keeps
  // the op's retry: the re-armed timer still fires it.
  MockClientCtx ctx;
  ClientSession c(7, opts());
  c.begin_write(kDefaultObject, Value::synthetic(1, 16), ctx);
  ctx.time = 0.1 - 1e-9;
  c.on_timer(ctx.timers.back().second, ctx);
  EXPECT_EQ(c.retries(), 0u);
  ASSERT_EQ(ctx.timers.size(), 2u);
  EXPECT_DOUBLE_EQ(ctx.deadlines.back(), 0.1);
  c.on_timer(ctx.timers.front().second, ctx);  // superseded: ignored
  EXPECT_EQ(c.retries(), 0u);
  ctx.fire_next(c);
  EXPECT_EQ(c.retries(), 1u);
}

// ------------------------------------------------------- retry backoff

TEST(ClientSession, MultiplierOneKeepsSeedFixedIntervalNoJitter) {
  MockClientCtx ctx;
  ClientOptions o = opts();
  o.retry_timeout = 0.1;
  o.retry_multiplier = 1.0;
  ClientSession c(7, o);
  c.begin_write(kDefaultObject, Value::synthetic(1, 16), ctx);
  for (int i = 0; i < 4; ++i) ctx.fire_next(c);
  ASSERT_EQ(ctx.timers.size(), 5u);
  EXPECT_EQ(c.retries(), 4u);
  for (const auto& [delay, token] : ctx.timers) {
    EXPECT_DOUBLE_EQ(delay, 0.1);  // every attempt: exactly the base timeout
  }
}

TEST(ClientSession, MultiplierOneIgnoresTheCap) {
  // The cap bounds exponential growth only. Fabrics express "never retry"
  // as a huge retry_timeout; the cap must not resurrect those retries.
  MockClientCtx ctx;
  ClientOptions o = opts();
  o.retry_timeout = 10.0;  // above the default cap of 8.0
  o.retry_multiplier = 1.0;
  ClientSession c(7, o);
  c.begin_write(kDefaultObject, Value::synthetic(1, 16), ctx);
  ctx.fire_next(c);
  ASSERT_EQ(c.retries(), 1u);
  ASSERT_EQ(ctx.timers.size(), 2u);
  EXPECT_DOUBLE_EQ(ctx.timers[0].first, 10.0);
  EXPECT_DOUBLE_EQ(ctx.timers[1].first, 10.0);
  EXPECT_DOUBLE_EQ(c.retry_delay(5), 10.0);
}

TEST(ClientSession, BackoffGrowsExponentiallyWithinJitterBandsAndCaps) {
  MockClientCtx ctx;
  ClientOptions o = opts();
  o.retry_timeout = 0.1;
  o.retry_multiplier = 2.0;
  o.retry_cap = 0.5;
  o.seed = 99;
  ClientSession c(7, o);
  c.begin_write(kDefaultObject, Value::synthetic(1, 16), ctx);
  for (int i = 0; i < 5; ++i) ctx.fire_next(c);
  EXPECT_EQ(c.retries(), 5u);
  ASSERT_EQ(ctx.timers.size(), 6u);
  // Schedule: 0.1, 0.2, 0.4, 0.5 (cap), 0.5, 0.5 — each jittered into
  // [delay/2, delay].
  const double expect[] = {0.1, 0.2, 0.4, 0.5, 0.5, 0.5};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GE(ctx.timers[i].first, expect[i] / 2 - 1e-6) << "attempt " << i;
    EXPECT_LE(ctx.timers[i].first, expect[i] + 1e-6) << "attempt " << i;
    EXPECT_DOUBLE_EQ(c.retry_delay(static_cast<std::uint32_t>(i + 1)),
                     expect[i]);
  }
  // Jitter must actually jitter: not every delay sits on the nominal value.
  bool any_off_nominal = false;
  for (std::size_t i = 0; i < 6; ++i) {
    if (std::abs(ctx.timers[i].first - expect[i]) > 1e-9) {
      any_off_nominal = true;
    }
  }
  EXPECT_TRUE(any_off_nominal);
}

TEST(ClientSession, JitterStreamsDifferPerClient) {
  auto delays = [](ClientId id) {
    MockClientCtx ctx;
    ClientOptions o;
    o.n_servers = 3;
    o.retry_timeout = 0.1;
    o.retry_multiplier = 2.0;
    o.seed = 1;
    ClientSession c(id, o);
    c.begin_write(kDefaultObject, Value::synthetic(1, 16), ctx);
    for (int i = 0; i < 6; ++i) ctx.fire_next(c);
    std::vector<double> out;
    for (auto& [d, t] : ctx.timers) out.push_back(d);
    return out;
  };
  EXPECT_NE(delays(1), delays(2));
  EXPECT_EQ(delays(1), delays(1));  // deterministic per (seed, client)
}

}  // namespace
}  // namespace hts::core
