// The scatter-gather frame codec (FrameWriter/FrameDecoder): byte parity
// with the legacy string encoder across every MsgKind, torn-stream
// reassembly at every byte boundary, and pool-reuse guarantees — plus the
// InMemTransport timer tests and where its execute() closures and inline
// deliveries run. The transport contract itself is checked by the typed
// suite in tests/transport_conformance_test.cpp.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>
#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "net/frame_writer.h"
#include "net/inmem_transport.h"

namespace hts::net {
namespace {

/// Polls `done` every millisecond for up to `limit_ms`; true once it holds.
template <typename Pred>
bool within_ms(int limit_ms, Pred done) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(limit_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= end) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(InMemTransport, TimersFireWithToken) {
  InMemTransport t(0.001);
  std::atomic<std::uint64_t> fired{0};
  t.register_node(
      NodeAddress::client(5), [](NodeAddress, PayloadPtr) {}, nullptr,
      [&](std::uint64_t token) { fired = token; });
  t.start();
  t.arm_timer(NodeAddress::client(5), 0.01, 42);
  EXPECT_TRUE(within_ms(5000, [&] { return fired.load() != 0; }));
  EXPECT_EQ(fired.load(), 42u);
  t.stop();
}

TEST(InMemTransport, TimersOrderedByDeadline) {
  InMemTransport t(0.001);
  std::mutex mu;
  std::vector<std::uint64_t> order;
  t.register_node(
      NodeAddress::client(1), [](NodeAddress, PayloadPtr) {}, nullptr,
      [&](std::uint64_t token) {
        const std::scoped_lock lock(mu);
        order.push_back(token);
      });
  t.start();
  t.arm_timer(NodeAddress::client(1), 0.05, 3);
  t.arm_timer(NodeAddress::client(1), 0.01, 1);
  t.arm_timer(NodeAddress::client(1), 0.03, 2);
  within_ms(5000, [&] {
    const std::scoped_lock lock(mu);
    return order.size() >= 3;
  });
  const std::scoped_lock lock(mu);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
  t.stop();
}

TEST(InMemTransport, ExecuteRunsInlineOnAParkedLoopButNotFromALoopThread) {
  // An idle in-memory loop is parked on its futex: a closure from a thread
  // that is not a loop thread runs right there, before execute() returns.
  // A loop thread's closure for another node is posted to that node's loop.
  InMemTransport t(0.001);
  const NodeAddress a = NodeAddress::client(1);
  const NodeAddress b = NodeAddress::client(2);
  std::atomic<std::thread::id> a_loop{};
  std::atomic<std::thread::id> ran_on{};
  t.register_node(a, [&](NodeAddress, PayloadPtr) {
    a_loop = std::this_thread::get_id();
    t.execute(b, [&] { ran_on = std::this_thread::get_id(); });
  });
  t.register_node(b, [](NodeAddress, PayloadPtr) {});
  t.start();

  const std::thread::id self = std::this_thread::get_id();
  bool inline_seen = false;
  EXPECT_TRUE(within_ms(5000, [&] {
    // The loop parks shortly after start(); until then closures are mail.
    if (!t.wait_quiescent(5.0)) return false;
    auto where = std::make_shared<std::atomic<std::thread::id>>();
    t.execute(b, [where] { *where = std::this_thread::get_id(); });
    if (!t.wait_quiescent(5.0)) return false;  // the closure has run
    inline_seen = where->load() == self;
    return inline_seen;
  }));
  EXPECT_TRUE(inline_seen);

  t.send(a, a, make_payload<core::ClientWriteAck>(1, kDefaultObject));
  ASSERT_TRUE(t.wait_quiescent(5.0));
  EXPECT_NE(ran_on.load(), std::thread::id{});
  EXPECT_NE(ran_on.load(), a_loop.load()) << "ran inline on a's loop thread";
  EXPECT_NE(ran_on.load(), self);
  t.stop();
}

PayloadPtr ping(RequestId r) {
  return make_payload<core::ClientWriteAck>(r, kDefaultObject);
}

RequestId req_of(const Payload& p) {
  return static_cast<const core::ClientWriteAck&>(p).req;
}

/// Pins the calling thread to one CPU (of those present), so loop threads
/// that would otherwise share a CPU run in parallel.
void pin_to_cpu(unsigned i) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(i % std::max(1u, std::thread::hardware_concurrency()), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Lets every loop of `t` go idle and park on its futex.
bool settle_and_park(InMemTransport& t) {
  if (!t.wait_quiescent(5.0)) return false;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return true;
}

TEST(InMemTransport, HandlerSendIntoAParkedLoopRunsInlineAndIsWork) {
  // a's handler (kicked by a self-send) sends to b while b is parked: b's
  // handler runs on a's loop thread before send() returns, counts as work
  // while it runs, and is settled once it returns.
  InMemTransport t(0.001);
  const NodeAddress a = NodeAddress::server(0);
  const NodeAddress b = NodeAddress::server(1);
  std::atomic<std::thread::id> a_loop{}, b_ran_on{};
  std::atomic<bool> returned_after_b{false}, entered{false}, release{false};
  std::atomic<int> b_done{0};
  t.register_node(a, [&](NodeAddress, PayloadPtr m) {
    a_loop = std::this_thread::get_id();
    const int before = b_done.load();
    t.send(a, b, std::move(m));
    returned_after_b = b_done.load() > before;
  });
  t.register_node(b, [&](NodeAddress, PayloadPtr m) {
    b_ran_on = std::this_thread::get_id();
    if (req_of(*m) == 2) {
      entered = true;
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ++b_done;
  });
  t.start();

  // b parks shortly after it goes idle; until then a's sends are mail, so
  // each step retries until its delivery ran inline.
  bool ran_inline = false;
  for (int i = 0; i < 20 && !ran_inline; ++i) {
    ASSERT_TRUE(settle_and_park(t));
    t.send(a, a, ping(1));
    ASSERT_TRUE(t.wait_quiescent(5.0));
    ran_inline = b_ran_on.load() == a_loop.load();
  }
  ASSERT_TRUE(ran_inline) << "never run on a's loop thread";
  EXPECT_TRUE(returned_after_b.load()) << "send() returned before b ran";

  bool held_inline = false;
  for (int i = 0; i < 20 && !held_inline; ++i) {
    ASSERT_TRUE(settle_and_park(t));
    entered = false;
    t.send(a, a, ping(2));
    ASSERT_TRUE(within_ms(5000, [&] { return entered.load(); }));
    held_inline = b_ran_on.load() == a_loop.load();
    if (held_inline) {
      EXPECT_FALSE(t.wait_quiescent(0.05))
          << "a running inline delivery is work";
    }
    release = true;
    EXPECT_TRUE(t.wait_quiescent(5.0)) << "the delivery never settled";
    release = false;
  }
  EXPECT_TRUE(held_inline);
  t.stop();
}

TEST(InMemTransport, InlineRunsNestUpToTheDepthBound) {
  // A chain n0 → n1 → … → n(kMax+1), kicked on n0's loop: every hop into a
  // parked node runs inline on the thread that sends it, nested inside the
  // run that sent it, until kMaxInlineDepth runs are open; the next hop is
  // posted and runs on its own node's loop.
  constexpr int kMax = NodeLoop::kMaxInlineDepth;
  constexpr int kNodes = kMax + 2;
  InMemTransport t(0.001);
  std::vector<std::atomic<std::thread::id>> ran_on(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    const NodeAddress self = NodeAddress::server(static_cast<ProcessId>(i));
    t.register_node(self, [&t, &ran_on, i, self](NodeAddress, PayloadPtr m) {
      ran_on[i] = std::this_thread::get_id();
      if (i + 1 < kNodes) {
        t.send(self, NodeAddress::server(static_cast<ProcessId>(i + 1)),
               std::move(m));
      }
    });
  }
  t.start();
  // Until every node has parked some hops are mail: retry until one chain
  // nested all the way to the bound.
  bool nested_to_bound = false;
  for (int round = 0; round < 20 && !nested_to_bound; ++round) {
    ASSERT_TRUE(settle_and_park(t));
    for (auto& r : ran_on) r = std::thread::id{};
    t.send(NodeAddress::server(0), NodeAddress::server(0), ping(1));
    ASSERT_TRUE(t.wait_quiescent(5.0));
    const std::thread::id n0 = ran_on[0].load();
    nested_to_bound = true;
    for (int i = 1; i <= kMax; ++i) {
      nested_to_bound = nested_to_bound && ran_on[i].load() == n0;
    }
    EXPECT_NE(ran_on[kMax + 1].load(), n0)
        << "a run nested deeper than kMaxInlineDepth";
    EXPECT_NE(ran_on[kMax + 1].load(), std::thread::id{});
  }
  EXPECT_TRUE(nested_to_bound) << "no chain ran inline down to the bound";
  t.stop();
}

TEST(InMemTransport, SendBackIntoAHeldNodeRunsOnItsHolder) {
  // a → b → c runs on a's loop thread, each hop nested in the one before.
  // c's reply to b finds b held by that thread: it is never re-entered and
  // never handed to b's loop; the holder handles it after b's run, before it
  // lets go of b — so before a's send returns.
  InMemTransport t(0.001);
  const NodeAddress a = NodeAddress::server(0);
  const NodeAddress b = NodeAddress::server(1);
  const NodeAddress c = NodeAddress::server(2);
  std::atomic<std::thread::id> a_loop{}, b_loop{}, c_ran_on{}, back_ran_on{};
  std::atomic<bool> a_returned{false}, back_before_return{false};
  t.register_node(a, [&](NodeAddress, PayloadPtr m) {
    a_loop = std::this_thread::get_id();
    t.send(a, b, std::move(m));
    a_returned = true;
  });
  t.register_node(b, [&](NodeAddress from, PayloadPtr m) {
    if (from == b) {
      b_loop = std::this_thread::get_id();
    } else if (from == a) {
      t.send(b, c, std::move(m));
    } else {
      back_ran_on = std::this_thread::get_id();
      back_before_return = !a_returned.load();
    }
  });
  t.register_node(c, [&](NodeAddress from, PayloadPtr m) {
    c_ran_on = std::this_thread::get_id();
    t.send(c, from, std::move(m));
  });
  t.start();
  t.send(b, b, ping(0));  // learns b's loop thread
  ASSERT_TRUE(t.wait_quiescent(5.0));
  ASSERT_NE(b_loop.load(), std::thread::id{});

  bool nested = false;
  for (int i = 0; i < 20 && !nested; ++i) {
    ASSERT_TRUE(settle_and_park(t));
    a_returned = false;
    back_ran_on = std::thread::id{};
    t.send(a, a, ping(1));
    ASSERT_TRUE(t.wait_quiescent(5.0));
    ASSERT_NE(back_ran_on.load(), std::thread::id{});
    EXPECT_NE(back_ran_on.load(), b_loop.load())
        << "the send back was handed to b's loop";
    nested = c_ran_on.load() == a_loop.load();
    if (nested) {
      EXPECT_EQ(back_ran_on.load(), a_loop.load())
          << "the send back did not run on b's holder";
      EXPECT_TRUE(back_before_return.load())
          << "the holder let go of b before handling the send back";
    }
  }
  EXPECT_TRUE(nested) << "a → b → c never nested on a's loop thread";
  t.stop();
}

TEST(InMemTransport, LinksStayFifoAlongANestedThreeHopChain) {
  // Two sources each send a numbered stream to one relay, which forwards
  // every message to one sink: source → relay → sink, three hops whose
  // deliveries nest on the source's thread when both are parked and free,
  // and are posted (or left to a holder) when they are not. Each source's
  // stream must reach the sink in order. Every loop runs on its own CPU;
  // the sink now and then sleeps, so hops find it held.
  constexpr int kSources = 2;
  constexpr RequestId kPerSource = 3000;
  constexpr RequestId kStride = 1'000'000;  // req = source * kStride + seq
  InMemTransport t(0.001);
  const NodeAddress relay = NodeAddress::server(0);
  const NodeAddress sink = NodeAddress::server(1);
  // Written only by the sink's handler, whose runs never overlap, and read
  // by this thread while every node is quiescent.
  std::map<RequestId, std::vector<RequestId>> got;
  std::atomic<std::thread::id> sink_loop{};
  std::vector<std::atomic<std::thread::id>> source_loop(kSources + 2);
  std::uint64_t nested = 0;
  t.register_node(relay, [&](NodeAddress from, PayloadPtr m) {
    if (from == relay) {
      pin_to_cpu(0);
      return;
    }
    t.send(relay, sink, std::move(m));
  });
  t.register_node(sink, [&](NodeAddress from, PayloadPtr m) {
    if (from == sink) {
      sink_loop = std::this_thread::get_id();
      pin_to_cpu(1);
      return;
    }
    const RequestId r = req_of(*m);
    got[r / kStride].push_back(r % kStride);
    const std::thread::id here = std::this_thread::get_id();
    if (here != sink_loop.load()) {
      for (const auto& s : source_loop) nested += s.load() == here ? 1 : 0;
    }
    if (r % 8 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  for (ProcessId p = 2; p < kSources + 2; ++p) {
    const NodeAddress self = NodeAddress::server(p);
    t.register_node(self, [&, self, p](NodeAddress, PayloadPtr) {
      source_loop[p] = std::this_thread::get_id();
      pin_to_cpu(p);
      for (RequestId r = 1; r <= kPerSource; ++r) {
        t.send(self, relay, ping(p * kStride + r));
      }
    });
  }
  t.start();
  t.send(relay, relay, ping(0));
  t.send(sink, sink, ping(0));
  for (int storm = 0; storm < 3; ++storm) {
    ASSERT_TRUE(settle_and_park(t));
    got.clear();
    for (ProcessId p = 2; p < kSources + 2; ++p) {
      t.send(NodeAddress::server(p), NodeAddress::server(p), ping(0));
    }
    ASSERT_TRUE(t.wait_quiescent(30.0));
    for (ProcessId p = 2; p < kSources + 2; ++p) {
      const std::vector<RequestId>& seq = got[p];
      ASSERT_EQ(seq.size(), kPerSource) << "source " << p;
      for (RequestId r = 1; r <= kPerSource; ++r) {
        ASSERT_EQ(seq[r - 1], r) << "source " << p << " out of order";
      }
    }
  }
  EXPECT_GT(nested, 0u) << "no delivery nested source → relay → sink";
  t.stop();
}

TEST(InMemTransport, StopReturnsWhileAForeignThreadHoldsANode) {
  // A caller's execute() runs inline on a parked node and holds it 200 ms.
  // stop() from another thread meanwhile must still reach the node's loop:
  // it returns once the closure has.
  InMemTransport t(0.001);
  const NodeAddress a = NodeAddress::client(1);
  t.register_node(a, [](NodeAddress, PayloadPtr) {});
  t.start();
  std::atomic<bool> entered{false}, held_inline{false};
  std::thread caller;
  for (int i = 0; i < 20 && !held_inline.load(); ++i) {
    if (caller.joinable()) caller.join();
    ASSERT_TRUE(settle_and_park(t));
    entered = false;
    caller = std::thread([&] {
      const std::thread::id self = std::this_thread::get_id();
      t.execute(a, [&, self] {
        held_inline = std::this_thread::get_id() == self;
        entered = true;
        if (held_inline.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
      });
    });
    ASSERT_TRUE(within_ms(5000, [&] { return entered.load(); }));
  }
  ASSERT_TRUE(held_inline.load()) << "execute() never ran inline";
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    t.stop();
    stopped = true;
  });
  const bool returned = within_ms(5000, [&] { return stopped.load(); });
  EXPECT_TRUE(returned) << "stop() lost its wake to the holder";
  // On failure, unstick the parked loop with a timer's mail so the test
  // ends instead of hanging in join.
  if (!returned) t.arm_timer(a, 0.0, 1);
  stopper.join();
  caller.join();
}

TEST(InMemTransport, ForeignThreadSendsAreNeverRunInline) {
  // Only loop threads deliver inline: the test thread's sends, even from a
  // registered node's address into a parked loop, are posted.
  InMemTransport t(0.001);
  const NodeAddress a = NodeAddress::server(0);
  const NodeAddress b = NodeAddress::server(1);
  std::atomic<std::thread::id> b_ran_on{};
  t.register_node(a, [](NodeAddress, PayloadPtr) {});
  t.register_node(b, [&](NodeAddress, PayloadPtr) {
    b_ran_on = std::this_thread::get_id();
  });
  t.start();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(settle_and_park(t));
    t.send(a, b, ping(static_cast<RequestId>(i)));
    ASSERT_TRUE(t.wait_quiescent(5.0));
    EXPECT_NE(b_ran_on.load(), std::this_thread::get_id());
  }
  t.stop();
}

TEST(InMemTransport, LinksStayFifoUnderMixedInlineAndPostedDelivery) {
  // Three loop nodes each send a numbered stream to one sink, every loop on
  // its own CPU. A message runs inline when the sink is parked and free,
  // and is posted while the sink's loop or another sender's inline run
  // holds it; no message may overtake an earlier one of its stream still
  // in the sink's mailbox. Three storms run, each checked, and more (up to
  // ten) until one has mixed both paths: a loaded machine may keep the sink
  // from parking. A holder drains the sink's mailbox until it is empty, so
  // the sink also arms a due timer now and then: its loop wakes to fire it
  // and takes the mail posted meanwhile, racing the senders' inline runs.
  constexpr int kSenders = 3;
  constexpr RequestId kPerSender = 3000;
  InMemTransport t(0.001);
  const NodeAddress sink = NodeAddress::server(0);
  // Written only by the sink's handler, whose runs never overlap, and read
  // by this thread while every node is quiescent.
  std::map<ProcessId, std::vector<RequestId>> got;
  std::thread::id sink_loop{};
  std::uint64_t inline_runs = 0, loop_runs = 0;
  t.register_node(
      sink,
      [&](NodeAddress from, PayloadPtr m) {
        if (from == sink) {
          sink_loop = std::this_thread::get_id();
          pin_to_cpu(0);
          return;
        }
        got[static_cast<ProcessId>(from.id)].push_back(req_of(*m));
        ++(std::this_thread::get_id() == sink_loop ? loop_runs : inline_runs);
        // Now and then hold the sink while asleep, so other senders find
        // it taken and post — then race its loop for the run lock once it
        // is free.
        if (req_of(*m) % 8 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (req_of(*m) % 128 == 0) t.arm_timer(sink, 0.0, 1);
      },
      nullptr, [](std::uint64_t) {});
  for (ProcessId p = 1; p <= kSenders; ++p) {
    const NodeAddress self = NodeAddress::server(p);
    t.register_node(self, [&t, self, sink](NodeAddress, PayloadPtr) {
      pin_to_cpu(self.id);
      for (RequestId r = 1; r <= kPerSender; ++r) t.send(self, sink, ping(r));
    });
  }
  t.start();
  t.send(sink, sink, ping(0));  // learns the sink's loop thread
  bool mixed = false;
  for (int storm = 0; storm < 10 && (storm < 3 || !mixed); ++storm) {
    ASSERT_TRUE(settle_and_park(t));
    got.clear();
    inline_runs = loop_runs = 0;
    for (ProcessId p = 1; p <= kSenders; ++p) {
      t.send(NodeAddress::server(p), NodeAddress::server(p), ping(0));
    }
    ASSERT_TRUE(t.wait_quiescent(30.0));
    for (ProcessId p = 1; p <= kSenders; ++p) {
      const std::vector<RequestId>& seq = got[p];
      ASSERT_EQ(seq.size(), kPerSender) << "sender " << p;
      for (RequestId r = 1; r <= kPerSender; ++r) {
        ASSERT_EQ(seq[r - 1], r) << "sender " << p << " out of order";
      }
    }
    mixed = mixed || (inline_runs > 0 && loop_runs > 0);
  }
  EXPECT_TRUE(mixed) << "no storm mixed inline and posted delivery";
  t.stop();
}

TEST(InMemTransport, TimerArmedInsideAnInlineDeliveryFires) {
  // b is parked with no timer, so it sleeps with no deadline. A message
  // from a's handler runs b's handler inline, and that arms a timer 20 ms
  // ahead: the inline run must wake b to sleep until that deadline.
  InMemTransport t(0.001);
  const NodeAddress a = NodeAddress::server(0);
  const NodeAddress b = NodeAddress::server(1);
  std::atomic<std::thread::id> a_loop{}, b_ran_on{};
  std::atomic<bool> fired{false};
  t.register_node(a, [&](NodeAddress, PayloadPtr m) {
    a_loop = std::this_thread::get_id();
    t.send(a, b, std::move(m));
  });
  t.register_node(
      b,
      [&](NodeAddress, PayloadPtr) {
        b_ran_on = std::this_thread::get_id();
        t.arm_timer(b, 0.02, 7);
      },
      nullptr, [&](std::uint64_t token) { fired = token == 7; });
  t.start();
  // Until b has parked, a's send is mail and b arms from its own loop:
  // retry (letting that timer fire) until the delivery ran inline.
  bool ran_inline = false;
  for (int i = 0; i < 20 && !ran_inline; ++i) {
    ASSERT_TRUE(settle_and_park(t));
    fired = false;
    t.send(a, a, ping(1));
    ASSERT_TRUE(t.wait_quiescent(5.0));
    ran_inline = b_ran_on.load() == a_loop.load();
    if (!ran_inline) {
      ASSERT_TRUE(within_ms(1000, [&] { return fired.load(); }));
    }
  }
  ASSERT_TRUE(ran_inline) << "never delivered inline";
  EXPECT_TRUE(within_ms(1000, [&] { return fired.load(); }))
      << "the timer did not fire within 1 s";
  t.stop();
}

/// `addr`'s counters in `t`'s link export.
obs::LinkCounters counters_of(const InMemTransport& t, NodeAddress addr) {
  const std::string label =
      (addr.kind == NodeAddress::Kind::kServer ? "s" : "c") +
      std::to_string(addr.id);
  for (const obs::LinkCounters& c : t.link_counters()) {
    if (c.label == label) return c;
  }
  ADD_FAILURE() << label << " is not in the link export";
  return {};
}

TEST(InMemTransport, HolderDrainsContendedMailWithoutWakingTheLoop) {
  // A caller's execute() holds a parked node inline while a foreign thread
  // posts kMessages messages into it one at a time, each only once the one
  // before is being handled: more than two drain rounds' worth. The holder
  // handles every one itself before it lets go, and the node's loop is
  // never woken.
  constexpr int kMessages = 5;
  InMemTransport t(0.001);
  const NodeAddress a = NodeAddress::client(1);
  const NodeAddress foreign = NodeAddress::client(99);  // never registered
  std::atomic<int> requested{0}, posted{0};
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  // Asks the foreign thread for message `k` and waits until it is posted.
  const auto request_and_wait = [&](int k) {
    requested = k;
    while (posted.load() < k) std::this_thread::yield();
  };
  t.register_node(a, [&](NodeAddress, PayloadPtr m) {
    {
      const std::scoped_lock lock(mu);
      ran_on.push_back(std::this_thread::get_id());
    }
    const auto k = static_cast<int>(req_of(*m));
    if (k < kMessages) request_and_wait(k + 1);
  });
  t.start();

  std::atomic<bool> held_inline{false};
  for (int i = 0; i < 20 && !held_inline.load(); ++i) {
    ASSERT_TRUE(settle_and_park(t));
    requested = 0;
    posted = 0;
    {
      const std::scoped_lock lock(mu);
      ran_on.clear();
    }
    const std::uint64_t wakes_before =
        counters_of(t, a).loop_wakes.value_or(0);
    std::thread poster([&] {
      for (int k = 1; k <= kMessages; ++k) {
        while (requested.load() < k) std::this_thread::yield();
        t.send(foreign, a, ping(static_cast<RequestId>(k)));
        posted = k;
      }
    });
    std::atomic<std::thread::id> caller{};
    std::thread holder([&] {
      caller = std::this_thread::get_id();
      t.execute(a, [&] {
        held_inline = std::this_thread::get_id() == caller.load();
        request_and_wait(1);
      });
    });
    holder.join();
    poster.join();
    ASSERT_TRUE(t.wait_quiescent(5.0));
    if (!held_inline.load()) continue;  // the loop was awake: try again
    const std::scoped_lock lock(mu);
    ASSERT_EQ(ran_on.size(), static_cast<std::size_t>(kMessages));
    for (int k = 0; k < kMessages; ++k) {
      EXPECT_EQ(ran_on[k], caller.load()) << "message " << k + 1
                                   << " was handed to the loop thread";
    }
    const obs::LinkCounters c = counters_of(t, a);
    ASSERT_TRUE(c.loop_wakes.has_value());
    EXPECT_EQ(*c.loop_wakes, wakes_before) << "the holder woke the loop";
  }
  EXPECT_TRUE(held_inline.load()) << "execute() never ran inline";
  t.stop();
}

TEST(InMemTransport, NodeRegisteredWhileRunningIsFoundFromAnotherThread) {
  // A ring spawn registers servers while the transport runs. A thread that
  // keeps sending to each new address (a send to an unknown node is
  // dropped) finds the node once it is registered: its sends arrive and
  // is_up() holds.
  constexpr int kSpawned = 4;
  InMemTransport t(0.001);
  const NodeAddress sender = NodeAddress::client(1);
  t.register_node(sender, [](NodeAddress, PayloadPtr) {});
  t.start();
  std::atomic<int> received[kSpawned] = {};
  std::atomic<bool> done{false};
  std::atomic<int> found{0};
  std::thread looker([&] {
    for (int i = 0; i < kSpawned && !done.load(); ++i) {
      const NodeAddress target = NodeAddress::server(10 + i);
      while (!done.load() && received[i].load() == 0) {
        t.send(sender, target, ping(static_cast<RequestId>(i)));
        std::this_thread::yield();
      }
      if (t.is_up(target)) ++found;
    }
  });
  for (int i = 0; i < kSpawned; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    t.register_node(NodeAddress::server(10 + i),
                    [&, i](NodeAddress, PayloadPtr) { ++received[i]; });
  }
  const bool all = within_ms(5000, [&] { return found.load() == kSpawned; });
  done = true;
  looker.join();
  EXPECT_TRUE(all) << "found " << found.load() << " of " << kSpawned;
  ASSERT_TRUE(t.wait_quiescent(5.0));
  for (int i = 0; i < kSpawned; ++i) EXPECT_GE(received[i].load(), 1);
  t.stop();
}

/// One exemplar per MsgKind (1..17), with off-default object/epoch variants
/// so the flagged header paths are covered too. The transport-parity
/// invariant (tools/hts_lint.py) requires every kind listed here.
std::vector<PayloadPtr> one_of_every_kind(std::size_t value_size) {
  using namespace core;
  const Value v = Value::synthetic(9, value_size);
  std::vector<PayloadPtr> msgs;
  msgs.push_back(make_payload<ClientWrite>(1, 2, v, /*obj=*/7, /*epoch=*/3));
  msgs.push_back(make_payload<ClientWriteAck>(3, /*obj=*/7, /*epoch=*/3));
  msgs.push_back(make_payload<ClientRead>(4, 5, /*obj=*/7, /*epoch=*/3));
  msgs.push_back(make_payload<ClientReadAck>(6, v, Tag{7, 1}, /*obj=*/7));
  msgs.push_back(make_payload<PreWrite>(Tag{8, 2}, v, 12, 13, /*obj=*/7));
  msgs.push_back(make_payload<WriteCommit>(Tag{9, 0}, 14, 15, kDefaultObject));
  msgs.push_back(make_payload<SyncState>(Tag{10, 1}, v, /*obj=*/7));
  msgs.push_back(make_payload<RingBatch>(std::vector<PayloadPtr>{
      make_payload<PreWrite>(Tag{8, 2}, v, 12, 13, kDefaultObject),
      make_payload<WriteCommit>(Tag{9, 0}, 14, 15, /*obj=*/7),
      make_payload<SyncState>(Tag{5, 1}, v, /*obj=*/9)}));
  msgs.push_back(make_payload<MigrateState>(Tag{4, 1}, v, /*obj=*/5,
                                            /*epoch=*/3));
  msgs.push_back(make_payload<EpochNack>(2, 5, 4));
  msgs.push_back(make_payload<MigrateDedup>(
      std::vector<MigrateDedup::Window>{{4, 9, {11, 13}}, {6, 2, {}}},
      /*epoch=*/3));
  msgs.push_back(make_payload<FragWrite>(1234, 56, /*n=*/5, /*k=*/2,
                                         /*idx=*/3, /*init=*/true,
                                         /*vsize=*/4096, /*crc=*/0xDEADBEEF,
                                         std::string(value_size, 'f'),
                                         /*obj=*/9, /*epoch=*/2));
  msgs.push_back(make_payload<PreWriteFrag>(Tag{12, 3}, 900, 15, /*n=*/5,
                                            /*k=*/3, /*vsize=*/1u << 20,
                                            kDefaultObject));
  msgs.push_back(make_payload<CodedReadAck>(
      7, Tag{9, 2}, /*n=*/5, /*k=*/2, /*vsize=*/16,
      std::vector<FragPart>{{2, 0xABCD, "frag-two"}, {4, 0x1234, "frag-4"}},
      /*obj=*/3));
  msgs.push_back(make_payload<FragFetch>(42, 7, Tag{5, 1}, /*obj=*/2,
                                         /*epoch=*/1));
  msgs.push_back(make_payload<FragFetchAck>(
      7, Tag{5, 1}, 64, std::vector<FragPart>{{0, 0x77, "bytes"}},
      kDefaultObject));
  msgs.push_back(make_payload<FragRepair>(
      /*origin=*/4, Tag{11, 4}, /*n=*/5, /*k=*/2, /*missing=*/1, /*vsize=*/32,
      std::vector<FragPart>{{0, 1, "a"}, {2, 3, "bb"}}, /*obj=*/6,
      /*epoch=*/3));
  return msgs;
}

TEST(FrameCodec, EveryMsgKindEncodesIdenticallyThroughFrameWriter) {
  // The transport-parity golden pin: for every message kind the
  // scatter-gather writer must produce the exact bytes of the legacy
  // string-returning encoder — they instantiate one template, and this test
  // keeps it that way.
  for (std::size_t size : {0ul, 1ul, 255ul, 1448ul, 8192ul}) {
    std::vector<std::uint16_t> kinds_seen;
    for (const auto& msg : one_of_every_kind(size)) {
      const std::string legacy = core::encode_message(*msg);
      FrameWriter w;
      core::encode_message_into(*msg, w);
      EXPECT_EQ(w.to_string(), legacy) << msg->describe();
      EXPECT_EQ(w.bytes_written(), legacy.size()) << msg->describe();
      kinds_seen.push_back(msg->kind());
    }
    // Nothing silently dropped from the exemplar list: kinds 1..17 covered.
    std::sort(kinds_seen.begin(), kinds_seen.end());
    ASSERT_EQ(kinds_seen.size(), 17u);
    for (std::uint16_t k = 1; k <= 17; ++k) EXPECT_EQ(kinds_seen[k - 1], k);
  }
}

TEST(FrameCodec, DecoderAcceptsOnlyFramesTheEncoderWrites) {
  // Decoder fuzz over every kind's frame: every truncation is a
  // DecodeError, and every single-byte substitution is either a
  // DecodeError or decodes to a message that re-encodes to exactly the
  // mutated frame, with wire_size() equal to its length. No other
  // exception type may escape the decoder.
  for (std::size_t size : {0ul, 5ul}) {
    for (const auto& msg : one_of_every_kind(size)) {
      const std::string frame = core::encode_message(*msg);
      ASSERT_EQ(msg->wire_size(), frame.size()) << msg->describe();
      for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        EXPECT_THROW(
            (void)core::decode_message(std::string_view(frame).substr(0, cut)),
            DecodeError)
            << msg->describe() << " cut=" << cut;
      }
      std::string mutated = frame;
      for (std::size_t pos = 0; pos < frame.size(); ++pos) {
        for (int b = 0; b < 256; ++b) {
          mutated[pos] = static_cast<char>(b);
          if (mutated[pos] == frame[pos]) continue;
          PayloadPtr back;
          try {
            back = core::decode_message(mutated);
          } catch (const DecodeError&) {
            continue;
          }
          ASSERT_EQ(core::encode_message(*back), mutated)
              << msg->describe() << " byte " << pos << " := " << b
              << " decoded as " << back->describe();
          ASSERT_EQ(back->wire_size(), mutated.size()) << back->describe();
        }
        mutated[pos] = frame[pos];
      }
    }
  }
}

TEST(FrameCodec, ParityHoldsAcrossSegmentBoundaries) {
  // Tiny segments force every message to straddle segment seams, including
  // the patched RingBatch length prefixes (mark_u32 seals segments).
  for (const auto& msg : one_of_every_kind(512)) {
    FrameWriter w(/*segment_bytes=*/16);
    core::encode_message_into(*msg, w);
    EXPECT_EQ(w.to_string(), core::encode_message(*msg)) << msg->describe();
  }
}

TEST(FrameCodec, TornStreamDecodesAtEveryByteBoundary) {
  // Build a stream of framed messages, then split it at every offset and
  // feed the two chunks: the decoder must reassemble the identical frame
  // sequence regardless of where TCP tore the stream.
  FrameWriter w;
  std::vector<std::string> bodies;
  for (const auto& msg : one_of_every_kind(64)) {
    const auto m = w.begin_frame();
    core::encode_message_into(*msg, w);
    w.end_frame(m);
    bodies.push_back(core::encode_message(*msg));
  }
  const std::string stream = w.to_string();
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameDecoder d;
    std::vector<std::string> got;
    auto sink = [&](std::string_view f) { got.emplace_back(f); };
    ASSERT_TRUE(d.feed(std::string_view(stream).substr(0, cut), sink));
    ASSERT_TRUE(d.feed(std::string_view(stream).substr(cut), sink));
    ASSERT_EQ(got, bodies) << "cut=" << cut;
    EXPECT_EQ(d.pending_bytes(), 0u);
  }
  // Worst case: one byte at a time.
  FrameDecoder d;
  std::vector<std::string> got;
  for (char c : stream) {
    ASSERT_TRUE(d.feed(std::string_view(&c, 1),
                       [&](std::string_view f) { got.emplace_back(f); }));
  }
  EXPECT_EQ(got, bodies);
}

TEST(FrameCodec, DecodedTornFramesSurviveTheRealDecoder) {
  // End-to-end: torn frames reassembled by FrameDecoder must decode into
  // the original messages via the real codec (what TcpTransport does).
  FrameWriter w;
  const auto msgs = one_of_every_kind(128);
  for (const auto& msg : msgs) {
    const auto m = w.begin_frame();
    core::encode_message_into(*msg, w);
    w.end_frame(m);
  }
  const std::string stream = w.to_string();
  FrameDecoder d;
  std::size_t i = 0;
  // Feed in awkward 7-byte chunks.
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    ASSERT_TRUE(
        d.feed(std::string_view(stream).substr(off, 7), [&](std::string_view f) {
          const auto decoded = core::decode_message(f);
          ASSERT_LT(i, msgs.size());
          EXPECT_EQ(decoded->kind(), msgs[i]->kind());
          EXPECT_EQ(decoded->describe(), msgs[i]->describe());
          ++i;
        }));
  }
  EXPECT_EQ(i, msgs.size());
}

TEST(FrameCodec, WholeFramesComeStraightFromTheChunkAndATornTailWaits) {
  // One chunk holds three whole frames and the first half of a fourth; the
  // next chunk completes it. The three whole frames are handed over as
  // views into the chunk itself (no copy), the torn one only once complete.
  FrameWriter w;
  std::vector<std::string> bodies;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const auto msg = make_payload<core::PreWrite>(
        Tag{i, 1}, Value::synthetic(i, 100), 7, i, kDefaultObject);
    const auto m = w.begin_frame();
    core::encode_message_into(*msg, w);
    w.end_frame(m);
    bodies.push_back(core::encode_message(*msg));
  }
  const std::string stream = w.to_string();
  const std::size_t fourth = stream.size() - (4 + bodies[3].size());
  const std::size_t cut = fourth + 4 + bodies[3].size() / 2;
  const std::string_view first = std::string_view(stream).substr(0, cut);

  FrameDecoder d;
  std::vector<std::string> got;
  ASSERT_TRUE(d.feed(first, [&](std::string_view f) {
    EXPECT_GE(f.data(), first.data());
    EXPECT_LE(f.data() + f.size(), first.data() + first.size());
    got.emplace_back(f);
  }));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(d.pending_bytes(), cut - fourth);

  ASSERT_TRUE(d.feed(std::string_view(stream).substr(cut),
                     [&](std::string_view f) { got.emplace_back(f); }));
  EXPECT_EQ(got, bodies);
  EXPECT_EQ(d.pending_bytes(), 0u);
}

TEST(FrameCodec, OversizedFramePoisonsDecoder) {
  FrameDecoder d(/*max_frame=*/1024);
  std::string huge(4, '\0');
  huge[0] = '\x01';
  huge[2] = '\x10';  // length 0x100001 > 1024
  int frames = 0;
  EXPECT_FALSE(d.feed(huge, [&](std::string_view) { ++frames; }));
  EXPECT_EQ(frames, 0);
  // Poisoned forever, even for well-formed input.
  EXPECT_FALSE(d.feed(std::string("\x01\0\0\0x", 5),
                      [&](std::string_view) { ++frames; }));
  EXPECT_EQ(frames, 0);
}

TEST(FrameCodec, ClearReturnsSegmentsToPoolAndReusesThem) {
  // Steady state is allocation-free: after the first batch grows the pool,
  // clear() + re-encode must not grow it again, and the bytes must be
  // identical run over run.
  FrameWriter w;
  const auto msgs = one_of_every_kind(1448);
  auto encode_all = [&] {
    for (const auto& msg : msgs) {
      const auto m = w.begin_frame();
      core::encode_message_into(*msg, w);
      w.end_frame(m);
    }
    return w.to_string();
  };
  const std::string first = encode_all();
  const std::size_t pool = w.pooled_segments();
  ASSERT_GT(pool, 0u);
  for (int round = 0; round < 5; ++round) {
    w.clear();
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(encode_all(), first);
    EXPECT_EQ(w.pooled_segments(), pool) << "pool must not grow on reuse";
  }
}

TEST(FrameCodec, MarksPatchCorrectBytesAfterMultiSegmentBatch) {
  // Regression: mark_u32 once derived its offset from the last *pooled*
  // segment instead of the segment being written. After a batch grows the
  // pool to 2+ segments, a cleared writer has fewer segments in use than
  // pooled, so every mark came back with the stale tail's offset (0):
  // later frames kept a zero length prefix (which TcpTransport reads as a
  // graceful bye) and earlier prefixes were silently clobbered.
  FrameWriter w(/*segment_bytes=*/64);
  {
    const auto m = w.begin_frame();
    w.bytes(std::string(200, 'x'));  // spans 4+ segments of 64 bytes
    w.end_frame(m);
  }
  ASSERT_GE(w.pooled_segments(), 2u);
  w.clear();
  // Two small frames in the first segment: the second frame's mark sits
  // mid-segment, exactly where the stale offset diverges from the real one.
  std::vector<std::string> bodies;
  for (int i = 0; i < 2; ++i) {
    const auto m = w.begin_frame();
    w.bytes("hello");  // 9-byte body: u32 len + 5 chars
    w.end_frame(m);
    bodies.push_back(std::string("\x05\x00\x00\x00", 4) + "hello");
  }
  FrameDecoder d;
  std::vector<std::string> got;
  ASSERT_TRUE(
      d.feed(w.to_string(), [&](std::string_view f) { got.emplace_back(f); }));
  EXPECT_EQ(got, bodies);
  EXPECT_EQ(d.pending_bytes(), 0u);
}

TEST(FrameCodec, IovCoversAllBytesAndHonoursSkip) {
  FrameWriter w(/*segment_bytes=*/32);
  const auto m = w.begin_frame();
  core::encode_message_into(
      *make_payload<core::PreWrite>(Tag{8, 2}, Value::synthetic(3, 200), 12,
                                    13, kDefaultObject),
      w);
  w.end_frame(m);
  const std::string all = w.to_string();
  for (std::size_t skip = 0; skip <= all.size(); ++skip) {
    std::string gathered;
    for (const iovec& io : w.iov(skip)) {
      gathered.append(static_cast<const char*>(io.iov_base), io.iov_len);
    }
    EXPECT_EQ(gathered, all.substr(skip)) << "skip=" << skip;
  }
}

}  // namespace
}  // namespace hts::net
