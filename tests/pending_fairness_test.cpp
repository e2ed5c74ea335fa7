// PendingSet and FairScheduler unit tests — the two data structures at the
// heart of the algorithm's read rule (lines 76–84) and queue-handler task
// (lines 53–75).
#include <gtest/gtest.h>

#include "core/fairness.h"
#include "core/messages.h"
#include "core/pending_set.h"

namespace hts::core {
namespace {

PendingEntry entry(std::uint64_t ts, ProcessId id) {
  return PendingEntry{Tag{ts, id}, Value::synthetic(ts, 16), 1, ts};
}

TEST(PendingSet, InsertEraseContains) {
  PendingSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(entry(1, 0)));
  EXPECT_FALSE(s.insert(entry(1, 0)));  // idempotent
  EXPECT_TRUE(s.contains(Tag{1, 0}));
  EXPECT_EQ(s.size(), 1u);
  auto e = s.erase(Tag{1, 0});
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->tag, (Tag{1, 0}));
  EXPECT_FALSE(s.erase(Tag{1, 0}).has_value());
  EXPECT_TRUE(s.empty());
}

TEST(PendingSet, MaxTagIsLexicographic) {
  PendingSet s;
  EXPECT_FALSE(s.max_tag().has_value());
  s.insert(entry(3, 1));
  s.insert(entry(3, 2));
  s.insert(entry(2, 9));
  EXPECT_EQ(*s.max_tag(), (Tag{3, 2}));
  s.erase(Tag{3, 2});
  EXPECT_EQ(*s.max_tag(), (Tag{3, 1}));
}

TEST(PendingSet, EntriesFromOrigin) {
  PendingSet s;
  s.insert(entry(1, 0));
  s.insert(entry(2, 1));
  s.insert(entry(3, 0));
  const auto from0 = s.entries_from(0);
  ASSERT_EQ(from0.size(), 2u);
  EXPECT_EQ(from0[0].tag, (Tag{1, 0}));
  EXPECT_EQ(from0[1].tag, (Tag{3, 0}));
  EXPECT_EQ(s.entries_from(2).size(), 0u);
}

TEST(PendingSet, SnapshotSortedByTag) {
  PendingSet s;
  s.insert(entry(5, 0));
  s.insert(entry(1, 1));
  s.insert(entry(3, 0));
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_LT(snap[0].tag, snap[1].tag);
  EXPECT_LT(snap[1].tag, snap[2].tag);
}

// ---------------------------------------------------------------- fairness

ForwardItem item(ProcessId origin) {
  return ForwardItem{origin,
                     net::make_payload<WriteCommit>(Tag{1, origin}, 0, 0,
                                                    kDefaultObject)};
}

TEST(FairScheduler, EmptyQueueInitiatesLocal) {
  FairScheduler s(3, 0);
  auto d = s.next(true);
  EXPECT_TRUE(d.initiate_local);
  EXPECT_FALSE(d.forward.has_value());
}

TEST(FairScheduler, EmptyQueueNoLocalIdles) {
  FairScheduler s(3, 0);
  auto d = s.next(false);
  EXPECT_FALSE(d.initiate_local);
  EXPECT_FALSE(d.forward.has_value());
}

TEST(FairScheduler, ForwardsWhenNoLocalWrite) {
  FairScheduler s(3, 0);
  s.enqueue(item(1));
  auto d = s.next(false);
  EXPECT_FALSE(d.initiate_local);
  ASSERT_TRUE(d.forward.has_value());
  EXPECT_EQ(d.forward->origin, 1u);
}

TEST(FairScheduler, PicksOriginWithFewestForwards) {
  FairScheduler s(3, 0);
  // Origin 1 already got two forwards; origin 2 none.
  s.count_sent(1);
  s.count_sent(1);
  s.enqueue(item(1));
  s.enqueue(item(2));
  auto d = s.next(false);
  ASSERT_TRUE(d.forward.has_value());
  EXPECT_EQ(d.forward->origin, 2u);
}

TEST(FairScheduler, LocalCompetesViaCounters) {
  FairScheduler s(3, 0);
  // Self (0) has initiated twice; origin 1 never served → serve 1 first.
  s.count_sent(0);
  s.count_sent(0);
  s.enqueue(item(1));
  auto d = s.next(true);
  EXPECT_FALSE(d.initiate_local);
  ASSERT_TRUE(d.forward.has_value());
  EXPECT_EQ(d.forward->origin, 1u);

  // Now origin 1 pulls ahead; with equal-or-more forwards than self, the
  // local write gets its turn.
  s.count_sent(1);
  s.count_sent(1);
  s.count_sent(1);
  s.enqueue(item(1));
  auto d2 = s.next(true);
  EXPECT_TRUE(d2.initiate_local);
}

TEST(FairScheduler, TieBreaksOnSmallestId) {
  FairScheduler s(4, 3);
  s.enqueue(item(2));
  s.enqueue(item(1));
  auto d = s.next(false);
  ASSERT_TRUE(d.forward.has_value());
  EXPECT_EQ(d.forward->origin, 1u);  // counters equal → smallest id
}

TEST(FairScheduler, FifoWithinOrigin) {
  FairScheduler s(3, 0);
  auto first = net::make_payload<WriteCommit>(Tag{1, 1}, 0, 0, kDefaultObject);
  auto second = net::make_payload<WriteCommit>(Tag{2, 1}, 0, 0, kDefaultObject);
  s.enqueue(ForwardItem{1, first});
  s.enqueue(ForwardItem{1, second});
  auto d = s.next(false);
  ASSERT_TRUE(d.forward.has_value());
  EXPECT_EQ(d.forward->msg.get(), first.get());
}

TEST(FairScheduler, CountersResetWhenQueueDrains) {
  FairScheduler s(3, 0);
  s.count_sent(0);
  s.count_sent(0);
  s.count_sent(1);
  EXPECT_EQ(s.count_of(0), 2u);
  // Queue empty → next() resets all counters (paper line 55).
  (void)s.next(false);
  EXPECT_EQ(s.count_of(0), 0u);
  EXPECT_EQ(s.count_of(1), 0u);
}

TEST(FairScheduler, NoStarvationUnderSaturation) {
  // Self always has a local write; origins 1 and 2 keep the queue full.
  // Every party must get served within a bounded window.
  FairScheduler s(3, 0);
  int served_local = 0, served_1 = 0, served_2 = 0;
  for (int round = 0; round < 300; ++round) {
    s.enqueue(item(1));
    s.enqueue(item(2));
    auto d = s.next(true);
    if (d.initiate_local) {
      ++served_local;
      s.count_sent(0);  // the server counts local initiations (line 26)
    } else if (d.forward) {
      (d.forward->origin == 1 ? served_1 : served_2)++;
      s.count_sent(d.forward->origin);  // and forwards (line 72)
    }
  }
  // Perfect fairness would give 100 each; allow slack but forbid starvation.
  EXPECT_GT(served_local, 60);
  EXPECT_GT(served_1, 60);
  EXPECT_GT(served_2, 60);
}

}  // namespace
}  // namespace hts::core
