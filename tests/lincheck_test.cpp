// Linearizability checker tests: hand-crafted histories with known verdicts
// (including the paper's read-inversion scenario and the duplicate-write
// retry counter-example from DESIGN.md D5), then randomized cross-validation
// of the fast checker against the brute-force reference.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "lincheck/checker.h"
#include "lincheck/history.h"

namespace hts::lincheck {
namespace {

TEST(Lincheck, EmptyHistoryIsLinearizable) {
  History h;
  EXPECT_TRUE(check_register(h));
  EXPECT_TRUE(check_register_brute(h));
}

TEST(Lincheck, SequentialOpsAreLinearizable) {
  History h;
  h.record_write(1, 10, 0.0, 1.0, kDefaultObject);
  h.record_read(2, 10, 2.0, 3.0, kInitialTag, kDefaultObject);
  h.record_write(1, 20, 4.0, 5.0, kDefaultObject);
  h.record_read(2, 20, 6.0, 7.0, kInitialTag, kDefaultObject);
  EXPECT_TRUE(check_register(h));
  EXPECT_TRUE(check_register_brute(h));
}

TEST(Lincheck, InitialValueReadable) {
  History h;
  h.record_read(1, kInitialValueId, 0.0, 1.0, kInitialTag, kDefaultObject);
  h.record_write(2, 10, 2.0, 3.0, kDefaultObject);
  EXPECT_TRUE(check_register(h));
  EXPECT_TRUE(check_register_brute(h));
}

TEST(Lincheck, StaleReadAfterWriteCompletes) {
  History h;
  h.record_write(1, 10, 0.0, 1.0, kDefaultObject);
  // Read strictly after the write completed, yet returns the initial value.
  h.record_read(2, kInitialValueId, 2.0, 3.0, kInitialTag, kDefaultObject);
  EXPECT_FALSE(check_register(h));
  EXPECT_FALSE(check_register_brute(h));
}

TEST(Lincheck, ReadInversionDetected) {
  // The paper's §3 violation: reader A sees the new value, then reader B —
  // strictly later — sees the old one, while the write is still in flight.
  History h;
  // v1 completes late; v2 is concurrent with the reads below. The first
  // read sees the new value, the second (strictly later) the old one.
  h.record_write(1, 1, 0.0, 10.0, kDefaultObject);
  h.record_write(1, 2, 20.0, 100.0, kDefaultObject);
  h.record_read(2, 2, 30.0, 40.0, kInitialTag, kDefaultObject);
  h.record_read(3, 1, 50.0, 60.0, kInitialTag, kDefaultObject);
  EXPECT_FALSE(check_register(h));
  EXPECT_FALSE(check_register_brute(h));
}

TEST(Lincheck, ConcurrentReadsMaySplitAcrossAWrite) {
  // Both reads overlap the write; one sees old, one sees new — fine in
  // either completion order because the ops are concurrent.
  History h;
  h.record_write(1, 1, 0.0, 1.0, kDefaultObject);
  h.record_write(1, 2, 10.0, 20.0, kDefaultObject);
  h.record_read(2, 2, 10.0, 21.0, kInitialTag, kDefaultObject);
  h.record_read(3, 1, 10.0, 22.0, kInitialTag, kDefaultObject);
  EXPECT_TRUE(check_register(h));
  EXPECT_TRUE(check_register_brute(h));
}

TEST(Lincheck, ReadOfNeverWrittenValue) {
  History h;
  h.record_read(1, 999, 0.0, 1.0, kInitialTag, kDefaultObject);
  EXPECT_FALSE(check_register(h));
  EXPECT_FALSE(check_register_brute(h));
}

TEST(Lincheck, ReadPrecedingItsWrite) {
  History h;
  // The read completes before the write begins.
  h.record_read(1, 5, 0.0, 1.0, kInitialTag, kDefaultObject);
  h.record_write(2, 5, 2.0, 3.0, kDefaultObject);
  EXPECT_FALSE(check_register(h));
  EXPECT_FALSE(check_register_brute(h));
}

TEST(Lincheck, PendingWriteMayOrMayNotTakeEffect) {
  {
    History h;  // pending write observed by a read → effective
    h.record_write(1, 7, 0.0, kPending, kDefaultObject);
    h.record_read(2, 7, 1.0, 2.0, kInitialTag, kDefaultObject);
    EXPECT_TRUE(check_register(h));
    EXPECT_TRUE(check_register_brute(h));
  }
  {
    History h;  // pending write ignored by later reads → also fine
    h.record_write(1, 7, 0.0, kPending, kDefaultObject);
    h.record_read(2, kInitialValueId, 100.0, 101.0, kInitialTag,
                  kDefaultObject);
    EXPECT_TRUE(check_register(h));
    EXPECT_TRUE(check_register_brute(h));
  }
}

TEST(Lincheck, DuplicateWriteApplicationCounterExample) {
  // DESIGN.md D5: a client retries a write whose first attempt was already
  // applied; the value is applied twice around another write. The resulting
  // *single-invocation* history is NOT linearizable — this is why servers
  // must deduplicate retried writes.
  History h;
  // W(v) is first applied early and retried late, W(u) lands in between;
  // the reads see v (first application), u, then v again (second
  // application!).
  h.record_write(1, 1, 0.0, 100.0, kDefaultObject);
  h.record_write(2, 2, 10.0, 20.0, kDefaultObject);
  h.record_read(3, 1, 30.0, 40.0, kInitialTag, kDefaultObject);
  h.record_read(3, 2, 50.0, 60.0, kInitialTag, kDefaultObject);
  h.record_read(3, 1, 70.0, 80.0, kInitialTag, kDefaultObject);
  EXPECT_FALSE(check_register(h));
  EXPECT_FALSE(check_register_brute(h));
}

TEST(Lincheck, DuplicateWriteValueRejected) {
  History h;
  h.record_write(1, 5, 0.0, 1.0, kDefaultObject);
  h.record_write(2, 5, 2.0, 3.0, kDefaultObject);
  EXPECT_FALSE(check_register(h));
}

TEST(Lincheck, ExplanationIsNonEmptyOnViolation) {
  History h;
  h.record_write(1, 10, 0.0, 1.0, kDefaultObject);
  h.record_read(2, kInitialValueId, 2.0, 3.0, kInitialTag, kDefaultObject);
  auto res = check_register(h);
  ASSERT_FALSE(res.linearizable);
  EXPECT_FALSE(res.explanation.empty());
}

TEST(TagOrder, DetectsInvertedReadTags) {
  History h;
  Op r1{2, true, 2, 30.0, 40.0, Tag{2, 0}};
  Op r2{3, true, 1, 50.0, 60.0, Tag{1, 0}};  // older tag, strictly later
  h.record(r1);
  h.record(r2);
  EXPECT_FALSE(check_tag_order(h));
}

TEST(TagOrder, AcceptsMonotoneTags) {
  History h;
  h.record(Op{2, true, 1, 0.0, 1.0, Tag{1, 0}});
  h.record(Op{3, true, 2, 2.0, 3.0, Tag{2, 0}});
  h.record(Op{4, true, 2, 2.5, 3.5, Tag{2, 0}});  // concurrent equal tags
  EXPECT_TRUE(check_tag_order(h));
}

// ------------------------------------------------------------ random sweep

// Random small histories; fast checker must agree with brute force exactly.
class LincheckAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LincheckAgreement, FastMatchesBruteForce) {
  hts::Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    const int n_ops = 2 + static_cast<int>(rng.below(7));  // up to 8 ops
    const int n_values = 1 + static_cast<int>(rng.below(3));
    History h;
    std::vector<std::uint64_t> written;
    written.push_back(kInitialValueId);
    for (int i = 0; i < n_ops; ++i) {
      const double inv = rng.unit() * 10.0;
      const double dur = 0.1 + rng.unit() * 5.0;
      if (rng.chance(0.45) && static_cast<int>(written.size()) <= n_values) {
        const std::uint64_t v = written.size();  // unique 1,2,3...
        written.push_back(v);
        h.record_write(100 + i, v, inv, inv + dur, kDefaultObject);
      } else {
        h.record_read(100 + i, rng.pick(written), inv, inv + dur, kInitialTag,
                      kDefaultObject);
      }
    }
    const auto fast = check_register(h);
    const auto brute = check_register_brute(h);
    EXPECT_EQ(fast.linearizable, brute.linearizable)
        << "seed=" << GetParam() << " iter=" << iter
        << "\nfast: " << fast.explanation << "\nbrute: " << brute.explanation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LincheckAgreement,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace hts::lincheck
