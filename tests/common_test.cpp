// Unit tests for the common module: tags, values, serialization, rng,
// metrics.
//
// hts_common is header-only: its standalone headers come first here, so an
// include or annotation regression in them breaks this TU.
#include "common/clock.h"
#include "common/logging.h"
#include "common/thread_annotations.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/types.h"
#include "common/value.h"
#include "heap_meter.h"

namespace hts {
namespace {

TEST(Tag, LexicographicOrdering) {
  EXPECT_LT((Tag{1, 0}), (Tag{2, 0}));
  EXPECT_LT((Tag{1, 5}), (Tag{2, 0}));  // timestamp dominates
  EXPECT_LT((Tag{3, 1}), (Tag{3, 2}));  // process id breaks ties
  EXPECT_EQ((Tag{3, 1}), (Tag{3, 1}));
  EXPECT_GT((Tag{4, 0}), (Tag{3, 9}));
}

TEST(Tag, InitialTagIsSmallest) {
  EXPECT_TRUE(kInitialTag.is_initial());
  EXPECT_LT(kInitialTag, (Tag{1, 0}));
  EXPECT_FALSE((Tag{1, 0}).is_initial());
}

TEST(Tag, HashDistinguishesFields) {
  std::hash<Tag> h;
  EXPECT_NE(h(Tag{1, 2}), h(Tag{2, 1}));
  EXPECT_EQ(h(Tag{7, 3}), h(Tag{7, 3}));
}

TEST(Tag, ToStringFormats) {
  EXPECT_EQ((Tag{42, 3}).to_string(), "[42,3]");
  EXPECT_EQ(kInitialTag.to_string(), "[0,-]");
}

TEST(Value, DefaultIsEmpty) {
  Value v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v, Value());
}

TEST(Value, SyntheticRoundTripsSeed) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull, ~0ull}) {
    for (std::size_t size : {8ul, 64ul, 1000ul, 8192ul}) {
      Value v = Value::synthetic(seed, size);
      EXPECT_GE(v.size(), std::min<std::size_t>(size, 8));
      EXPECT_EQ(v.synthetic_seed(), seed) << "size=" << size;
    }
  }
}

TEST(Value, SyntheticDistinctSeedsDistinctValues) {
  std::unordered_set<std::string> seen;
  for (std::uint64_t s = 1; s <= 200; ++s) {
    seen.insert(std::string(Value::synthetic(s, 64).bytes()));
  }
  EXPECT_EQ(seen.size(), 200u);
}

TEST(Value, CopyIsShallowAndEqual) {
  Value a = Value::synthetic(7, 4096);
  Value b = a;  // shared payload
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.bytes().data(), b.bytes().data());
}

TEST(Value, CopiesAndMovesShareOneAllocation) {
  const test::HeapReading start = test::heap_now();
  {
    const Value a = Value::synthetic(7, 1024);
    const test::HeapReading made = test::heap_now();
    Value b = a;
    Value c;
    c = b;
    Value d(std::move(c));
    Value e;
    e = std::move(d);
    EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move): moved-from
    EXPECT_TRUE(d.empty());  // NOLINT(bugprone-use-after-move): moved-from
    for (const Value* v : {&b, &e}) {
      EXPECT_EQ(v->bytes().data(), a.bytes().data());
      EXPECT_EQ(*v, a);
    }
    if (test::kHeapMetered) {
      EXPECT_EQ(made.calls, start.calls + 1) << "one allocation per value";
      EXPECT_EQ(test::heap_now().calls, made.calls) << "a copy allocated";
    }
  }
  if (test::kHeapMetered) {
    EXPECT_EQ(test::heap_now().live_bytes, start.live_bytes)
        << "the last copy frees the bytes";
  }
}

TEST(Value, ConstructionCopiesTheBytesAndEmptyAllocatesNothing) {
  std::string bytes = "register value";
  const Value v(bytes);
  bytes[0] = 'R';
  EXPECT_EQ(v.bytes(), "register value");
  const test::HeapReading before = test::heap_now();
  const Value empty{std::string_view{}};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty, Value());
  EXPECT_EQ(test::heap_now().calls, before.calls);
}

TEST(Value, SyntheticBytesFollowTheSeedRecipe) {
  // The recipe every workload's values come from: the seed's 8 bytes, then
  // an xorshift stream from the seed, padded up to 8 bytes.
  for (const std::size_t size : {0ul, 1ul, 7ul, 8ul, 9ul, 100ul, 1024ul}) {
    const std::uint64_t seed = 0x0123456789ABCDEFull + size;
    std::string want;
    for (int i = 0; i < 8; ++i) want.push_back(static_cast<char>(seed >> (8 * i)));
    std::uint64_t x = seed;
    while (want.size() < size) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      want.push_back(static_cast<char>(x));
    }
    EXPECT_EQ(Value::synthetic(seed, size).bytes(), want) << "size=" << size;
  }
}

TEST(Serialize, RoundTripsScalars) {
  Encoder e;
  e.u8(0xAB);
  e.u32(0xDEADBEEF);
  e.u64(0x0123456789ABCDEFull);
  e.bytes("hello");
  Decoder d(e.result());
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.bytes(), "hello");
  EXPECT_TRUE(d.exhausted());
}

TEST(Serialize, RoundTripsValues) {
  Value v = Value::synthetic(99, 1000);
  Encoder e;
  e.value(v);
  Decoder d(e.result());
  EXPECT_EQ(d.value(), v);
}

TEST(Serialize, DecodingAValueAllocatesItOnce) {
  if (!test::kHeapMetered) GTEST_SKIP() << test::kHeapMeterOffReason;
  const Value v = Value::synthetic(99, 1024);
  Encoder e;
  e.value(v);
  Decoder d(e.result());
  const test::HeapReading before = test::heap_now();
  const Value back = d.value();
  const test::HeapReading after = test::heap_now();
  EXPECT_EQ(after.calls, before.calls + 1);
  // The 1 KiB plus its 16-byte header (reference count and length).
  EXPECT_EQ(after.live_bytes - before.live_bytes, 1024 + 16);
  EXPECT_EQ(back, v);
}

TEST(Serialize, UnderrunThrows) {
  Encoder e;
  e.u32(7);
  Decoder d(e.result());
  (void)d.u32();
  EXPECT_THROW((void)d.u8(), DecodeError);
}

TEST(Serialize, TruncatedBytesThrow) {
  Encoder e;
  e.u32(100);  // length prefix promising 100 bytes that are absent
  Decoder d(e.result());
  EXPECT_THROW((void)d.bytes(), DecodeError);
}

TEST(Serialize, PropertyRandomScalarSequencesRoundTrip) {
  // Property test: any interleaving of scalar/bytes writes decodes to the
  // same sequence, and the decoder is exhausted exactly at the end.
  Rng rng(321);
  for (int iter = 0; iter < 200; ++iter) {
    struct Item {
      int kind;  // 0=u8 1=u32 2=u64 3=bytes
      std::uint64_t scalar;
      std::string blob;
    };
    std::vector<Item> items;
    Encoder e;
    const int n = static_cast<int>(rng.below(20)) + 1;
    for (int i = 0; i < n; ++i) {
      Item it;
      it.kind = static_cast<int>(rng.below(4));
      switch (it.kind) {
        case 0:
          it.scalar = rng.below(256);
          e.u8(static_cast<std::uint8_t>(it.scalar));
          break;
        case 1:
          it.scalar = rng.next() & 0xFFFFFFFFull;
          e.u32(static_cast<std::uint32_t>(it.scalar));
          break;
        case 2:
          it.scalar = rng.next();
          e.u64(it.scalar);
          break;
        default:
          it.blob = std::string(Value::synthetic(rng.next(),
                                                 rng.below(64)).bytes());
          e.bytes(it.blob);
          break;
      }
      items.push_back(std::move(it));
    }
    Decoder d(e.result());
    for (const Item& it : items) {
      switch (it.kind) {
        case 0: EXPECT_EQ(d.u8(), it.scalar); break;
        case 1: EXPECT_EQ(d.u32(), it.scalar); break;
        case 2: EXPECT_EQ(d.u64(), it.scalar); break;
        default: EXPECT_EQ(d.bytes(), it.blob); break;
      }
    }
    EXPECT_TRUE(d.exhausted());
    EXPECT_EQ(d.remaining(), 0u);
  }
}

TEST(Serialize, PropertyEveryTruncationThrows) {
  // Any strict prefix of a scalar stream must throw, never misread.
  Encoder e;
  e.u8(1);
  e.u32(2);
  e.u64(3);
  e.bytes("abcdef");
  const std::string full = e.result();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Decoder d(std::string_view(full).substr(0, cut));
    EXPECT_THROW(
        {
          (void)d.u8();
          (void)d.u32();
          (void)d.u64();
          (void)d.bytes();
        },
        DecodeError)
        << "cut=" << cut;
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  // Different seeds diverge (overwhelmingly likely on the first draw).
  EXPECT_NE(Rng(42).next(), c.next());
}

TEST(Rng, BoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const auto x = r.between(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsUniformAcrossBuckets) {
  // Chi-square-style sanity for a small bound: with 70k draws over 7
  // buckets, each expects 10000; allow ±4% (>10 sigma, deterministic seed).
  Rng r(2024);
  std::array<int, 7> counts{};
  for (int i = 0; i < 70000; ++i) counts[r.below(7)]++;
  for (int b = 0; b < 7; ++b) {
    EXPECT_GT(counts[b], 9600) << "bucket " << b;
    EXPECT_LT(counts[b], 10400) << "bucket " << b;
  }
}

TEST(Rng, BelowHasNoModuloBiasForHugeBounds) {
  // Worst case for `next() % bound`: bound = 3·2^62, where 2^64 mod bound =
  // 2^62 and the naive mapping gives the low quarter of the range double
  // weight, dragging the sample mean ~17% below bound/2 (~29 standard
  // errors at this sample size). Rejection sampling must keep the mean on
  // (bound-1)/2 within a few standard errors.
  const std::uint64_t bound = 3ull << 62;
  const int n = 10000;
  Rng r(99);
  long double sum = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = r.below(bound);
    EXPECT_LT(x, bound);
    sum += static_cast<long double>(x);
  }
  const long double mean = sum / n;
  const long double expected = static_cast<long double>(bound) / 2.0L;
  const long double sigma =
      static_cast<long double>(bound) / 3.4641L;  // range/sqrt(12)
  const long double se = sigma / 100.0L;          // sqrt(n) = 100
  EXPECT_NEAR(static_cast<double>(mean / expected),
              1.0, static_cast<double>(5.0L * se / expected));
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng r(123);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(LatencyStats, Percentiles) {
  LatencyStats s;
  for (int i = 1; i <= 100; ++i) s.record(i * 0.001);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_NEAR(s.mean(), 0.0505, 1e-9);
  EXPECT_NEAR(s.min(), 0.001, 1e-12);
  EXPECT_NEAR(s.max(), 0.100, 1e-12);
  EXPECT_NEAR(s.percentile(0.5), 0.050, 0.002);
  EXPECT_NEAR(s.percentile(0.99), 0.099, 0.002);
}

TEST(ThroughputMeter, MbitMath) {
  ThroughputMeter m;
  m.set_window(2.0);
  for (int i = 0; i < 100; ++i) m.record(1'000'000);  // 100 MB over 2 s
  EXPECT_EQ(m.ops(), 100u);
  EXPECT_NEAR(m.ops_per_second(), 50.0, 1e-9);
  EXPECT_NEAR(m.mbit_per_second(), 400.0, 1e-9);  // 8e8 bits / 2 s / 1e6
}

}  // namespace
}  // namespace hts
