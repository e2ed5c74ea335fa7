// Constant-memory latency histogram with log-linear buckets.
//
// Values (nanoseconds) below 128 are counted exactly; above that, every
// power-of-two octave is split into 64 equal buckets, so a bucket spans at
// most 1/64 of its lower bound and the bucket midpoint this class reports is
// within 0.8% of any value in the bucket. Values past 2^40 ns (~18 min)
// clamp into the top bucket. One histogram is ~9 KiB whatever the sample
// count, so a generator thread can keep one per op kind per sub-window and
// record without locks or allocation.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace hts_bench {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  static constexpr int kMaxBit = 40;
  static constexpr std::size_t kBuckets = kSub * (kMaxBit - kSubBits + 1);

  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++count_;
  }

  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Nearest-rank quantile q in (0, 1], as the midpoint of its bucket (ns).
  /// 0 for an empty histogram.
  [[nodiscard]] double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  [[nodiscard]] static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int msb = std::min(63 - std::countl_zero(v), kMaxBit);
    if (msb == kMaxBit) return kBuckets - 1;
    const int shift = msb - kSubBits;
    const std::uint64_t top = v >> shift;  // in [kSub, 2 * kSub)
    return static_cast<std::size_t>(
        kSub * static_cast<std::uint64_t>(shift + 1) + (top - kSub));
  }

  [[nodiscard]] static double midpoint(std::size_t i) {
    if (i < 2 * kSub) return static_cast<double>(i);
    const std::uint64_t shift = i / kSub - 1;
    const std::uint64_t lower = (kSub + i % kSub) << shift;
    const std::uint64_t width = 1ull << shift;
    return static_cast<double>(lower) + static_cast<double>(width - 1) / 2.0;
  }

 private:
  std::array<std::uint32_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

}  // namespace hts_bench
