// Futex wait and wake on a std::atomic<std::uint32_t> (Linux).
//
// std::atomic::wait is not used instead: libstdc++ 12 spins and calls
// sched_yield before it sleeps, and it takes no deadline. These two calls
// are one syscall each. futex_wait sleeps until an absolute
// CLOCK_MONOTONIC deadline, which steady_clock reads, so a caller that
// loops over spurious wake-ups keeps one deadline throughout.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>

#include "common/clock.h"

namespace hts::futex {

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
              std::atomic<std::uint32_t>::is_always_lock_free);

/// No deadline.
inline constexpr clk::SteadyTime kNever = clk::SteadyTime::max();

inline std::uint32_t* word_of(std::atomic<std::uint32_t>& word) {
  return reinterpret_cast<std::uint32_t*>(&word);
}

/// Sleeps while `word` holds `expected`, until a wake or `deadline`. May
/// return early (a signal, a stale wake): callers re-check their condition.
inline void wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                 clk::SteadyTime deadline) {
  timespec at{};
  const timespec* timeout = nullptr;
  if (deadline != kNever) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        deadline.time_since_epoch())
                        .count();
    at.tv_sec = static_cast<std::time_t>(ns / 1'000'000'000);
    at.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    timeout = &at;
  }
  ::syscall(SYS_futex, word_of(word), FUTEX_WAIT_BITSET_PRIVATE, expected,
            timeout, nullptr, FUTEX_BITSET_MATCH_ANY);
}

/// Wakes one thread sleeping on `word`.
inline void wake(std::atomic<std::uint32_t>& word) {
  ::syscall(SYS_futex, word_of(word), FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr,
            0);
}

}  // namespace hts::futex
