// Heap metering for tests that pin what a data structure costs: replaces
// the global operator new/delete of the test binary that includes it, and
// keeps the number of operator-new calls and the bytes requested and not
// yet freed. Each allocation carries a 16-byte header holding its size, so
// a delete knows what it returns.
//
// Include it from exactly one translation unit of a binary (every test
// binary here is one). Sanitizer runtimes own operator new, so under ASan
// or TSan the replacement is compiled out and kHeapMetered is false: a
// test that needs the meter skips and says why.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HTS_HEAP_METER_OFF 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define HTS_HEAP_METER_OFF 1
#endif
#endif

namespace hts::test {

#ifdef HTS_HEAP_METER_OFF
inline constexpr bool kHeapMetered = false;
#else
inline constexpr bool kHeapMetered = true;
#endif

/// Why a metered test skips in a sanitizer build.
inline constexpr const char* kHeapMeterOffReason =
    "the sanitizer runtime owns operator new, so this build cannot count "
    "heap bytes; the budget is checked in plain builds";

struct HeapReading {
  std::uint64_t calls = 0;      ///< operator-new calls so far
  std::int64_t live_bytes = 0;  ///< bytes requested and not yet freed
};

namespace heap_meter_detail {
inline std::atomic<std::uint64_t> calls{0};
inline std::atomic<std::int64_t> live_bytes{0};
constexpr std::size_t kHeader = 16;  // keeps the payload 16-byte aligned
}  // namespace heap_meter_detail

inline HeapReading heap_now() {
  return {heap_meter_detail::calls.load(std::memory_order_relaxed),
          heap_meter_detail::live_bytes.load(std::memory_order_relaxed)};
}

}  // namespace hts::test

#ifndef HTS_HEAP_METER_OFF

// Never inlined: a caller that saw malloc and free through an inlined pair
// would flag the header arithmetic as a mismatched or out-of-bounds free.
[[gnu::noinline]] void* operator new(std::size_t n) {
  namespace d = hts::test::heap_meter_detail;
  auto* base = static_cast<unsigned char*>(std::malloc(n + d::kHeader));
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &n, sizeof n);
  d::calls.fetch_add(1, std::memory_order_relaxed);
  d::live_bytes.fetch_add(static_cast<std::int64_t>(n),
                          std::memory_order_relaxed);
  return base + d::kHeader;
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  namespace d = hts::test::heap_meter_detail;
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - d::kHeader;
  std::size_t n = 0;
  std::memcpy(&n, base, sizeof n);
  d::live_bytes.fetch_sub(static_cast<std::int64_t>(n),
                          std::memory_order_relaxed);
  std::free(base);
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

#endif  // HTS_HEAP_METER_OFF
