// Allocation counting hook: replaces the global operator new/delete for the
// whole binary and counts every operator-new call. Threads add into one of
// 16 cache-line-padded stripes so the hook does not serialise the
// allocating threads it is measuring. Kept alone in its translation unit so
// the compiler never inlines the replaced operators into code that frees
// with them.
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "os_stats.h"

namespace {

struct alignas(64) AllocStripe {
  std::atomic<std::uint64_t> n{0};
};
std::array<AllocStripe, 16> g_alloc_stripes;
std::atomic<unsigned> g_next_stripe{0};

AllocStripe& my_stripe() {
  thread_local const unsigned idx =
      g_next_stripe.fetch_add(1, std::memory_order_relaxed) %
      g_alloc_stripes.size();
  return g_alloc_stripes[idx];
}

}  // namespace

void* operator new(std::size_t n) {
  my_stripe().n.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hts_bench {

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const AllocStripe& s : g_alloc_stripes) {
    total += s.n.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace hts_bench
