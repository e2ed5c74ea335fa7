// Immutable, cheaply copyable byte blob used as the register value.
//
// Values circulate the ring inside PRE_WRITE messages and are cached in
// every server's pending set, so copies must be O(1): the payload is shared.
// A non-empty value is one heap allocation — a 16-byte header (reference
// count, length) followed by the bytes — so a server storing thousands of
// registers pays one allocator chunk per value and nothing beside it. The
// empty value allocates nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <utility>

namespace hts {

class Value {
 public:
  /// The empty value; also the register's initial content (the paper's ⊥).
  Value() = default;

  /// Copies `bytes` into the value's single allocation.
  explicit Value(std::string_view bytes) : rep_(allocate(bytes.size())) {
    if (rep_ != nullptr) std::memcpy(data(), bytes.data(), bytes.size());
  }

  Value(const Value& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1);
  }
  Value(Value&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  Value& operator=(Value other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~Value() { release(); }

  [[nodiscard]] std::string_view bytes() const {
    return rep_ ? std::string_view(data(), rep_->size) : std::string_view{};
  }

  [[nodiscard]] std::size_t size() const { return rep_ ? rep_->size : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  friend bool operator==(const Value& a, const Value& b) {
    return a.bytes() == b.bytes();
  }

  /// Builds a value of `size` bytes whose content is derived from `seed`;
  /// distinct seeds yield distinct values (used by workloads and tests that
  /// rely on unique writes).
  static Value synthetic(std::uint64_t seed, std::size_t size) {
    // First 8 bytes encode the seed verbatim so uniqueness is guaranteed
    // regardless of size (values shorter than 8 bytes are padded up).
    Value v;
    v.rep_ = allocate(size < 8 ? 8 : size);
    char* out = v.data();
    for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(seed >> (8 * i));
    std::uint64_t x = seed;
    for (std::size_t i = 8; i < v.rep_->size; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      out[i] = static_cast<char>(x);
    }
    return v;
  }

  /// Recovers the seed of a synthetic value (tests use this to map a read
  /// result back to the write that produced it).
  [[nodiscard]] std::uint64_t synthetic_seed() const {
    auto b = bytes();
    if (b.size() < 8) return 0;
    std::uint64_t seed = 0;
    for (int i = 7; i >= 0; --i) {
      seed = (seed << 8) | static_cast<std::uint8_t>(b[static_cast<size_t>(i)]);
    }
    return seed;
  }

 private:
  /// The header; the bytes follow it in the same allocation.
  struct Rep {
    std::atomic<std::size_t> refs{1};
    std::size_t size = 0;
  };
  static_assert(sizeof(Rep) == 16);

  /// One header-plus-bytes allocation with uninitialised bytes; nullptr for
  /// the empty value.
  static Rep* allocate(std::size_t size) {
    if (size == 0) return nullptr;
    Rep* rep = ::new (::operator new(sizeof(Rep) + size)) Rep;
    rep->size = size;
    return rep;
  }

  void release() {
    if (rep_ != nullptr && rep_->refs.fetch_sub(1) == 1) {
      rep_->~Rep();
      ::operator delete(rep_);
    }
  }

  [[nodiscard]] char* data() const {
    return reinterpret_cast<char*>(rep_ + 1);
  }

  Rep* rep_ = nullptr;
};

}  // namespace hts
