// Register id → register, for RingServer's per-message lookups.
//
// Open addressing with linear probing over one contiguous slot array: a
// lookup reads one slot (rarely a few neighbours) and then the register
// itself. A node-based hash map adds two scattered loads per lookup (the
// bucket's predecessor node, then the node) and std::map a dozen, and on a
// server holding thousands of registers each of those is a cache and TLB
// miss. Registers are never dropped, so entries are never erased and the
// table needs no tombstones.
#pragma once

#include <bit>
#include <cstddef>
#include <vector>

#include "common/types.h"

namespace hts::core {

template <typename T>
class RegisterIndex {
 public:
  /// The register of `id`, or nullptr.
  [[nodiscard]] T* find(ObjectId id) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.value == nullptr) return nullptr;
      if (s.id == id) return s.value;
    }
  }

  /// Adds `id` → `value`; `id` must be absent and `value` non-null.
  void insert(ObjectId id, T* value) {
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();  // load factor ≤ 3/4
    place(id, value);
    ++size_;
  }

 private:
  struct Slot {
    ObjectId id = 0;
    T* value = nullptr;  // nullptr: empty
  };

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  /// Fibonacci hashing: the top bits of id · 2^64/φ, so dense and strided
  /// ids alike spread over the table.
  [[nodiscard]] std::size_t home(ObjectId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void place(ObjectId id, T* value) {
    std::size_t i = home(id);
    while (slots_[i].value != nullptr) i = (i + 1) & mask();
    slots_[i] = Slot{id, value};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Slot& s : old) {
      if (s.value != nullptr) place(s.id, s.value);
    }
  }

  std::vector<Slot> slots_;  // a power of two in size, or empty
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace hts::core
