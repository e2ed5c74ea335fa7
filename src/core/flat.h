// Sorted-vector set and map for a register's in-flight bookkeeping
// (DESIGN.md §Multi-object, "Hot record and activity block").
//
// A register has a handful of writes in flight at most, so a binary search
// over contiguous entries costs less than a tree or hash node per entry,
// and clear() keeps the capacity: an activity block taken back as a spare
// serves its next register without allocating. Insertion and erasure shift
// the entries behind them and invalidate iterators past that point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace hts::core {

template <typename K>
class FlatSet {
 public:
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] bool contains(const K& k) const {
    const auto it = lower(k);
    return it != keys_.end() && *it == k;
  }
  /// False if `k` was already present.
  bool insert(const K& k) {
    const auto it = lower(k);
    if (it != keys_.end() && *it == k) return false;
    keys_.insert(it, k);
    return true;
  }
  /// How many entries were removed (0 or 1).
  std::size_t erase(const K& k) {
    const auto it = lower(k);
    if (it == keys_.end() || !(*it == k)) return 0;
    keys_.erase(it);
    return 1;
  }
  void clear() { keys_.clear(); }

 private:
  [[nodiscard]] typename std::vector<K>::const_iterator lower(
      const K& k) const {
    return std::lower_bound(keys_.begin(), keys_.end(), k);
  }

  std::vector<K> keys_;  // ascending
};

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] iterator begin() { return items_.begin(); }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  [[nodiscard]] iterator find(const K& k) { return find_in(items_, k); }
  [[nodiscard]] const_iterator find(const K& k) const {
    return find_in(items_, k);
  }
  [[nodiscard]] bool contains(const K& k) const { return find(k) != end(); }
  /// The entry for `k`, value-initialised first if absent.
  V& operator[](const K& k) {
    auto it = lower(items_, k);
    if (it == items_.end() || !(it->first == k)) {
      it = items_.insert(it, value_type{k, V{}});
    }
    return it->second;
  }
  iterator erase(iterator it) { return items_.erase(it); }
  void clear() { items_.clear(); }

 private:
  template <typename Items>
  static auto lower(Items& items, const K& k) -> decltype(items.begin()) {
    return std::lower_bound(
        items.begin(), items.end(), k,
        [](const value_type& e, const K& key) { return e.first < key; });
  }
  template <typename Items>
  static auto find_in(Items& items, const K& k)
      -> decltype(items.begin()) {
    const auto it = lower(items, k);
    return it != items.end() && it->first == k ? it : items.end();
  }

  std::vector<value_type> items_;  // ascending by key
};

}  // namespace hts::core
