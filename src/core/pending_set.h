// The paper's `pending_write_set`: pre-written but not yet committed tags.
//
// Entries cache the pre-write's body — its value, or a coded write's shape
// (needed for crash re-sends and for the value-less WriteCommit
// optimisation) — plus the writing client's identity (needed to record
// completion for retry deduplication).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.h"
#include "core/messages.h"

namespace hts::core {

struct PendingEntry {
  Tag tag;
  WriteBody body;
  ClientId client = 0;
  RequestId req = 0;
};

class PendingSet {
 public:
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] bool contains(const Tag& t) const { return find(t) != nullptr; }

  /// Inserts (idempotent). Returns false if the tag was already pending.
  bool insert(PendingEntry e) {
    const auto it = lower(entries_, e.tag);
    if (it != entries_.end() && it->tag == e.tag) return false;
    entries_.insert(it, std::move(e));
    return true;
  }

  /// Removes and returns the entry if present.
  std::optional<PendingEntry> erase(const Tag& t) {
    const auto it = lower(entries_, t);
    if (it == entries_.end() || it->tag != t) return std::nullopt;
    PendingEntry e = std::move(*it);
    entries_.erase(it);
    return e;
  }

  /// maxlex(pending_write_set) — the highest pending tag (paper line 22/80).
  [[nodiscard]] std::optional<Tag> max_tag() const {
    if (entries_.empty()) return std::nullopt;
    return entries_.back().tag;
  }

  [[nodiscard]] const PendingEntry* find(const Tag& t) const {
    const auto it = lower(entries_, t);
    return it == entries_.end() || it->tag != t ? nullptr : &*it;
  }

  /// All entries whose tag was assigned by `origin` (crash adoption scan).
  [[nodiscard]] std::vector<PendingEntry> entries_from(ProcessId origin) const {
    std::vector<PendingEntry> out;
    for (const PendingEntry& e : entries_) {
      if (e.tag.id == origin) out.push_back(e);
    }
    return out;
  }

  /// Keeps the capacity (the activity block's spares reuse it).
  void clear() { entries_.clear(); }

  /// Snapshot in tag order (crash re-send path, tests).
  [[nodiscard]] std::vector<PendingEntry> snapshot() const { return entries_; }

 private:
  template <typename Entries>
  static auto lower(Entries& entries, const Tag& t)
      -> decltype(entries.begin()) {
    return std::lower_bound(
        entries.begin(), entries.end(), t,
        [](const PendingEntry& e, const Tag& key) { return e.tag < key; });
  }

  // Ascending by tag, so back() is maxlex: a sorted vector, not a tree — a
  // register has a few writes pending at most (core/flat.h says why).
  std::vector<PendingEntry> entries_;
};

}  // namespace hts::core
