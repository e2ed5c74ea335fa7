// The paper's `pending_write_set`: pre-written but not yet committed tags.
//
// Entries cache the pre-write's body — its value, or a coded write's shape
// (needed for crash re-sends and for the value-less WriteCommit
// optimisation) — plus the writing client's identity (needed to record
// completion for retry deduplication).
#pragma once

#include <cstddef>
#include <map>
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

  [[nodiscard]] bool contains(const Tag& t) const {
    return entries_.count(t) > 0;
  }

  /// Inserts (idempotent). Returns false if the tag was already pending.
  bool insert(PendingEntry e) {
    return entries_.emplace(e.tag, std::move(e)).second;
  }

  /// Removes and returns the entry if present.
  std::optional<PendingEntry> erase(const Tag& t) {
    auto it = entries_.find(t);
    if (it == entries_.end()) return std::nullopt;
    PendingEntry e = std::move(it->second);
    entries_.erase(it);
    return e;
  }

  /// maxlex(pending_write_set) — the highest pending tag (paper line 22/80).
  [[nodiscard]] std::optional<Tag> max_tag() const {
    if (entries_.empty()) return std::nullopt;
    return entries_.rbegin()->first;
  }

  [[nodiscard]] const PendingEntry* find(const Tag& t) const {
    auto it = entries_.find(t);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// All entries whose tag was assigned by `origin` (crash adoption scan).
  [[nodiscard]] std::vector<PendingEntry> entries_from(ProcessId origin) const {
    std::vector<PendingEntry> out;
    for (const auto& [t, e] : entries_) {
      if (t.id == origin) out.push_back(e);
    }
    return out;
  }

  void clear() { entries_.clear(); }

  /// Snapshot in tag order (crash re-send path, tests).
  [[nodiscard]] std::vector<PendingEntry> snapshot() const {
    std::vector<PendingEntry> out;
    out.reserve(entries_.size());
    for (const auto& [t, e] : entries_) out.push_back(e);
    return out;
  }

 private:
  std::map<Tag, PendingEntry> entries_;  // ordered: rbegin() is maxlex
};

}  // namespace hts::core
