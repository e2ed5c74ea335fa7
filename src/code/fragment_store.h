// Per-object fragment storage for the coded value plane (DESIGN.md §Coded
// values, D11). A server holding a coded register never sees the full
// value; it holds *fragments*, in two pools:
//
//  * staged — keyed by (client, request): the fragment a FragWrite
//    delivered before any tag exists for the write. A retried write
//    re-stages (overwrite, same bytes), exactly mirroring how replicated
//    retries re-circulate the value.
//  * tag-indexed — the committed sets: when the write's commit applies,
//    the staged fragment is promoted under the commit's tag. Repair can
//    later *adopt* additional fragment indices at a tag (a crashed peer's
//    regenerated fragment), so one tag may hold several indices.
//
// The GC watermark rides the commit watermark: whenever a commit advances
// the object's committed tag, every set more than `gc_keep` tags below it
// is reclaimed — fragments of superseded values only serve in-flight reads
// of a tag that was current when the read started, and `gc_keep` bounds
// that window. Reclaimed bytes are counted for the obs gauge/counter pair.
//
// This store is owned by a register's activity block (RingServer::Activity)
// behind a lazy pointer: a replicated register never allocates one (the
// default policy stays zero-cost and golden-pinned).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace hts::code {

/// One stored fragment: bytes plus the coding geometry that produced it,
/// so readers and repair can reconstruct without any side channel.
struct StoredFragment {
  std::uint8_t frag_index = 0;
  std::uint8_t n = 0;
  std::uint8_t k = 0;
  std::uint64_t value_size = 0;
  std::uint32_t checksum = 0;
  std::string bytes;
};

class FragmentStore {
 public:
  using Key = std::pair<ClientId, RequestId>;

  /// Stage the fragment of an in-flight write; overwrites any previous
  /// staging for the same (client, request) — retries re-stage.
  void stage(ClientId client, RequestId req, StoredFragment frag) {
    auto [it, fresh] = staged_.try_emplace(Key{client, req});
    if (!fresh) staged_bytes_ -= it->second.bytes.size();
    staged_bytes_ += frag.bytes.size();
    it->second = std::move(frag);
  }

  /// Bind the staged fragment of (client, request) to the commit's tag.
  /// Returns false if nothing was staged (the FragWrite was lost to a
  /// crash — the commit still applies; this server just serves no
  /// fragment for the tag until repair refills it).
  bool promote(ClientId client, RequestId req, const Tag& tag) {
    auto it = staged_.find(Key{client, req});
    if (it == staged_.end()) return false;
    staged_bytes_ -= it->second.bytes.size();
    adopt(tag, std::move(it->second));
    staged_.erase(it);
    return true;
  }

  /// Free every staged fragment: none of their writes can commit here any
  /// more (the register moved to another ring).
  void drop_staged() {
    staged_.clear();
    staged_bytes_ = 0;
  }

  /// Record a commit that applied before its FragWrite arrived (the fan-out
  /// and the ring share no ordering on a real fabric): when the fragment of
  /// (client, request) finally lands, take_late() hands back the committed
  /// tag so the caller adopts it directly instead of staging it forever.
  void note_missing(ClientId client, RequestId req, const Tag& tag) {
    late_[Key{client, req}] = tag;
  }

  /// Consume the late-bind record for (client, request), if any.
  [[nodiscard]] std::optional<Tag> take_late(ClientId client, RequestId req) {
    auto it = late_.find(Key{client, req});
    if (it == late_.end()) return std::nullopt;
    Tag tag = it->second;
    late_.erase(it);
    return tag;
  }

  /// Add a fragment under `tag` (promotion or repair). Replaces an
  /// existing entry with the same index.
  void adopt(const Tag& tag, StoredFragment frag) {
    auto& set = by_tag_[tag];
    for (auto& f : set) {
      if (f.frag_index == frag.frag_index) {
        stored_bytes_ -= f.bytes.size();
        stored_bytes_ += frag.bytes.size();
        f = std::move(frag);
        return;
      }
    }
    stored_bytes_ += frag.bytes.size();
    set.push_back(std::move(frag));
  }

  /// All fragments held at `tag`, or nullptr.
  [[nodiscard]] const std::vector<StoredFragment>* at(const Tag& tag) const {
    auto it = by_tag_.find(tag);
    return it == by_tag_.end() ? nullptr : &it->second;
  }

  /// Reclaim every set more than `keep` tags below `committed` (sets at or
  /// above the committed tag are never touched). Returns bytes reclaimed
  /// by this run; cumulative total in reclaimed_bytes().
  std::size_t gc_below(const Tag& committed, std::size_t keep) {
    auto cut = by_tag_.lower_bound(committed);
    for (std::size_t i = 0; i < keep && cut != by_tag_.begin(); ++i) --cut;
    std::size_t freed = 0;
    for (auto it = by_tag_.begin(); it != cut;) {
      for (const auto& f : it->second) freed += f.bytes.size();
      it = by_tag_.erase(it);
    }
    stored_bytes_ -= freed;
    reclaimed_bytes_ += freed;
    // Late-bind records below the watermark point at reclaimed (or
    // reclaimable) tags — a fragment bound there would be garbage on
    // arrival, so drop the records along with the sets.
    const Tag boundary =
        by_tag_.empty() ? committed : by_tag_.begin()->first;
    for (auto it = late_.begin(); it != late_.end();) {
      it = it->second < boundary ? late_.erase(it) : std::next(it);
    }
    return freed;
  }

  [[nodiscard]] std::size_t stored_bytes() const { return stored_bytes_; }
  [[nodiscard]] std::size_t staged_bytes() const { return staged_bytes_; }
  [[nodiscard]] std::size_t reclaimed_bytes() const { return reclaimed_bytes_; }
  [[nodiscard]] std::size_t tag_count() const { return by_tag_.size(); }

 private:
  std::map<Tag, std::vector<StoredFragment>> by_tag_;
  std::map<Key, StoredFragment> staged_;
  std::map<Key, Tag> late_;  ///< commits whose FragWrite has not arrived yet
  std::size_t stored_bytes_ = 0;
  std::size_t staged_bytes_ = 0;
  std::size_t reclaimed_bytes_ = 0;
};

}  // namespace hts::code
