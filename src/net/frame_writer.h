// Scatter-gather frame building and incremental frame reassembly — the
// codec hot path both transports share (DESIGN.md §Transport, D12).
//
// FrameWriter is a byte sink with the same append surface as hts::Encoder
// (u8/u32/u64/bytes/value plus a patchable u32 mark), writing into a pool of
// reusable fixed-capacity segments instead of a freshly allocated string.
// The segments double as iovec entries, so a TCP egress path hands the
// writer's whole backlog — many frames — to one writev() call, and clear()
// returns the segments to the pool without freeing them. Steady state is
// zero allocations per message: the pool grows to the connection's
// high-water mark once and is reused for every batch after that
// (bench/fig10_tcp.cpp measures exactly this against the legacy
// string-per-message encoder).
//
// Buffer-pool ownership rules (D12): a FrameWriter owns its segments for
// its whole lifetime; iov() views are invalidated by any append or clear();
// the writer is single-threaded — TcpTransport gives each connection one
// writer owned by the node loop that dialed it, so no lock guards it.
//
// FrameDecoder is the ingress twin: it accepts arbitrary byte chunks (a TCP
// stream tears frames at any offset, including inside the length prefix),
// reassembles u32-length-prefixed frames, and invokes a callback per
// complete frame. tests/transport_test.cpp splits captured streams at every
// byte boundary and asserts identical decode.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.h"
#include "common/value.h"

namespace hts::net {

class FrameWriter {
 public:
  /// Default segment capacity: large enough that a max_batch=16 train of
  /// small ring messages fits in one iovec entry, small enough that an
  /// idle connection does not pin megabytes.
  static constexpr std::size_t kDefaultSegmentBytes = 64 * 1024;

  /// Position of a patchable u32 (always contiguous within one segment).
  struct Mark {
    std::size_t segment = 0;
    std::size_t offset = 0;
  };

  explicit FrameWriter(std::size_t segment_bytes = kDefaultSegmentBytes)
      : segment_bytes_(segment_bytes < 16 ? 16 : segment_bytes) {}

  FrameWriter(const FrameWriter&) = delete;
  FrameWriter& operator=(const FrameWriter&) = delete;
  FrameWriter(FrameWriter&&) = default;
  FrameWriter& operator=(FrameWriter&&) = default;

  // ---- Encoder-compatible append surface (same little-endian layout) ----

  void u8(std::uint8_t v) { append(reinterpret_cast<const char*>(&v), 1); }

  void u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
    append(b, 4);
  }

  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    append(b, 8);
  }

  /// Length-prefixed byte string (u32 length), exactly Encoder::bytes.
  void bytes(std::string_view b) {
    u32(static_cast<std::uint32_t>(b.size()));
    append(b.data(), b.size());
  }

  void value(const Value& v) { bytes(v.bytes()); }

  /// Appends a 4-byte placeholder and returns its position for patch_u32.
  /// The placeholder is kept contiguous: if the current segment cannot hold
  /// 4 more bytes it is sealed and the placeholder starts the next one.
  [[nodiscard]] Mark mark_u32() {
    reserve_contiguous(4);
    const Mark m{segments_in_use_ - 1, used_[segments_in_use_ - 1]};
    u32(0);
    return m;
  }

  void patch_u32(Mark m, std::uint32_t v) {
    char* p = segments_[m.segment].data() + m.offset;
    for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
  }

  /// Total bytes appended since the last clear() — the codec uses the delta
  /// across an encode to patch length prefixes.
  [[nodiscard]] std::size_t bytes_written() const { return total_; }

  // ---------------------------------------------- frame-level convenience

  /// Opens a length-prefixed frame (u32 body length, patched on end_frame).
  [[nodiscard]] Mark begin_frame() {
    const Mark m = mark_u32();
    frame_body_start_ = total_;
    return m;
  }

  void end_frame(Mark m) {
    patch_u32(m, static_cast<std::uint32_t>(total_ - frame_body_start_));
  }

  // ------------------------------------------------------- egress surface

  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] std::size_t size() const { return total_; }

  /// iovec view over every used segment, for writev(). Invalidated by any
  /// append or clear(). `skip` trims bytes already written to the socket
  /// (partial writev); entries that are fully consumed are dropped.
  [[nodiscard]] const std::vector<iovec>& iov(std::size_t skip = 0) {
    iov_.clear();
    for (std::size_t s = 0; s < segments_in_use_; ++s) {
      std::size_t used = used_[s];
      const char* base = segments_[s].data();
      if (skip >= used) {
        skip -= used;
        continue;
      }
      iov_.push_back(iovec{const_cast<char*>(base + skip), used - skip});
      skip = 0;
    }
    return iov_;
  }

  /// Returns every segment to the pool; capacity is retained (this is what
  /// makes the steady state allocation-free).
  void clear() {
    for (std::size_t s = 0; s < segments_in_use_; ++s) used_[s] = 0;
    segments_in_use_ = 0;
    total_ = 0;
  }

  /// Copies the full contents into one string (tests, golden captures).
  [[nodiscard]] std::string to_string() const {
    std::string out;
    out.reserve(total_);
    for (std::size_t s = 0; s < segments_in_use_; ++s) {
      out.append(segments_[s].data(), used_[s]);
    }
    return out;
  }

  /// Pool introspection for the zero-allocation bench/tests.
  [[nodiscard]] std::size_t pooled_segments() const { return segments_.size(); }

 private:
  void append(const char* data, std::size_t n) {
    while (n > 0) {
      if (segments_in_use_ == 0 ||
          used_[segments_in_use_ - 1] == segment_bytes_) {
        grow();
      }
      std::size_t& used = used_[segments_in_use_ - 1];
      const std::size_t room = segment_bytes_ - used;
      const std::size_t take = n < room ? n : room;
      std::memcpy(segments_[segments_in_use_ - 1].data() + used, data, take);
      used += take;
      total_ += take;
      data += take;
      n -= take;
    }
  }

  /// Seals the current segment early so the next `n` bytes are contiguous.
  void reserve_contiguous(std::size_t n) {
    if (segments_in_use_ == 0 ||
        segment_bytes_ - used_[segments_in_use_ - 1] < n) {
      grow();
    }
  }

  void grow() {
    if (segments_in_use_ == segments_.size()) {
      segments_.emplace_back(segment_bytes_);
      used_.push_back(0);
    }
    used_[segments_in_use_] = 0;
    ++segments_in_use_;
  }

  std::size_t segment_bytes_;
  std::vector<std::vector<char>> segments_;  // pool; never shrinks
  std::vector<std::size_t> used_;            // bytes used per segment
  std::size_t segments_in_use_ = 0;
  std::size_t total_ = 0;
  std::size_t frame_body_start_ = 0;
  std::vector<iovec> iov_;  // reused scratch for iov()
};

/// Incremental reassembly of u32-length-prefixed frames from a torn byte
/// stream. feed() accepts chunks of any size (down to one byte) and invokes
/// `on_frame` once per complete frame body, in order. A frame larger than
/// `max_frame` poisons the decoder (returns false forever) — a transport
/// treats that as a broken connection, not a recoverable input.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame = 64 * 1024 * 1024)
      : max_frame_(max_frame) {}

  /// Returns false if the stream is poisoned (oversized length prefix).
  /// `on_frame` is any callable taking the frame body as std::string_view.
  template <typename OnFrame>
  bool feed(std::string_view chunk, OnFrame&& on_frame) {
    if (poisoned_) return false;
    buf_.append(chunk.data(), chunk.size());
    std::size_t pos = 0;
    for (;;) {
      if (buf_.size() - pos < 4) break;
      const auto* p = reinterpret_cast<const unsigned char*>(buf_.data() + pos);
      const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                                (static_cast<std::uint32_t>(p[1]) << 8) |
                                (static_cast<std::uint32_t>(p[2]) << 16) |
                                (static_cast<std::uint32_t>(p[3]) << 24);
      if (len > max_frame_) {
        poisoned_ = true;
        return false;
      }
      if (buf_.size() - pos - 4 < len) break;
      on_frame(std::string_view(buf_).substr(pos + 4, len));
      pos += 4 + len;
    }
    // Keep only the torn tail; the common case (whole frames) erases all.
    buf_.erase(0, pos);
    return true;
  }

  /// Bytes buffered waiting for the rest of a torn frame.
  [[nodiscard]] std::size_t pending_bytes() const { return buf_.size(); }

 private:
  std::size_t max_frame_;
  std::string buf_;
  bool poisoned_ = false;
};

}  // namespace hts::net
