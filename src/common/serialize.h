// Little-endian binary encoder/decoder for wire formats.
//
// The in-process fabrics pass message objects by pointer for speed, but every
// message type also has a real wire codec (tested for round-trips) so the
// library is honest about what would cross a network, and so the simulator
// can charge exact byte counts.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/value.h"

namespace hts {

/// Thrown when decoding runs off the end of the buffer or meets an invalid
/// discriminant. Decoding failures are input errors, not programming errors.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }

  /// Length-prefixed byte string (u32 length).
  void bytes(std::string_view b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.append(b.data(), b.size());
  }

  void value(const Value& v) { bytes(v.bytes()); }

  /// Patchable u32 slot (length prefixes written before their body is
  /// encoded). Same surface as net::FrameWriter, so the message codec can
  /// be written once, templated over the sink.
  using Mark = std::size_t;
  [[nodiscard]] Mark mark_u32() {
    const Mark m = buf_.size();
    u32(0);
    return m;
  }
  void patch_u32(Mark m, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_[m + i] = static_cast<char>(v >> (8 * i));
  }
  [[nodiscard]] std::size_t bytes_written() const { return buf_.size(); }

  [[nodiscard]] const std::string& result() const& { return buf_; }
  [[nodiscard]] std::string result() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

class Decoder {
 public:
  explicit Decoder(std::string_view buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  std::string_view bytes() {
    std::uint32_t len = u32();
    need(len);
    std::string_view out = buf_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  /// The length-prefixed bytes, copied straight into the value's one
  /// allocation.
  Value value() { return Value(bytes()); }

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t k) const {
    if (buf_.size() - pos_ < k) {
      throw DecodeError("buffer underrun: need " + std::to_string(k) +
                        " bytes, have " + std::to_string(buf_.size() - pos_));
    }
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
};

}  // namespace hts
