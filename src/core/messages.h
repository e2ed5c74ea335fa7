// Wire messages of the ring storage protocol (paper §3 pseudo-code),
// extended with a first-class object namespace and epoch-versioned cluster
// views.
//
// Two networks, two message families:
//  * client ⇄ server: ClientWrite / ClientWriteAck / ClientRead /
//    ClientReadAck / EpochNack
//  * server → successor (ring): PreWrite / WriteCommit / SyncState
//  * server → server (cross-ring, reconfiguration only): MigrateState /
//    MigrateDedup
//
// A WriteCommit deliberately carries no value: every server cached the value
// from the PreWrite in its pending set, so the write phase is metadata only.
// This is what lets the implementation reach ~0.8 × link bandwidth of write
// throughput (the paper's 81 Mbit/s on 100 Mbit/s links would be impossible
// if values crossed the ring twice) — see DESIGN.md §3.
//
// Versioned header (DESIGN.md §Multi-object, §Reconfiguration): the second
// header byte — reserved (always 0) in the original protocol — is a flags
// byte describing which optional fields follow, in order:
//   bit 0 (0x1): a u64 ObjectId follows (absent = kDefaultObject)
//   bit 1 (0x2): a u32 Epoch follows (absent = epoch 0)
// Messages for object 0 in epoch 0 are emitted with flags 0, byte-identical
// to the pre-namespace protocol; an object costs exactly 8 bytes and a
// non-zero epoch exactly 4 (both pinned by tests). The pre-epoch "version 1"
// frames are flags == 0x1, so every PR 4 frame decodes unchanged.
//
// Body layout (everything after the header): each kind but RingBatch lists
// its body fields once, in wire order, in a static `layout()`. Encode,
// decode and wire_size() all walk that one list (messages.cpp), and each
// field type has one wire form: integers are little-endian u8/u32/u64 by
// their C++ width, a bool is one byte 0 or 1, a Tag is u64 ts + u32 id, and
// a Value or std::string is u32-length-prefixed bytes. Decoding is
// canonical: a frame decodes only if the decoded message re-encodes to the
// same bytes — a flag announcing a default field (object 0, epoch 0) and a
// bool byte other than 0 or 1 are DecodeErrors.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"
#include "common/value.h"
#include "net/payload.h"

namespace hts::net {
class FrameWriter;  // net/frame_writer.h — scatter-gather encode sink
}

namespace hts::core {

enum MsgKind : std::uint16_t {
  kClientWrite = 1,
  kClientWriteAck = 2,
  kClientRead = 3,
  kClientReadAck = 4,
  kPreWrite = 5,
  kWriteCommit = 6,
  kSyncState = 7,
  kRingBatch = 8,
  kMigrateState = 9,
  kEpochNack = 10,
  kMigrateDedup = 11,
  kFragWrite = 12,
  kPreWriteFrag = 13,
  kCodedReadAck = 14,
  kFragFetch = 15,
  kFragFetchAck = 16,
  kFragRepair = 17,
};

// Fixed field widths on the wire.
inline constexpr std::size_t kKindWire = 2;    // u16 discriminant (kind+flags)
inline constexpr std::size_t kLenWire = 4;     // value length prefix
inline constexpr std::size_t kObjectWire = 8;  // u64 ObjectId (flag 0x1 only)

/// Bytes the object field occupies for a given object: the default object is
/// encoded implicitly (flag clear), every other object costs u64.
[[nodiscard]] constexpr std::size_t object_wire(ObjectId object) {
  return object == kDefaultObject ? 0 : kObjectWire;
}

/// Base of every kind whose body is a field list (all but RingBatch).
/// wire_size() is the encoder run against a byte-counting sink, so a
/// message's size and its bytes come from the same list. A sent message is
/// immutable, so the first call's answer is kept: each hop asks for the
/// size two or three times (the sender's tx count, the receiver's rx
/// count, the ring's egress count). Whoever fills a message's fields (the
/// decoder, a test) does so before anything asks for its size.
struct FieldMessage : net::Payload {
  explicit FieldMessage(MsgKind kind) : Payload(kind) {}
  [[nodiscard]] std::size_t wire_size() const final;

 private:
  /// 0 until the first wire_size(): no message is empty (a header alone is
  /// kKindWire bytes). Racing first calls store the same value.
  mutable std::atomic<std::size_t> wire_size_{0};
};

/// Fixes the kind, so each message's default constructor — the decoder's
/// starting point before it reads the field list — is `= default`.
template <MsgKind K>
struct Message : FieldMessage {
  Message() : FieldMessage(K) {}
};

/// Client → server: store `value` in register `object`. `req` makes retries
/// idempotent. `epoch` is the client's view of the deployment.
struct ClientWrite final : Message<kClientWrite> {
  ClientWrite() = default;
  ClientWrite(ClientId c, RequestId r, Value v, ObjectId obj, Epoch e = 0)
      : client(c), req(r), value(std::move(v)), object(obj), epoch(e) {}

  ClientId client = 0;
  RequestId req = 0;
  Value value;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.client, m.req, m.value); }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: the write identified by `req` is complete. `epoch` is
/// the epoch the serving ring completed it in.
struct ClientWriteAck final : Message<kClientWriteAck> {
  ClientWriteAck() = default;
  explicit ClientWriteAck(RequestId r, ObjectId obj, Epoch e = 0)
      : req(r), object(obj), epoch(e) {}

  RequestId req = 0;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.req); }
  [[nodiscard]] std::string describe() const override;
};

/// Client → server: read register `object`.
struct ClientRead final : Message<kClientRead> {
  ClientRead() = default;
  ClientRead(ClientId c, RequestId r, ObjectId obj, Epoch e = 0)
      : client(c), req(r), object(obj), epoch(e) {}

  ClientId client = 0;
  RequestId req = 0;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.client, m.req); }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: read result. The tag rides along for white-box
/// verification (linearizability checking); a production deployment could
/// strip it, it is 12 bytes.
struct ClientReadAck final : Message<kClientReadAck> {
  ClientReadAck() = default;
  ClientReadAck(RequestId r, Value v, Tag t, ObjectId obj, Epoch e = 0)
      : req(r), value(std::move(v)), tag(t), object(obj), epoch(e) {}

  RequestId req = 0;
  Value value;
  Tag tag;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.req, m.value, m.tag); }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: this ring does not own `object` under epoch `epoch` —
/// refresh your view (the epoch is the hint: the server's newest known
/// epoch) and re-route. Sent instead of serving when a client op arrives
/// for a register the server does not own, including during the freeze
/// phase of a live migration (DESIGN.md D8).
struct EpochNack final : Message<kEpochNack> {
  EpochNack() = default;
  EpochNack(RequestId r, ObjectId obj, Epoch e)
      : req(r), object(obj), epoch(e) {}

  RequestId req = 0;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.req); }
  [[nodiscard]] std::string describe() const override;
};

/// Ring phase 1: announce `value` under `tag` for register `object` to every
/// server. The origin is `tag.id`. Carries the writing client's identity so
/// that completion can be recorded for retry deduplication everywhere.
struct PreWrite final : Message<kPreWrite> {
  PreWrite() = default;
  PreWrite(Tag t, Value v, ClientId c, RequestId r,
           ObjectId obj, Epoch e = 0)
      : tag(t), value(std::move(v)), client(c), req(r), object(obj), epoch(e) {}

  Tag tag;
  Value value;
  ClientId client = 0;
  RequestId req = 0;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) {
    return std::tie(m.tag, m.client, m.req, m.value);
  }
  [[nodiscard]] std::string describe() const override;
};

/// Ring phase 2: commit the pre-written `tag` of register `object`. Value
/// intentionally omitted.
struct WriteCommit final : Message<kWriteCommit> {
  WriteCommit() = default;
  WriteCommit(Tag t, ClientId c, RequestId r, ObjectId obj, Epoch e = 0)
      : tag(t), client(c), req(r), object(obj), epoch(e) {}

  Tag tag;
  ClientId client = 0;
  RequestId req = 0;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.tag, m.client, m.req); }
  [[nodiscard]] std::string describe() const override;
};

/// Ring repair: predecessor of a crashed server pushes one register's current
/// state to its new successor so the splice point is at least as fresh as the
/// sender (one SyncState per touched object). Never forwarded.
struct SyncState final : Message<kSyncState> {
  SyncState() = default;
  SyncState(Tag t, Value v, ObjectId obj, Epoch e = 0)
      : tag(t), value(std::move(v)), object(obj), epoch(e) {}

  Tag tag;
  Value value;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.tag, m.value); }
  [[nodiscard]] std::string describe() const override;
};

/// Reconfiguration copy phase: the source ring hands one migrating
/// register's highest committed (tag, value) to a destination server. The
/// epoch is the epoch the register moves *into* — a destination applies it
/// while still on the previous epoch (awaiting its flip) and marks the
/// register migrated. Cross-ring server→server traffic; never batched.
struct MigrateState final : Message<kMigrateState> {
  MigrateState() = default;
  MigrateState(Tag t, Value v, ObjectId obj, Epoch e)
      : tag(t), value(std::move(v)), object(obj), epoch(e) {}

  Tag tag;
  Value value;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.tag, m.value); }
  [[nodiscard]] std::string describe() const override;
};

/// Reconfiguration copy phase: the source ring's completed-write windows
/// (RingServer D5/D6 retry deduplication), so a write retried across the
/// migration boundary can never re-apply on the destination ring. Merged
/// into the destination's windows (watermark = max, out-of-order sets
/// unioned) — a superset is safe: a completed request id names one specific
/// operation forever.
struct MigrateDedup final : Message<kMigrateDedup> {
  struct Window {
    ClientId client = 0;
    RequestId watermark = 0;
    std::vector<RequestId> above;  ///< completed past a still-open gap
  };

  MigrateDedup() = default;
  MigrateDedup(std::vector<Window> w, Epoch e)
      : windows(std::move(w)), epoch(e) {}

  std::vector<Window> windows;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.windows); }
  [[nodiscard]] std::string describe() const override;
};

// ----------------------------------------------------- coded value plane
//
// The erasure-coded storage mode (DESIGN.md §Coded values, D11). None of
// these kinds is ever emitted under the default ValuePolicy — the
// replicated wire format stays bit-for-bit golden-pinned — and all of them
// reuse the flags-byte header, so coded traffic pays the same 0/8/12-byte
// object/epoch costs as everything else.

/// One fragment riding a coded-plane message: its index in the (n, k)
/// code, its CRC-32, and its bytes. Wire: u8 index, u32 checksum,
/// length-prefixed bytes.
struct FragPart {
  std::uint8_t index = 0;
  std::uint32_t checksum = 0;
  std::string bytes;

  friend bool operator==(const FragPart&, const FragPart&) = default;
};

/// The shape of a coded value: n fragments, any k of which rebuild its
/// value_size bytes.
struct CodedShape {
  std::uint8_t n = 0;
  std::uint8_t k = 0;
  std::uint64_t value_size = 0;
};

/// What a write installs when it commits: its value (replicated), or only
/// the shape of its fragments (coded; `value` stays empty — each server's
/// fragment is staged from the client's FragWrite, never circulated). The
/// ring treats both alike: a body changes which bytes a server stores,
/// never which tag a read sees.
struct WriteBody {
  WriteBody() = default;
  WriteBody(Value v) : value(std::move(v)) {}
  WriteBody(CodedShape s) : coded(s) {}

  Value value;
  std::optional<CodedShape> coded;
};

/// Client → server: one fragment of a coded write. The client encodes the
/// value into n fragments and sends fragment i to ring member i, so each
/// server receives |v|/k instead of |v|. Exactly one copy (the sticky
/// target's) carries `initiate = true` and doubles as the write request;
/// the others only stage their fragment for the commit to promote.
struct FragWrite final : Message<kFragWrite> {
  FragWrite() = default;
  FragWrite(ClientId c, RequestId r, std::uint8_t n_, std::uint8_t k_,
            std::uint8_t idx, bool init, std::uint64_t vsize,
            std::uint32_t crc, std::string bytes,
            ObjectId obj, Epoch e = 0)
      : client(c), req(r), n(n_), k(k_), frag_index(idx), initiate(init),
        value_size(vsize), checksum(crc), frag(std::move(bytes)), object(obj),
        epoch(e) {}

  ClientId client = 0;
  RequestId req = 0;
  std::uint8_t n = 0;
  std::uint8_t k = 0;
  std::uint8_t frag_index = 0;
  bool initiate = false;
  std::uint64_t value_size = 0;
  std::uint32_t checksum = 0;
  std::string frag;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) {
    return std::tie(m.client, m.req, m.n, m.k, m.frag_index, m.initiate,
                    m.value_size, m.checksum, m.frag);
  }
  [[nodiscard]] std::string describe() const override;
};

/// Ring phase 1 of a coded write: the metadata-only twin of PreWrite. The
/// value never circulates — every server already holds its fragment from
/// the client's FragWrite — so the ring carries only the tag plus the
/// coding geometry the commit will need. This is what collapses per-server
/// ring bytes from |v| to O(1) for coded writes.
struct PreWriteFrag final : Message<kPreWriteFrag> {
  PreWriteFrag() = default;
  PreWriteFrag(Tag t, ClientId c, RequestId r, std::uint8_t n_,
               std::uint8_t k_, std::uint64_t vsize,
               ObjectId obj, Epoch e = 0)
      : tag(t), client(c), req(r), n(n_), k(k_), value_size(vsize), object(obj),
        epoch(e) {}

  Tag tag;
  ClientId client = 0;
  RequestId req = 0;
  std::uint8_t n = 0;
  std::uint8_t k = 0;
  std::uint64_t value_size = 0;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) {
    return std::tie(m.tag, m.client, m.req, m.n, m.k, m.value_size);
  }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: read result for a register whose committed state is
/// coded. Carries the committed tag, the geometry, and every fragment this
/// server holds at that tag (usually one; more after repair adoption) —
/// the client completes the read by collecting k distinct fragments via
/// FragFetch from ring peers.
struct CodedReadAck final : Message<kCodedReadAck> {
  CodedReadAck() = default;
  CodedReadAck(RequestId r, Tag t, std::uint8_t n_, std::uint8_t k_,
               std::uint64_t vsize, std::vector<FragPart> p,
               ObjectId obj, Epoch e = 0)
      : req(r), tag(t), n(n_), k(k_), value_size(vsize), parts(std::move(p)),
        object(obj), epoch(e) {}

  RequestId req = 0;
  Tag tag;
  std::uint8_t n = 0;
  std::uint8_t k = 0;
  std::uint64_t value_size = 0;
  std::vector<FragPart> parts;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) {
    return std::tie(m.req, m.tag, m.n, m.k, m.value_size, m.parts);
  }
  [[nodiscard]] std::string describe() const override;
};

/// Client → server: fetch this server's fragments of `object` at exactly
/// `tag` (the tag a CodedReadAck named). Answered with a FragFetchAck.
struct FragFetch final : Message<kFragFetch> {
  FragFetch() = default;
  FragFetch(ClientId c, RequestId r, Tag t, ObjectId obj, Epoch e = 0)
      : client(c), req(r), tag(t), object(obj), epoch(e) {}

  ClientId client = 0;
  RequestId req = 0;
  Tag tag;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) { return std::tie(m.client, m.req, m.tag); }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: the fragments held at the requested tag; empty parts
/// means "not found" (never stored, or already reclaimed by the GC
/// watermark — the client restarts the read).
struct FragFetchAck final : Message<kFragFetchAck> {
  FragFetchAck() = default;
  FragFetchAck(RequestId r, Tag t, std::uint64_t vsize,
               std::vector<FragPart> p, ObjectId obj, Epoch e = 0)
      : req(r), tag(t), value_size(vsize), parts(std::move(p)), object(obj),
        epoch(e) {}

  RequestId req = 0;
  Tag tag;
  std::uint64_t value_size = 0;
  std::vector<FragPart> parts;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) {
    return std::tie(m.req, m.tag, m.value_size, m.parts);
  }
  [[nodiscard]] std::string describe() const override;
};

/// Ring repair for coded registers (the RADON repair direction): after a
/// crash, the absorber circulates one FragRepair per coded register, each
/// server appending its fragment at the committed tag until k are aboard;
/// back at the origin, the crashed server's fragment `missing_index` is
/// regenerated and adopted, restoring the code's failure tolerance without
/// any server ever materialising the value.
struct FragRepair final : Message<kFragRepair> {
  FragRepair() = default;
  FragRepair(ProcessId o, Tag t, std::uint8_t n_, std::uint8_t k_,
             std::uint8_t missing, std::uint64_t vsize,
             std::vector<FragPart> p, ObjectId obj, Epoch e = 0)
      : origin(o), tag(t), n(n_), k(k_), missing_index(missing),
        value_size(vsize), parts(std::move(p)), object(obj), epoch(e) {}

  ProcessId origin = 0;
  Tag tag;
  std::uint8_t n = 0;
  std::uint8_t k = 0;
  std::uint8_t missing_index = 0;
  std::uint64_t value_size = 0;
  std::vector<FragPart> parts;
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;

  static auto layout(auto& m) {
    return std::tie(m.origin, m.tag, m.n, m.k, m.missing_index,
                    m.value_size, m.parts);
  }
  [[nodiscard]] std::string describe() const override;
};

/// A train of ring messages delivered as one transmission — the paper's §4.2
/// piggybacking ("write messages are piggybacked on pending write messages")
/// generalised: the fairness scheduler fills a batch up to
/// ServerOptions::max_batch, so per-message overheads (syscall/CPU, frame
/// headers) are paid once per batch. Only ring traffic (PreWrite /
/// WriteCommit / SyncState) is ever batched; batches never nest and are
/// never empty — the codec rejects both on encode and decode.
///
/// Wire framing: u32 part count, then each part as a length-prefixed (u32)
/// encoded message — a receiver can split the train without decoding parts.
struct RingBatch final : net::Payload {
  explicit RingBatch(std::vector<net::PayloadPtr> p)
      : Payload(kRingBatch), parts(std::move(p)) {}

  std::vector<net::PayloadPtr> parts;

  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t s = kKindWire + kLenWire;
    for (const auto& p : parts) s += kLenWire + p->wire_size();
    return s;
  }
  [[nodiscard]] std::string describe() const override;
};

/// Serializes any core-protocol message (prepends the kind discriminant).
std::string encode_message(const net::Payload& msg);

/// Serializes any core-protocol message into a scatter-gather FrameWriter —
/// the transport egress hot path. Byte-identical to encode_message() by
/// construction: both entry points instantiate the same sink-templated
/// encoder (pinned by the *Parity* tests and the hts-lint transport-parity
/// invariant), but this one reuses the writer's pooled segments instead of
/// allocating a string per message (and, for RingBatch trains, per part).
void encode_message_into(const net::Payload& msg, net::FrameWriter& writer);

/// Parses a core-protocol message. Throws DecodeError on malformed input.
net::PayloadPtr decode_message(std::string_view bytes);

}  // namespace hts::core
