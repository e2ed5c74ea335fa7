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
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
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
inline constexpr std::size_t kTagWire = 12;    // u64 ts + u32 id
inline constexpr std::size_t kKindWire = 2;    // u16 discriminant (kind+flags)
inline constexpr std::size_t kIdWire = 8;      // ClientId / RequestId
inline constexpr std::size_t kLenWire = 4;     // value length prefix
inline constexpr std::size_t kObjectWire = 8;  // u64 ObjectId (flag 0x1 only)
inline constexpr std::size_t kEpochWire = 4;   // u32 Epoch (flag 0x2 only)

/// Bytes the object field occupies for a given object: the default object is
/// encoded implicitly (flag clear), every other object costs u64.
[[nodiscard]] constexpr std::size_t object_wire(ObjectId object) {
  return object == kDefaultObject ? 0 : kObjectWire;
}

/// Bytes the epoch field occupies: epoch 0 is encoded implicitly (flag
/// clear) — which is what keeps a never-reconfigured deployment bit-for-bit
/// on the PR 4 wire format — every later epoch costs u32.
[[nodiscard]] constexpr std::size_t epoch_wire(Epoch epoch) {
  return epoch == 0 ? 0 : kEpochWire;
}

/// Client → server: store `value` in register `object`. `req` makes retries
/// idempotent. `epoch` is the client's view of the deployment.
struct ClientWrite final : net::Payload {
  ClientWrite(ClientId c, RequestId r, Value v, ObjectId obj, Epoch e = 0)
      : Payload(kClientWrite), client(c), req(r), value(std::move(v)),
        object(obj), epoch(e) {}

  ClientId client;
  RequestId req;
  Value value;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + 2 * kIdWire +
           kLenWire + value.size();
  }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: the write identified by `req` is complete. `epoch` is
/// the epoch the serving ring completed it in.
struct ClientWriteAck final : net::Payload {
  explicit ClientWriteAck(RequestId r, ObjectId obj, Epoch e = 0)
      : Payload(kClientWriteAck), req(r), object(obj), epoch(e) {}

  RequestId req;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kIdWire;
  }
  [[nodiscard]] std::string describe() const override;
};

/// Client → server: read register `object`.
struct ClientRead final : net::Payload {
  ClientRead(ClientId c, RequestId r, ObjectId obj, Epoch e = 0)
      : Payload(kClientRead), client(c), req(r), object(obj), epoch(e) {}

  ClientId client;
  RequestId req;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + 2 * kIdWire;
  }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: read result. The tag rides along for white-box
/// verification (linearizability checking); a production deployment could
/// strip it, it is 12 bytes.
struct ClientReadAck final : net::Payload {
  ClientReadAck(RequestId r, Value v, Tag t, ObjectId obj, Epoch e = 0)
      : Payload(kClientReadAck), req(r), value(std::move(v)), tag(t),
        object(obj), epoch(e) {}

  RequestId req;
  Value value;
  Tag tag;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kIdWire +
           kLenWire + value.size() + kTagWire;
  }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: this ring does not own `object` under epoch `epoch` —
/// refresh your view (the epoch is the hint: the server's newest known
/// epoch) and re-route. Sent instead of serving when a client op arrives
/// for a register the server does not own, including during the freeze
/// phase of a live migration (DESIGN.md D8).
struct EpochNack final : net::Payload {
  EpochNack(RequestId r, ObjectId obj, Epoch e)
      : Payload(kEpochNack), req(r), object(obj), epoch(e) {}

  RequestId req;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kIdWire;
  }
  [[nodiscard]] std::string describe() const override;
};

/// Ring phase 1: announce `value` under `tag` for register `object` to every
/// server. The origin is `tag.id`. Carries the writing client's identity so
/// that completion can be recorded for retry deduplication everywhere.
struct PreWrite final : net::Payload {
  PreWrite(Tag t, Value v, ClientId c, RequestId r,
           ObjectId obj, Epoch e = 0)
      : Payload(kPreWrite), tag(t), value(std::move(v)), client(c), req(r),
        object(obj), epoch(e) {}

  Tag tag;
  Value value;
  ClientId client;
  RequestId req;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kTagWire +
           2 * kIdWire + kLenWire + value.size();
  }
  [[nodiscard]] std::string describe() const override;
};

/// Ring phase 2: commit the pre-written `tag` of register `object`. Value
/// intentionally omitted.
struct WriteCommit final : net::Payload {
  WriteCommit(Tag t, ClientId c, RequestId r, ObjectId obj, Epoch e = 0)
      : Payload(kWriteCommit), tag(t), client(c), req(r), object(obj),
        epoch(e) {}

  Tag tag;
  ClientId client;
  RequestId req;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kTagWire +
           2 * kIdWire;
  }
  [[nodiscard]] std::string describe() const override;
};

/// Ring repair: predecessor of a crashed server pushes one register's current
/// state to its new successor so the splice point is at least as fresh as the
/// sender (one SyncState per touched object). Never forwarded.
struct SyncState final : net::Payload {
  SyncState(Tag t, Value v, ObjectId obj, Epoch e = 0)
      : Payload(kSyncState), tag(t), value(std::move(v)), object(obj),
        epoch(e) {}

  Tag tag;
  Value value;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kTagWire +
           kLenWire + value.size();
  }
  [[nodiscard]] std::string describe() const override;
};

/// Reconfiguration copy phase: the source ring hands one migrating
/// register's highest committed (tag, value) to a destination server. The
/// epoch is the epoch the register moves *into* — a destination applies it
/// while still on the previous epoch (awaiting its flip) and marks the
/// register migrated. Cross-ring server→server traffic; never batched.
struct MigrateState final : net::Payload {
  MigrateState(Tag t, Value v, ObjectId obj, Epoch e)
      : Payload(kMigrateState), tag(t), value(std::move(v)), object(obj),
        epoch(e) {}

  Tag tag;
  Value value;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kTagWire +
           kLenWire + value.size();
  }
  [[nodiscard]] std::string describe() const override;
};

/// Reconfiguration copy phase: the source ring's completed-write windows
/// (RingServer D5/D6 retry deduplication), so a write retried across the
/// migration boundary can never re-apply on the destination ring. Merged
/// into the destination's windows (watermark = max, out-of-order sets
/// unioned) — a superset is safe: a completed request id names one specific
/// operation forever.
struct MigrateDedup final : net::Payload {
  struct Window {
    ClientId client = 0;
    RequestId watermark = 0;
    std::vector<RequestId> above;  ///< completed past a still-open gap
  };

  MigrateDedup(std::vector<Window> w, Epoch e)
      : Payload(kMigrateDedup), windows(std::move(w)), epoch(e) {}

  std::vector<Window> windows;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t s = kKindWire + epoch_wire(epoch) + kLenWire;
    for (const Window& w : windows) {
      s += 2 * kIdWire + kLenWire + w.above.size() * kIdWire;
    }
    return s;
  }
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

/// Wire bytes of a fragment list: u8 part count, then each part.
[[nodiscard]] inline std::size_t frag_parts_wire(
    const std::vector<FragPart>& parts) {
  std::size_t s = 1;
  for (const FragPart& p : parts) s += 1 + 4 + kLenWire + p.bytes.size();
  return s;
}

/// Client → server: one fragment of a coded write. The client encodes the
/// value into n fragments and sends fragment i to ring member i, so each
/// server receives |v|/k instead of |v|. Exactly one copy (the sticky
/// target's) carries `initiate = true` and doubles as the write request;
/// the others only stage their fragment for the commit to promote.
struct FragWrite final : net::Payload {
  FragWrite(ClientId c, RequestId r, std::uint8_t n_, std::uint8_t k_,
            std::uint8_t idx, bool init, std::uint64_t vsize,
            std::uint32_t crc, std::string bytes,
            ObjectId obj, Epoch e = 0)
      : Payload(kFragWrite), client(c), req(r), n(n_), k(k_), frag_index(idx),
        initiate(init), value_size(vsize), checksum(crc),
        frag(std::move(bytes)), object(obj), epoch(e) {}

  ClientId client;
  RequestId req;
  std::uint8_t n;
  std::uint8_t k;
  std::uint8_t frag_index;
  bool initiate;
  std::uint64_t value_size;
  std::uint32_t checksum;
  std::string frag;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + 2 * kIdWire +
           4 + 8 + 4 + kLenWire + frag.size();
  }
  [[nodiscard]] std::string describe() const override;
};

/// Ring phase 1 of a coded write: the metadata-only twin of PreWrite. The
/// value never circulates — every server already holds its fragment from
/// the client's FragWrite — so the ring carries only the tag plus the
/// coding geometry the commit will need. This is what collapses per-server
/// ring bytes from |v| to O(1) for coded writes.
struct PreWriteFrag final : net::Payload {
  PreWriteFrag(Tag t, ClientId c, RequestId r, std::uint8_t n_,
               std::uint8_t k_, std::uint64_t vsize,
               ObjectId obj, Epoch e = 0)
      : Payload(kPreWriteFrag), tag(t), client(c), req(r), n(n_), k(k_),
        value_size(vsize), object(obj), epoch(e) {}

  Tag tag;
  ClientId client;
  RequestId req;
  std::uint8_t n;
  std::uint8_t k;
  std::uint64_t value_size;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kTagWire +
           2 * kIdWire + 2 + 8;
  }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: read result for a register whose committed state is
/// coded. Carries the committed tag, the geometry, and every fragment this
/// server holds at that tag (usually one; more after repair adoption) —
/// the client completes the read by collecting k distinct fragments via
/// FragFetch from ring peers.
struct CodedReadAck final : net::Payload {
  CodedReadAck(RequestId r, Tag t, std::uint8_t n_, std::uint8_t k_,
               std::uint64_t vsize, std::vector<FragPart> p,
               ObjectId obj, Epoch e = 0)
      : Payload(kCodedReadAck), req(r), tag(t), n(n_), k(k_),
        value_size(vsize), parts(std::move(p)), object(obj), epoch(e) {}

  RequestId req;
  Tag tag;
  std::uint8_t n;
  std::uint8_t k;
  std::uint64_t value_size;
  std::vector<FragPart> parts;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kIdWire +
           kTagWire + 2 + 8 + frag_parts_wire(parts);
  }
  [[nodiscard]] std::string describe() const override;
};

/// Client → server: fetch this server's fragments of `object` at exactly
/// `tag` (the tag a CodedReadAck named). Answered with a FragFetchAck.
struct FragFetch final : net::Payload {
  FragFetch(ClientId c, RequestId r, Tag t, ObjectId obj, Epoch e = 0)
      : Payload(kFragFetch), client(c), req(r), tag(t), object(obj),
        epoch(e) {}

  ClientId client;
  RequestId req;
  Tag tag;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + 2 * kIdWire +
           kTagWire;
  }
  [[nodiscard]] std::string describe() const override;
};

/// Server → client: the fragments held at the requested tag; empty parts
/// means "not found" (never stored, or already reclaimed by the GC
/// watermark — the client restarts the read).
struct FragFetchAck final : net::Payload {
  FragFetchAck(RequestId r, Tag t, std::uint64_t vsize,
               std::vector<FragPart> p, ObjectId obj, Epoch e = 0)
      : Payload(kFragFetchAck), req(r), tag(t), value_size(vsize),
        parts(std::move(p)), object(obj), epoch(e) {}

  RequestId req;
  Tag tag;
  std::uint64_t value_size;
  std::vector<FragPart> parts;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + kIdWire +
           kTagWire + 8 + frag_parts_wire(parts);
  }
  [[nodiscard]] std::string describe() const override;
};

/// Ring repair for coded registers (the RADON repair direction): after a
/// crash, the absorber circulates one FragRepair per coded register, each
/// server appending its fragment at the committed tag until k are aboard;
/// back at the origin, the crashed server's fragment `missing_index` is
/// regenerated and adopted, restoring the code's failure tolerance without
/// any server ever materialising the value.
struct FragRepair final : net::Payload {
  FragRepair(ProcessId o, Tag t, std::uint8_t n_, std::uint8_t k_,
             std::uint8_t missing, std::uint64_t vsize,
             std::vector<FragPart> p, ObjectId obj, Epoch e = 0)
      : Payload(kFragRepair), origin(o), tag(t), n(n_), k(k_),
        missing_index(missing), value_size(vsize), parts(std::move(p)),
        object(obj), epoch(e) {}

  ProcessId origin;
  Tag tag;
  std::uint8_t n;
  std::uint8_t k;
  std::uint8_t missing_index;
  std::uint64_t value_size;
  std::vector<FragPart> parts;
  ObjectId object;
  Epoch epoch;

  [[nodiscard]] std::size_t wire_size() const override {
    return kKindWire + object_wire(object) + epoch_wire(epoch) + 4 +
           kTagWire + 3 + 8 + frag_parts_wire(parts);
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
