#include "core/messages.h"

#include <memory>
#include <stdexcept>
#include <tuple>

#include "net/frame_writer.h"

namespace hts::core {

namespace {

/// Kinds allowed inside a RingBatch: ring traffic only (messages.h). The
/// coded plane's ring kinds (PreWriteFrag, FragRepair) batch exactly like
/// their replicated counterparts.
bool is_ring_kind(std::uint16_t k) {
  return k == kPreWrite || k == kWriteCommit || k == kSyncState ||
         k == kPreWriteFrag || k == kFragRepair;
}

// ------------------------------------------------------- field wire forms
//
// One put/get pair per field type a layout() may list. Overload resolution
// picks the pair by the field's exact C++ type, so a field whose type has
// no pair fails to compile instead of picking a width.

template <typename Sink>
void put(Sink& e, std::uint8_t v) { e.u8(v); }
void get(Decoder& d, std::uint8_t& v) { v = d.u8(); }

template <typename Sink>
void put(Sink& e, bool v) { e.u8(v ? 1 : 0); }
void get(Decoder& d, bool& v) {
  const std::uint8_t b = d.u8();
  if (b > 1) {
    throw DecodeError("decode_message: bool byte " + std::to_string(b));
  }
  v = b == 1;
}

template <typename Sink>
void put(Sink& e, std::uint32_t v) { e.u32(v); }
void get(Decoder& d, std::uint32_t& v) { v = d.u32(); }

template <typename Sink>
void put(Sink& e, std::uint64_t v) { e.u64(v); }
void get(Decoder& d, std::uint64_t& v) { v = d.u64(); }

template <typename Sink>
void put(Sink& e, const Tag& t) {
  e.u64(t.ts);
  e.u32(t.id);
}
void get(Decoder& d, Tag& t) {
  t.ts = d.u64();
  t.id = d.u32();
}

template <typename Sink>
void put(Sink& e, const Value& v) { e.value(v); }
void get(Decoder& d, Value& v) { v = d.value(); }

template <typename Sink>
void put(Sink& e, const std::string& s) { e.bytes(s); }
void get(Decoder& d, std::string& s) { s = d.bytes(); }

/// u8 part count, then each part: u8 index, u32 checksum, bytes.
template <typename Sink>
void put(Sink& e, const std::vector<FragPart>& parts) {
  if (parts.size() > 255) {
    throw std::logic_error("encode_message: more than 255 fragment parts");
  }
  e.u8(static_cast<std::uint8_t>(parts.size()));
  for (const FragPart& p : parts) {
    put(e, p.index);
    put(e, p.checksum);
    put(e, p.bytes);
  }
}
void get(Decoder& d, std::vector<FragPart>& parts) {
  const std::uint8_t count = d.u8();
  parts.resize(count);
  for (FragPart& p : parts) {
    get(d, p.index);
    get(d, p.checksum);
    get(d, p.bytes);
  }
}

/// u32 window count, then each window: u64 client, u64 watermark, u32
/// count of `above`, then its u64 request ids.
template <typename Sink>
void put(Sink& e, const std::vector<MigrateDedup::Window>& windows) {
  e.u32(static_cast<std::uint32_t>(windows.size()));
  for (const MigrateDedup::Window& w : windows) {
    put(e, w.client);
    put(e, w.watermark);
    e.u32(static_cast<std::uint32_t>(w.above.size()));
    for (const RequestId r : w.above) put(e, r);
  }
}
void get(Decoder& d, std::vector<MigrateDedup::Window>& windows) {
  const std::uint32_t count = d.u32();
  windows.reserve(count < 1024 ? count : 1024);
  for (std::uint32_t i = 0; i < count; ++i) {
    MigrateDedup::Window& w = windows.emplace_back();
    get(d, w.client);
    get(d, w.watermark);
    const std::uint32_t n_above = d.u32();
    w.above.reserve(n_above < 4096 ? n_above : 4096);
    for (std::uint32_t k = 0; k < n_above; ++k) get(d, w.above.emplace_back());
  }
}

// ------------------------------------------------------------------ header

/// Header flags byte (the original protocol's reserved byte).
constexpr std::uint8_t kFlagObject = 0x1;  // u64 ObjectId follows
constexpr std::uint8_t kFlagEpoch = 0x2;   // u32 Epoch follows

/// Writes the frame header. The flags byte is 0 (the original protocol's
/// reserved byte) unless optional fields follow — so default-object epoch-0
/// frames are byte-identical to the pre-namespace wire format, and PR 4's
/// "version 1" object frames are exactly flags == kFlagObject.
template <typename Sink>
void put_header(Sink& e, std::uint16_t kind, ObjectId object, Epoch epoch) {
  e.u8(static_cast<std::uint8_t>(kind));
  std::uint8_t flags = 0;
  if (object != kDefaultObject) flags |= kFlagObject;
  if (epoch != 0) flags |= kFlagEpoch;
  e.u8(flags);
  if (flags & kFlagObject) e.u64(object);
  if (flags & kFlagEpoch) e.u32(epoch);
}

struct HeaderFields {
  ObjectId object = kDefaultObject;
  Epoch epoch = 0;
};

/// Reads the post-kind header remainder: flags byte, then the optional
/// fields it announces. Unknown flag bits are wire garbage, and so is a flag
/// announcing a field that holds its default — the encoder never writes one.
HeaderFields get_header(Decoder& d) {
  const std::uint8_t flags = d.u8();
  if ((flags & ~(kFlagObject | kFlagEpoch)) != 0) {
    throw DecodeError("decode_message: unsupported header flags " +
                      std::to_string(flags));
  }
  HeaderFields h;
  if (flags & kFlagObject) h.object = d.u64();
  if (flags & kFlagEpoch) h.epoch = d.u32();
  if (((flags & kFlagObject) && h.object == kDefaultObject) ||
      ((flags & kFlagEpoch) && h.epoch == 0)) {
    throw DecodeError("decode_message: header flag announces a default field");
  }
  return h;
}

std::string object_suffix(ObjectId object) {
  return object == kDefaultObject ? "" : ",o=" + std::to_string(object);
}

std::string epoch_suffix(Epoch epoch) {
  return epoch == 0 ? "" : ",e=" + std::to_string(epoch);
}

}  // namespace

std::string ClientWrite::describe() const {
  return "ClientWrite{c=" + std::to_string(client) +
         ",r=" + std::to_string(req) + ",|v|=" + std::to_string(value.size()) +
         object_suffix(object) + epoch_suffix(epoch) + "}";
}

std::string ClientWriteAck::describe() const {
  return "ClientWriteAck{r=" + std::to_string(req) + object_suffix(object) +
         epoch_suffix(epoch) + "}";
}

std::string ClientRead::describe() const {
  return "ClientRead{c=" + std::to_string(client) + ",r=" + std::to_string(req) +
         object_suffix(object) + epoch_suffix(epoch) + "}";
}

std::string ClientReadAck::describe() const {
  return "ClientReadAck{r=" + std::to_string(req) + ",tag=" + tag.to_string() +
         ",|v|=" + std::to_string(value.size()) + object_suffix(object) +
         epoch_suffix(epoch) + "}";
}

std::string EpochNack::describe() const {
  return "EpochNack{r=" + std::to_string(req) + object_suffix(object) +
         ",hint e=" + std::to_string(epoch) + "}";
}

std::string PreWrite::describe() const {
  return "PreWrite{tag=" + tag.to_string() + ",c=" + std::to_string(client) +
         ",r=" + std::to_string(req) + ",|v|=" + std::to_string(value.size()) +
         object_suffix(object) + epoch_suffix(epoch) + "}";
}

std::string WriteCommit::describe() const {
  return "WriteCommit{tag=" + tag.to_string() + ",c=" + std::to_string(client) +
         ",r=" + std::to_string(req) + object_suffix(object) +
         epoch_suffix(epoch) + "}";
}

std::string SyncState::describe() const {
  return "SyncState{tag=" + tag.to_string() + ",|v|=" +
         std::to_string(value.size()) + object_suffix(object) +
         epoch_suffix(epoch) + "}";
}

std::string MigrateState::describe() const {
  return "MigrateState{tag=" + tag.to_string() + ",|v|=" +
         std::to_string(value.size()) + object_suffix(object) +
         epoch_suffix(epoch) + "}";
}

std::string MigrateDedup::describe() const {
  return "MigrateDedup{" + std::to_string(windows.size()) + " clients" +
         epoch_suffix(epoch) + "}";
}

std::string FragWrite::describe() const {
  return "FragWrite{c=" + std::to_string(client) + ",r=" + std::to_string(req) +
         ",frag " + std::to_string(frag_index) + "/(" + std::to_string(n) +
         "," + std::to_string(k) + "),|f|=" + std::to_string(frag.size()) +
         (initiate ? ",initiate" : "") + object_suffix(object) +
         epoch_suffix(epoch) + "}";
}

std::string PreWriteFrag::describe() const {
  return "PreWriteFrag{tag=" + tag.to_string() + ",c=" + std::to_string(client) +
         ",r=" + std::to_string(req) + ",(" + std::to_string(n) + "," +
         std::to_string(k) + "),|v|=" + std::to_string(value_size) +
         object_suffix(object) + epoch_suffix(epoch) + "}";
}

std::string CodedReadAck::describe() const {
  return "CodedReadAck{r=" + std::to_string(req) + ",tag=" + tag.to_string() +
         ",(" + std::to_string(n) + "," + std::to_string(k) + "),|v|=" +
         std::to_string(value_size) + "," + std::to_string(parts.size()) +
         " parts" + object_suffix(object) + epoch_suffix(epoch) + "}";
}

std::string FragFetch::describe() const {
  return "FragFetch{c=" + std::to_string(client) + ",r=" + std::to_string(req) +
         ",tag=" + tag.to_string() + object_suffix(object) +
         epoch_suffix(epoch) + "}";
}

std::string FragFetchAck::describe() const {
  return "FragFetchAck{r=" + std::to_string(req) + ",tag=" + tag.to_string() +
         "," + std::to_string(parts.size()) + " parts" + object_suffix(object) +
         epoch_suffix(epoch) + "}";
}

std::string FragRepair::describe() const {
  return "FragRepair{origin=" + std::to_string(origin) + ",tag=" +
         tag.to_string() + ",missing " + std::to_string(missing_index) + "/(" +
         std::to_string(n) + "," + std::to_string(k) + ")," +
         std::to_string(parts.size()) + " parts" + object_suffix(object) +
         epoch_suffix(epoch) + "}";
}

std::string RingBatch::describe() const {
  std::string s = "RingBatch{" + std::to_string(parts.size()) + ":";
  for (std::size_t i = 0; i < parts.size() && i < 4; ++i) {
    if (i > 0) s += ",";
    s += parts[i]->describe();
  }
  if (parts.size() > 4) s += ",...";
  return s + "}";
}

namespace {

/// Encodes a field-list kind: the header, then its layout() in order.
template <typename M, typename Sink>
void put_message(const net::Payload& msg, Sink& e) {
  const auto& m = static_cast<const M&>(msg);
  ObjectId object = kDefaultObject;
  if constexpr (requires { m.object; }) object = m.object;
  put_header(e, m.kind(), object, m.epoch);
  std::apply([&](const auto&... f) { (put(e, f), ...); }, M::layout(m));
}

/// The one encode switch, templated over the byte sink (Encoder for the
/// legacy string path, net::FrameWriter for the scatter-gather transport
/// path, ByteCounter for wire_size()). One instantiation per sink means the
/// paths cannot diverge — the *Parity* tests and the hts-lint
/// transport-parity invariant pin it.
template <typename Sink>
void encode_into_sink(const net::Payload& msg, Sink& e) {
  switch (msg.kind()) {
    case kClientWrite: return put_message<ClientWrite>(msg, e);
    case kClientWriteAck: return put_message<ClientWriteAck>(msg, e);
    case kClientRead: return put_message<ClientRead>(msg, e);
    case kClientReadAck: return put_message<ClientReadAck>(msg, e);
    case kEpochNack: return put_message<EpochNack>(msg, e);
    case kPreWrite: return put_message<PreWrite>(msg, e);
    case kWriteCommit: return put_message<WriteCommit>(msg, e);
    case kSyncState: return put_message<SyncState>(msg, e);
    case kMigrateState: return put_message<MigrateState>(msg, e);
    case kMigrateDedup: return put_message<MigrateDedup>(msg, e);
    case kFragWrite: return put_message<FragWrite>(msg, e);
    case kPreWriteFrag: return put_message<PreWriteFrag>(msg, e);
    case kCodedReadAck: return put_message<CodedReadAck>(msg, e);
    case kFragFetch: return put_message<FragFetch>(msg, e);
    case kFragFetchAck: return put_message<FragFetchAck>(msg, e);
    case kFragRepair: return put_message<FragRepair>(msg, e);
    case kRingBatch: {
      put_header(e, msg.kind(), kDefaultObject, 0);
      // Building a bad batch is a caller bug, not an input error: keep it
      // distinguishable from wire garbage (DecodeError) for callers that
      // catch-and-drop malformed frames.
      const auto& m = static_cast<const RingBatch&>(msg);
      if (m.parts.empty()) {
        throw std::logic_error("encode_message: empty RingBatch");
      }
      e.u32(static_cast<std::uint32_t>(m.parts.size()));
      for (const auto& part : m.parts) {
        if (!is_ring_kind(part->kind())) {
          throw std::logic_error(
              "encode_message: non-ring message in RingBatch: " +
              part->describe());
        }
        // Length-prefixed part, encoded in place: mark the u32 slot, encode
        // the part straight into the sink, patch the length. Byte-identical
        // to the old `e.bytes(encode_message(*part))` but with no per-part
        // string allocation — this is the batch egress hot path.
        const auto mark = e.mark_u32();
        const auto before = e.bytes_written();
        encode_into_sink(*part, e);
        e.patch_u32(mark,
                    static_cast<std::uint32_t>(e.bytes_written() - before));
      }
      break;
    }
    default:
      // Caller bug (e.g. a harness-internal payload), not an input error.
      throw std::logic_error("encode_message: unknown kind " +
                             std::to_string(msg.kind()));
  }
}

/// The sink wire_size() runs the encoder against: it counts bytes and
/// stores none.
struct ByteCounter {
  std::size_t n = 0;
  void u8(std::uint8_t) { n += 1; }
  void u32(std::uint32_t) { n += 4; }
  void u64(std::uint64_t) { n += 8; }
  void bytes(std::string_view b) { n += kLenWire + b.size(); }
  void value(const Value& v) { bytes(v.bytes()); }
  [[nodiscard]] int mark_u32() {
    n += 4;
    return 0;
  }
  void patch_u32(int /*mark*/, std::uint32_t /*v*/) {}
  [[nodiscard]] std::size_t bytes_written() const { return n; }
};

}  // namespace

std::size_t FieldMessage::wire_size() const {
  ByteCounter c;
  encode_into_sink(*this, c);
  return c.n;
}

std::string encode_message(const net::Payload& msg) {
  Encoder e;
  encode_into_sink(msg, e);
  return std::move(e).result();
}

void encode_message_into(const net::Payload& msg, net::FrameWriter& writer) {
  encode_into_sink(msg, writer);
}

namespace {

/// Decodes a field-list kind: the header, then its layout() in order, into
/// a default-constructed message.
template <typename M>
net::PayloadPtr get_message(Decoder& d) {
  auto m = std::make_shared<M>();
  const HeaderFields h = get_header(d);
  if constexpr (requires { m->object; }) {
    m->object = h.object;
  } else if (h.object != kDefaultObject) {
    throw DecodeError("decode_message: kind " + std::to_string(m->kind()) +
                      " carries an object");
  }
  m->epoch = h.epoch;
  std::apply([&](auto&... f) { (get(d, f), ...); }, M::layout(*m));
  return m;
}

/// Decodes one message from `d`. `allow_batch` is false for batch parts so
/// batches cannot nest (and a malicious length field cannot cause unbounded
/// recursion).
net::PayloadPtr decode_inner(Decoder& d, bool allow_batch) {
  auto kind = static_cast<MsgKind>(d.u8());
  switch (kind) {
    case kClientWrite: return get_message<ClientWrite>(d);
    case kClientWriteAck: return get_message<ClientWriteAck>(d);
    case kClientRead: return get_message<ClientRead>(d);
    case kClientReadAck: return get_message<ClientReadAck>(d);
    case kEpochNack: return get_message<EpochNack>(d);
    case kPreWrite: return get_message<PreWrite>(d);
    case kWriteCommit: return get_message<WriteCommit>(d);
    case kSyncState: return get_message<SyncState>(d);
    case kMigrateState: return get_message<MigrateState>(d);
    case kMigrateDedup: return get_message<MigrateDedup>(d);
    case kFragWrite: return get_message<FragWrite>(d);
    case kPreWriteFrag: return get_message<PreWriteFrag>(d);
    case kCodedReadAck: return get_message<CodedReadAck>(d);
    case kFragFetch: return get_message<FragFetch>(d);
    case kFragFetchAck: return get_message<FragFetchAck>(d);
    case kFragRepair: return get_message<FragRepair>(d);
    case kRingBatch: {
      if (!allow_batch) throw DecodeError("decode_message: nested RingBatch");
      HeaderFields h = get_header(d);
      if (h.object != kDefaultObject || h.epoch != 0) {
        // The train itself is object- and epoch-neutral; parts carry their
        // own fields.
        throw DecodeError(
            "decode_message: RingBatch frame carries an object or epoch");
      }
      const std::uint32_t count = d.u32();
      if (count == 0) throw DecodeError("decode_message: empty RingBatch");
      std::vector<net::PayloadPtr> parts;
      parts.reserve(count < 1024 ? count : 1024);
      for (std::uint32_t i = 0; i < count; ++i) {
        Decoder pd(d.bytes());
        auto part = decode_inner(pd, false);
        if (!pd.exhausted()) {
          throw DecodeError("decode_message: trailing bytes in batch part");
        }
        if (!is_ring_kind(part->kind())) {
          // Trust boundary: only ring traffic is ever batched; anything else
          // is a malformed frame, not a message for the server to shrug at.
          throw DecodeError("decode_message: non-ring message in RingBatch: " +
                            part->describe());
        }
        parts.push_back(std::move(part));
      }
      return net::make_payload<RingBatch>(std::move(parts));
    }
  }
  throw DecodeError("decode_message: unknown kind " +
                    std::to_string(static_cast<int>(kind)));
}

}  // namespace

net::PayloadPtr decode_message(std::string_view bytes) {
  Decoder d(bytes);
  auto msg = decode_inner(d, true);
  if (!d.exhausted()) {
    throw DecodeError("decode_message: " + std::to_string(d.remaining()) +
                      " trailing bytes after " + msg->describe());
  }
  return msg;
}

}  // namespace hts::core
