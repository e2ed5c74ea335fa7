// Wire-codec tests: every protocol message round-trips, reported wire sizes
// match encoded sizes, and malformed input is rejected.
#include <gtest/gtest.h>

#include "core/messages.h"

namespace hts::core {
namespace {

template <typename T>
const T& as(const net::PayloadPtr& p) {
  return static_cast<const T&>(*p);
}

TEST(Messages, ClientWriteRoundTrip) {
  ClientWrite m(1234, 56, Value::synthetic(9, 512), kDefaultObject);
  auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  auto decoded = decode_message(bytes);
  ASSERT_EQ(decoded->kind(), kClientWrite);
  const auto& d = as<ClientWrite>(decoded);
  EXPECT_EQ(d.client, 1234u);
  EXPECT_EQ(d.req, 56u);
  EXPECT_EQ(d.value, m.value);
}

TEST(Messages, ClientWriteAckRoundTrip) {
  ClientWriteAck m(77, kDefaultObject);
  auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  auto d = decode_message(bytes);
  ASSERT_EQ(d->kind(), kClientWriteAck);
  EXPECT_EQ(as<ClientWriteAck>(d).req, 77u);
}

TEST(Messages, ClientReadRoundTrip) {
  ClientRead m(42, 7, kDefaultObject);
  auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  auto d = decode_message(bytes);
  ASSERT_EQ(d->kind(), kClientRead);
  EXPECT_EQ(as<ClientRead>(d).client, 42u);
  EXPECT_EQ(as<ClientRead>(d).req, 7u);
}

TEST(Messages, ClientReadAckRoundTrip) {
  ClientReadAck m(7, Value::synthetic(3, 100), Tag{9, 2}, kDefaultObject);
  auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  auto d = decode_message(bytes);
  ASSERT_EQ(d->kind(), kClientReadAck);
  EXPECT_EQ(as<ClientReadAck>(d).req, 7u);
  EXPECT_EQ(as<ClientReadAck>(d).value, m.value);
  EXPECT_EQ(as<ClientReadAck>(d).tag, (Tag{9, 2}));
}

TEST(Messages, PreWriteRoundTrip) {
  PreWrite m(Tag{12, 3}, Value::synthetic(4, 2048), 900, 15, kDefaultObject);
  auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  auto d = decode_message(bytes);
  ASSERT_EQ(d->kind(), kPreWrite);
  const auto& pw = as<PreWrite>(d);
  EXPECT_EQ(pw.tag, (Tag{12, 3}));
  EXPECT_EQ(pw.value, m.value);
  EXPECT_EQ(pw.client, 900u);
  EXPECT_EQ(pw.req, 15u);
}

TEST(Messages, WriteCommitRoundTripAndIsSmall) {
  WriteCommit m(Tag{12, 3}, 900, 15, kDefaultObject);
  auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  // The commit must not carry the value: this is the metadata-only write
  // phase that makes 80% link-bandwidth write throughput possible.
  EXPECT_LT(m.wire_size(), 64u);
  auto d = decode_message(bytes);
  ASSERT_EQ(d->kind(), kWriteCommit);
  EXPECT_EQ(as<WriteCommit>(d).tag, (Tag{12, 3}));
  EXPECT_EQ(as<WriteCommit>(d).client, 900u);
  EXPECT_EQ(as<WriteCommit>(d).req, 15u);
}

TEST(Messages, SyncStateRoundTrip) {
  SyncState m(Tag{5, 1}, Value::synthetic(8, 64), kDefaultObject);
  auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  auto d = decode_message(bytes);
  ASSERT_EQ(d->kind(), kSyncState);
  EXPECT_EQ(as<SyncState>(d).tag, (Tag{5, 1}));
  EXPECT_EQ(as<SyncState>(d).value, m.value);
}

TEST(Messages, EmptyValueRoundTrip) {
  PreWrite m(Tag{1, 0}, Value{}, 1, 1, kDefaultObject);
  auto d = decode_message(encode_message(m));
  EXPECT_TRUE(as<PreWrite>(d).value.empty());
}

TEST(Messages, RingBatchRoundTrip) {
  std::vector<net::PayloadPtr> parts;
  parts.push_back(net::make_payload<PreWrite>(Tag{12, 3},
                                              Value::synthetic(4, 2048), 900,
                                              15, kDefaultObject));
  parts.push_back(net::make_payload<WriteCommit>(Tag{11, 2}, 901, 16,
                                                 kDefaultObject));
  parts.push_back(net::make_payload<SyncState>(Tag{5, 1},
                                               Value::synthetic(8, 64),
                                               kDefaultObject));
  RingBatch m(std::move(parts));
  auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  auto d = decode_message(bytes);
  ASSERT_EQ(d->kind(), kRingBatch);
  const auto& rb = as<RingBatch>(d);
  ASSERT_EQ(rb.parts.size(), 3u);
  ASSERT_EQ(rb.parts[0]->kind(), kPreWrite);
  EXPECT_EQ(as<PreWrite>(rb.parts[0]).tag, (Tag{12, 3}));
  EXPECT_EQ(as<PreWrite>(rb.parts[0]).value, Value::synthetic(4, 2048));
  ASSERT_EQ(rb.parts[1]->kind(), kWriteCommit);
  EXPECT_EQ(as<WriteCommit>(rb.parts[1]).tag, (Tag{11, 2}));
  ASSERT_EQ(rb.parts[2]->kind(), kSyncState);
  EXPECT_EQ(as<SyncState>(rb.parts[2]).value, Value::synthetic(8, 64));
}

TEST(Messages, EmptyRingBatchRejected) {
  // Building an empty batch is a caller bug (logic_error); a zero-count
  // frame off the wire is input garbage (DecodeError).
  EXPECT_THROW((void)encode_message(RingBatch({})), std::logic_error);
  Encoder e;
  e.u8(kRingBatch);
  e.u8(0);
  e.u32(0);
  EXPECT_THROW((void)decode_message(std::move(e).result()), DecodeError);
}

TEST(Messages, NonRingPartInBatchRejected) {
  // Only ring traffic is ever batched: a client message smuggled into a
  // batch frame must fail at the codec trust boundary, on both sides.
  std::vector<net::PayloadPtr> parts;
  parts.push_back(net::make_payload<ClientWrite>(1, 2, Value::synthetic(3, 8),
                                                 kDefaultObject));
  EXPECT_THROW((void)encode_message(RingBatch(std::move(parts))),
               std::logic_error);

  Encoder e;
  e.u8(kRingBatch);
  e.u8(0);
  e.u32(1);
  e.bytes(encode_message(ClientWrite(1, 2, Value::synthetic(3, 8),
                                     kDefaultObject)));
  EXPECT_THROW((void)decode_message(std::move(e).result()), DecodeError);
}

TEST(Messages, RingBatchEveryTruncationRejected) {
  std::vector<net::PayloadPtr> parts;
  parts.push_back(net::make_payload<WriteCommit>(Tag{1, 0}, 7, 1,
                                                 kDefaultObject));
  parts.push_back(net::make_payload<PreWrite>(Tag{2, 1},
                                              Value::synthetic(3, 100), 8, 2,
                                              kDefaultObject));
  RingBatch m(std::move(parts));
  auto bytes = encode_message(m);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)decode_message(std::string_view(bytes).substr(0, cut)),
                 DecodeError)
        << "cut=" << cut;
  }
}

TEST(Messages, NestedRingBatchRejected) {
  std::vector<net::PayloadPtr> inner;
  inner.push_back(net::make_payload<WriteCommit>(Tag{1, 0}, 7, 1,
                                                 kDefaultObject));
  std::vector<net::PayloadPtr> outer;
  outer.push_back(net::make_payload<RingBatch>(std::move(inner)));
  RingBatch m(std::move(outer));
  EXPECT_THROW((void)encode_message(m), std::logic_error);

  // A hand-built nested frame must be rejected at decode time too.
  Encoder e;
  e.u8(kRingBatch);
  e.u8(0);
  e.u32(1);
  std::vector<net::PayloadPtr> part;
  part.push_back(net::make_payload<WriteCommit>(Tag{1, 0}, 7, 1,
                                                kDefaultObject));
  e.bytes(encode_message(RingBatch(std::move(part))));
  EXPECT_THROW((void)decode_message(std::move(e).result()), DecodeError);
}

TEST(Messages, TrailingBytesRejected) {
  // decode_message must consume the whole buffer: framing bugs (a batch part
  // length that lies) surface as DecodeError, not silent truncation.
  WriteCommit m(Tag{12, 3}, 900, 15, kDefaultObject);
  auto bytes = encode_message(m) + std::string("x");
  EXPECT_THROW((void)decode_message(bytes), DecodeError);

  // Same inside a batch part.
  Encoder e;
  e.u8(kRingBatch);
  e.u8(0);
  e.u32(1);
  e.bytes(encode_message(m) + std::string("x"));
  EXPECT_THROW((void)decode_message(std::move(e).result()), DecodeError);
}

TEST(Messages, PropertyAllMessageTypesRoundTripAtManySizes) {
  // Round-trip property across the whole kind space and a size sweep,
  // re-encoding the decoded message to prove byte-for-byte stability.
  for (std::size_t size : {0ul, 1ul, 7ul, 8ul, 255ul, 1448ul, 1449ul, 8192ul}) {
    std::vector<net::PayloadPtr> msgs;
    msgs.push_back(net::make_payload<ClientWrite>(1, 2,
                                                  Value::synthetic(9, size),
                                                  kDefaultObject));
    msgs.push_back(net::make_payload<ClientWriteAck>(3, kDefaultObject));
    msgs.push_back(net::make_payload<ClientRead>(4, 5, kDefaultObject));
    msgs.push_back(net::make_payload<ClientReadAck>(6,
                                                    Value::synthetic(10, size),
                                                    Tag{7, 1}, kDefaultObject));
    msgs.push_back(net::make_payload<PreWrite>(Tag{8, 2},
                                               Value::synthetic(11, size), 12,
                                               13, kDefaultObject));
    msgs.push_back(net::make_payload<WriteCommit>(Tag{9, 0}, 14, 15,
                                                  kDefaultObject));
    msgs.push_back(net::make_payload<SyncState>(Tag{10, 1},
                                                Value::synthetic(12, size),
                                                kDefaultObject));
    msgs.push_back(net::make_payload<RingBatch>(std::vector<net::PayloadPtr>{
        net::make_payload<PreWrite>(Tag{8, 2}, Value::synthetic(11, size), 12,
                                    13, kDefaultObject),
        net::make_payload<WriteCommit>(Tag{9, 0}, 14, 15, kDefaultObject)}));
    for (const auto& msg : msgs) {
      const auto bytes = encode_message(*msg);
      EXPECT_EQ(bytes.size(), msg->wire_size()) << msg->describe();
      const auto decoded = decode_message(bytes);
      ASSERT_EQ(decoded->kind(), msg->kind()) << msg->describe();
      EXPECT_EQ(encode_message(*decoded), bytes) << msg->describe();
    }
  }
}

TEST(Messages, UnknownKindRejected) {
  std::string bytes = "\x63\x00garbage";  // kind 0x63 does not exist
  EXPECT_THROW((void)decode_message(bytes), DecodeError);
}

TEST(Messages, TruncatedInputRejected) {
  PreWrite m(Tag{12, 3}, Value::synthetic(4, 2048), 900, 15, kDefaultObject);
  auto bytes = encode_message(m);
  for (std::size_t cut : {1ul, 2ul, 10ul, bytes.size() - 1}) {
    EXPECT_THROW((void)decode_message(std::string_view(bytes).substr(0, cut)),
                 DecodeError)
        << "cut=" << cut;
  }
}

TEST(Messages, DescribeMentionsKeyFields) {
  PreWrite m(Tag{12, 3}, Value::synthetic(4, 16), 900, 15, kDefaultObject);
  const std::string s = m.describe();
  EXPECT_NE(s.find("12"), std::string::npos);
  EXPECT_NE(s.find("900"), std::string::npos);
}

// ------------------------------------------------------- object namespace

TEST(Messages, ObjectFieldRoundTripsOnEveryKind) {
  const ObjectId obj = 0xDEAD'BEEF'0042ull;
  std::vector<net::PayloadPtr> msgs;
  msgs.push_back(
      net::make_payload<ClientWrite>(1, 2, Value::synthetic(9, 64), obj));
  msgs.push_back(net::make_payload<ClientWriteAck>(3, obj));
  msgs.push_back(net::make_payload<ClientRead>(4, 5, obj));
  msgs.push_back(net::make_payload<ClientReadAck>(
      6, Value::synthetic(10, 64), Tag{7, 1}, obj));
  msgs.push_back(net::make_payload<PreWrite>(Tag{8, 2},
                                             Value::synthetic(11, 64), 12, 13,
                                             obj));
  msgs.push_back(net::make_payload<WriteCommit>(Tag{9, 0}, 14, 15, obj));
  msgs.push_back(
      net::make_payload<SyncState>(Tag{10, 1}, Value::synthetic(12, 64), obj));
  for (const auto& msg : msgs) {
    const auto bytes = encode_message(*msg);
    EXPECT_EQ(bytes.size(), msg->wire_size()) << msg->describe();
    const auto decoded = decode_message(bytes);
    ASSERT_EQ(decoded->kind(), msg->kind()) << msg->describe();
    EXPECT_EQ(encode_message(*decoded), bytes) << msg->describe();
  }
  // Spot-check the decoded object on two kinds.
  EXPECT_EQ(as<PreWrite>(decode_message(encode_message(*msgs[4]))).object, obj);
  EXPECT_EQ(as<ClientWriteAck>(decode_message(encode_message(*msgs[1]))).object,
            obj);
}

TEST(Messages, ObjectCostsExactlyEightBytesAndOnlyOffDefault) {
  const PreWrite def(Tag{8, 2}, Value::synthetic(11, 64), 12, 13,
                     kDefaultObject);
  const PreWrite keyed(Tag{8, 2}, Value::synthetic(11, 64), 12, 13, 42);
  EXPECT_EQ(keyed.wire_size(), def.wire_size() + kObjectWire);
  EXPECT_EQ(encode_message(def).size() + kObjectWire,
            encode_message(keyed).size());
}

TEST(Messages, KeyedFrameIsVersionOneDefaultFrameIsVersionZero) {
  const auto def = encode_message(WriteCommit(Tag{3, 1}, 7, 9, kDefaultObject));
  const auto keyed = encode_message(WriteCommit(Tag{3, 1}, 7, 9, 5));
  ASSERT_GE(def.size(), 2u);
  ASSERT_GE(keyed.size(), 10u);
  EXPECT_EQ(def[1], 0);    // version 0: no object field
  EXPECT_EQ(keyed[1], 1);  // version 1: u64 object follows
  // Past the header(+object), the encodings are identical.
  EXPECT_EQ(def.substr(2), keyed.substr(2 + kObjectWire));
  EXPECT_EQ(keyed[2], 5);  // little-endian object id
}

TEST(Messages, UnknownFrameVersionRejected) {
  auto bytes = encode_message(WriteCommit(Tag{3, 1}, 7, 9, 5));
  bytes[1] = 2;  // future version
  EXPECT_THROW((void)decode_message(bytes), DecodeError);
}

TEST(Messages, RingBatchMixesObjectsFreely) {
  std::vector<net::PayloadPtr> parts;
  parts.push_back(net::make_payload<PreWrite>(Tag{12, 3},
                                              Value::synthetic(4, 128), 900,
                                              15, /*obj=*/0));
  parts.push_back(net::make_payload<WriteCommit>(Tag{11, 2}, 901, 16,
                                                 /*obj=*/7));
  parts.push_back(net::make_payload<SyncState>(Tag{5, 1},
                                               Value::synthetic(8, 64),
                                               /*obj=*/9));
  RingBatch m(std::move(parts));
  auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  auto d = decode_message(bytes);
  const auto& rb = as<RingBatch>(d);
  ASSERT_EQ(rb.parts.size(), 3u);
  EXPECT_EQ(as<PreWrite>(rb.parts[0]).object, 0u);
  EXPECT_EQ(as<WriteCommit>(rb.parts[1]).object, 7u);
  EXPECT_EQ(as<SyncState>(rb.parts[2]).object, 9u);
}

}  // namespace
}  // namespace hts::core
