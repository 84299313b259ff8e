// Malformed-input coverage for the Pastry wire codec: every strict prefix of
// a valid message must be rejected, as must trailing garbage and absurd
// length prefixes. Complements the round-trip tests in messages_test.cc and
// the deterministic fuzzer in tests/fuzz/fuzz_pastry_messages.cc.
#include "src/pastry/messages.h"

#include <gtest/gtest.h>

namespace past {
namespace {

NodeDescriptor Desc(uint64_t tag) {
  return NodeDescriptor{U128(tag, ~tag), static_cast<NodeAddr>(tag)};
}

RouteMsg MakeRouteMsg() {
  RouteMsg msg;
  msg.key = U128(0xaaaa, 0xbbbb);
  msg.source = Desc(1);
  msg.app_type = 7;
  msg.seq = 42;
  msg.replica_k = 3;
  msg.trace = {{1, RouteRule::kLeafSet, 10.0},
               {2, RouteRule::kRoutingTable, 20.0}};
  msg.payload = {9, 8, 7};
  return msg;
}

template <typename M>
bool DecodeWire(ByteSpan wire, M* out) {
  Reader r(wire);
  PastryMsgType type;
  if (!DecodeHeader(&r, &type) || type != M::kType) {
    return false;
  }
  return DecodeBodyStrict(&r, out);
}

TEST(PastryMalformedTest, EveryStrictPrefixFails) {
  Bytes wire = EncodeMessage(MakeRouteMsg());
  for (size_t len = 0; len < wire.size(); ++len) {
    RouteMsg out;
    EXPECT_FALSE(DecodeWire(ByteSpan(wire.data(), len), &out))
        << "prefix of length " << len << " decoded";
  }
  RouteMsg out;
  EXPECT_TRUE(DecodeWire(ByteSpan(wire.data(), wire.size()), &out));
}

TEST(PastryMalformedTest, TrailingByteFailsStrictDecode) {
  Bytes wire = EncodeMessage(MakeRouteMsg());
  wire.push_back(0x00);
  RouteMsg out;
  EXPECT_FALSE(DecodeWire(ByteSpan(wire.data(), wire.size()), &out));
}

TEST(PastryMalformedTest, EveryStrictPrefixFailsForJoinRows) {
  JoinRowsMsg msg;
  msg.sender = Desc(3);
  msg.rows = {{0, {Desc(4), Desc(5)}}, {5, {Desc(6)}}};
  Bytes wire = EncodeMessage(msg);
  for (size_t len = 0; len < wire.size(); ++len) {
    JoinRowsMsg out;
    EXPECT_FALSE(DecodeWire(ByteSpan(wire.data(), len), &out))
        << "prefix of length " << len << " decoded";
  }
  JoinRowsMsg out;
  EXPECT_TRUE(DecodeWire(ByteSpan(wire.data(), wire.size()), &out));
}

TEST(PastryMalformedTest, AbsurdListCountFailsWithoutAllocating) {
  // Every fixed field, then a trace-count prefix claiming 2^32-1 hop records
  // with only the empty payload's length behind it.
  RouteMsg msg = MakeRouteMsg();
  msg.trace.clear();
  msg.payload.clear();
  Bytes wire = EncodeMessage(msg);
  RouteMsg out;
  ASSERT_TRUE(DecodeWire(ByteSpan(wire.data(), wire.size()), &out));
  // The trace count is little-endian, so it starts at the first byte where
  // the encoding with one hop record diverges.
  RouteMsg with_one = msg;
  with_one.trace = {{7, RouteRule::kLeafSet, 1.0}};
  Bytes wire_one = EncodeMessage(with_one);
  size_t count_start = 0;
  while (count_start < wire.size() && wire[count_start] == wire_one[count_start]) {
    ++count_start;
  }
  ASSERT_EQ(count_start + 8, wire.size());  // the count, then the payload length
  for (size_t i = count_start; i < count_start + 4; ++i) {
    wire[i] = 0xff;
  }
  EXPECT_FALSE(DecodeWire(ByteSpan(wire.data(), wire.size()), &out));
}

TEST(PastryMalformedTest, UnknownVersionAndTypeRejected) {
  Bytes wire = EncodeMessage(MakeRouteMsg());
  Bytes bad_version = wire;
  bad_version[0] = kPastryWireVersion + 1;
  Reader r1(ByteSpan(bad_version.data(), bad_version.size()));
  PastryMsgType type;
  EXPECT_FALSE(DecodeHeader(&r1, &type));

  Bytes garbage = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02};
  Reader r2(ByteSpan(garbage.data(), garbage.size()));
  EXPECT_FALSE(DecodeHeader(&r2, &type));
}

}  // namespace
}  // namespace past
