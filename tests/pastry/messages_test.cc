#include "src/pastry/messages.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace past {
namespace {

Rng* TestRng() {
  static Rng rng(4711);
  return &rng;
}

NodeDescriptor RandomDesc() {
  return NodeDescriptor{TestRng()->NextU128(),
                        static_cast<NodeAddr>(TestRng()->UniformU64(10000))};
}

template <typename M>
M RoundTrip(const M& msg) {
  Bytes wire = EncodeMessage(msg);
  Reader r(ByteSpan(wire.data(), wire.size()));
  PastryMsgType type;
  EXPECT_TRUE(DecodeHeader(&r, &type));
  EXPECT_EQ(type, M::kType);
  M out;
  EXPECT_TRUE(DecodeBodyStrict(&r, &out));
  return out;
}

// Every wire message must survive truncation at any byte without crashing and
// without decoding successfully.
template <typename M>
void CheckTruncationRejected(const M& msg) {
  Bytes wire = EncodeMessage(msg);
  for (size_t len = 2; len < wire.size(); ++len) {
    Reader r(ByteSpan(wire.data(), len));
    PastryMsgType type;
    if (!DecodeHeader(&r, &type)) {
      continue;
    }
    M out;
    EXPECT_FALSE(DecodeBodyStrict(&r, &out)) << "len " << len;
  }
}

TEST(PastryMessagesTest, RouteMsgRoundTrip) {
  RouteMsg msg;
  msg.key = TestRng()->NextU128();
  msg.source = RandomDesc();
  msg.app_type = 77;
  msg.seq = 123456789;
  msg.parent_span = 0xdeadbeefcafe;
  msg.replica_k = 4;
  msg.trace = {RouteHop{1, RouteRule::kRoutingTable, 17.25, 1000},
               RouteHop{2, RouteRule::kLeafSet, 3.5, 2500},
               RouteHop{3, RouteRule::kRareCase, 0.0, 0}};
  msg.payload = TestRng()->RandomBytes(50);
  RouteMsg out = RoundTrip(msg);
  EXPECT_EQ(out.key, msg.key);
  EXPECT_EQ(out.source, msg.source);
  EXPECT_EQ(out.app_type, msg.app_type);
  EXPECT_EQ(out.seq, msg.seq);
  EXPECT_EQ(out.parent_span, msg.parent_span);
  EXPECT_EQ(out.replica_k, msg.replica_k);
  EXPECT_EQ(out.trace, msg.trace);
  EXPECT_EQ(out.payload, msg.payload);
  CheckTruncationRejected(msg);
}

// The route travels once: 67 fixed bytes (header, key, source, app_type, seq,
// parent_span, replica_k, the trace count and the payload length), 21 bytes
// per hop record, then the payload.
TEST(PastryMessagesTest, RouteMsgLayoutIs67Plus21PerHopPlusPayload) {
  for (size_t hops : {0u, 1u, 4u}) {
    for (size_t payload : {0u, 3u, 100u}) {
      RouteMsg msg;
      msg.trace.assign(hops, RouteHop{5, RouteRule::kRoutingTable, 12.5, 700});
      msg.payload.assign(payload, 0xab);
      EXPECT_EQ(EncodeMessage(msg).size(), 67 + 21 * hops + payload)
          << hops << " hops, " << payload << "-byte payload";
    }
  }
}

// The list guard rejects a count against these minimum element sizes: a
// descriptor, a hop record, and a join row's index plus its entry count.
static_assert(MinWireSize<NodeDescriptor>() == 20);
static_assert(MinWireSize<RouteHop>() == 21);
static_assert(MinWireSize<JoinRow>() == 6);

TEST(PastryMessagesTest, RouteAckRoundTrip) {
  RouteAckMsg msg;
  msg.seq = 999;
  EXPECT_EQ(RoundTrip(msg).seq, 999u);
}

TEST(PastryMessagesTest, JoinRequestRoundTrip) {
  JoinRequestMsg msg;
  msg.joiner = RandomDesc();
  msg.hops = 2;
  msg.seq = 55;
  JoinRequestMsg out = RoundTrip(msg);
  EXPECT_EQ(out.joiner, msg.joiner);
  EXPECT_EQ(out.hops, 2);
  EXPECT_EQ(out.seq, 55u);
}

TEST(PastryMessagesTest, JoinRowsRoundTrip) {
  JoinRowsMsg msg;
  msg.sender = RandomDesc();
  for (uint16_t index : {0, 3, 7}) {
    JoinRow row{index, {}};
    for (int i = 0; i < 5; ++i) {
      row.entries.push_back(RandomDesc());
    }
    msg.rows.push_back(row);
  }
  JoinRowsMsg out = RoundTrip(msg);
  EXPECT_EQ(out.sender, msg.sender);
  EXPECT_EQ(out.rows, msg.rows);
  CheckTruncationRejected(msg);
}

TEST(PastryMessagesTest, JoinLeafSetRoundTrip) {
  JoinLeafSetMsg msg;
  msg.sender = RandomDesc();
  msg.seq = 8;
  for (int i = 0; i < 16; ++i) {
    msg.leaves.push_back(RandomDesc());
  }
  JoinLeafSetMsg out = RoundTrip(msg);
  EXPECT_EQ(out.leaves, msg.leaves);
  EXPECT_EQ(out.seq, 8u);
}

TEST(PastryMessagesTest, JoinNeighborhoodRoundTrip) {
  JoinNeighborhoodMsg msg;
  msg.sender = RandomDesc();
  msg.neighbors = {RandomDesc(), RandomDesc()};
  EXPECT_EQ(RoundTrip(msg).neighbors, msg.neighbors);
}

TEST(PastryMessagesTest, SmallMessagesRoundTrip) {
  AnnounceArrivalMsg announce;
  announce.joiner = RandomDesc();
  EXPECT_EQ(RoundTrip(announce).joiner, announce.joiner);

  KeepAliveMsg ka;
  ka.sender = RandomDesc();
  EXPECT_EQ(RoundTrip(ka).sender, ka.sender);

  LeafSetRequestMsg req;
  req.sender = RandomDesc();
  EXPECT_EQ(RoundTrip(req).sender, req.sender);
}

TEST(PastryMessagesTest, FailureNoticeRoundTrip) {
  FailureNoticeMsg msg;
  msg.sender = RandomDesc();
  msg.failed = RandomDesc();
  FailureNoticeMsg out = RoundTrip(msg);
  EXPECT_EQ(out.sender, msg.sender);
  EXPECT_EQ(out.failed, msg.failed);
  EXPECT_FALSE(out.hearsay);
  CheckTruncationRejected(msg);
}

TEST(PastryMessagesTest, HearsayFailureNoticeRoundTrip) {
  FailureNoticeMsg msg;
  msg.sender = RandomDesc();
  msg.failed = RandomDesc();
  msg.hearsay = true;
  FailureNoticeMsg out = RoundTrip(msg);
  EXPECT_EQ(out.sender, msg.sender);
  EXPECT_EQ(out.failed, msg.failed);
  EXPECT_TRUE(out.hearsay);
  // 2-byte header, two 20-byte descriptors, the flag byte.
  EXPECT_EQ(EncodeMessage(msg).size(), 43u);
  CheckTruncationRejected(msg);
}

TEST(PastryMessagesTest, FailureNoticeWithoutHearsayFlagRejected) {
  // The notice before the hearsay flag existed: the two descriptors only.
  FailureNoticeMsg msg;
  msg.sender = RandomDesc();
  msg.failed = RandomDesc();
  Bytes wire = EncodeMessage(msg);
  wire.pop_back();
  Reader r(ByteSpan(wire.data(), wire.size()));
  PastryMsgType type;
  ASSERT_TRUE(DecodeHeader(&r, &type));
  FailureNoticeMsg out;
  EXPECT_FALSE(DecodeBodyStrict(&r, &out));
}

TEST(PastryMessagesTest, LeafSetReplyRoundTrip) {
  LeafSetReplyMsg msg;
  msg.sender = RandomDesc();
  for (int i = 0; i < 32; ++i) {
    msg.leaves.push_back(RandomDesc());
  }
  EXPECT_EQ(RoundTrip(msg).leaves, msg.leaves);
}

TEST(PastryMessagesTest, RepairMessagesRoundTrip) {
  RepairRequestMsg req;
  req.sender = RandomDesc();
  req.row = 5;
  req.col = 12;
  RepairRequestMsg req_out = RoundTrip(req);
  EXPECT_EQ(req_out.row, 5);
  EXPECT_EQ(req_out.col, 12);

  RepairReplyMsg with_entry;
  with_entry.sender = RandomDesc();
  with_entry.row = 1;
  with_entry.col = 2;
  with_entry.entry = RandomDesc();
  RepairReplyMsg out = RoundTrip(with_entry);
  ASSERT_TRUE(out.entry.has_value());
  EXPECT_EQ(out.entry, with_entry.entry);

  RepairReplyMsg without_entry;
  without_entry.sender = RandomDesc();
  EXPECT_FALSE(RoundTrip(without_entry).entry.has_value());
}

TEST(PastryMessagesTest, AppDirectRoundTrip) {
  const Bytes payload = TestRng()->RandomBytes(200);
  AppDirectMsg msg;
  msg.source = RandomDesc();
  msg.app_type = 119;
  msg.payload = payload;
  // The decoded payload is a view into the wire, so the wire outlives it.
  Bytes wire = EncodeMessage(msg);
  Reader r(ByteSpan(wire.data(), wire.size()));
  PastryMsgType type;
  ASSERT_TRUE(DecodeHeader(&r, &type));
  AppDirectMsg out;
  ASSERT_TRUE(DecodeBodyStrict(&r, &out));
  EXPECT_EQ(out.source, msg.source);
  EXPECT_EQ(out.app_type, msg.app_type);
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()), payload);
  EXPECT_EQ(out.payload.data(), wire.data() + wire.size() - payload.size());
  CheckTruncationRejected(msg);
}

TEST(PastryMessagesTest, HeaderRejectsBadVersionAndType) {
  Writer w;
  w.U8(99);  // wrong version
  w.U8(1);
  Reader r1(ByteSpan(w.bytes().data(), w.bytes().size()));
  PastryMsgType type;
  EXPECT_FALSE(DecodeHeader(&r1, &type));

  Writer w2;
  w2.U8(kPastryWireVersion);
  w2.U8(0);  // invalid type
  Reader r2(ByteSpan(w2.bytes().data(), w2.bytes().size()));
  EXPECT_FALSE(DecodeHeader(&r2, &type));

  Writer w3;
  w3.U8(kPastryWireVersion);
  w3.U8(200);  // out of range
  Reader r3(ByteSpan(w3.bytes().data(), w3.bytes().size()));
  EXPECT_FALSE(DecodeHeader(&r3, &type));

  Writer w4;
  w4.U8(kPastryWireVersion);
  w4.U8(9);  // the retired keep-alive ack
  Reader r4(ByteSpan(w4.bytes().data(), w4.bytes().size()));
  EXPECT_FALSE(DecodeHeader(&r4, &type));
}

TEST(PastryMessagesTest, TrailingGarbageRejected) {
  KeepAliveMsg msg;
  msg.sender = RandomDesc();
  Bytes wire = EncodeMessage(msg);
  wire.push_back(0xee);
  Reader r(ByteSpan(wire.data(), wire.size()));
  PastryMsgType type;
  ASSERT_TRUE(DecodeHeader(&r, &type));
  KeepAliveMsg out;
  EXPECT_FALSE(DecodeBodyStrict(&r, &out));
}

TEST(PastryMessagesTest, DescriptorListRejectsLyingCount) {
  Writer w;
  w.U32(1000000);  // claims a million descriptors
  w.U32(0);
  Reader r(ByteSpan(w.bytes().data(), w.bytes().size()));
  std::vector<NodeDescriptor> list;
  EXPECT_FALSE(Read(&r, &list));
}

TEST(PastryMessagesTest, FuzzRandomBytesNeverCrash) {
  // Random bodies behind every listed type, through the receive path's
  // header check and visitor: decoding must never crash.
  Rng rng(31337);
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes body = rng.RandomBytes(rng.UniformU64(128));
    for (PastryMsgType code : PastryMessages::kCodes) {
      Bytes wire = {kPastryWireVersion, static_cast<uint8_t>(code)};
      wire.insert(wire.end(), body.begin(), body.end());
      Reader r(ByteSpan(wire.data(), wire.size()));
      PastryMsgType type;
      ASSERT_TRUE(DecodeHeader(&r, &type));
      EXPECT_TRUE(PastryMessages::Visit(type, &r, [](auto&&) {}));
    }
  }
}

}  // namespace
}  // namespace past
