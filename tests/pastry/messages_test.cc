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
  msg.hops = 3;
  msg.distance = 42.5;
  msg.path = {1, 2, 3};
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
  EXPECT_EQ(out.hops, msg.hops);
  EXPECT_DOUBLE_EQ(out.distance, msg.distance);
  EXPECT_EQ(out.path, msg.path);
  EXPECT_EQ(out.trace, msg.trace);
  EXPECT_EQ(out.payload, msg.payload);
  CheckTruncationRejected(msg);
}

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
  msg.row_indices = {0, 3, 7};
  msg.rows.resize(3);
  for (auto& row : msg.rows) {
    for (int i = 0; i < 5; ++i) {
      row.push_back(RandomDesc());
    }
  }
  JoinRowsMsg out = RoundTrip(msg);
  EXPECT_EQ(out.sender, msg.sender);
  EXPECT_EQ(out.row_indices, msg.row_indices);
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
  CheckTruncationRejected(msg);
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
  with_entry.has_entry = true;
  with_entry.entry = RandomDesc();
  RepairReplyMsg out = RoundTrip(with_entry);
  EXPECT_TRUE(out.has_entry);
  EXPECT_EQ(out.entry, with_entry.entry);

  RepairReplyMsg without_entry;
  without_entry.sender = RandomDesc();
  without_entry.has_entry = false;
  EXPECT_FALSE(RoundTrip(without_entry).has_entry);
}

TEST(PastryMessagesTest, AppDirectRoundTrip) {
  AppDirectMsg msg;
  msg.source = RandomDesc();
  msg.app_type = 119;
  msg.payload = TestRng()->RandomBytes(200);
  AppDirectMsg out = RoundTrip(msg);
  EXPECT_EQ(out.source, msg.source);
  EXPECT_EQ(out.app_type, msg.app_type);
  EXPECT_EQ(out.payload, msg.payload);
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
  EXPECT_FALSE(DecodeDescriptorList(&r, &list));
}

TEST(PastryMessagesTest, FuzzRandomBytesNeverCrash) {
  Rng rng(31337);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes wire = rng.RandomBytes(rng.UniformU64(128));
    Reader r(ByteSpan(wire.data(), wire.size()));
    PastryMsgType type;
    if (!DecodeHeader(&r, &type)) {
      continue;
    }
    // Attempt decode as the named type; must never crash.
    switch (type) {
      case PastryMsgType::kRoute: {
        RouteMsg m;
        (void)DecodeBodyStrict(&r, &m);
        break;
      }
      case PastryMsgType::kJoinRows: {
        JoinRowsMsg m;
        (void)DecodeBodyStrict(&r, &m);
        break;
      }
      default: {
        AppDirectMsg m;
        (void)DecodeBodyStrict(&r, &m);
        break;
      }
    }
  }
}

}  // namespace
}  // namespace past
