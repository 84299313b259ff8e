// Golden encodings of every wire record: each Pastry message (header
// included), each PAST payload, and each certificate's wire form and signed
// bytes, built from fixed field values and compared byte for byte with the
// hex below. Round-trip tests cannot see a field order changed the same way
// in an encoder and its decoder; these bytes can. Keys and signatures are
// fixed bytes: encoding verifies nothing.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/crypto/bignum.h"
#include "src/pastry/messages.h"
#include "src/storage/certificates.h"
#include "src/storage/messages.h"

namespace past {
namespace {

using Encodings = std::vector<std::pair<std::string, Bytes>>;

NodeDescriptor Desc(uint64_t tag) {
  return NodeDescriptor{U128(0x0100000000000000ULL | tag, 0x0200000000000000ULL | tag),
                        static_cast<NodeAddr>(0x300 + tag)};
}

// Twenty consecutive bytes from `first`.
FileId Fid(uint8_t first) {
  Bytes raw(U160::kBytes);
  for (size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<uint8_t>(first + i);
  }
  return U160::FromBytes(raw);
}

CardIdentity Card(uint8_t tag) {
  CardIdentity card;
  card.public_key.n = BigNum::FromBytes(Bytes{0xc1, tag, 0x01});
  card.public_key.e = BigNum::FromU64(3);
  card.broker_signature = {0xb0, tag};
  return card;
}

FileCertificate Cert() {
  FileCertificate cert;
  cert.file_id = Fid(0x10);
  cert.content_hash = {0xc0, 0xc1, 0xc2, 0xc3};
  cert.file_size = 0x0102030405ULL;
  cert.replication_factor = 3;
  cert.salt = 0x5a5b5c5d5e5f6061ULL;
  cert.insertion_date = -2;
  cert.owner = Card(1);
  cert.signature = {0x51, 0x52, 0x53};
  return cert;
}

StoreReceipt Receipt() {
  StoreReceipt receipt;
  receipt.file_id = Fid(0x30);
  receipt.node_card = Card(2);
  receipt.timestamp = 0x1234;
  receipt.diverted = true;
  receipt.signature = {0x61, 0x62};
  return receipt;
}

ReclaimCertificate ReclaimCert() {
  ReclaimCertificate cert;
  cert.file_id = Fid(0x50);
  cert.owner = Card(3);
  cert.date = 0x777;
  cert.signature = {0x71};
  return cert;
}

ReclaimReceipt ReclaimRcpt() {
  ReclaimReceipt receipt;
  receipt.file_id = Fid(0x70);
  receipt.bytes_reclaimed = 0x4000;
  receipt.node_card = Card(4);
  receipt.timestamp = 0x999;
  receipt.signature = {0x81, 0x82};
  return receipt;
}

template <typename R>
Bytes EncodeToBytes(const R& record) {
  Writer w;
  record.EncodeTo(&w);
  return w.Take();
}

void ExpectGolden(const Encodings& got,
                  const std::vector<std::pair<std::string, std::string>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(HexEncode(got[i].second), want[i].second) << got[i].first;
  }
}

// Calls add(name, message) for every Pastry message, built from fixed field
// values (RepairReplyMsg twice: without and with an entry).
template <typename Add>
void ForEachPastryMessage(Add&& add) {
  const Bytes payload = {0xd0, 0xd1, 0xd2};

  RouteMsg route;
  route.key = U128(0x1111111111111111ULL, 0x2222222222222222ULL);
  route.source = Desc(1);
  route.app_type = 0x64;
  route.seq = 0x0a0b0c0d;
  route.parent_span = 0x0e0f;
  route.replica_k = 5;
  route.trace = {RouteHop{0x41, RouteRule::kRoutingTable, 12.5, 1000},
                 RouteHop{0x42, RouteRule::kReplicaShortcut, 0.25, -7}};
  route.payload = payload;
  add("RouteMsg", route);

  RouteAckMsg ack;
  ack.seq = 0x0102030405060708ULL;
  add("RouteAckMsg", ack);

  JoinRequestMsg join;
  join.joiner = Desc(2);
  join.hops = 3;
  join.seq = 0x99;
  add("JoinRequestMsg", join);

  JoinRowsMsg rows;
  rows.sender = Desc(3);
  rows.rows = {{0, {Desc(4), Desc(5)}}, {4, {Desc(6)}}};
  add("JoinRowsMsg", rows);

  JoinLeafSetMsg leaf;
  leaf.sender = Desc(7);
  leaf.leaves = {Desc(8), Desc(9)};
  leaf.seq = 0x77;
  add("JoinLeafSetMsg", leaf);

  JoinNeighborhoodMsg hood;
  hood.sender = Desc(10);
  hood.neighbors = {Desc(11)};
  add("JoinNeighborhoodMsg", hood);

  AnnounceArrivalMsg announce;
  announce.joiner = Desc(12);
  add("AnnounceArrivalMsg", announce);

  KeepAliveMsg keep;
  keep.sender = Desc(13);
  add("KeepAliveMsg", keep);

  LeafSetRequestMsg ls_req;
  ls_req.sender = Desc(14);
  add("LeafSetRequestMsg", ls_req);

  LeafSetReplyMsg ls_rep;
  ls_rep.sender = Desc(15);
  ls_rep.leaves = {Desc(16), Desc(17)};
  add("LeafSetReplyMsg", ls_rep);

  RepairRequestMsg rep_req;
  rep_req.sender = Desc(18);
  rep_req.row = 2;
  rep_req.col = 11;
  add("RepairRequestMsg", rep_req);

  RepairReplyMsg rep_none;
  rep_none.sender = Desc(19);
  rep_none.row = 3;
  rep_none.col = 12;
  add("RepairReplyMsg/empty", rep_none);

  RepairReplyMsg rep_entry;
  rep_entry.sender = Desc(20);
  rep_entry.row = 4;
  rep_entry.col = 13;
  rep_entry.entry = Desc(21);
  add("RepairReplyMsg/entry", rep_entry);

  AppDirectMsg direct;
  direct.source = Desc(22);
  direct.app_type = 0x6e;
  direct.payload = payload;
  add("AppDirectMsg", direct);

  FailureNoticeMsg notice;
  notice.sender = Desc(23);
  notice.failed = Desc(24);
  notice.hearsay = true;
  add("FailureNoticeMsg", notice);
}

TEST(WireGoldenTest, PastryMessagesKeepTheirBytes) {
  Encodings got;
  ForEachPastryMessage(
      [&](const char* name, const auto& msg) { got.emplace_back(name, EncodeMessage(msg)); });

  ExpectGolden(got, {
      {"RouteMsg",
       "0101111111111111111122222222222222220100000000000001020000000000"
       "000101030000640000000d0c0b0a000000000f0e000000000000050200000041"
       "000000010000000000002940e8030000000000004200000003000000000000d0"
       "3ff9ffffffffffffff03000000d0d1d2"},
      {"RouteAckMsg", "01020807060504030201"},
      {"JoinRequestMsg",
       "0103010000000000000202000000000000020203000003009900000000000000"},
      {"JoinRowsMsg",
       "0104010000000000000302000000000000030303000002000000000002000000"
       "0100000000000004020000000000000404030000010000000000000502000000"
       "0000000505030000040001000000010000000000000602000000000000060603"
       "0000"},
      {"JoinLeafSetMsg",
       "0105010000000000000702000000000000070703000002000000010000000000"
       "0008020000000000000808030000010000000000000902000000000000090903"
       "00007700000000000000"},
      {"JoinNeighborhoodMsg",
       "0106010000000000000a020000000000000a0a03000001000000010000000000"
       "000b020000000000000b0b030000"},
      {"AnnounceArrivalMsg", "0107010000000000000c020000000000000c0c030000"},
      {"KeepAliveMsg", "0108010000000000000d020000000000000d0d030000"},
      {"LeafSetRequestMsg", "010a010000000000000e020000000000000e0e030000"},
      {"LeafSetReplyMsg",
       "010b010000000000000f020000000000000f0f03000002000000010000000000"
       "0010020000000000001010030000010000000000001102000000000000111103"
       "0000"},
      {"RepairRequestMsg", "010c010000000000001202000000000000121203000002000b00"},
      {"RepairReplyMsg/empty", "010d010000000000001302000000000000131303000003000c0000"},
      {"RepairReplyMsg/entry",
       "010d010000000000001402000000000000141403000004000d00010100000000"
       "000015020000000000001515030000"},
      {"AppDirectMsg",
       "010e01000000000000160200000000000016160300006e00000003000000d0d1"
       "d2"},
      {"FailureNoticeMsg",
       "010f010000000000001702000000000000171703000001000000000000180200"
       "0000000000181803000001"},
  });
}

// Calls add(name, payload) for every PAST payload, built from fixed field
// values.
template <typename Add>
void ForEachPastPayload(Add&& add) {
  const Bytes content = {0xe0, 0xe1, 0xe2};

  InsertRequestPayload insert;
  insert.cert = Cert();
  insert.content = content;
  insert.client = Desc(31);
  add("InsertRequestPayload", insert);

  StoreReplicaPayload store;
  store.cert = Cert();
  store.content = content;
  store.client = Desc(32);
  store.divert_allowed = false;
  add("StoreReplicaPayload", store);

  DivertStorePayload divert;
  divert.cert = Cert();
  divert.content = content;
  divert.client = Desc(33);
  divert.primary = Desc(34);
  add("DivertStorePayload", divert);

  DivertResultPayload result;
  result.file_id = Fid(0x90);
  result.accepted = true;
  result.client = Desc(35);
  add("DivertResultPayload", result);

  StoreReceiptPayload receipt;
  receipt.receipt = Receipt();
  add("StoreReceiptPayload", receipt);

  StoreNackPayload nack;
  nack.file_id = Fid(0x91);
  nack.reason = 0x0c;
  add("StoreNackPayload", nack);

  LookupRequestPayload lookup;
  lookup.file_id = Fid(0x92);
  lookup.client = Desc(36);
  add("LookupRequestPayload", lookup);

  LookupReplyPayload reply;
  reply.cert = Cert();
  reply.content = content;
  reply.from_cache = true;
  reply.replier = Desc(37);
  add("LookupReplyPayload", reply);

  FetchRequestPayload fetch;
  fetch.file_id = Fid(0x93);
  fetch.client = Desc(38);
  fetch.for_lookup = true;
  add("FetchRequestPayload", fetch);

  FetchReplyPayload fetched;
  fetched.found = true;
  fetched.cert = Cert();
  fetched.content = content;
  add("FetchReplyPayload", fetched);

  ReclaimRequestPayload reclaim;
  reclaim.cert = ReclaimCert();
  reclaim.client = Desc(39);
  add("ReclaimRequestPayload", reclaim);

  ReclaimReplicaPayload reclaim_replica;
  reclaim_replica.cert = ReclaimCert();
  reclaim_replica.client = Desc(39);
  add("ReclaimReplicaPayload", reclaim_replica);

  ReclaimReceiptPayload reclaimed;
  reclaimed.receipt = ReclaimRcpt();
  add("ReclaimReceiptPayload", reclaimed);

  CachePushPayload push;
  push.cert = Cert();
  push.content = content;
  add("CachePushPayload", push);

  ReplicaNotifyPayload notify;
  notify.offers = {{Fid(0x94), 0x123456789aULL}};
  add("ReplicaNotifyPayload", notify);

  AuditChallengePayload challenge;
  challenge.file_id = Fid(0x95);
  challenge.nonce = 0xfedcba9876543210ULL;
  add("AuditChallengePayload", challenge);

  AuditResponsePayload audit;
  audit.file_id = Fid(0x96);
  audit.nonce = 0x0123456789abcdefULL;
  audit.has_file = true;
  audit.digest = {0xf0, 0xf1};
  add("AuditResponsePayload", audit);
}

TEST(WireGoldenTest, PastPayloadsKeepTheirBytes) {
  Encodings got;
  ForEachPastPayload(
      [&](const char* name, const auto& payload) { got.emplace_back(name, payload.Encode()); });

  ExpectGolden(got, {
      {"InsertRequestPayload",
       "101112131415161718191a1b1c1d1e1f2021222304000000c0c1c2c305040302"
       "010000000300000061605f5e5d5c5b5afeffffffffffffff0c00000003000000"
       "c10101010000000302000000b0010300000051525303000000e0e1e201000000"
       "0000001f020000000000001f1f030000"},
      {"StoreReplicaPayload",
       "101112131415161718191a1b1c1d1e1f2021222304000000c0c1c2c305040302"
       "010000000300000061605f5e5d5c5b5afeffffffffffffff0c00000003000000"
       "c10101010000000302000000b0010300000051525303000000e0e1e201000000"
       "0000002002000000000000202003000000"},
      {"DivertStorePayload",
       "101112131415161718191a1b1c1d1e1f2021222304000000c0c1c2c305040302"
       "010000000300000061605f5e5d5c5b5afeffffffffffffff0c00000003000000"
       "c10101010000000302000000b0010300000051525303000000e0e1e201000000"
       "0000002102000000000000212103000001000000000000220200000000000022"
       "22030000"},
      {"DivertResultPayload",
       "909192939495969798999a9b9c9d9e9fa0a1a2a3010100000000000023020000"
       "000000002323030000"},
      {"StoreReceiptPayload",
       "303132333435363738393a3b3c3d3e3f404142430c00000003000000c1020101"
       "0000000302000000b002341200000000000001020000006162"},
      {"StoreNackPayload", "9192939495969798999a9b9c9d9e9fa0a1a2a3a40c"},
      {"LookupRequestPayload",
       "92939495969798999a9b9c9d9e9fa0a1a2a3a4a5010000000000002402000000"
       "0000002424030000"},
      {"LookupReplyPayload",
       "101112131415161718191a1b1c1d1e1f2021222304000000c0c1c2c305040302"
       "010000000300000061605f5e5d5c5b5afeffffffffffffff0c00000003000000"
       "c10101010000000302000000b0010300000051525303000000e0e1e201010000"
       "0000000025020000000000002525030000"},
      {"FetchRequestPayload",
       "939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6010000000000002602000000"
       "000000262603000001"},
      {"FetchReplyPayload",
       "01101112131415161718191a1b1c1d1e1f2021222304000000c0c1c2c3050403"
       "02010000000300000061605f5e5d5c5b5afeffffffffffffff0c000000030000"
       "00c10101010000000302000000b0010300000051525303000000e0e1e2"},
      {"ReclaimRequestPayload",
       "505152535455565758595a5b5c5d5e5f606162630c00000003000000c1030101"
       "0000000302000000b00377070000000000000100000071010000000000002702"
       "0000000000002727030000"},
      {"ReclaimReplicaPayload",
       "505152535455565758595a5b5c5d5e5f606162630c00000003000000c1030101"
       "0000000302000000b00377070000000000000100000071010000000000002702"
       "0000000000002727030000"},
      {"ReclaimReceiptPayload",
       "707172737475767778797a7b7c7d7e7f8081828300400000000000000c000000"
       "03000000c10401010000000302000000b0049909000000000000020000008182"},
      {"CachePushPayload",
       "101112131415161718191a1b1c1d1e1f2021222304000000c0c1c2c305040302"
       "010000000300000061605f5e5d5c5b5afeffffffffffffff0c00000003000000"
       "c10101010000000302000000b0010300000051525303000000e0e1e2"},
      {"ReplicaNotifyPayload",
       "010000009495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a79a78563412000000"},
      {"AuditChallengePayload",
       "95969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a81032547698badcfe"},
      {"AuditResponsePayload",
       "969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9efcdab896745230101020000"
       "00f0f1"},
  });
}

// Each record's bytes, handed to its layer's visitor under the record's own
// code, reach a handler for that same record type, which re-encodes them
// unchanged; every record in the list is reached.
TEST(WireGoldenTest, PastryVisitorHandsEachMessageToItsOwnHandler) {
  std::set<PastryMsgType> reached;
  ForEachPastryMessage([&](const char* name, const auto& msg) {
    using M = std::decay_t<decltype(msg)>;
    const Bytes wire = EncodeMessage(msg);
    Reader r(ByteSpan(wire.data(), wire.size()));
    PastryMsgType type;
    ASSERT_TRUE(DecodeHeader(&r, &type)) << name;
    bool handled = false;
    EXPECT_TRUE(PastryMessages::Visit(type, &r, [&](auto&& got) {
      EXPECT_TRUE((std::is_same_v<std::decay_t<decltype(got)>, M>)) << name;
      EXPECT_EQ(EncodeMessage(got), wire) << name;
      handled = true;
    }));
    EXPECT_TRUE(handled) << name;
    reached.insert(M::kType);
  });
  EXPECT_EQ(reached.size(), PastryMessages::kCodes.size());
}

TEST(WireGoldenTest, PastVisitorHandsEachPayloadToItsOwnHandler) {
  std::set<PastOp> reached;
  ForEachPastPayload([&](const char* name, const auto& payload) {
    using P = std::decay_t<decltype(payload)>;
    const Bytes wire = payload.Encode();
    Reader r(ByteSpan(wire.data(), wire.size()));
    bool handled = false;
    EXPECT_TRUE(PastPayloads::Visit(P::kOp, &r, [&](auto&& got) {
      EXPECT_TRUE((std::is_same_v<std::decay_t<decltype(got)>, P>)) << name;
      EXPECT_EQ(got.Encode(), wire) << name;
      handled = true;
    }));
    EXPECT_TRUE(handled) << name;
    reached.insert(P::kOp);
  });
  EXPECT_EQ(reached.size(), PastPayloads::kCodes.size());
}

TEST(WireGoldenTest, CertificatesKeepTheirBytes) {
  Encodings got;
  got.emplace_back("CardIdentity", EncodeToBytes(Card(5)));
  got.emplace_back("FileCertificate", EncodeToBytes(Cert()));
  got.emplace_back("FileCertificate/signed", Cert().SignedBytes());
  got.emplace_back("StoreReceipt", EncodeToBytes(Receipt()));
  got.emplace_back("StoreReceipt/signed", Receipt().SignedBytes());
  got.emplace_back("ReclaimCertificate", EncodeToBytes(ReclaimCert()));
  got.emplace_back("ReclaimCertificate/signed", ReclaimCert().SignedBytes());
  got.emplace_back("ReclaimReceipt", EncodeToBytes(ReclaimRcpt()));
  got.emplace_back("ReclaimReceipt/signed", ReclaimRcpt().SignedBytes());

  ExpectGolden(got, {
      {"CardIdentity", "0c00000003000000c10501010000000302000000b005"},
      {"FileCertificate",
       "101112131415161718191a1b1c1d1e1f2021222304000000c0c1c2c305040302"
       "010000000300000061605f5e5d5c5b5afeffffffffffffff0c00000003000000"
       "c10101010000000302000000b00103000000515253"},
      {"FileCertificate/signed",
       "101112131415161718191a1b1c1d1e1f2021222304000000c0c1c2c305040302"
       "010000000300000061605f5e5d5c5b5afeffffffffffffff0c00000003000000"
       "c10101010000000302000000b001"},
      {"StoreReceipt",
       "303132333435363738393a3b3c3d3e3f404142430c00000003000000c1020101"
       "0000000302000000b002341200000000000001020000006162"},
      {"StoreReceipt/signed",
       "303132333435363738393a3b3c3d3e3f404142430c00000003000000c1020101"
       "0000000302000000b002341200000000000001"},
      {"ReclaimCertificate",
       "505152535455565758595a5b5c5d5e5f606162630c00000003000000c1030101"
       "0000000302000000b00377070000000000000100000071"},
      {"ReclaimCertificate/signed",
       "505152535455565758595a5b5c5d5e5f606162630c00000003000000c1030101"
       "0000000302000000b0037707000000000000"},
      {"ReclaimReceipt",
       "707172737475767778797a7b7c7d7e7f8081828300400000000000000c000000"
       "03000000c10401010000000302000000b0049909000000000000020000008182"},
      {"ReclaimReceipt/signed",
       "707172737475767778797a7b7c7d7e7f8081828300400000000000000c000000"
       "03000000c10401010000000302000000b0049909000000000000"},
  });
}

}  // namespace
}  // namespace past
