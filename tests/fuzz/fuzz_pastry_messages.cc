// Fuzz driver for the Pastry wire codec (src/pastry/messages.h).
//
// Feeds arbitrary bytes through DecodeHeader + the per-type DecodeBodyStrict
// dispatch — exactly the path a node runs on every received packet. Decoding
// must never crash, and any accepted message must re-encode deterministically:
// decode -> EncodeMessage -> decode -> EncodeMessage is byte-stable.
#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/serializer.h"
#include "src/pastry/messages.h"
#include "src/pastry/node_id.h"
#include "tests/fuzz/fuzz_util.h"

namespace {

using namespace past;  // NOLINT

NodeDescriptor SomeDescriptor(uint64_t tag) {
  NodeDescriptor d;
  d.id = U128(tag, ~tag);
  d.addr = static_cast<NodeAddr>(tag & 0xffff);
  return d;
}

// Decode the body as message type M; if accepted, require re-encode
// idempotence. (Re-encode may legitimately differ from the raw input — e.g.
// a bool decoded from byte 2 re-encodes as 1 — but a second decode/encode
// cycle must reproduce the first re-encoding exactly.)
template <typename M>
void CheckBody(Reader* r) {
  M msg;
  if (!DecodeBodyStrict(r, &msg)) {
    return;
  }
  Bytes once = EncodeMessage(msg);
  Reader r2(ByteSpan(once.data(), once.size()));
  PastryMsgType type2;
  FUZZ_ASSERT(DecodeHeader(&r2, &type2), "re-encoded header must decode");
  FUZZ_ASSERT(type2 == M::kType, "re-encoded type must match");
  M msg2;
  FUZZ_ASSERT(DecodeBodyStrict(&r2, &msg2), "re-encoded body must decode");
  Bytes twice = EncodeMessage(msg2);
  FUZZ_ASSERT(once == twice, "encode must be idempotent after one round trip");
}

void TestOneInput(ByteSpan data) {
  Reader r(data);
  PastryMsgType type;
  if (!DecodeHeader(&r, &type)) {
    return;
  }
  switch (type) {
    case PastryMsgType::kRoute:
      CheckBody<RouteMsg>(&r);
      break;
    case PastryMsgType::kRouteAck:
      CheckBody<RouteAckMsg>(&r);
      break;
    case PastryMsgType::kJoinRequest:
      CheckBody<JoinRequestMsg>(&r);
      break;
    case PastryMsgType::kJoinRows:
      CheckBody<JoinRowsMsg>(&r);
      break;
    case PastryMsgType::kJoinLeafSet:
      CheckBody<JoinLeafSetMsg>(&r);
      break;
    case PastryMsgType::kJoinNeighborhood:
      CheckBody<JoinNeighborhoodMsg>(&r);
      break;
    case PastryMsgType::kAnnounceArrival:
      CheckBody<AnnounceArrivalMsg>(&r);
      break;
    case PastryMsgType::kKeepAlive:
      CheckBody<KeepAliveMsg>(&r);
      break;
    case PastryMsgType::kLeafSetRequest:
      CheckBody<LeafSetRequestMsg>(&r);
      break;
    case PastryMsgType::kLeafSetReply:
      CheckBody<LeafSetReplyMsg>(&r);
      break;
    case PastryMsgType::kRepairRequest:
      CheckBody<RepairRequestMsg>(&r);
      break;
    case PastryMsgType::kRepairReply:
      CheckBody<RepairReplyMsg>(&r);
      break;
    case PastryMsgType::kAppDirect:
      CheckBody<AppDirectMsg>(&r);
      break;
    case PastryMsgType::kFailureNotice:
      CheckBody<FailureNoticeMsg>(&r);
      break;
    default:
      break;  // unknown type: header decoded, no body to try
  }
}

std::vector<Bytes> SeedInputs() {
  std::vector<Bytes> seeds;

  RouteMsg route;
  route.key = U128(0x1234, 0x5678);
  route.source = SomeDescriptor(1);
  route.app_type = 7;
  route.seq = 42;
  route.hops = 3;
  route.replica_k = 5;
  route.distance = 123.5;
  route.path = {1, 2, 3};
  route.trace = {{1, RouteRule::kLeafSet, 10.0},
                 {2, RouteRule::kRoutingTable, 20.0},
                 {3, RouteRule::kReplicaShortcut, 30.0}};
  route.payload = {0xde, 0xad, 0xbe, 0xef};
  seeds.push_back(EncodeMessage(route));

  RouteAckMsg ack;
  ack.seq = 42;
  seeds.push_back(EncodeMessage(ack));

  JoinRequestMsg join;
  join.joiner = SomeDescriptor(2);
  join.hops = 1;
  join.seq = 9;
  seeds.push_back(EncodeMessage(join));

  JoinRowsMsg rows;
  rows.sender = SomeDescriptor(3);
  rows.row_indices = {0, 4};
  rows.rows = {{SomeDescriptor(4), SomeDescriptor(5)}, {SomeDescriptor(6)}};
  seeds.push_back(EncodeMessage(rows));

  JoinLeafSetMsg leaf;
  leaf.sender = SomeDescriptor(7);
  leaf.leaves = {SomeDescriptor(8), SomeDescriptor(9)};
  leaf.seq = 9;
  seeds.push_back(EncodeMessage(leaf));

  JoinNeighborhoodMsg hood;
  hood.sender = SomeDescriptor(10);
  hood.neighbors = {SomeDescriptor(11)};
  seeds.push_back(EncodeMessage(hood));

  AnnounceArrivalMsg announce;
  announce.joiner = SomeDescriptor(12);
  seeds.push_back(EncodeMessage(announce));

  KeepAliveMsg keep;
  keep.sender = SomeDescriptor(13);
  seeds.push_back(EncodeMessage(keep));

  FailureNoticeMsg notice;
  notice.sender = SomeDescriptor(14);
  notice.failed = SomeDescriptor(24);
  seeds.push_back(EncodeMessage(notice));

  LeafSetRequestMsg ls_req;
  ls_req.sender = SomeDescriptor(15);
  seeds.push_back(EncodeMessage(ls_req));

  LeafSetReplyMsg ls_rep;
  ls_rep.sender = SomeDescriptor(16);
  ls_rep.leaves = {SomeDescriptor(17), SomeDescriptor(18), SomeDescriptor(19)};
  seeds.push_back(EncodeMessage(ls_rep));

  RepairRequestMsg rep_req;
  rep_req.sender = SomeDescriptor(20);
  rep_req.row = 2;
  rep_req.col = 11;
  seeds.push_back(EncodeMessage(rep_req));

  RepairReplyMsg rep_rep;
  rep_rep.sender = SomeDescriptor(21);
  rep_rep.row = 2;
  rep_rep.col = 11;
  rep_rep.has_entry = true;
  rep_rep.entry = SomeDescriptor(22);
  seeds.push_back(EncodeMessage(rep_rep));

  AppDirectMsg direct;
  direct.source = SomeDescriptor(23);
  direct.app_type = 110;
  direct.payload = {1, 2, 3, 4, 5};
  seeds.push_back(EncodeMessage(direct));

  return seeds;
}

}  // namespace

PAST_FUZZ_MAIN(TestOneInput, SeedInputs)
