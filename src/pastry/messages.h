// Wire messages of the Pastry protocol.
//
// Every message that crosses the simulated network is encoded to bytes and
// decoded on receipt, so the protocol cannot accidentally rely on shared
// memory. Each struct names its wire type (kType) and lists its wire fields
// (Fields) once; the field codec in src/common/serializer.h encodes and
// decodes the body from that list, EncodeMessage() adds a (version, type)
// header and DecodeHeader() strips it. PastryMessages lists every message:
// DecodeHeader admits only their types, and its Visit decodes a body as the
// message its type names.
#pragma once

#include <optional>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/common/serializer.h"
#include "src/obs/route_trace.h"
#include "src/pastry/node_id.h"

namespace past {

constexpr uint8_t kPastryWireVersion = 1;

enum class PastryMsgType : uint8_t {
  kRoute = 1,
  kRouteAck = 2,
  kJoinRequest = 3,
  kJoinRows = 4,
  kJoinLeafSet = 5,
  kJoinNeighborhood = 6,
  kAnnounceArrival = 7,
  kKeepAlive = 8,
  // 9 is the retired keep-alive ack: no message has it, so DecodeHeader
  // rejects it and an ack from an old peer is never read as another type.
  kLeafSetRequest = 10,
  kLeafSetReply = 11,
  kRepairRequest = 12,
  kRepairReply = 13,
  kAppDirect = 14,
  kFailureNotice = 15,
};

// --- messages ---------------------------------------------------------------

// An application message being routed toward the live node with nodeId
// closest to `key`. Its trace is the route taken so far, which the
// experiments read at delivery.
struct RouteMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kRoute;

  U128 key;
  NodeDescriptor source;
  uint32_t app_type = 0;
  uint64_t seq = 0;          // unique per (source, message) for ack matching
  // Span id of the client operation that issued this route (0 = untraced).
  // Carried across the overlay so per-hop spans recorded at intermediate
  // nodes parent onto the originating insert/lookup/reclaim span.
  uint64_t parent_span = 0;
  // When > 0, the message may be delivered at ANY of the replica_k nodes
  // ring-closest to the key (a PAST lookup is satisfiable at any replica
  // holder); the final hop then prefers the proximally closest of them,
  // which is how lookups tend to reach the replica nearest the client.
  uint8_t replica_k = 0;
  // The route: one record per overlay hop taken, appended by the forwarding
  // node (decider address, routing rule used, proximity distance of the
  // hop, time). Its size is the hop count; trace[0].node is the source.
  std::vector<RouteHop> trace;
  Bytes payload;

  static auto Fields(auto& m) {
    return std::tie(m.key, m.source, m.app_type, m.seq, m.parent_span, m.replica_k,
                    m.trace, m.payload);
  }
};

// Per-hop acknowledgment for failure detection on the routing path.
struct RouteAckMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kRouteAck;

  uint64_t seq = 0;

  static auto Fields(auto& m) { return std::tie(m.seq); }
};

// Routed toward the joiner's own id. Every node on the path contributes
// routing-table rows to the joiner; the final node hands over its leaf set.
struct JoinRequestMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kJoinRequest;

  NodeDescriptor joiner;
  uint16_t hops = 0;
  uint64_t seq = 0;

  static auto Fields(auto& m) { return std::tie(m.joiner, m.hops, m.seq); }
};

// One routing-table row: its index and its live entries.
struct JoinRow {
  uint16_t row = 0;
  std::vector<NodeDescriptor> entries;

  bool operator==(const JoinRow& other) const = default;
  static auto Fields(auto& r) { return std::tie(r.row, r.entries); }
};

// Routing-table rows for a joiner, sent by a node on the join path.
struct JoinRowsMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kJoinRows;

  NodeDescriptor sender;
  std::vector<JoinRow> rows;

  static auto Fields(auto& m) { return std::tie(m.sender, m.rows); }
};

// Leaf set handed to the joiner by the numerically closest existing node.
struct JoinLeafSetMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kJoinLeafSet;

  NodeDescriptor sender;
  std::vector<NodeDescriptor> leaves;
  uint64_t seq = 0;  // echoes JoinRequestMsg::seq

  static auto Fields(auto& m) { return std::tie(m.sender, m.leaves, m.seq); }
};

// Neighborhood set handed to the joiner by its bootstrap node.
struct JoinNeighborhoodMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kJoinNeighborhood;

  NodeDescriptor sender;
  std::vector<NodeDescriptor> neighbors;

  static auto Fields(auto& m) { return std::tie(m.sender, m.neighbors); }
};

// Sent by a newly joined node to everyone in its state so they can fold the
// arrival into their own tables.
struct AnnounceArrivalMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kAnnounceArrival;

  NodeDescriptor joiner;

  static auto Fields(auto& m) { return std::tie(m.joiner); }
};

// Un-acked heartbeat, sent once per period to the sender's nearest smaller
// leaf member, which watches it. A receiver whose nearest larger member is
// someone else answers with a LeafSetReplyMsg: the sender misses nodes
// between the two.
struct KeepAliveMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kKeepAlive;

  NodeDescriptor sender;

  static auto Fields(auto& m) { return std::tie(m.sender); }
};

// `sender` declared `failed` dead. The watcher of `failed` sends it to its
// whole leaf set and to `failed` itself (which, if alive, re-announces
// itself); a holder past `failed` relays it to the holders beyond the
// watcher's reach. A hearsay notice goes to one node whose LeafSetReply
// still listed `failed` after the sender declared it dead: the receiver
// drops `failed` only if its own probe goes unanswered.
struct FailureNoticeMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kFailureNotice;

  NodeDescriptor sender;
  NodeDescriptor failed;
  bool hearsay = false;

  static auto Fields(auto& m) { return std::tie(m.sender, m.failed, m.hearsay); }
};

// Asks a leaf member for its leaf set: repair after a failure, and the probe
// of a member learned second-hand. The receiver also learns the sender.
struct LeafSetRequestMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kLeafSetRequest;

  NodeDescriptor sender;

  static auto Fields(auto& m) { return std::tie(m.sender); }
};

struct LeafSetReplyMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kLeafSetReply;

  NodeDescriptor sender;
  std::vector<NodeDescriptor> leaves;

  static auto Fields(auto& m) { return std::tie(m.sender, m.leaves); }
};

// Lazy routing-table repair: ask a row peer for its entry at (row, col).
struct RepairRequestMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kRepairRequest;

  NodeDescriptor sender;
  uint16_t row = 0;
  uint16_t col = 0;

  static auto Fields(auto& m) { return std::tie(m.sender, m.row, m.col); }
};

struct RepairReplyMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kRepairReply;

  NodeDescriptor sender;
  uint16_t row = 0;
  uint16_t col = 0;
  std::optional<NodeDescriptor> entry;  // none when the slot is empty

  static auto Fields(auto& m) { return std::tie(m.sender, m.row, m.col, m.entry); }
};

// A point-to-point application message (not routed by key): PAST uses these
// for replica pushes, receipts, fetches and audits. `Payload` is how the
// payload is held, never as a copy: a view (AppDirectMsg) into the sender's
// buffer while the message is encoded, or into the received wire while it is
// handled; or a Nested record, which the encoder writes straight into the
// wire (PastryNode::EncodeDirect). Both encode to the same bytes.
template <typename Payload>
struct AppDirect {
  static constexpr PastryMsgType kType = PastryMsgType::kAppDirect;

  NodeDescriptor source;
  uint32_t app_type = 0;
  Payload payload;

  static auto Fields(auto& m) { return std::tie(m.source, m.app_type, m.payload); }
};
using AppDirectMsg = AppDirect<ByteSpan>;

template <typename M>
using PastryMsgCode = std::integral_constant<PastryMsgType, M::kType>;

// Every Pastry message, each under its kType.
using PastryMessages =
    RecordList<PastryMsgCode, RouteMsg, RouteAckMsg, JoinRequestMsg, JoinRowsMsg, JoinLeafSetMsg,
               JoinNeighborhoodMsg, AnnounceArrivalMsg, KeepAliveMsg, LeafSetRequestMsg,
               LeafSetReplyMsg, RepairRequestMsg, RepairReplyMsg, AppDirectMsg, FailureNoticeMsg>;

// --- envelope ---------------------------------------------------------------

// The whole wire, allocated once at its exact size.
template <typename M>
Bytes EncodeMessage(const M& msg) {
  Writer w;
  w.Reserve(2 + WireSize(msg));
  w.U8(kPastryWireVersion);
  w.U8(static_cast<uint8_t>(M::kType));
  Write(&w, msg);
  return w.Take();
}

// Reads the header; on success `*type` is a listed message type and `r` is
// positioned at the body.
[[nodiscard]] bool DecodeHeader(Reader* r, PastryMsgType* type);

// Decodes a full body and requires the buffer to be fully consumed.
template <typename M>
[[nodiscard]] bool DecodeBodyStrict(Reader* r, M* msg) {
  return Read(r, msg) && r->AtEnd();
}

}  // namespace past

