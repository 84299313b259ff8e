// Wire messages of the Pastry protocol.
//
// Every message that crosses the simulated network is encoded to bytes and
// decoded on receipt, so the protocol cannot accidentally rely on shared
// memory. Each struct provides EncodeBody/DecodeBody; EncodeMessage() adds a
// (version, type) header and DecodeHeader() strips it.
#pragma once

#include <optional>
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
  // 9 is the retired keep-alive ack: DecodeHeader rejects it, so an ack from
  // an old peer is never read as another type.
  kLeafSetRequest = 10,
  kLeafSetReply = 11,
  kRepairRequest = 12,
  kRepairReply = 13,
  kAppDirect = 14,
  kFailureNotice = 15,
};

// --- field helpers ---------------------------------------------------------

void EncodeDescriptor(Writer* w, const NodeDescriptor& d);
[[nodiscard]] bool DecodeDescriptor(Reader* r, NodeDescriptor* d);
void EncodeDescriptorList(Writer* w, const std::vector<NodeDescriptor>& list);
[[nodiscard]] bool DecodeDescriptorList(Reader* r, std::vector<NodeDescriptor>* list);

// --- messages ---------------------------------------------------------------

// An application message being routed toward the live node with nodeId
// closest to `key`. Carries bookkeeping the experiments read at delivery:
// hop count, accumulated proximity distance, and the path of addresses.
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
  uint16_t hops = 0;         // overlay hops taken so far
  // When > 0, the message may be delivered at ANY of the replica_k nodes
  // ring-closest to the key (a PAST lookup is satisfiable at any replica
  // holder); the final hop then prefers the proximally closest of them,
  // which is how lookups tend to reach the replica nearest the client.
  uint8_t replica_k = 0;
  double distance = 0.0;     // accumulated proximity distance
  std::vector<NodeAddr> path;  // addresses visited (source first)
  // Route trace: one record per hop taken, appended by the forwarding node
  // (decider address, routing rule used, proximity distance of the hop).
  // Always trace.size() == hops; `seq` doubles as the trace id.
  std::vector<RouteHop> trace;
  Bytes payload;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, RouteMsg* m);
};

// Per-hop acknowledgment for failure detection on the routing path.
struct RouteAckMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kRouteAck;

  uint64_t seq = 0;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, RouteAckMsg* m);
};

// Routed toward the joiner's own id. Every node on the path contributes
// routing-table rows to the joiner; the final node hands over its leaf set.
struct JoinRequestMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kJoinRequest;

  NodeDescriptor joiner;
  uint16_t hops = 0;
  uint64_t seq = 0;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, JoinRequestMsg* m);
};

// Routing-table rows for a joiner, sent by a node on the join path.
struct JoinRowsMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kJoinRows;

  NodeDescriptor sender;
  // Parallel arrays: row index and that row's live entries.
  std::vector<uint16_t> row_indices;
  std::vector<std::vector<NodeDescriptor>> rows;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, JoinRowsMsg* m);
};

// Leaf set handed to the joiner by the numerically closest existing node.
struct JoinLeafSetMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kJoinLeafSet;

  NodeDescriptor sender;
  std::vector<NodeDescriptor> leaves;
  uint64_t seq = 0;  // echoes JoinRequestMsg::seq

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, JoinLeafSetMsg* m);
};

// Neighborhood set handed to the joiner by its bootstrap node.
struct JoinNeighborhoodMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kJoinNeighborhood;

  NodeDescriptor sender;
  std::vector<NodeDescriptor> neighbors;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, JoinNeighborhoodMsg* m);
};

// Sent by a newly joined node to everyone in its state so they can fold the
// arrival into their own tables.
struct AnnounceArrivalMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kAnnounceArrival;

  NodeDescriptor joiner;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, AnnounceArrivalMsg* m);
};

// Un-acked heartbeat to a ring neighbour (also the answer to a failure notice
// naming the receiver). A receiver that finds the sender is not its own ring
// neighbour answers with a LeafSetReplyMsg.
struct KeepAliveMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kKeepAlive;

  NodeDescriptor sender;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, KeepAliveMsg* m);
};

// `sender` declared `failed` dead; sent to every member of the sender's leaf
// set, so nodes that do not heartbeat `failed` drop it too.
struct FailureNoticeMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kFailureNotice;

  NodeDescriptor sender;
  NodeDescriptor failed;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, FailureNoticeMsg* m);
};

// Asks a leaf member for its leaf set: repair after a failure, and the probe
// of a member learned second-hand. The receiver also learns the sender.
struct LeafSetRequestMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kLeafSetRequest;

  NodeDescriptor sender;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, LeafSetRequestMsg* m);
};

struct LeafSetReplyMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kLeafSetReply;

  NodeDescriptor sender;
  std::vector<NodeDescriptor> leaves;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, LeafSetReplyMsg* m);
};

// Lazy routing-table repair: ask a row peer for its entry at (row, col).
struct RepairRequestMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kRepairRequest;

  NodeDescriptor sender;
  uint16_t row = 0;
  uint16_t col = 0;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, RepairRequestMsg* m);
};

struct RepairReplyMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kRepairReply;

  NodeDescriptor sender;
  uint16_t row = 0;
  uint16_t col = 0;
  bool has_entry = false;
  NodeDescriptor entry;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, RepairReplyMsg* m);
};

// A point-to-point application message (not routed by key): PAST uses these
// for replica pushes, receipts, fetches and audits.
struct AppDirectMsg {
  static constexpr PastryMsgType kType = PastryMsgType::kAppDirect;

  NodeDescriptor source;
  uint32_t app_type = 0;
  Bytes payload;

  void EncodeBody(Writer* w) const;
  [[nodiscard]] static bool DecodeBody(Reader* r, AppDirectMsg* m);
};

// Encodes a complete AppDirectMsg (header included) around a payload view,
// without staging the payload through a message struct first. Must stay
// byte-identical to EncodeMessage(AppDirectMsg{...}).
Bytes EncodeAppDirect(const NodeDescriptor& source, uint32_t app_type,
                      ByteSpan payload);

// --- envelope ---------------------------------------------------------------

template <typename M>
Bytes EncodeMessage(const M& msg) {
  Writer w;
  w.U8(kPastryWireVersion);
  w.U8(static_cast<uint8_t>(M::kType));
  msg.EncodeBody(&w);
  return w.Take();
}

// Reads the header; on success `*type` is set and `r` is positioned at the
// body.
[[nodiscard]] bool DecodeHeader(Reader* r, PastryMsgType* type);

// Decodes a full body and requires the buffer to be fully consumed.
template <typename M>
[[nodiscard]] bool DecodeBodyStrict(Reader* r, M* msg) {
  return M::DecodeBody(r, msg) && r->AtEnd();
}

}  // namespace past

