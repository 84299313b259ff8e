// PastryNode — the Pastry protocol engine.
//
// Implements prefix routing, the self-organizing join protocol, one-way
// ring-neighbour heartbeats with suspicion probes, failure notices and
// leaf-set repair, lazy routing-table repair, per-hop acknowledgments for
// dead-hop detection, and optional randomized route selection (the paper's
// defense against malicious forwarders).
//
// Applications (PAST's storage layer, the examples, the experiment drivers)
// attach through the PastryApp interface, mirroring the classic
// deliver/forward/newLeafs API.
#pragma once

#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/common/rng.h"
#include "src/common/shared_bytes.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/route_trace.h"
#include "src/pastry/leaf_set.h"
#include "src/pastry/messages.h"
#include "src/pastry/neighborhood_set.h"
#include "src/pastry/node_id.h"
#include "src/pastry/pastry_context.h"
#include "src/pastry/routing_table.h"

namespace past {

// Context handed to the application when a routed message is delivered at the
// numerically closest node.
struct DeliverContext {
  U128 key;
  uint32_t app_type = 0;
  NodeDescriptor source;
  // The route, one record per overlay hop: trace[i].node chose the next hop
  // (trace[i + 1].node, or `delivered_at` after the last record) by rule
  // trace[i].rule over proximity distance trace[i].distance. The hop count
  // is trace.size(), the distance travelled RouteDistance(trace).
  std::vector<RouteHop> trace;
  NodeAddr delivered_at = kInvalidAddr;  // the delivering node
};

class PastryApp {
 public:
  virtual ~PastryApp() = default;

  // The message reached the node responsible for `key`.
  virtual void Deliver(const DeliverContext& ctx, ByteSpan payload) = 0;

  // Called on each node the message transits, just before forwarding to
  // `next`. The app may mutate the payload. Returning false absorbs the
  // message (PAST answers lookups from caches this way).
  virtual bool Forward(const U128& key, uint32_t app_type, const NodeDescriptor& next,
                       Bytes* payload) {
    (void)key;
    (void)app_type;
    (void)next;
    (void)payload;
    return true;
  }

  // A point-to-point message from another node's app layer.
  virtual void ReceiveDirect(const NodeDescriptor& from, uint32_t app_type,
                             ByteSpan payload) {
    (void)from;
    (void)app_type;
    (void)payload;
  }

  // The leaf set changed (member added/removed) — PAST re-evaluates replica
  // responsibility here.
  virtual void OnLeafSetChanged() {}
};

class PastryNode : public NetReceiver {
 public:
  // A joining node re-sends its join request when the join has not completed
  // this long after the last one (bootstrap died, message lost).
  static constexpr SimTime kJoinRetryTimeout = 5 * kMicrosPerSecond;

  // Registers with the context's transport immediately; the node stays
  // inactive until Bootstrap() or Join() completes. The node is
  // transport-agnostic: the transport may be the deterministic simulator
  // (sim::Network) or a real socket backend (SocketTransport). `context`
  // holds the network's config, descriptor table and instruments, and must
  // outlive the node.
  PastryNode(PastryContext& context, const NodeId& id, uint64_t seed);
  ~PastryNode() override;

  PastryNode(const PastryNode&) = delete;
  PastryNode& operator=(const PastryNode&) = delete;

  // --- lifecycle ------------------------------------------------------------

  // Declares this node the first member of a new overlay.
  void Bootstrap();
  // Joins via an existing (live) node, typically one that is near in the
  // proximity metric.
  void Join(NodeAddr bootstrap);
  // Silent crash: the node stops sending/receiving and loses its timers.
  void Fail();
  // Rejoins after a failure: contacts the nodes of its last known leaf set
  // (paper, Section 2.2 "Node addition and failure"); falls back to
  // `fallback_bootstrap` if none respond to being used as bootstrap.
  void Recover(NodeAddr fallback_bootstrap);

  bool active() const { return active_; }

  // --- global-knowledge construction (Overlay::BuildFast) -------------------
  //
  // At simulation scales where running the join protocol N times is
  // infeasible, the overlay constructs each node's state directly from
  // global knowledge and then activates it. These bypass the wire protocol
  // only — the state they build is exactly what a converged join would have
  // produced.

  // Folds `d` into all three state components (leaf set, routing table,
  // neighborhood set), as if learned from a protocol message.
  void SeedState(const NodeDescriptor& d) { Learn(d); }
  // Offers `d` to the routing table only — the cheap bulk path for
  // BuildFast's digit-subrange sampling.
  void SeedRoutingEntry(const NodeDescriptor& d) { rt_.MaybeAdd(d); }
  // Marks the seeded node live and starts keep-alives. The node must not
  // already be active or joining.
  void ActivateSeeded();

  // --- application ----------------------------------------------------------

  void SetApp(PastryApp* app) { app_ = app; }

  // Routes a message toward the live node numerically closest to `key`.
  // With replica_k > 0 the message may instead be delivered at any of the
  // replica_k nodes ring-closest to the key, preferring proximally close
  // ones — PAST lookups use this, since every replica holder can answer.
  // Returns the message seq (for correlating with delivery in experiments).
  // `parent_span` (a Tracer span id, 0 = untraced) rides the wire so per-hop
  // spans recorded at intermediate nodes parent onto the issuing operation.
  uint64_t Route(const U128& key, uint32_t app_type, Bytes payload,
                 uint8_t replica_k = 0, uint64_t parent_span = 0);

  // Point-to-point application messages: EncodeDirect encodes a payload
  // record straight into one AppDirect wire, the only buffer that holds the
  // payload's bytes, and SendDirectWire sends that wire; a fan-out hands the
  // same wire to each recipient. A send to this node itself travels through
  // the transport loopback (asynchronous).
  template <HasFields Payload>
  SharedBytes EncodeDirect(uint32_t app_type, const Payload& payload) const {
    return SharedBytes(EncodeMessage(
        AppDirect<Nested<Payload>>{descriptor(), app_type, Nested<Payload>{payload}}));
  }
  void SendDirectWire(NodeAddr to, SharedBytes wire);

  // --- introspection ---------------------------------------------------------

  const NodeId& id() const { return id_; }
  NodeAddr addr() const { return addr_; }
  EventQueue* queue() const { return ctx_->queue(); }
  Transport* net() const { return ctx_->net(); }
  NodeDescriptor descriptor() const { return NodeDescriptor{id_, addr_}; }
  const PastryConfig& config() const { return ctx_->config(); }

  const LeafSet& leaf_set() const { return leaf_; }
  const RoutingTable& routing_table() const { return rt_; }
  const NeighborhoodSet& neighborhood_set() const { return nb_; }

  // The k live nodes (including self) believed numerically closest to `key`.
  // Meaningful on the node responsible for `key` — this is PAST's replica
  // set.
  std::vector<NodeDescriptor> ReplicaSet(const U128& key, int k) const {
    return leaf_.ClosestMembers(key, descriptor(), k);
  }
  // ReplicaSet(key, k) when this node provably knows it, wherever `key`
  // lies: both leaf-set sides are full with l distinct members, and neither
  // edge is among the k, so every node outside the leaf set lies beyond an
  // edge and is farther from `key` than that edge. A leaf set with a probe
  // out (LeafSetUnconfirmed) proves nothing. Otherwise nullopt.
  std::optional<std::vector<NodeDescriptor>> KnownReplicaSet(const U128& key, int k) const;
  // True while a leaf member has not answered the probe sent when it was
  // learned second-hand, when a failure was repaired around it or when it
  // was doubted: the view may list a dead node or lack a live one.
  bool LeafSetUnconfirmed() const;

  double ProximityTo(NodeAddr other) const { return net()->Proximity(addr_, other); }

  // Simulates a malicious forwarder: the node accepts routed messages but
  // silently drops them instead of forwarding (Section 2.2 "Fault-
  // tolerance"). Honest per-hop acks are still sent, so upstream nodes do
  // not detect it as dead.
  void SetMalicious(bool malicious) { malicious_ = malicious; }
  bool malicious() const { return malicious_; }

  // Heap footprint of this node's overlay state in bytes: routing table,
  // leaf set, neighborhood set, probe list, quarantine map, in-flight ack
  // bookkeeping. The shared context is not included (it is accounted once
  // per network by Overlay::RecordMemoryMetrics).
  size_t MemoryUsage() const;

  // NetReceiver:
  void OnMessage(NodeAddr from, ByteSpan wire) override;

 private:
  // An in-flight hop awaiting its ack: a routed message or a join request,
  // in its pre-hop state. A next hop that never acks (a dead node, or one
  // not yet rejoined) is declared failed and the message sent on again — for
  // a join too, or a stale table entry would strand it until keep-alive
  // failure detection evicts the entry, which never happens with keep-alives
  // off.
  struct PendingAck {
    std::variant<RouteMsg, JoinRequestMsg> msg;
    NodeDescriptor next;
    EventQueue::EventId timer = 0;
    int attempts = 0;
  };

  // A routing decision: the chosen next hop and the rule that produced it
  // (recorded into the message's route trace and the per-rule counters).
  struct RouteChoice {
    NodeDescriptor next;
    RouteRule rule = RouteRule::kLeafSet;
  };

  // Routing core. Returns the next hop, or nullopt when this node is the
  // closest it knows (deliver here). replica_k as in Route().
  std::optional<RouteChoice> NextHop(const U128& key, uint8_t replica_k);
  std::vector<NodeDescriptor> CandidateHops(const U128& key, int min_prefix,
                                            const U128& self_dist) const;
  // A routed message arriving from the node that forwarded it (`from`).
  void HandleRoute(NodeAddr from, RouteMsg msg);
  void HandleRouteAck(const RouteAckMsg& msg);
  void ProcessRouteMsg(RouteMsg msg, int attempts);
  void ForwardTo(const RouteChoice& choice, RouteMsg msg, int attempts);
  // With per-hop acks on, records the hop to `next` under `seq` and arms its
  // ack timeout (OnHopTimeout).
  void AwaitHopAck(uint64_t seq, std::variant<RouteMsg, JoinRequestMsg> msg,
                   const NodeDescriptor& next, int attempts);
  void OnHopTimeout(uint64_t seq);

  // Join protocol.
  void HandleJoinRequest(NodeAddr from, JoinRequestMsg msg);
  void ForwardJoin(JoinRequestMsg msg, int attempts);
  void HandleJoinRows(const JoinRowsMsg& msg);
  void HandleJoinLeafSet(const JoinLeafSetMsg& msg);
  void HandleJoinNeighborhood(const JoinNeighborhoodMsg& msg);
  void FinalizeJoin();
  void SendJoinRequest();

  // The periodic timers (keep-alive tick, join retry) are scheduled with
  // EventQueue::AtMaintenance. Cancels `*timer` unless it is 0 ("none") and
  // zeroes it.
  void CancelMaintTimer(EventQueue::EventId* timer);

  // Maintenance. Liveness follows MSPastry (Castro, Costa, Rowstron, DSN
  // 2004): once per period a node sends one KeepAlive to its nearest smaller
  // leaf member and watches only its nearest larger one, whose heartbeats
  // come to it. A watched neighbour silent for failure_timeout -
  // keep_alive_period is probed and declared failed if still silent at
  // failure_timeout; the rest of the leaf set hears of it through a
  // FailureNoticeMsg, and leaf-set overlap refills the gap.
  void ScheduleKeepAlive();
  void KeepAliveTick();
  // Drops `failed` from every table and repairs the leaf set around it.
  void HandleNodeFailure(const NodeDescriptor& failed);
  // HandleNodeFailure on this node's own evidence (heartbeat timeout, an
  // unanswered probe or hop). Only the watcher of `failed` announces it, so
  // it does, whichever evidence came first.
  void DeclareFailed(NodeDescriptor failed);
  // A KeepAlive or a LeafSetRequest from `sender`: direct evidence of life.
  // A request is always answered with our leaf set, a KeepAlive only when
  // the sender is not our watched neighbour (it misses nodes between us).
  void HandleLeafContact(const NodeDescriptor& sender, bool request);
  void HandleLeafSetReply(const LeafSetReplyMsg& msg);
  void HandleFailureNotice(const FailureNoticeMsg& msg);
  // Sends a FailureNoticeMsg about `failed` to every leaf member and to
  // `failed` itself.
  void AnnounceFailure(const NodeDescriptor& failed);
  // Forwards a notice about `failed`, which lies between the notifier and
  // this node, to the members beyond the notifier's leaf-set reach that
  // still hold `failed`: with exact views, the one node l/2 places past it.
  void RelayFailure(const NodeDescriptor& failed);
  void SendFailureNotice(NodeAddr to, const NodeDescriptor& failed, bool hearsay);
  // Named in a notice while alive: announces itself to the leaf set and the
  // notifier, at most once per failure_timeout.
  void Reannounce(const NodeDescriptor& notifier);
  void RequestRowRepairs(const std::vector<std::pair<int, int>>& vacated);
  void HandleRepairRequest(const RepairRequestMsg& msg);
  // Re-reads the watched neighbour from the leaf set; a node that has just
  // become it gets a full failure_timeout from now.
  void SyncWatched();
  bool IsWatched(const NodeId& id) const {
    return watched_.node.valid() && watched_.node.id == id;
  }
  bool heartbeats_on() const { return config().keep_alive_period > 0; }

  // Folds a learned descriptor into all three state components (unless the
  // node is under death quarantine). Returns true if the leaf set changed.
  bool Learn(const NodeDescriptor& d);
  // Learn() for a descriptor relayed by another node: with keep-alives on, a
  // member that enters the leaf set this way while the node is active is
  // probed.
  bool LearnSecondHand(const NodeDescriptor& d);
  // Asks `d` for its leaf set; with keep-alives on, `d` is declared failed
  // unless heard from within failure_timeout of the first unanswered probe.
  // A request, not a KeepAlive: a KeepAlive from the node `d` watches goes
  // unanswered, and `d` heartbeats only its own nearest smaller member.
  void Probe(const NodeDescriptor& d);
  // Checks a hearsay failure notice: probes `d` unless a probe is already
  // out, and drops it unless heard from within ack_timeout.
  void VerifyHearsay(const NodeDescriptor& d);
  void SendLeafSetRequest(NodeAddr to);
  // A message from `d` itself: lifts its quarantine, Learn()s it and
  // TouchLiveness()es it. Returns true if the leaf set changed.
  bool HeardFrom(const NodeDescriptor& d);
  // Records direct evidence that `id` is alive.
  void TouchLiveness(const NodeId& id);
  bool IsQuarantined(const NodeId& id);
  void ClearQuarantine(const NodeId& id) { death_list_.erase(id); }

  // Multi-recipient sends (arrival announce, failure notices) encode once and
  // pass the same SharedBytes to every recipient; the network's in-flight
  // closures all share that one buffer.
  void SendWire(NodeAddr to, SharedBytes wire, bool join_traffic,
                bool maintenance);
  template <typename M>
  void SendMsg(NodeAddr to, const M& msg, bool join_traffic = false,
               bool maintenance = false) {
    SendWire(to, SharedBytes(EncodeMessage(msg)), join_traffic, maintenance);
  }

  uint64_t NextSeq();
  const PastryContext::Instruments& obs() const { return ctx_->obs(); }

  PastryContext* ctx_;
  NodeId id_;
  NodeAddr addr_;
  Rng rng_;

  RoutingTable rt_;
  LeafSet leaf_;
  NeighborhoodSet nb_;
  PastryApp* app_ = nullptr;

  bool active_ = false;
  bool joining_ = false;
  bool malicious_ = false;
  uint64_t join_seq_ = 0;
  NodeAddr join_bootstrap_ = kInvalidAddr;
  EventQueue::EventId join_retry_timer_ = 0;
  EventQueue::EventId keep_alive_timer_ = 0;
  uint64_t seq_counter_ = 0;

  std::unordered_map<uint64_t, PendingAck> pending_acks_;  // by message seq
  // The nearest larger leaf member, whose heartbeats this node receives: the
  // time it was last heard from or became the watched neighbour, whichever
  // is later, and whether a suspicion probe is out since.
  struct Watched {
    NodeDescriptor node;  // invalid when the larger side is empty
    SimTime heard = 0;
    bool suspected = false;
  };
  Watched watched_;
  // Probed leaf members (second-hand arrivals, repair targets, leaf-set
  // edges, hearsay) not heard from since. A member under hearsay
  // verification is left out of leaf-set replies: every node that declared
  // it dead would answer with another notice.
  struct PendingProbe {
    NodeDescriptor node;
    SimTime deadline = 0;  // dropped as silent after this
    bool hearsay = false;
  };
  std::vector<PendingProbe> probes_;
  // A notice naming this node is answered with a re-announcement only from
  // this time on.
  SimTime reannounce_after_ = 0;
  // When to re-ask both leaf-set edges after losing a member (0 = not due).
  SimTime leaf_recheck_at_ = 0;
  // Recently failed nodes: id -> time of death declaration.
  std::unordered_map<U128, SimTime, U128Hash> death_list_;
};

}  // namespace past

